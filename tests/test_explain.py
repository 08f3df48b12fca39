"""Localization/segmentation metric oracles and probability-grid extraction."""

import os
import subprocess
import sys

import numpy as np
import pytest

from pronext import autodiff as ad
from pronext import data, explain
from pronext import model as M
from pronext import train as T
from pronext.errors import InputError


def rect_map(H, W, y0, y1, x0, x1, value=1.0):
    m = np.zeros((H, W))
    m[y0:y1, x0:x1] = value
    return m


# per-map reference formulation: the oracle that `boxes` and `box_ious` must
# match exactly


def map_to_bbox(score_map, tau):
    """Threshold, keep the largest 4-connected component (ties to the lowest
    label, first in scan order), return its tight box; an empty thresholded
    map falls back to the full image."""
    from scipy import ndimage
    H, W = score_map.shape
    hot = score_map > tau
    if not hot.any():
        return (0, 0, W, H)
    labels, _ = ndimage.label(hot, structure=explain.FOUR_CONNECTED)
    sizes = np.bincount(labels.reshape(-1))
    sizes[0] = 0
    ys, xs = np.nonzero(labels == int(np.argmax(sizes)))
    return (int(xs.min()), int(ys.min()), int(xs.max()) + 1, int(ys.max()) + 1)


def box_iou(a, b):
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    iw = max(0, min(ax1, bx1) - max(ax0, bx0))
    ih = max(0, min(ay1, by1) - max(ay0, by0))
    inter = iw * ih
    union = (ax1 - ax0) * (ay1 - ay0) + (bx1 - bx0) * (by1 - by0) - inter
    return inter / union if union else 0.0


class TestBatchedBoxesMatchOracle:
    @pytest.mark.parametrize("P,size", [(8, 32), (4, 32), (2, 32), (8, 64)])
    def test_bit_identical_to_per_map_path(self, P, size):
        rng = np.random.default_rng(P * size)
        maps = explain.score_maps(rng.random((24, P, P)), size)
        x0, y0 = rng.integers(0, size // 2, (2, 24))
        x1, y1 = x0 + rng.integers(1, size // 2, (2, 24))
        gt = np.stack([x0, y0, x1, y1], axis=1)
        for tau in (*explain.V1_THRESHOLDS, 0.5):
            got = explain.boxes(maps, tau)
            want = [map_to_bbox(m, tau) for m in maps]
            assert got.shape == (24, 4) and got.tolist() == [list(b) for b in want]
            ious = explain.box_ious(got, gt)
            assert ious.tolist() == [box_iou(b, g) for b, g in zip(want, gt.tolist())]


class TestBoxIoU:
    # ten constructed cases with hand-computed values
    CASES = [
        ((0, 0, 2, 2), (0, 0, 2, 2), 1.0),
        ((0, 0, 2, 2), (1, 1, 3, 3), 1.0 / 7.0),
        ((0, 0, 1, 1), (2, 2, 3, 3), 0.0),
        ((0, 0, 4, 4), (1, 1, 3, 3), 4.0 / 16.0),
        ((0, 0, 4, 2), (2, 0, 6, 2), 4.0 / 12.0),
        ((5, 5, 10, 10), (5, 5, 10, 10), 1.0),
        ((0, 0, 10, 10), (0, 0, 10, 5), 0.5),
        ((0, 0, 3, 3), (3, 3, 6, 6), 0.0),
        ((1, 1, 5, 5), (3, 1, 7, 5), 8.0 / 24.0),
        ((0, 0, 6, 6), (2, 2, 4, 4), 4.0 / 36.0),
    ]

    @pytest.mark.parametrize("a,b,expected", CASES)
    def test_hand_cases(self, a, b, expected):
        got = explain.box_ious(np.array([a, b]), np.array([b, a]))
        assert got == pytest.approx([expected, expected])

    def test_all_cases_in_one_stack(self):
        a, b, expected = (np.array(col) for col in zip(*self.CASES))
        assert explain.box_ious(a, b) == pytest.approx(expected)

    def test_zero_union_gives_zero(self):
        empty = np.array([(2, 2, 2, 2), (0, 0, 2, 2)])
        assert explain.box_ious(empty, empty).tolist() == [0.0, 1.0]


class TestMapToBbox:
    """`boxes`: each case of the per-map box it replaced, as a stack."""

    def test_rectangle_recovered_exactly(self):
        maps = np.stack([rect_map(10, 12, 2, 7, 3, 9), rect_map(10, 12, 0, 10, 11, 12)])
        assert explain.boxes(maps, 0.5).tolist() == [[3, 2, 9, 7], [11, 0, 12, 10]]

    def test_all_zero_full_image_fallback(self):
        # an empty sample falls back whatever its neighbours hold
        maps = np.stack([np.zeros((6, 8)), rect_map(6, 8, 1, 2, 1, 2), np.zeros((6, 8))])
        assert explain.boxes(maps, 0.3).tolist() == [[0, 0, 8, 6], [1, 1, 2, 2], [0, 0, 8, 6]]

    def test_largest_component_wins(self):
        m = rect_map(10, 10, 0, 1, 0, 5)            # area 5
        m[4:7, 4:7] = 1.0                           # area 9
        flipped = m[::-1, ::-1]                     # the larger one first in scan order
        assert explain.boxes(np.stack([m, flipped]), 0.5).tolist() == [[4, 4, 7, 7],
                                                                        [3, 3, 6, 6]]

    def test_diagonal_is_not_connected(self):
        m = np.zeros((4, 4))
        m[0, 0] = m[1, 1] = m[2, 2] = 1.0           # 4-connectivity: 3 components
        anti = m[:, ::-1]
        # first in scan order on ties
        assert explain.boxes(np.stack([m, anti]), 0.5).tolist() == [[0, 0, 1, 1],
                                                                     [3, 0, 4, 1]]

    def test_monotone_rescale_invariance(self):
        rng = np.random.default_rng(0)
        maps = rng.random((8, 16, 16))
        tau = 0.4
        base = explain.boxes(maps, tau)
        # strictly monotone affine rescale of maps and threshold together
        scaled = 0.5 * maps + 0.2
        assert (explain.boxes(scaled, 0.5 * tau + 0.2) == base).all()

    def test_tau_bounds(self):
        with pytest.raises(InputError):
            explain.boxes(np.zeros((2, 4, 4)), 0.0)
        with pytest.raises(InputError):
            explain.boxes(np.zeros((2, 4, 4)), 1.0)


def loc_metrics(maps, gt_boxes, class_scores, gt_classes, tau):
    return explain.loc_metrics(maps, explain.boxes(maps, tau), gt_boxes, class_scores,
                               gt_classes, tau)


class TestLocMetrics:
    def make_aligned(self, n=4, H=16):
        maps = np.stack([rect_map(H, H, 2, 9, 3, 10)] * n)
        return maps, np.array([(3, 2, 10, 9)] * n)

    def test_perfect_predictions(self):
        maps, gts = self.make_aligned()
        scores = np.eye(4)
        metrics = loc_metrics(maps, gts, scores, np.arange(4), 0.5)
        assert metrics == {"gt_known": 1.0, "top1_loc": 1.0, "top5_loc": 1.0,
                           "max_box_acc_v1": 1.0, "max_box_acc_v2": 1.0}

    def test_wrong_classes_perfect_boxes(self):
        maps, gts = self.make_aligned()
        scores = np.eye(4)[[1, 2, 3, 0]]            # every top-1 wrong
        metrics = loc_metrics(maps, gts, scores, np.arange(4), 0.5)
        assert metrics["gt_known"] == 1.0
        assert metrics["top1_loc"] == 0.0

    def test_top5_includes_lower_ranks(self):
        maps, gts = self.make_aligned()
        scores = np.zeros((4, 6))
        scores[:, 0] = 5.0                          # top-1 always class 0
        scores[np.arange(4), np.arange(4) + 1] = 4.0
        metrics = loc_metrics(maps, gts, scores, np.arange(1, 5), 0.5)
        assert metrics["top1_loc"] == 0.0
        assert metrics["top5_loc"] == 1.0

    def test_small_iou_counts_as_miss(self):
        # unit-cell boxes (0,0,2,2) vs (1,1,3,3): IoU = 1/7 < 0.5
        maps = rect_map(8, 8, 0, 2, 0, 2)[None]
        metrics = loc_metrics(maps, np.array([(1, 1, 3, 3)]), np.eye(2)[:1], [0], 0.5)
        assert metrics["gt_known"] == 0.0

    def test_v1_sweep_recovers_threshold_sensitive_box(self):
        # graded map: correct box only appears at high thresholds
        m = np.zeros((12, 12))
        m[2:8, 2:8] = 0.6
        m[0:12, 0:2] = 0.25                        # low-value distractor strip
        metrics = loc_metrics(m[None], np.array([(2, 2, 8, 8)]), np.eye(2)[:1],
                                      [0], 0.2)
        assert metrics["gt_known"] == 0.0           # tau 0.2 joins square and strip
        assert metrics["max_box_acc_v1"] == 1.0     # some tau isolates the square

    def test_v2_averages_iou_levels(self):
        # box with IoU ~ 0.39 vs gt: hits delta=0.3, misses 0.5 and 0.7
        maps = rect_map(16, 16, 0, 8, 0, 8)[None]
        gt = np.array([(2, 2, 10, 10)])
        metrics = loc_metrics(maps, gt, np.eye(2)[:1], [0], 0.5)
        iou = explain.box_ious(np.array([(0, 0, 8, 8)]), gt)[0]
        assert 0.3 <= iou < 0.5
        assert metrics["max_box_acc_v2"] == pytest.approx(1.0 / 3.0)

    def test_v1_at_least_gt_known_for_default_tau(self):
        rng = np.random.default_rng(1)
        maps = rng.random((12, 16, 16))
        gts = []
        for _ in range(12):
            x0, y0 = rng.integers(0, 8, 2)
            gts.append((int(x0), int(y0), int(x0) + 8, int(y0) + 8))
        scores = rng.random((12, 3))
        metrics = loc_metrics(maps, np.array(gts), scores, rng.integers(0, 3, 12), 0.5)
        assert metrics["max_box_acc_v1"] >= metrics["gt_known"] - 1e-12

    @pytest.mark.parametrize("tau", [0.5, 0.33])
    def test_labels_each_sweep_threshold_once(self, monkeypatch, tau):
        # the caller's tau boxes stand in for the sweep's when tau is one of
        # its thresholds
        maps, gts = self.make_aligned()
        tau_boxes = explain.boxes(maps, tau)
        seen, real = [], explain.boxes
        monkeypatch.setattr(explain, "boxes", lambda m, t: seen.append(float(t)) or real(m, t))
        metrics = explain.loc_metrics(maps, tau_boxes, gts, np.eye(4), np.arange(4), tau)
        assert sorted(seen) == sorted(set(explain.V1_THRESHOLDS.tolist()) - {tau})
        assert metrics == loc_metrics(maps, gts, np.eye(4), np.arange(4), tau)

    def test_length_mismatch(self):
        maps = rect_map(4, 4, 0, 2, 0, 2)[None]
        with pytest.raises(InputError):
            loc_metrics(maps, np.array([(0, 0, 2, 2)] * 2), np.eye(2)[:1], [0], 0.5)


class TestSegMetrics:
    # ten constructed cases with counting-oracle values: (A, B, iou, dice)
    def cases(self):
        full = np.ones((4, 4), int)
        empty = np.zeros((4, 4), int)
        half = np.zeros((4, 4), int); half[:2] = 1
        quarter = np.zeros((4, 4), int); quarter[:2, :2] = 1
        shifted = np.zeros((4, 4), int); shifted[1:3, :2] = 1
        corner = np.zeros((4, 4), int); corner[0, 0] = 1
        other_corner = np.zeros((4, 4), int); other_corner[3, 3] = 1
        row = np.zeros((4, 4), int); row[0] = 1
        col = np.zeros((4, 4), int); col[:, 0] = 1
        return [
            (full, full, 1.0, 1.0),
            (empty, empty, 1.0, 1.0),
            (full, empty, 0.0, 0.0),
            (half, full, 0.5, 2 / 3),
            (quarter, half, 0.5, 2 / 3),            # quarter inside half: 4/8
            (quarter, shifted, 2 / 6, 0.5),          # |A|=|B|=4, inter=2
            (corner, other_corner, 0.0, 0.0),
            (row, col, 1 / 7, 0.25),
            (half, half, 1.0, 1.0),
            (full, quarter, 0.25, 0.4),
        ]

    def test_counting_oracles(self):
        a, b, iou, dice = (np.array(col) for col in zip(*self.cases()))
        got = explain.seg_metrics(a, b)
        assert got["iou"] == pytest.approx(iou)
        assert got["dice"] == pytest.approx(dice)

    def test_dice_iou_identity(self):
        rng = np.random.default_rng(2)
        a = (rng.random((50, 8, 8)) > 0.5).astype(int)
        b = (rng.random((50, 8, 8)) > 0.5).astype(int)
        got = explain.seg_metrics(a, b)
        assert got["dice"] == pytest.approx(2 * got["iou"] / (1 + got["iou"]))
        assert (got["dice"] >= got["iou"]).all()

    def test_non_binary_rejected(self):
        with pytest.raises(InputError, match="binary"):
            explain.seg_metrics(np.full((3, 2, 2), 0.5), np.zeros((3, 2, 2)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InputError, match="shape"):
            explain.seg_metrics(np.zeros((3, 2, 2)), np.zeros((2, 2, 2)))


class TestMaskToImage:
    """`score_maps`: patch-probability grids onto the 32 px image plane."""

    def test_uniform_probs_paint_uniformly(self):
        out = explain.score_maps(np.full((2, 8, 8), 0.7), 32)
        assert out.shape == (2, 32, 32)
        np.testing.assert_allclose(out, 0.7, atol=1e-6)

    def test_single_patch_spreads_half_a_footprint(self):
        # footprint 4: pixel centers up to half a patch from the patch center
        # hold its full value, the interpolation reaches half a patch past its
        # square, and beyond that the map is zero
        probs = np.zeros((1, 8, 8))
        probs[0, 0, 0] = 1.0
        out = explain.score_maps(probs, 32)[0]
        assert out[:2, :2].min() == 1.0
        np.testing.assert_allclose(out[0, :7], [1, 1, 0.875, 0.625, 0.375, 0.125, 0])
        assert out[6:, :].max() == 0.0 and out[:, 6:].max() == 0.0

    def test_footprint_doubles_per_stage(self):
        # the stage grids 8, 4, 2 of a 32 px image: a hot corner patch holds
        # its full value over the first half of its S / P footprint
        for P, foot in ((8, 4), (4, 8), (2, 16)):
            probs = np.zeros((1, P, P))
            probs[0, 0, 0] = 1.0
            out = explain.score_maps(probs, 32)[0]
            assert out.shape == (32, 32)
            assert out[0, foot // 2 - 1] == 1.0 and out[0, foot // 2] < 1.0

    def test_grid_must_tile_the_image(self):
        with pytest.raises(InputError, match="does not tile"):
            explain.score_maps(np.full((1, 3, 3), 0.5), 32)
        with pytest.raises(InputError, match="does not tile"):
            explain.score_maps(np.full((1, 64, 64), 0.5), 32)

    def test_values_clipped(self):
        out = explain.score_maps(np.full((1, 8, 8), 0.999), 32)
        assert out.max() <= 1.0 and out.min() >= 0.0


class TestLargestComponents:
    def test_one_component_per_sample(self):
        # the same pixel hot in every sample is one component per sample;
        # an all-False sample stays empty
        hot = np.zeros((4, 4, 4), dtype=bool)
        hot[:3, 1, 1] = True
        hot[1, 2:, 2:] = True                       # sample 1 has a larger one
        got = explain.largest_components(hot)
        assert got.dtype == np.uint8 and got.shape == hot.shape
        assert got[0].sum() == got[2].sum() == 1 and got[1].sum() == 4
        assert got[1, 1, 1] == 0 and not got[3].any()

    def test_ties_go_to_first_in_scan_order(self):
        hot = np.zeros((2, 4, 4), dtype=bool)
        hot[:, 0, 3] = hot[:, 3, 0] = True
        got = explain.largest_components(hot)
        assert got[:, 0, 3].all() and not got[:, 3, 0].any()


class TestModelExtraction:
    def test_localize_and_segment_shapes(self):
        cfg = M.ModelConfig(input_size=32, stem_channels=4, patch_size=4,
                            embed_dim=16, ca_layers=1, ca_heads=2,
                            num_classes=4).validate()
        model = M.ProNextModel(cfg, seed=0)
        rng = np.random.default_rng(3)
        images = rng.random((3, 32, 32, 3)).astype(np.float32)
        logits, probs, binaries = explain.stage_grids(model, images)
        assert logits.shape == (3, 4)
        assert [p.shape for p in probs] == [b.shape for b in binaries] == [
            (3, 8, 8), (3, 4, 4), (3, 2, 2)]
        for p in probs:
            maps = explain.score_maps(p, 32)
            assert maps.shape == (3, 32, 32)
            x0, y0, x1, y1 = explain.boxes(maps, 0.5).T
            assert ((0 <= x0) & (x0 < x1) & (x1 <= 32) & (0 <= y0) & (y0 < y1)
                    & (y1 <= 32)).all()
            seg = explain.largest_components(maps > 0.5)
            assert seg.shape == (3, 32, 32) and set(np.unique(seg)) <= {0, 1}

    def test_deterministic_rerun(self):
        cfg = M.ModelConfig(input_size=32, stem_channels=4, patch_size=4,
                            embed_dim=16, ca_layers=1, ca_heads=2).validate()
        model = M.ProNextModel(cfg, seed=1)
        images = np.random.default_rng(4).random((2, 32, 32, 3)).astype(np.float32)
        a, b = (explain.score_maps(explain.stage_grids(model, images)[1][0], 32)
                for _ in range(2))
        assert a.tobytes() == b.tobytes()


METRICS_CSV_COLUMNS = ["gt_known", "top1_loc", "top5_loc", "max_box_acc_v1",
                       "max_box_acc_v2", "iou", "dice"]
# a 2-step spatial-attention checkpoint on 16 px `interaction` images
FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "parent_step2.ckpt")


def centred_gaussian_grids(n, P, sigma=0.3):
    """The centre prior: one isotropic Gaussian over the image centre."""
    c = (np.arange(P) + 0.5) / P - 0.5
    return np.broadcast_to(np.exp(-(c[:, None] ** 2 + c ** 2) / (2 * sigma ** 2)), (n, P, P))


class TestExplainPath:
    """`explain.explain` is the one path from grids to the metrics row."""

    def check_against_the_parts(self, probs, seg_probs, class_scores, ds, tau):
        metrics, maps, tau_boxes, peaks = explain.explain(probs, seg_probs, class_scores,
                                                          ds, tau)
        assert list(metrics) == METRICS_CSV_COLUMNS
        want_maps = explain.score_maps(probs, ds.image_size)
        assert maps.tobytes() == want_maps.tobytes()
        assert tau_boxes.tolist() == explain.boxes(want_maps, tau).tolist()
        seg = explain.seg_metrics(explain.largest_components(
            explain.score_maps(seg_probs, ds.image_size) > tau), ds.masks)
        assert metrics == {**explain.loc_metrics(want_maps, tau_boxes, ds.boxes, class_scores,
                                                 ds.labels, tau),
                           "iou": seg["iou"].mean(), "dice": seg["dice"].mean()}
        assert peaks.tolist() == [m[y0:y1, x0:x1].max()
                                  for m, (x0, y0, x1, y1) in zip(maps, tau_boxes)]
        return metrics

    def test_centred_gaussian_baseline(self):
        ds = data.generate("structure", 12, np.random.default_rng(11), image_size=32)
        scores = np.random.default_rng(12).random((len(ds), 2))
        metrics = self.check_against_the_parts(centred_gaussian_grids(len(ds), 8),
                                               centred_gaussian_grids(len(ds), 4),
                                               scores, ds, 0.5)
        assert all(0.0 <= v <= 1.0 for v in metrics.values())

    def test_shuffled_trained_probabilities(self):
        ds = data.generate("interaction", 24, np.random.default_rng(6), image_size=16)
        logits, probs, _ = explain.stage_grids(T.load_model_from_checkpoint(FIXTURE),
                                               ds.images)
        perm = np.random.default_rng(13).permutation(len(ds))
        for tau in (0.3, 0.5):
            self.check_against_the_parts(probs[0][perm], probs[1][perm], logits, ds, tau)

    def test_stage_grids_concatenates_its_batches(self, monkeypatch):
        model = T.load_model_from_checkpoint(FIXTURE)
        images = np.random.default_rng(14).random((12, 16, 16, 3))
        monkeypatch.setattr(explain, "BATCH", 5)
        logits, probs, binaries = explain.stage_grids(model, images)
        with ad.no_grad():
            preds = [model.forward(images[s:s + 5].astype(np.float32)) for s in (0, 5, 10)]
        assert logits.tobytes() == np.concatenate([p.logits.data for p in preds]).tobytes()
        for l, (p, b) in enumerate(zip(probs, binaries)):
            assert p.tobytes() == np.concatenate([q.stage_masks[l].probs for q in preds]).tobytes()
            assert b.tobytes() == np.concatenate([q.stage_masks[l].binary for q in preds]).tobytes()


class TestExports:
    def test_score_map_pgm(self, tmp_path):
        from pronext.netpbm import read_pgm_p5
        score = np.linspace(0, 1, 64).reshape(8, 8)
        path = tmp_path / "score.pgm"
        explain.write_score_map(path, score)
        loaded = read_pgm_p5(path)
        np.testing.assert_array_equal(loaded, np.round(score * 255).astype(np.uint8))

    def test_boxes_csv(self, tmp_path):
        path = tmp_path / "boxes.csv"
        explain.write_boxes_csv(path, [("img_0", (1, 2, 3, 4), 0.5),
                                       ("img_1", (0, 0, 8, 8), 1.0)])
        lines = path.read_text().splitlines()
        assert lines[0] == "img_0,1,2,3,4,0.500000"
        assert lines[1] == "img_1,0,0,8,8,1.000000"

    def test_stage_masks_pgm_p2_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        masks = [rng.integers(0, 2, size=(4, 4)) for _ in range(3)]
        paths = explain.export_stage_masks(masks, str(tmp_path))
        assert all(p.endswith(f"mask_stage{i}.pgm") for i, p in enumerate(paths, 1))
        for mask, path in zip(masks, paths):
            tokens = open(path, encoding="ascii").read().split()
            assert tokens[:4] == ["P2", "4", "4", "1"]
            np.testing.assert_array_equal(np.array(tokens[4:], dtype=np.int64).reshape(4, 4),
                                          mask)


def test_cli_import_leaves_ndimage_unloaded():
    # only mask extraction labels components; train, eval and ablate never do
    import pronext
    src = os.path.dirname(os.path.dirname(os.path.abspath(pronext.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    code = "import sys, pronext.cli; print('scipy.ndimage' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
