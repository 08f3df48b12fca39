"""Localization/segmentation metric oracles and mask-to-image extraction."""

import os
import subprocess
import sys

import numpy as np
import pytest

from pronext import explain
from pronext import model as M
from pronext.errors import InputError


def result_from_map(score_map, tau=0.5):
    return explain.LocalizationResult(score_map=score_map,
                                      bbox=explain.map_to_bbox(score_map, tau))


def rect_map(H, W, y0, y1, x0, x1, value=1.0):
    m = np.zeros((H, W))
    m[y0:y1, x0:x1] = value
    return m


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
        assert explain.box_iou(a, b) == pytest.approx(expected)
        assert explain.box_iou(b, a) == pytest.approx(expected)


class TestMapToBbox:
    def test_rectangle_recovered_exactly(self):
        m = rect_map(10, 12, 2, 7, 3, 9)
        assert explain.map_to_bbox(m, 0.5) == (3, 2, 9, 7)

    def test_all_zero_full_image_fallback(self):
        assert explain.map_to_bbox(np.zeros((6, 8)), 0.3) == (0, 0, 8, 6)

    def test_largest_component_wins(self):
        m = rect_map(10, 10, 0, 1, 0, 5)            # area 5
        m[4:7, 4:7] = 1.0                           # area 9
        assert explain.map_to_bbox(m, 0.5) == (4, 4, 7, 7)

    def test_diagonal_is_not_connected(self):
        m = np.zeros((4, 4))
        m[0, 0] = m[1, 1] = m[2, 2] = 1.0           # 4-connectivity: 3 components
        box = explain.map_to_bbox(m, 0.5)
        assert box in {(0, 0, 1, 1), (1, 1, 2, 2), (2, 2, 3, 3)}
        assert box == (0, 0, 1, 1)                  # first in scan order on ties

    def test_monotone_rescale_invariance(self):
        rng = np.random.default_rng(0)
        m = rng.random((16, 16))
        tau = 0.4
        base = explain.map_to_bbox(m, tau)
        # strictly monotone affine rescale of map and threshold together
        scaled = 0.5 * m + 0.2
        assert explain.map_to_bbox(scaled, 0.5 * tau + 0.2) == base

    def test_tau_bounds(self):
        with pytest.raises(InputError):
            explain.map_to_bbox(np.zeros((4, 4)), 0.0)
        with pytest.raises(InputError):
            explain.map_to_bbox(np.zeros((4, 4)), 1.0)


class TestLocMetrics:
    def make_aligned(self, n=4, H=16):
        results, gts = [], []
        for i in range(n):
            m = rect_map(H, H, 2, 9, 3, 10)
            results.append(result_from_map(m))
            gts.append((3, 2, 10, 9))
        return results, gts

    def test_perfect_predictions(self):
        results, gts = self.make_aligned()
        scores = np.eye(4)
        metrics = explain.loc_metrics(results, gts, scores, np.arange(4))
        assert metrics == {"gt_known": 1.0, "top1_loc": 1.0, "top5_loc": 1.0,
                           "max_box_acc_v1": 1.0, "max_box_acc_v2": 1.0}

    def test_wrong_classes_perfect_boxes(self):
        results, gts = self.make_aligned()
        scores = np.eye(4)[[1, 2, 3, 0]]            # every top-1 wrong
        metrics = explain.loc_metrics(results, gts, scores, np.arange(4))
        assert metrics["gt_known"] == 1.0
        assert metrics["top1_loc"] == 0.0

    def test_top5_includes_lower_ranks(self):
        results, gts = self.make_aligned()
        scores = np.zeros((4, 6))
        scores[:, 0] = 5.0                          # top-1 always class 0
        scores[np.arange(4), np.arange(4) + 1] = 4.0
        metrics = explain.loc_metrics(results, gts, scores, np.arange(1, 5))
        assert metrics["top1_loc"] == 0.0
        assert metrics["top5_loc"] == 1.0

    def test_small_iou_counts_as_miss(self):
        # unit-cell boxes (0,0,2,2) vs (1,1,3,3): IoU = 1/7 < 0.5
        m = rect_map(8, 8, 0, 2, 0, 2)
        res = [result_from_map(m)]
        metrics = explain.loc_metrics(res, [(1, 1, 3, 3)], np.eye(2)[:1], [0])
        assert metrics["gt_known"] == 0.0

    def test_v1_sweep_recovers_threshold_sensitive_box(self):
        # graded map: correct box only appears at high thresholds
        m = np.zeros((12, 12))
        m[2:8, 2:8] = 0.6
        m[0:12, 0:2] = 0.25                        # low-value distractor strip
        res = [explain.LocalizationResult(score_map=m, bbox=(0, 0, 12, 12))]
        metrics = explain.loc_metrics(res, [(2, 2, 8, 8)], np.eye(2)[:1], [0])
        assert metrics["gt_known"] == 0.0           # stored box is the full image
        assert metrics["max_box_acc_v1"] == 1.0     # some tau isolates the square

    def test_v2_averages_iou_levels(self):
        # box with IoU ~ 0.39 vs gt: hits delta=0.3, misses 0.5 and 0.7
        m = rect_map(16, 16, 0, 8, 0, 8)
        res = [result_from_map(m)]
        gt = [(2, 2, 10, 10)]
        metrics = explain.loc_metrics(res, gt, np.eye(2)[:1], [0])
        iou = explain.box_iou((0, 0, 8, 8), gt[0])
        assert 0.3 <= iou < 0.5
        assert metrics["max_box_acc_v2"] == pytest.approx(1.0 / 3.0)

    def test_v1_at_least_gt_known_for_default_tau(self):
        rng = np.random.default_rng(1)
        results, gts = [], []
        for _ in range(12):
            m = rng.random((16, 16))
            results.append(result_from_map(m, tau=0.5))
            x0, y0 = rng.integers(0, 8, 2)
            gts.append((int(x0), int(y0), int(x0) + 8, int(y0) + 8))
        scores = rng.random((12, 3))
        metrics = explain.loc_metrics(results, gts, scores, rng.integers(0, 3, 12))
        assert metrics["max_box_acc_v1"] >= metrics["gt_known"] - 1e-12

    def test_length_mismatch(self):
        res = [result_from_map(rect_map(4, 4, 0, 2, 0, 2))]
        with pytest.raises(InputError):
            explain.loc_metrics(res, [(0, 0, 2, 2), (0, 0, 2, 2)], np.eye(2)[:1], [0])


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
        for a, b, iou, dice in self.cases():
            got = explain.seg_metrics(a, b)
            assert got["iou"] == pytest.approx(iou)
            assert got["dice"] == pytest.approx(dice)

    def test_dice_iou_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            a = (rng.random((8, 8)) > 0.5).astype(int)
            b = (rng.random((8, 8)) > 0.5).astype(int)
            got = explain.seg_metrics(a, b)
            assert got["dice"] == pytest.approx(2 * got["iou"] / (1 + got["iou"]))
            assert got["dice"] >= got["iou"]

    def test_non_binary_rejected(self):
        with pytest.raises(InputError):
            explain.seg_metrics(np.full((2, 2), 0.5), np.zeros((2, 2)))


class TestMaskToImage:
    def setup_method(self):
        self.cfg = M.ModelConfig(input_size=32, stem_channels=8, patch_size=4,
                                 embed_dim=64, ca_layers=1, ca_heads=4).validate()

    def fake_mask(self, probs):
        from pronext import parsers, autodiff as ad
        probs = probs[None].astype(np.float32)
        binary = (probs > 0.5).astype(np.float32)
        return parsers.PatchMask(probs=probs, binary=binary, mask=ad.Tensor(binary))

    def test_uniform_probs_paint_uniformly(self):
        m = self.fake_mask(np.full((8, 8), 0.7))
        out = explain.mask_to_image(m, 1, self.cfg)
        assert out.shape == (32, 32)
        np.testing.assert_allclose(out, 0.7, atol=1e-6)

    def test_single_patch_spreads_half_a_footprint(self):
        # footprint 4: pixel centers up to half a patch from the patch center
        # hold its full value, the interpolation reaches half a patch past its
        # square, and beyond that the map is zero
        probs = np.zeros((8, 8))
        probs[0, 0] = 1.0
        out = explain.mask_to_image(self.fake_mask(probs), 1, self.cfg)
        assert out[:2, :2].min() == 1.0
        np.testing.assert_allclose(out[0, :7], [1, 1, 0.875, 0.625, 0.375, 0.125, 0])
        assert out[6:, :].max() == 0.0 and out[:, 6:].max() == 0.0

    def test_footprint_doubles_per_stage(self):
        assert explain.stage_footprint(self.cfg, 1) == 4
        assert explain.stage_footprint(self.cfg, 2) == 8
        assert explain.stage_footprint(self.cfg, 3) == 16
        for stage, P in ((1, 8), (2, 4), (3, 2)):
            m = self.fake_mask(np.full((P, P), 0.5))
            out = explain.mask_to_image(m, stage, self.cfg)
            assert out.shape == (32, 32)

    def test_stage_bounds(self):
        m = self.fake_mask(np.full((8, 8), 0.5))
        with pytest.raises(InputError):
            explain.mask_to_image(m, 4, self.cfg)

    def test_values_clipped(self):
        probs = np.full((8, 8), 0.999)
        out = explain.mask_to_image(self.fake_mask(probs), 1, self.cfg)
        assert out.max() <= 1.0 and out.min() >= 0.0


class TestModelExtraction:
    def test_localize_and_segment_shapes(self):
        cfg = M.ModelConfig(input_size=32, stem_channels=4, patch_size=4,
                            embed_dim=16, ca_layers=1, ca_heads=2,
                            num_classes=4).validate()
        model = M.ProNextModel(cfg, seed=0)
        rng = np.random.default_rng(3)
        images = rng.random((3, 32, 32, 3)).astype(np.float32)
        pred = explain.predict(model, images)
        results = explain.localize_batch(pred, cfg, stage=1)
        assert len(results) == 3 and pred.logits.shape == (3, 4)
        for r in results:
            assert r.score_map.shape == (32, 32)
            x0, y0, x1, y1 = r.bbox
            assert 0 <= x0 < x1 <= 32 and 0 <= y0 < y1 <= 32
        outer, inner = explain.segment_structures(pred, cfg)
        assert outer.shape == (3, 32, 32) and inner.shape == (3, 32, 32)
        assert not (inner & ~outer).any()           # containment enforced

    def test_deterministic_rerun(self):
        cfg = M.ModelConfig(input_size=32, stem_channels=4, patch_size=4,
                            embed_dim=16, ca_layers=1, ca_heads=2).validate()
        model = M.ProNextModel(cfg, seed=1)
        images = np.random.default_rng(4).random((2, 32, 32, 3)).astype(np.float32)
        a = explain.localize_batch(explain.predict(model, images), cfg)
        b = explain.localize_batch(explain.predict(model, images), cfg)
        for ra, rb in zip(a, b):
            assert ra.bbox == rb.bbox
            assert ra.score_map.tobytes() == rb.score_map.tobytes()


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
