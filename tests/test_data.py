"""Synthetic task generators, negative controls, and dataset directory I/O.

The label rules and the negative controls below are test oracles; the
generators label inline and never call them.
"""

import re

import numpy as np
import pytest

from pronext import data, netpbm
from pronext.errors import ConfigError, DataError, ParseError


def detail_label_rule(cue):
    return cue["glyph"]


def structure_label_rule(cue):
    return int(cue["ratio_milli"] / 1000.0 > data.VERTICAL_RATIO_THRESHOLD)


def interaction_label_rule(cue):
    return 2 * cue["texture"] + cue["palette"]


def channel_mean_classifier(train_ds, test_ds):
    """Nearest-centroid on per-image channel means: no spatial detail at all."""
    feats = train_ds.images.mean(axis=(1, 2))
    centroids = np.stack([feats[train_ds.labels == c].mean(axis=0)
                          for c in range(train_ds.num_classes)])
    test_feats = test_ds.images.mean(axis=(1, 2))
    d = ((test_feats[:, None, :] - centroids[None]) ** 2).sum(axis=2)
    return float(np.mean(np.argmin(d, axis=1) == test_ds.labels))


def factor_ceiling(ds, factor_key):
    """Best possible accuracy for a classifier that observes one generative
    factor perfectly and nothing else (computed from the joint cue table)."""
    values = sorted({cue[factor_key] for cue in ds.cues})
    total = 0
    for v in values:
        idx = [i for i, cue in enumerate(ds.cues) if cue[factor_key] == v]
        counts = np.bincount(ds.labels[idx], minlength=ds.num_classes)
        total += counts.max()
    return total / len(ds)


@pytest.fixture(scope="module")
def detail_ds():
    return data.generate("detail", 40, np.random.default_rng(0), num_classes=8)


@pytest.fixture(scope="module")
def structure_ds():
    return data.generate("structure", 40, np.random.default_rng(1))


@pytest.fixture(scope="module")
def interaction_ds():
    return data.generate("interaction", 60, np.random.default_rng(2))


class TestDetailTask:
    def test_label_determined_by_glyph(self, detail_ds):
        for cue, label in zip(detail_ds.cues, detail_ds.labels):
            assert detail_label_rule(cue) == label

    def test_glyph_inside_mask(self, detail_ds):
        for i in range(len(detail_ds)):
            gy, gx = detail_ds.cues[i]["gy"], detail_ds.cues[i]["gx"]
            assert detail_ds.masks[i, gy - 1:gy + 2, gx - 1:gx + 2].all()

    def test_masks_nonempty_and_boxes_match(self, detail_ds):
        for i in range(len(detail_ds)):
            assert detail_ds.masks[i].sum() > 0
            x0, y0, x1, y1 = detail_ds.boxes[i]
            assert 0 <= x0 < x1 <= detail_ds.image_size
            assert 0 <= y0 < y1 <= detail_ds.image_size
            ys, xs = np.nonzero(detail_ds.masks[i])
            assert (xs.min(), ys.min(), xs.max() + 1, ys.max() + 1) == (x0, y0, x1, y1)

    def test_channel_mean_classifier_near_chance(self):
        rng = np.random.default_rng(3)
        train = data.generate("detail", 160, rng)
        test = data.generate("detail", 160, rng)
        acc = channel_mean_classifier(train, test)
        assert acc < 1.0 / 8 + 0.12  # no spatial detail -> about chance


class TestStructureTask:
    def test_label_rule_threshold(self, structure_ds):
        for cue, label in zip(structure_ds.cues, structure_ds.labels):
            assert structure_label_rule(cue) == label
            ratio = cue["ratio_milli"] / 1000.0
            assert label == int(ratio > 0.6)

    def test_both_labels_present(self, structure_ds):
        assert set(np.unique(structure_ds.labels)) == {0, 1}


class TestInteractionTask:
    def test_label_is_factor_pairing(self, interaction_ds):
        for cue, label in zip(interaction_ds.cues, interaction_ds.labels):
            assert interaction_label_rule(cue) == label
            assert label == 2 * cue["texture"] + cue["palette"]

    def test_single_factor_leaves_two_candidates(self, interaction_ds):
        for key in ("texture", "palette"):
            for v in (0, 1):
                labels = {int(l) for cue, l in zip(interaction_ds.cues, interaction_ds.labels)
                          if cue[key] == v}
                assert len(labels) == 2

    def test_factor_ceiling_is_half(self):
        rng = np.random.default_rng(4)
        ds = data.generate("interaction", 400, rng)
        for key in ("texture", "palette"):
            ceiling = factor_ceiling(ds, key)
            # exact table value; sampling noise only (max over 2 of ~uniform pairs)
            assert 0.5 <= ceiling < 0.58

    def test_object_pixels_palette_free(self, interaction_ds):
        # stripes are grayscale: all three channels are equal on every object pixel
        for img, mask in zip(interaction_ds.images, interaction_ds.masks):
            px = img[mask.astype(bool)]
            assert px.size
            assert (px == px[:, :1]).all()


class TestGeneratorDeterminism:
    def test_same_seed_same_dataset(self):
        a = data.generate("interaction", 10, np.random.default_rng(42))
        b = data.generate("interaction", 10, np.random.default_rng(42))
        assert a.images.tobytes() == b.images.tobytes()
        assert (a.labels == b.labels).all()

    @pytest.mark.parametrize("task", data.TASKS)
    def test_first_samples_do_not_depend_on_count(self, task):
        # one generator per sample: the first k samples of n equal a run of k
        full = data.generate(task, 6, np.random.default_rng(7), image_size=16)
        head = data.generate(task, 3, np.random.default_rng(7), image_size=16)
        for name in ("images", "labels", "boxes", "masks"):
            assert getattr(full, name)[:3].tobytes() == getattr(head, name).tobytes()
        assert full.cues[:3] == head.cues


class TestGenerateArguments:
    @pytest.mark.parametrize("task,classes", [("detail", 17), ("structure", 3),
                                              ("interaction", 2)])
    def test_class_count_outside_task_range_is_config_error(self, task, classes):
        with pytest.raises(ConfigError, match=f"{task} task supports .* classes, got {classes}"):
            data.generate(task, 2, np.random.default_rng(0), num_classes=classes)


def bbox_of(mask):
    """Per-mask reference box: the tight (x0, y0, x1, y1) of its nonzero pixels."""
    ys, xs = np.nonzero(mask)
    return np.array([xs.min(), ys.min(), xs.max() + 1, ys.max() + 1], dtype=np.int64)


class TestMaskBoxes:
    @pytest.mark.parametrize("density", [0.02, 0.2, 0.7])
    def test_equals_per_mask_nonzero_oracle(self, density):
        # sparse random masks hold several components; the box spans them all
        rng = np.random.default_rng(int(density * 100))
        masks = (rng.random((40, 9, 13)) < density).astype(np.uint8)
        masks[0] = 0
        masks[0, 4, 6] = 1                        # one pixel
        masks[1] = 0
        masks[1, 0, 0] = masks[1, 8, 12] = 1      # two far corners
        masks = masks[masks.any(axis=(1, 2))]
        got = data.mask_boxes(masks)
        assert got.dtype == np.int64 and got.shape == (len(masks), 4)
        assert got.tolist() == [bbox_of(m).tolist() for m in masks]

    def test_empty_mask_gives_full_image(self):
        masks = np.zeros((3, 6, 8), dtype=bool)
        masks[1, 2:4, 3] = True
        assert data.mask_boxes(masks).tolist() == [[0, 0, 8, 6], [3, 2, 4, 4], [0, 0, 8, 6]]

    @pytest.mark.parametrize("task", data.TASKS)
    def test_generated_boxes_are_the_oracle_boxes(self, task):
        ds = data.generate(task, 12, np.random.default_rng(8), image_size=24)
        assert ds.boxes.dtype == np.int64
        assert ds.boxes.tolist() == [bbox_of(m).tolist() for m in ds.masks]


class TestDatasetIO:
    def test_round_trip(self, tmp_path, structure_ds):
        out = tmp_path / "structure"
        data.write_dataset(structure_ds, str(out))
        loaded = data.load_dataset(str(out))
        assert loaded.images.tobytes() == structure_ds.images.tobytes()
        assert (loaded.labels == structure_ds.labels).all()
        assert (loaded.boxes == structure_ds.boxes).all()
        assert (loaded.masks == structure_ds.masks).all()
        assert loaded.cues == structure_ds.cues
        assert loaded.num_classes == 2

    def test_index_order_preserved(self, tmp_path, detail_ds):
        out = tmp_path / "detail"
        data.write_dataset(detail_ds, str(out))
        loaded = data.load_dataset(str(out))
        assert (loaded.labels == detail_ds.labels).all()

    def test_missing_file_is_explicit_error(self, tmp_path, detail_ds):
        out = tmp_path / "detail2"
        data.write_dataset(detail_ds, str(out))
        (out / "img_00003.ppm").unlink()
        with pytest.raises(DataError, match="img_00003.ppm"):
            data.load_dataset(str(out))

    def test_malformed_index_line_reports_lineno(self, tmp_path, detail_ds):
        out = tmp_path / "detail3"
        data.write_dataset(detail_ds, str(out))
        index = out / "index.csv"
        lines = index.read_text().splitlines()
        lines[4] = "img_00004.ppm,not_an_int,0,0,4,4"
        index.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="line 5"):
            data.load_dataset(str(out))

    @pytest.mark.parametrize("name,shape", [("img_00002.ppm", (20, 20, 3)),
                                            ("img_00000_mask.pgm", (20, 20))],
                             ids=["image", "mask"])
    def test_mixed_sizes_are_data_error(self, tmp_path, name, shape):
        ds = data.generate("structure", 3, np.random.default_rng(5), image_size=16)
        data.write_dataset(ds, str(tmp_path))
        write = netpbm.write_ppm_p6 if name.endswith(".ppm") else netpbm.write_pgm_p5
        write(tmp_path / name, np.zeros(shape, dtype=np.uint8))
        with pytest.raises(DataError, match=f"{name} is {shape[1]}x{shape[0]} pixels, "
                                            "but the first image is 16x16"):
            data.load_dataset(str(tmp_path))

    def test_old_inner_masks_are_ignored(self, tmp_path, structure_ds):
        # an older directory's `_mask2.pgm` files, one of them the wrong size
        data.write_dataset(structure_ds, str(tmp_path))
        for i in range(len(structure_ds)):
            netpbm.write_pgm_p5(tmp_path / f"img_{i:05d}_mask2.pgm",
                                np.zeros((16, 20) if i == 1 else (64, 64), dtype=np.uint8))
        loaded = data.load_dataset(str(tmp_path))
        for name in ("images", "labels", "boxes", "masks"):
            assert getattr(loaded, name).tobytes() == getattr(structure_ds, name).tobytes()

    @pytest.mark.parametrize("box", ["5,5,2,2", "3,3,3,8", "0,0,17,8", "-1,0,4,4"],
                             ids=["inverted", "empty", "past_the_edge", "negative"])
    def test_box_not_inside_the_image_is_data_error(self, tmp_path, box):
        ds = data.generate("structure", 3, np.random.default_rng(5), image_size=16)
        data.write_dataset(ds, str(tmp_path))
        index = tmp_path / "index.csv"
        lines = index.read_text().splitlines()
        lines[1] = ",".join(lines[1].split(",")[:2] + [box])
        index.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=re.escape(
                f"index.csv:2: box ({box.replace(',', ', ')}) is not a non-empty box "
                "inside the 16x16 image")):
            data.load_dataset(str(tmp_path))

    def test_images_are_8bit_quantized(self, interaction_ds):
        scaled = interaction_ds.images * 255.0
        np.testing.assert_allclose(scaled, np.round(scaled), atol=1e-4)


class TestNetpbmHeaders:
    @pytest.mark.parametrize("header", [b"P5\nx 4\n255\n", b"P5\n4 4.0\n255\n",
                                        b"P5\n4 4\nmax\n", b"P5\n-1 -1\n255\n"],
                             ids=["width", "height", "maxval", "negative"])
    def test_p5_malformed_header_is_data_error(self, tmp_path, header):
        path = tmp_path / "bad.pgm"
        path.write_bytes(header + bytes(16))
        with pytest.raises(DataError, match="bad.pgm"):
            netpbm.read_pgm_p5(path)

    def test_p6_malformed_header_is_data_error(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P6\n2 two\n255\n" + bytes(12))
        with pytest.raises(DataError, match="bad.ppm"):
            netpbm.read_ppm_p6(path)
