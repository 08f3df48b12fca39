"""Trainer tests: augmentation, MixUp, the optimizer, the loop, and
checkpoint/resume determinism."""

import itertools
import math
import os
import re
import struct
from dataclasses import replace

import numpy as np
import pytest

from pronext import autodiff as ad
from pronext import checkpoint as ckpt
from pronext import data
from pronext import model as M
from pronext import train as T
from pronext.errors import ConfigError, DataError, DimensionError, InputError, NumericError
from pronext.experiments import ABLATION_ROWS


def tiny_model(seed=0, **overrides):
    base = dict(input_size=16, stem_channels=4, patch_size=2, embed_dim=8,
                ca_layers=1, ca_heads=2, num_classes=4)
    base.update(overrides)
    return M.ProNextModel(M.ModelConfig(**base).validate(), seed=seed)


def tiny_dataset(n=32, seed=0, size=16):
    return data.generate("interaction", n, np.random.default_rng(seed), image_size=size)


def bilinear_resize_one(img, out_side):
    """Reference: the unbatched (H, W, C) bilinear resize, one image at a time."""
    H, W, C = img.shape
    if H == out_side and W == out_side:
        return img
    def grid(n_in, n_out):
        src = (np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5
        src = np.clip(src, 0, n_in - 1)
        lo = np.floor(src).astype(np.int64)
        hi = np.minimum(lo + 1, n_in - 1)
        frac = (src - lo).astype(img.dtype)
        return lo, hi, frac
    r0, r1, fr = grid(H, out_side)
    c0, c1, fc = grid(W, out_side)
    top = img[r0][:, c0] * (1 - fc)[None, :, None] + img[r0][:, c1] * fc[None, :, None]
    bot = img[r1][:, c0] * (1 - fc)[None, :, None] + img[r1][:, c1] * fc[None, :, None]
    return top * (1 - fr)[:, None, None] + bot * fr[:, None, None]


def tiny_train_cfg(**overrides):
    base = dict(batch_size=4, steps=4, lr=1e-3, mixup_alpha=0.2,
                crop=16, resize=16, hflip_prob=0.5, seed=0)
    base.update(overrides)
    return T.TrainConfig(**base).validate()


class TestMixup:
    def test_alpha_zero_is_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((4, 8, 8, 3)).astype(np.float32)
        y = T.one_hot(np.array([0, 1, 2, 3]), 4)
        mx, my = T.mixup(x, y, 0.0, rng)
        assert mx is x and my is y

    def test_half_lambda_mixes_two_labels(self):
        x = np.zeros((2, 2, 2, 1), dtype=np.float32)
        y = T.one_hot(np.array([0, 1]), 2)

        class FixedRng:
            def beta(self, a, b):
                return 0.5

            def permutation(self, n):
                return np.array([1, 0])

        mx, my = T.mixup(x, y, 1.0, FixedRng())
        np.testing.assert_allclose(my, [[0.5, 0.5], [0.5, 0.5]])

    def test_mixed_labels_sum_to_one(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            y = T.one_hot(rng.integers(0, 5, size=8), 5)
            x = rng.standard_normal((8, 4, 4, 3)).astype(np.float32)
            _, my = T.mixup(x, y, rng.uniform(0.1, 2.0), rng)
            np.testing.assert_allclose(my.sum(axis=1), 1.0, atol=1e-6)


class TestAugment:
    def test_crop_equals_resize_is_identity_without_flip(self):
        rng = np.random.default_rng(2)
        img = rng.random((16, 16, 3)).astype(np.float32)
        cfg = tiny_train_cfg(hflip_prob=0.0)
        out = T.augment(img, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(out, img)

    def test_double_flip_restores(self):
        rng = np.random.default_rng(3)
        img = rng.random((8, 8, 3)).astype(np.float32)
        flipped = img[:, ::-1, :]
        np.testing.assert_array_equal(flipped[:, ::-1, :], img)

    def test_random_crop_stays_in_bounds(self):
        rng = np.random.default_rng(4)
        img = rng.random((20, 20, 3)).astype(np.float32)
        cfg = T.TrainConfig(crop=12, resize=16)
        for seed in range(10):
            out = T.augment(img, cfg, np.random.default_rng(seed))
            assert out.shape == (12, 12, 3)

    def test_tiny_image_rejected(self):
        with pytest.raises(InputError):
            T.augment(np.zeros((1, 4, 3)), tiny_train_cfg(), np.random.default_rng(0))

    def test_resize_constant_preserved(self):
        img = np.full((10, 10, 3), 0.37, dtype=np.float32)
        out = T.bilinear_resize(img, 7)
        np.testing.assert_allclose(out, 0.37, rtol=1e-6)

    @pytest.mark.parametrize("shape,side", [((5, P, P, 1), S) for P in (2, 4, 8, 16)
                                            for S in (16, 32, 64) if P <= S]
                             + [((4, 64, 64, 3), 32), ((4, 32, 32, 3), 64),
                                ((3, 20, 20, 3), 7), ((3, 10, 10, 3), 13)])
    def test_batch_bit_identical_to_per_image_loop(self, shape, side):
        imgs = np.random.default_rng(sum(shape) + side).random(shape).astype(np.float32)
        batch = T.bilinear_resize(imgs, side)
        assert batch.shape == (shape[0], side, side, shape[3])
        want = np.stack([bilinear_resize_one(img, side) for img in imgs])
        assert batch.tobytes() == want.tobytes()
        for img, out in zip(imgs, batch):
            assert T.bilinear_resize(img, side).tobytes() == out.tobytes()


class TestAdamW:
    def _params(self, values):
        return {"p": ad.Tensor(np.array(values), requires_grad=True, dtype=np.float64)}

    def test_zero_grad_zero_decay_unchanged(self):
        params = self._params([1.0, -2.0])
        opt = T.AdamW(params.keys())
        cfg = tiny_train_cfg(lr=0.1, weight_decay=0.0)
        opt.step(params, {"p": np.zeros(2)}, cfg)
        np.testing.assert_array_equal(params["p"].data, [1.0, -2.0])

    def test_first_step_is_signed_unit_update(self):
        params = self._params([0.0, 0.0])
        opt = T.AdamW(params.keys())
        cfg = tiny_train_cfg(lr=0.01, weight_decay=0.0)
        g = np.array([0.3, -1.7])
        opt.step(params, {"p": g}, cfg)
        # bias-corrected m/sqrt(v) is sign(g) on the first step (up to eps)
        np.testing.assert_allclose(params["p"].data, -0.01 * np.sign(g), rtol=1e-6)

    def test_decoupled_decay_shrinks(self):
        params = self._params([2.0])
        opt = T.AdamW(params.keys())
        cfg = tiny_train_cfg(lr=0.1, weight_decay=0.5)
        opt.step(params, {"p": np.zeros(1)}, cfg)
        np.testing.assert_allclose(params["p"].data, [2.0 * (1 - 0.1 * 0.5)], rtol=1e-12)

    def test_non_finite_gradient_names_parameter(self):
        params = self._params([1.0])
        opt = T.AdamW(params.keys())
        with pytest.raises(NumericError, match="'p'"):
            opt.step(params, {"p": np.array([np.nan])}, tiny_train_cfg())

    def test_non_finite_gradient_moves_nothing(self):
        rng = np.random.default_rng(3)
        params = {n: ad.Tensor(rng.standard_normal(5), requires_grad=True) for n in "abc"}
        opt = T.AdamW(params.keys())
        cfg = tiny_train_cfg(weight_decay=0.05)
        opt.step(params, {n: rng.standard_normal(5).astype(np.float32) for n in params}, cfg)
        before = ({n: t.data.copy() for n, t in params.items()},
                  {n: m.copy() for n, m in opt.m.items()},
                  {n: v.copy() for n, v in opt.v.items()})
        grads = {n: rng.standard_normal(5).astype(np.float32) for n in params}
        grads["c"][2] = np.inf  # the last tensor: a and b come first
        with pytest.raises(NumericError, match="'c'"):
            opt.step(params, grads, cfg)
        assert opt.t == 1
        for saved, now in zip(before, ({n: t.data for n, t in params.items()}, opt.m, opt.v)):
            assert all(saved[n].tobytes() == now[n].tobytes() for n in params)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("size", [1, T.ADAM_BLOCK - 1, T.ADAM_BLOCK, 2 * T.ADAM_BLOCK + 7,
                                      (3, T.ADAM_BLOCK // 2 + 1)])
    def test_blocked_update_is_bit_equal_to_the_unblocked_formula(self, dtype, size):
        rng = np.random.default_rng(np.prod(size))
        p0 = rng.standard_normal(size).astype(dtype)
        params = {"p": ad.Tensor(p0.copy(), requires_grad=True, dtype=dtype)}
        opt = T.AdamW(params.keys())
        cfg = tiny_train_cfg(lr=3e-3, weight_decay=0.05)
        p, m, v = p0.copy(), np.zeros_like(p0), np.zeros_like(p0)
        for t in range(1, 4):
            g = (rng.standard_normal(size) * 10.0 ** -t).astype(dtype)
            opt.step(params, {"p": g}, cfg)
            p, m, v = adamw_reference(p, m, v, g, t, cfg)
        assert params["p"].data.tobytes() == p.tobytes()
        assert opt.m["p"].tobytes() == m.tobytes() and opt.v["p"].tobytes() == v.tobytes()

    @pytest.mark.parametrize("layout", ["transposed", "read-only"])
    def test_parameter_that_is_not_a_writeable_c_array_is_updated(self, layout):
        base = np.random.default_rng(4).standard_normal((3, 5)).astype(np.float32)
        arr = base.T if layout == "transposed" else base.copy()
        arr.flags.writeable = layout != "read-only"
        params = {"p": ad.Tensor(arr, requires_grad=True)}
        g = np.full(arr.shape, 0.5, dtype=np.float32)
        cfg = tiny_train_cfg(lr=1e-2, weight_decay=0.05)
        opt = T.AdamW(params.keys())
        opt.step(params, {"p": g}, cfg)
        z = np.zeros(arr.shape, dtype=np.float32)
        expected = adamw_reference(np.array(arr), z, z, g, 1, cfg)[0]
        assert params["p"].data.tobytes() == expected.tobytes()
        assert params["p"].data.flags.c_contiguous and params["p"].data.flags.writeable
        kept = params["p"].data
        opt.step(params, {"p": g}, cfg)
        assert params["p"].data is kept


def adamw_reference(p, m, v, g, t, cfg):
    """One unblocked AdamW update with fresh arrays: the formula the
    optimizer's blocked in-place update must reproduce bit for bit."""
    b1, b2 = cfg.beta1, cfg.beta2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    m = m * b1
    m = m + (1 - b1) * g
    v = v * b2
    v = v + (1 - b2) * (g * g)
    update = (m / bc1) / (np.sqrt(v / bc2) + T.ADAM_EPS)
    return p - cfg.lr * update - cfg.lr * cfg.weight_decay * p, m, v


class TestTrainingLoop:
    def test_step0_loss_is_log_num_classes(self):
        model = tiny_model()
        trainer = T.Trainer(model, tiny_train_cfg(steps=1), [(tiny_dataset(), 1.0)])
        row = trainer.train_step()
        assert abs(row.loss - math.log(4)) < 1e-6

    def test_train_step_updates_parameters_in_place(self):
        model = tiny_model()
        trainer = T.Trainer(model, tiny_train_cfg(), [(tiny_dataset(), 1.0)])
        arrays = {n: t.data for n, t in model.params.items()}
        w0 = model.stem[0].w.data.copy()
        for _ in range(2):
            trainer.train_step()
            assert all(t.data is arrays[n] for n, t in model.params.items())
        assert model.stem[0].w.data.tobytes() != w0.tobytes()

    def test_no_parameter_keeps_a_gradient_after_a_step(self):
        model = tiny_model()
        trainer = T.Trainer(model, tiny_train_cfg(), [(tiny_dataset(), 1.0)])
        for _ in range(2):
            trainer.train_step()
            assert [n for n, t in model.params.items() if t.grad is not None] == []

    def test_log_format_six_decimals(self):
        row = T.TrainLogRow(step=3, loss=1.23456789, acc=0.5)
        assert row.csv() == "3,1.234568,0.500000"

    def test_seed_determinism(self):
        logs = []
        for _ in range(2):
            model = tiny_model(seed=1)
            trainer = T.Trainer(model, tiny_train_cfg(steps=3, seed=5),
                                [(tiny_dataset(seed=2), 1.0)])
            trainer.run()
            logs.append([r.csv() for r in trainer.log])
        assert logs[0] == logs[1]

    def test_single_sample_overfit_monotoneish(self):
        ds = tiny_dataset(n=1, seed=3)
        model = tiny_model(seed=4)
        cfg = tiny_train_cfg(steps=20, lr=3e-3, mixup_alpha=0.0, hflip_prob=0.0,
                             weight_decay=0.0, batch_size=2)
        trainer = T.Trainer(model, cfg, [(ds, 1.0)])
        trainer.run()
        losses = [r.loss for r in trainer.log]
        assert losses[-1] < losses[0]
        assert all(b <= a + 1e-6 for a, b in zip(losses, losses[1:]))

    def test_empty_dataset_rejected(self):
        ds = tiny_dataset(n=4)
        empty = data.split_dataset(ds, 4)[1]
        with pytest.raises(ConfigError):
            T.Trainer(tiny_model(), tiny_train_cfg(), [(empty, 1.0)])

    @pytest.mark.parametrize("weight", [float("nan"), float("inf"), -1.0, 0.0])
    def test_bad_weight_rejected(self, weight):
        with pytest.raises(ConfigError, match="weights must be finite and nonnegative"):
            T.Trainer(tiny_model(), tiny_train_cfg(), [(tiny_dataset(n=4), weight)])

    def test_multi_dataset_sampling_matches_weights(self):
        # chi-square over 10^4 draws, 2 dof; p > 0.01 <=> stat < 9.2103
        ds = tiny_dataset(n=4)
        weights = [0.2, 0.5, 0.3]
        trainer = T.Trainer(tiny_model(), tiny_train_cfg(seed=11),
                            [(ds, w) for w in weights])
        n = 10_000
        counts = np.bincount([trainer.pick_dataset() for _ in range(n)], minlength=3)
        expected = np.array(weights) * n
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < 9.2103, f"chi-square {stat} too large: {counts}"


class TestCheckpoint:
    def test_array_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        arrays = {
            "a": rng.standard_normal((3, 4)).astype(np.float32),
            "b": rng.standard_normal(7),
            "c": np.arange(5, dtype=np.int64),
            "text": ckpt.pack_text("hello = world"),
        }
        path = tmp_path / "test.ckpt"
        ckpt.save_arrays(path, arrays)
        loaded = ckpt.load_arrays(path)
        assert set(loaded) == set(arrays)
        for k in arrays:
            assert loaded[k].tobytes() == np.ascontiguousarray(arrays[k]).tobytes()
            assert loaded[k].dtype == arrays[k].dtype

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "m.ckpt"
        ckpt.save_arrays(path, {"x": np.zeros(1, dtype=np.float32)})
        assert path.read_bytes()[:4] == b"PNXT"

    def test_rng_state_round_trip(self):
        gen = np.random.default_rng(123)
        gen.standard_normal(17)  # advance
        packed = ckpt.pack_rng_state(gen)
        clone = ckpt.unpack_rng_state(packed)
        np.testing.assert_array_equal(clone.standard_normal(8), gen.standard_normal(8))

    def test_resume_reproduces_trajectory_bit_for_bit(self, tmp_path):
        ds = tiny_dataset(n=24, seed=6)
        cfg = tiny_train_cfg(steps=6, seed=7)

        model_a = tiny_model(seed=8)
        straight = T.Trainer(model_a, cfg, [(ds, 1.0)])
        straight.run(6)
        full_log = [r.csv() for r in straight.log]

        model_b = tiny_model(seed=8)
        first = T.Trainer(model_b, cfg, [(ds, 1.0)])
        first.run(3)
        path = tmp_path / "mid.ckpt"
        first.save_checkpoint(path)

        resumed = T.Trainer.resume(str(path), [(ds, 1.0)])
        assert resumed.step == 3
        resumed.run(3)
        resumed_log = [r.csv() for r in resumed.log]
        assert full_log[3:] == resumed_log

        # parameters after the split run match the straight run exactly
        for name, t in straight.model.params.items():
            assert t.data.tobytes() == resumed.model.params[name].data.tobytes()


FIXTURE = os.path.join(os.path.dirname(__file__), "fixtures", "parent_step2.ckpt")


def fixture_dataset():
    return data.generate("interaction", 24, np.random.default_rng(6), image_size=16)


class TestCheckpointCompatibility:
    """`fixtures/parent_step2.ckpt` was written by the trainer before config
    snapshots shared the config reader: a spatial-attention model (stem 2,
    embed 4, band_pass False, seed 8) trained 2 of 4 steps on
    `fixture_dataset()` with seed 7, batch 4, lr 1e-3, MixUp 0.2. It also
    predates the retired config keys (`stages`, `block_norm`, `ca_ffn`) and
    parameters (conv-block biases `*.b`, attention key biases `*.attn.bk`,
    the spatial-attention bias `*.parser.b`)."""

    def test_loads(self):
        model = T.load_model_from_checkpoint(FIXTURE)
        assert model.cfg == M.ModelConfig(
            input_size=16, stem_channels=2, patch_size=2, embed_dim=4, ca_layers=1,
            ca_heads=2, num_classes=4, parser_mode="spatial_attention",
            band_pass=False).validate()
        arrays = ckpt.load_arrays(FIXTURE)
        for name, t in model.params.items():
            assert t.data.tobytes() == arrays[f"param.{name}"].tobytes()

    def test_resumes_on_the_recorded_trajectory(self):
        trainer = T.Trainer.resume(FIXTURE, [(fixture_dataset(), 1.0)])
        assert trainer.step == 2 and trainer.optimizer.t == 2
        assert trainer.cfg == tiny_train_cfg(seed=7)
        trainer.run(2)
        # steps 2 and 3 on the centred spatial-attention logits; the writing
        # trainer, whose logits were not centred, logged 2,1.385689,0.250000
        # and 3,1.387000,0.500000
        assert [r.csv() for r in trainer.log] == ["2,1.385667,0.250000",
                                                   "3,1.387031,0.500000"]

    def test_retired_parameter_records_are_ignored(self):
        arrays = ckpt.load_arrays(FIXTURE)
        model = T.model_from_checkpoint_arrays(arrays)
        stored = {n[len("param."):]: a for n, a in arrays.items() if n.startswith("param.")}
        assert stored.keys() - model.params.keys() == {
            "stem.block0.b", "stem.block1.b", "stage0.post.b", "stage1.post.b",
            "stage2.post.b", "stage0.gaze.ca_layers0.attn.bk",
            "stage1.gaze.ca_layers0.attn.bk", "stage2.gaze.ca_layers0.attn.bk",
            "stage0.parser.b", "stage1.parser.b", "stage2.parser.b"}

        # rows that once built weights their forward never reads: the context
        # weights without a Context Impression, the plain field's condition
        # conv, the spatial-attention bias the centred logits cancel. A shift
        # model with context stands in for the older records, the fixture for
        # the bias.
        layer = ("ln_q_g", "ln_q_b", "ln_kv_g", "ln_kv_b", "attn.wq", "attn.wk",
                 "attn.wv", "attn.wo", "attn.bq", "attn.bv", "attn.bo", "ln_f_g",
                 "ln_f_b", "ffn_w1", "ffn_b1", "ffn_w2", "ffn_b2")
        context = ("token_w", "token_b", "pe_w", "pe_b", "out_ln_g", "out_ln_b",
                   *(f"ca_layers0.{name}" for name in layer))
        cfg = M.ModelConfig(input_size=16, stem_channels=2, patch_size=2, embed_dim=4,
                            ca_layers=1, ca_heads=2)
        full = {name: t.data for name, t in M.ProNextModel(cfg, seed=8).params.items()}
        x = np.random.default_rng(3).random((2, 16, 16, 3)).astype(np.float32)
        for row, source, part, names in (
                ("baseline", full, "gaze", context),
                ("separation_sa", full, "gaze", context),
                ("context_sa", stored, "parser", ("b",)),
                ("plain_field", full, "parser", ("cond_w", "cond_b"))):
            row_cfg = replace(cfg, **dict(ABLATION_ROWS)[row]).validate()
            model = M.ProNextModel(row_cfg, seed=8)
            model.mlp_w2.data[:] = 0.5
            older = {name: a for name, a in source.items() if f".{part}." in name}
            older.update({name: t.data.copy() for name, t in model.params.items()})
            loaded = M.ProNextModel.from_state(row_cfg, older)
            assert older.keys() - loaded.params.keys() == {
                f"stage{l}.{part}.{name}" for l in range(M.NUM_STAGES) for name in names}
            assert (loaded.forward(x).logits.data.tobytes()
                    == model.forward(x).logits.data.tobytes())

    def test_resume_takes_the_loaded_moments_in_place(self):
        arrays = ckpt.load_arrays(FIXTURE)
        model = T.model_from_checkpoint_arrays(arrays)
        opt = T.AdamW(model.params.keys())
        opt.load_state_arrays(model.params, arrays)
        assert all(opt.m[n] is arrays[f"opt.m.{n}"] and opt.v[n] is arrays[f"opt.v.{n}"]
                   for n in model.params)

    def test_resumed_run_prints_its_last_step_and_rate(self, capsys, monkeypatch):
        # a clock that advances one second per reading: the rate is the steps
        # this call ran over this call's wall time
        clock = itertools.count()
        monkeypatch.setattr(T.time, "time", lambda: float(next(clock)))
        trainer = T.Trainer.resume(FIXTURE, [(fixture_dataset(), 1.0)])
        trainer.run(2, quiet=False)
        assert capsys.readouterr().out == "step 3: loss 1.3870 acc 0.500 (2.0 steps/s)\n"
        trainer.run(1, quiet=False)
        out = capsys.readouterr().out
        assert out.startswith("step 4: ") and out.endswith(" (1.0 steps/s)\n")


class TestModelLoadPath:
    """`load_model_from_checkpoint` reads only the model's records into their
    final arrays and builds the model without drawing an init."""

    def test_v2_payload_bytes_equal_v1(self, tmp_path):
        arrays = ckpt.load_arrays(FIXTURE)
        path = tmp_path / "v2.ckpt"
        ckpt.save_arrays(path, arrays)
        with open(FIXTURE, "rb") as fh:
            v1 = fh.read()
        v2 = path.read_bytes()
        assert struct.unpack("<I", v1[4:8]) == (1,) and struct.unpack("<I", v2[4:8]) == (2,)
        payload = sum(a.nbytes for a in arrays.values())
        assert v1[len(v1) - payload:] == v2[len(v2) - payload:]
        again = ckpt.load_arrays(path)
        assert list(again) == list(arrays)
        for name, arr in arrays.items():
            assert again[name].dtype == arr.dtype and again[name].shape == arr.shape
            assert again[name].tobytes() == arr.tobytes()

    def test_corrupt_optimizer_record_loads_model_but_not_resume(self, tmp_path):
        arrays = ckpt.load_arrays(FIXTURE)
        path = tmp_path / "v2.ckpt"
        ckpt.save_arrays(path, arrays)
        blob = bytearray(path.read_bytes())
        name = "opt.m.head.mlp_w1"
        start = len(blob) - sum(a.nbytes for a in arrays.values())
        start += sum(a.nbytes for n, a in itertools.takewhile(lambda kv: kv[0] != name,
                                                               arrays.items()))
        blob[start + 5] ^= 0x10
        path.write_bytes(bytes(blob))

        model = T.load_model_from_checkpoint(path)
        for n, t in model.params.items():
            assert t.data.tobytes() == arrays[f"param.{n}"].tobytes()
        with pytest.raises(DataError, match=f"checksum mismatch for '{name}'"):
            T.Trainer.resume(path, [(fixture_dataset(), 1.0)])

    def test_load_draws_no_init(self, monkeypatch):
        def no_generator(*args, **kwargs):
            raise AssertionError("the checkpoint load drew an init")
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        model = T.load_model_from_checkpoint(FIXTURE)
        monkeypatch.undo()
        reference = ckpt.load_arrays(FIXTURE)
        for n, t in model.params.items():
            assert t.dtype == np.float32
            assert t.data.tobytes() == reference[f"param.{n}"].tobytes()

    def test_from_state_uses_the_arrays_and_checks_them(self):
        model = tiny_model(seed=3)
        arrays = {n: t.data.copy() for n, t in model.params.items()}
        loaded = M.ProNextModel.from_state(model.cfg, arrays)
        assert all(loaded.params[n].data is arrays[n] for n in arrays)
        wrong = dict(arrays, **{"head.fuse_b": np.zeros(3, np.float32)})
        with pytest.raises(DimensionError, match="head.fuse_b"):
            M.ProNextModel.from_state(model.cfg, wrong)
        del arrays["head.mlp_w2"]
        with pytest.raises(ConfigError, match="head.mlp_w2"):
            M.ProNextModel.from_state(model.cfg, arrays)


def _rewrite_record(src, dst, name, edit):
    arrays = ckpt.load_arrays(src)
    text = ckpt.unpack_text(arrays[name])
    arrays[name] = ckpt.pack_text(edit(text))
    ckpt.save_arrays(dst, arrays)


class TestConfigSnapshots:
    @pytest.mark.parametrize("edit,message", [
        (lambda t: t + "dropout = 0.1\n", "trainer.model_config:16: unknown key 'dropout'"),
        (lambda t: t + "embed_dim = 4\n", "trainer.model_config:16: duplicate key 'embed_dim'"),
        (lambda t: t.replace("embed_dim = 4", "embed_dim = four"),
         "trainer.model_config:6: expected int for 'embed_dim'"),
        (lambda t: t.replace("ca_ffn = True", "ca_ffn True"),
         "trainer.model_config:13: expected 'key = value'"),
        (lambda t: t.replace("stages = 3", "stages = 4"),
         "trainer.model_config:5: 'stages' is retired"),
        (lambda t: t.replace("block_norm = True", "block_norm = False"),
         "trainer.model_config:12: 'block_norm' is retired"),
        (lambda t: t.replace("ca_ffn = True", "ca_ffn = False"),
         "trainer.model_config:13: 'ca_ffn' is retired")],
        ids=["unknown_key", "duplicate_key", "bad_int", "no_equals", "retired_stages",
             "retired_block_norm", "retired_ca_ffn"])
    def test_malformed_model_snapshot_names_record_and_line(self, tmp_path, edit, message):
        path = tmp_path / "bad.ckpt"
        _rewrite_record(FIXTURE, path, "trainer.model_config", edit)
        with pytest.raises(ConfigError, match=message):
            T.load_model_from_checkpoint(path)

    def test_bool_words_read_as_written(self, tmp_path):
        path = tmp_path / "yes.ckpt"
        _rewrite_record(FIXTURE, path, "trainer.model_config",
                        lambda t: t.replace("band_pass = False", "band_pass = yes"))
        assert T.load_model_from_checkpoint(path).cfg.band_pass is True

    def test_fractional_int_in_train_snapshot_rejected(self, tmp_path):
        path = tmp_path / "steps.ckpt"
        _rewrite_record(FIXTURE, path, "trainer.train_config",
                        lambda t: t.replace("steps = 4", "steps = 1.5"))
        with pytest.raises(ConfigError, match="trainer.train_config:2: expected int"):
            T.Trainer.resume(path, [(fixture_dataset(), 1.0)])

    @pytest.mark.parametrize("line,message", [
        ("seed = -1", "seed must be >= 0, got -1"),
        ("mixup_alpha = nan", "mixup_alpha must be finite, got nan")],
        ids=["seed_negative", "mixup_alpha_nan"])
    def test_out_of_range_train_snapshot_names_record(self, tmp_path, line, message):
        key = line.split(" = ")[0]
        path = tmp_path / "range.ckpt"
        _rewrite_record(FIXTURE, path, "trainer.train_config",
                        lambda t: "".join(line + "\n" if l.startswith(key + " ") else l
                                          for l in t.splitlines(keepends=True)))
        with pytest.raises(ConfigError, match=f"^trainer.train_config: {message}$"):
            T.Trainer.resume(path, [(fixture_dataset(), 1.0)])

    @pytest.mark.parametrize("name", ["trainer.model_config", "trainer.train_config",
                                      "trainer.step", "trainer.rng", "opt.t"])
    def test_missing_record_is_data_error(self, tmp_path, name):
        arrays = ckpt.load_arrays(FIXTURE)
        del arrays[name]
        path = tmp_path / "partial.ckpt"
        ckpt.save_arrays(path, arrays)
        with pytest.raises(DataError, match=name):
            T.Trainer.resume(path, [(fixture_dataset(), 1.0)])

    @pytest.mark.parametrize("edit,message", [
        (lambda a: a.update({"trainer.rng": a["trainer.rng"][:3]}), "rng state holds 3"),
        (lambda a: a.update({"trainer.step": a["trainer.step"][:0]}), "'trainer.step' holds 0"),
        (lambda a: a.pop("opt.v.stem.block0.w"), "no 'opt.v.stem.block0.w'"),
        (lambda a: a.update({"opt.m.head.mlp_w1": np.zeros(1, np.float32)}),
         r"'opt.m.head.mlp_w1' has shape \(1,\), expected \(4, 4\)"),
        (lambda a: a.update({"opt.v.head.mlp_w1": a["opt.v.head.mlp_w1"].T[:2]}),
         r"'opt.v.head.mlp_w1' has shape \(2, 4\), expected \(4, 4\)")],
        ids=["short_rng", "empty_step", "m_without_v", "m_shape", "v_shape"])
    def test_malformed_trainer_record_is_data_error(self, tmp_path, edit, message):
        arrays = ckpt.load_arrays(FIXTURE)
        edit(arrays)
        path = tmp_path / "malformed.ckpt"
        ckpt.save_arrays(path, arrays)
        with pytest.raises(DataError, match=message):
            T.Trainer.resume(path, [(fixture_dataset(), 1.0)])


class TestCheckpointValues:
    """Records with a valid CRC whose values would write NaN into the
    parameters: a non-finite parameter or moment, or a negative second
    moment (`sqrt(v / bc2)` of it is NaN)."""

    @pytest.mark.parametrize("name,value,message", [
        ("opt.v.head.mlp_w1", -1e-8, "holds a negative second moment"),
        ("opt.v.head.mlp_w1", np.inf, "holds a non-finite value"),
        ("opt.m.head.mlp_w1", np.nan, "holds a non-finite value"),
        ("param.head.mlp_w1", np.nan, "holds a non-finite value")],
        ids=["negative_v", "inf_v", "nan_m", "nan_param"])
    def test_resume_rejects_state_that_writes_nan(self, tmp_path, name, value, message):
        arrays = ckpt.load_arrays(FIXTURE)
        arrays[name][1, 2] = value
        path = tmp_path / "degenerate.ckpt"
        ckpt.save_arrays(path, arrays)
        with pytest.raises(DataError, match=f"'{name}' {message}"):
            T.Trainer.resume(path, [(fixture_dataset(), 1.0)])

    def test_model_load_checks_only_the_parameters_it_reads(self, tmp_path):
        arrays = ckpt.load_arrays(FIXTURE)
        arrays["param.stage0.parser.b"] = np.full(1, np.nan, np.float32)   # retired
        path = tmp_path / "retired_nan.ckpt"
        ckpt.save_arrays(path, arrays)
        T.load_model_from_checkpoint(path)
        arrays["param.stem.block0.w"][0, 0, 0, 0] = np.nan
        ckpt.save_arrays(path, arrays)
        with pytest.raises(DataError, match="'param.stem.block0.w' holds a non-finite value"):
            T.load_model_from_checkpoint(path)


class TestLoadArraysRobustness:
    @pytest.fixture()
    def small(self, tmp_path):
        path = tmp_path / "small.ckpt"
        ckpt.save_arrays(path, {"w": np.arange(6, dtype=np.float32).reshape(2, 3),
                                "s": np.array(7, dtype=np.int64),
                                "text": ckpt.pack_text("a = 1\n")})
        return path

    def _load_or_data_error(self, path):
        try:
            ckpt.load_arrays(path)
        except DataError:
            pass

    def test_every_truncation(self, small, tmp_path):
        blob = small.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(DataError):
                ckpt.load_arrays(cut)

    def test_header_bit_flips(self, small, tmp_path):
        blob = small.read_bytes()
        header_len = len(blob) - (6 * 4 + 8 + 6)        # everything before the data
        flipped = tmp_path / "flip.ckpt"
        for byte in range(header_len):
            for bit in range(8):
                bad = bytearray(blob)
                bad[byte] ^= 1 << bit
                flipped.write_bytes(bytes(bad))
                self._load_or_data_error(flipped)

    def test_every_header_bit_flip_caught(self, small, tmp_path):
        # version 2: the header CRC turns every flip into a DataError
        blob = small.read_bytes()
        header_len = len(blob) - (6 * 4 + 8 + 6)
        flipped = tmp_path / "flip.ckpt"
        for byte in range(header_len):
            for bit in range(8):
                bad = bytearray(blob)
                bad[byte] ^= 1 << bit
                flipped.write_bytes(bytes(bad))
                with pytest.raises(DataError):
                    ckpt.load_arrays(flipped)

    def test_every_payload_bit_flip_caught(self, small, tmp_path):
        blob = small.read_bytes()
        header_len = len(blob) - (6 * 4 + 8 + 6)
        flipped = tmp_path / "flip.ckpt"
        for byte in range(header_len, len(blob)):
            name = "w" if byte < header_len + 24 else "s" if byte < header_len + 32 else "text"
            for bit in range(8):
                bad = bytearray(blob)
                bad[byte] ^= 1 << bit
                flipped.write_bytes(bytes(bad))
                with pytest.raises(DataError, match=f"checksum mismatch for '{name}'"):
                    ckpt.load_arrays(flipped)

    def test_selective_read_skips_other_records(self, small, tmp_path):
        # a damaged record that is not read does not stop the others
        blob = bytearray(small.read_bytes())
        blob[len(blob) - (6 * 4 + 8 + 6)] ^= 1                  # first byte of 'w'
        bad = tmp_path / "bad_w.ckpt"
        bad.write_bytes(bytes(blob))
        loaded = ckpt.load_arrays(bad, ("s", "te"))
        assert sorted(loaded) == ["s", "text"]
        assert loaded["s"].tolist() == [7]
        assert ckpt.unpack_text(loaded["text"]) == "a = 1\n"
        with pytest.raises(DataError, match="checksum mismatch for 'w'"):
            ckpt.load_arrays(bad, "w")

    def test_selective_read_of_truncated_file(self, small, tmp_path):
        # only 'w' is read, but a cut anywhere fails on the file size
        blob = small.read_bytes()
        cut = tmp_path / "cut.ckpt"
        for n in range(len(blob)):
            cut.write_bytes(blob[:n])
            with pytest.raises(DataError):
                ckpt.load_arrays(cut, "w")

    def test_non_utf8_record_name(self, tmp_path):
        path = tmp_path / "name.ckpt"
        path.write_bytes(ckpt.MAGIC + struct.pack("<IIH", ckpt.VERSION, 1, 1) + b"\xff"
                         + struct.pack("<BBQ", 4, 0, 0) + b"\x00")
        with pytest.raises(DataError, match="UTF-8"):
            ckpt.load_arrays(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot open"):
            ckpt.load_arrays(tmp_path / "absent.ckpt")


class TestEvaluate:
    def test_accuracy_bounds_and_loss(self, monkeypatch):
        monkeypatch.setattr(T, "EVAL_BATCH", 5)
        model = tiny_model()
        ds = tiny_dataset(n=12)
        acc, loss = T.evaluate(model, ds)
        assert 0.0 <= acc <= 1.0
        assert abs(loss - math.log(4)) < 1e-5  # zero-init head

    def test_batched_resize_equals_per_image_resize_and_forward(self, monkeypatch):
        # a 64 px dataset on a 32 px model: each batch is resized in one call
        model = tiny_model(input_size=32)
        model.mlp_w2.data = np.random.default_rng(8).standard_normal(
            model.mlp_w2.shape).astype(np.float32)
        ds = tiny_dataset(n=7, size=64)
        monkeypatch.setattr(T, "EVAL_BATCH", 4)
        acc, loss = T.evaluate(model, ds)
        correct, losses = 0, []
        for start in (0, 4):
            x = np.stack([bilinear_resize_one(img, 32) for img in ds.images[start:start + 4]])
            labels = ds.labels[start:start + 4]
            with ad.no_grad():
                logits = model.forward(x.astype(np.float32)).logits
                batch_loss = ad.softmax_cross_entropy(logits, T.one_hot(labels, 4))
            losses.append(float(batch_loss.item()) * len(labels))
            correct += int((np.argmax(logits.data, axis=1) == labels).sum())
        assert (acc, loss) == (correct / 7, sum(losses) / 7)
        assert loss != pytest.approx(math.log(4))


class TestTrainConfigFile:
    def test_round_trip(self, tmp_path):
        cfg = tiny_train_cfg(lr=5e-4, steps=123)
        path = tmp_path / "train.cfg"
        path.write_text(M.config_text(cfg))
        assert M.load_config(T.TrainConfig, path) == cfg

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "t.cfg"
        path.write_text(M.config_text(tiny_train_cfg()))
        with open(path, "a") as fh:
            fh.write("momentum = 0.9\n")
        with pytest.raises(ConfigError, match="momentum"):
            M.load_config(T.TrainConfig, path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.cfg"
        path.write_text(M.config_text(tiny_train_cfg()))
        with open(path, "a") as fh:
            fh.write("lr = 0.1\n")
        with pytest.raises(ConfigError, match=f"{path}:12: duplicate key 'lr'"):
            M.load_config(T.TrainConfig, path)

    def test_crop_must_be_positive(self, tmp_path):
        with pytest.raises(ConfigError, match=r"crop must be in 1..resize \(0\), got 0"):
            T.TrainConfig(crop=0, resize=0).validate()
        path = tmp_path / "t.cfg"
        path.write_text(M.config_text(tiny_train_cfg()).replace("crop = 16", "crop = 0")
                        .replace("resize = 16", "resize = 0"))
        with pytest.raises(ConfigError, match=r"crop must be in 1..resize \(0\), got 0"):
            M.load_config(T.TrainConfig, path)

    def test_invariants(self):
        with pytest.raises(ConfigError):
            T.TrainConfig(hflip_prob=1.5).validate()
        with pytest.raises(ConfigError):
            T.TrainConfig(mixup_alpha=-0.1).validate()
        with pytest.raises(ConfigError):
            T.TrainConfig(crop=64, resize=32).validate()

    @pytest.mark.parametrize("name,value,rule", [
        *[(name, value, "finite") for name in ("lr", "weight_decay")
          for value in (float("nan"), float("inf"), float("-inf"))],
        *[("mixup_alpha", value, "finite") for value in (float("nan"), float("inf"))],
        ("seed", -1, ">= 0"),
        *[(name, value, "in [0, 1)") for name in ("beta1", "beta2")
          for value in (float("nan"), float("inf"), 1.0, -0.1)]])
    def test_optimizer_settings_out_of_range(self, name, value, rule):
        with pytest.raises(ConfigError, match=re.escape(f"{name} must be {rule}, got {value}")):
            T.TrainConfig(**{name: value}).validate()
