"""Tests for the coordinate-field parser and its ablation baselines."""

import math

import numpy as np
import pytest

from pronext import autodiff as ad
from pronext import parsers
from pronext.errors import ConfigError, DimensionError
from pronext.gradcheck import grad_check


def softplus_np(x):
    return np.logaddexp(0.0, x)


def rand_feature(rng, B=2, H=16, C=4, dtype=np.float32):
    return ad.Tensor(rng.standard_normal((B, H, H, C)), dtype=dtype)


# ---------------------------------------------------------------------------
# coordinate grid
# ---------------------------------------------------------------------------


class TestCoordinateGrid:
    def test_p2_endpoints(self):
        g = parsers.build_coordinate_grid(2)
        assert set(np.unique(g)) == {-1.0, 1.0}
        np.testing.assert_array_equal(g[:, :, 0], [[-1, -1], [1, 1]])
        np.testing.assert_array_equal(g[:, :, 1], [[-1, 1], [-1, 1]])

    def test_p3_symmetric_values(self):
        g = parsers.build_coordinate_grid(3)
        np.testing.assert_allclose(np.unique(g), [-1.0, 0.0, 1.0], atol=1e-7)

    def test_180_rotation_negates_channels(self):
        g = parsers.build_coordinate_grid(5)
        rotated = np.rot90(g, 2, axes=(0, 1))
        np.testing.assert_allclose(rotated, -g, atol=1e-7)

    def test_too_small_grid_rejected(self):
        with pytest.raises(ConfigError):
            parsers.build_coordinate_grid(1)


# ---------------------------------------------------------------------------
# condition encoding
# ---------------------------------------------------------------------------


class TestEncodeCondition:
    def test_zero_feature_zero_bias(self):
        rng = np.random.default_rng(0)
        params = parsers.init_shift_parser(rng, channels=3)
        params.cond_b = ad.Tensor(np.zeros(2))
        f = ad.Tensor(np.zeros((1, 8, 8, 3)))
        cond = parsers.encode_condition(f, k=2, params=params)
        np.testing.assert_allclose(cond.amp.data, 0.0, atol=1e-7)
        np.testing.assert_allclose(cond.freq.data, math.log(2.0), rtol=1e-5)

    def test_bias_only_gives_constant_maps(self):
        rng = np.random.default_rng(1)
        params = parsers.init_shift_parser(rng, channels=3)
        params.cond_w = ad.Tensor(np.zeros((1, 1, 3, 2)))
        params.cond_b = ad.Tensor(np.array([0.7, -0.3]))
        f = rand_feature(rng, B=1, H=8, C=3)
        cond = parsers.encode_condition(f, k=2, params=params)
        np.testing.assert_allclose(cond.amp.data, 0.7, rtol=1e-5)
        np.testing.assert_allclose(cond.freq.data, softplus_np(-0.3), rtol=1e-5)

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(2)
        params = parsers.init_shift_parser(rng, channels=4, dtype=np.float64)
        f_np = rng.standard_normal((2, 12, 12, 4))
        with ad.precision("float64"):
            cond = parsers.encode_condition(ad.Tensor(f_np), k=3, params=params)
        # independent oracle: patch means then 1x1 conv then softplus
        P = 4
        pooled = f_np.reshape(2, P, 3, P, 3, 4).mean(axis=(2, 4))
        enc = pooled @ params.cond_w.data[0, 0] + params.cond_b.data
        np.testing.assert_allclose(cond.amp.data, enc[..., 0], rtol=1e-10)
        np.testing.assert_allclose(cond.freq.data, softplus_np(enc[..., 1]), rtol=1e-10)


# ---------------------------------------------------------------------------
# band-pass filter
# ---------------------------------------------------------------------------


def make_cond(freqs):
    """ConditionMaps with amp = 1 everywhere and the given (B, P, P) freqs."""
    freqs = np.asarray(freqs, dtype=np.float64)
    return parsers.ConditionMaps(amp=ad.Tensor(np.ones_like(freqs), dtype=np.float64),
                                 freq=ad.Tensor(freqs, dtype=np.float64))


class TestBandPassFilter:
    def test_counts_for_p2_p4_p8(self):
        for P in (2, 4, 8):
            n = P * P
            for stage, (hi, lo) in parsers.BAND_PASS_FRACTIONS.items():
                n_hi, n_lo = parsers.band_pass_elimination_counts(P, stage)
                assert n_hi == math.floor(hi * n)
                assert n_lo == math.floor(lo * n)

    def test_low_stage_removes_highest_frequencies(self):
        freqs = np.arange(1.0, 17.0).reshape(1, 4, 4)  # ascending 1..16
        out = parsers.band_pass_filter(make_cond(freqs), "low")
        flat = out.freq.data.reshape(-1)
        # floor(0.2 * 16) = 3 highest entries (14, 15, 16) zeroed
        assert (flat == 0).sum() == 3
        np.testing.assert_array_equal(flat[-3:], 0.0)
        np.testing.assert_array_equal(flat[:-3], freqs.reshape(-1)[:-3])
        assert (out.amp.data.reshape(-1)[-3:] == 0).all()

    def test_middle_stage_removes_both_ends(self):
        freqs = np.arange(1.0, 17.0).reshape(1, 4, 4)
        out = parsers.band_pass_filter(make_cond(freqs), "middle")
        flat = out.freq.data.reshape(-1)
        assert flat[0] == 0.0 and flat[-1] == 0.0
        assert (flat == 0).sum() == 2

    def test_high_stage_removes_lowest(self):
        freqs = np.arange(1.0, 17.0).reshape(1, 4, 4)
        out = parsers.band_pass_filter(make_cond(freqs), "high")
        flat = out.freq.data.reshape(-1)
        np.testing.assert_array_equal(flat[:3], 0.0)
        assert (flat == 0).sum() == 3

    def test_p2_grid_filter_is_identity(self):
        freqs = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = parsers.band_pass_filter(make_cond(freqs), "low")
        np.testing.assert_array_equal(out.freq.data, freqs)

    def test_ties_eliminate_earlier_row_major_index_first(self):
        freqs = np.full((1, 4, 4), 5.0)
        out = parsers.band_pass_filter(make_cond(freqs), "low")
        flat = out.freq.data.reshape(-1)
        np.testing.assert_array_equal(flat[:3], 0.0)   # first three cells
        assert (flat[3:] == 5.0).all()

    def test_survivors_unchanged_random(self):
        rng = np.random.default_rng(3)
        freqs = rng.uniform(0.1, 9.0, size=(3, 4, 4))
        for stage in parsers.STAGES:
            out = parsers.band_pass_filter(make_cond(freqs), stage)
            kept = out.freq.data != 0
            np.testing.assert_array_equal(out.freq.data[kept], freqs[kept])


def tied_probs(rng, B, P, dtype):
    """(B, P, P) values on a coarse grid (many ties), with some rows all
    below and some all above 0.5 so the fallback fires."""
    levels = int(rng.integers(1, 4))
    probs = (rng.integers(0, levels + 1, (B, P, P)) / levels).astype(dtype)
    probs[0] = np.minimum(probs[0], 0.25)
    probs[-1] = np.maximum(probs[-1], 0.75)
    return probs


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_band_pass_matches_per_row_loop_on_ties(dtype):
    rng = np.random.default_rng(11)
    for trial in range(40):
        B, P = int(rng.integers(1, 6)), (3, 4, 8)[trial % 3]
        freqs = tied_probs(rng, B, P, dtype) + dtype(0.1)
        cond = parsers.ConditionMaps(amp=ad.Tensor(np.ones_like(freqs), dtype=dtype),
                                     freq=ad.Tensor(freqs, dtype=dtype))
        for stage in parsers.STAGES:
            n_hi, n_lo = parsers.band_pass_elimination_counts(P, stage)
            keep = np.ones((B, P * P), dtype=dtype)
            for b, row in enumerate(freqs.reshape(B, -1)):
                keep[b, np.argsort(row, kind="stable")[:n_lo]] = 0.0
                keep[b, np.argsort(-row, kind="stable")[:n_hi]] = 0.0
            out = parsers.band_pass_filter(cond, stage)
            expect = freqs * keep.reshape(B, P, P)
            assert out.freq.data.tobytes() == expect.tobytes()
            assert out.amp.data.tobytes() == keep.reshape(B, P, P).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_threshold_fallback_matches_per_row_loop_on_ties(dtype):
    rng = np.random.default_rng(12)
    for trial in range(40):
        B, P = int(rng.integers(1, 6)), (2, 4, 8)[trial % 3]
        probs = tied_probs(rng, B, P, dtype)
        expect = (probs > 0.5).astype(dtype)
        for b in range(B):
            flat, out = probs[b].reshape(-1), expect[b].reshape(-1)
            if out.sum() == 0:
                out[np.argmax(flat)] = 1.0
            elif out.sum() == P * P:
                out[np.argmin(flat)] = 0.0
        got = parsers._threshold_with_fallback(probs)
        assert got.shape == probs.shape and got.dtype == probs.dtype
        assert got.tobytes() == expect.tobytes()


class TestStageParams:
    def test_constant_maps_no_elimination(self):
        cond = parsers.ConditionMaps(amp=ad.Tensor(np.full((1, 2, 2), 2.0)),
                                     freq=ad.Tensor(np.full((1, 2, 2), 3.0)))
        a, w = parsers.stage_params(cond)
        assert a.data.reshape(-1)[0] == pytest.approx(2.0)
        assert w.data.reshape(-1)[0] == pytest.approx(3.0)

    def test_zeros_counted_in_mean(self):
        # P=4, low stage zeroes floor(0.2*16)=3 entries; amp all 1 -> 13/16
        freqs = np.arange(1.0, 17.0).reshape(1, 4, 4)
        filtered = parsers.band_pass_filter(make_cond(freqs), "low")
        a, _ = parsers.stage_params(filtered)
        assert a.data.reshape(-1)[0] == pytest.approx(13.0 / 16.0)

    def test_matches_mean_oracle(self):
        rng = np.random.default_rng(4)
        amp = rng.standard_normal((2, 4, 4))
        freq = rng.uniform(0.1, 4.0, size=(2, 4, 4))
        cond = parsers.ConditionMaps(amp=ad.Tensor(amp, dtype=np.float64),
                                     freq=ad.Tensor(freq, dtype=np.float64))
        filtered = parsers.band_pass_filter(cond, "middle")
        a, w = parsers.stage_params(filtered)
        np.testing.assert_allclose(a.data.reshape(2), filtered.amp.data.mean(axis=(1, 2)), rtol=1e-12)
        np.testing.assert_allclose(w.data.reshape(2), filtered.freq.data.mean(axis=(1, 2)), rtol=1e-12)


# ---------------------------------------------------------------------------
# shift parser
# ---------------------------------------------------------------------------


class TestShiftParse:
    def test_mask_invariants_over_random_inputs(self):
        rng = np.random.default_rng(5)
        params = parsers.init_shift_parser(rng, channels=4)
        for trial in range(25):
            f = rand_feature(rng, B=2, H=16, C=4)
            m = parsers.shift_parse(f, k=4, params=params)
            assert set(np.unique(m.binary)) <= {0.0, 1.0}
            P2 = m.grid_side ** 2
            assert np.all(m.n_focal >= 1) and np.all(m.n_focal <= P2 - 1)
            assert np.all(m.n_focal + m.n_context == P2)
            # hard mask tensor forward is exactly the binary map
            np.testing.assert_array_equal(m.mask.data, m.binary)

    def test_all_high_probs_fallback_drops_minimum(self):
        rng = np.random.default_rng(6)
        params = parsers.init_shift_parser(rng, channels=2)
        # saturate the final conv bias so every prob > 0.5
        params.field.conv_b[5] = ad.Tensor(np.array([25.0]))
        params.field.skip_b = ad.Tensor(np.array([25.0]))
        f = rand_feature(rng, B=1, H=8, C=2)
        m = parsers.shift_parse(f, k=2, params=params)
        assert (m.probs > 0.5).all()
        assert m.n_focal[0] == m.grid_side ** 2 - 1
        dropped = np.unravel_index(np.argmin(m.probs[0]), m.probs[0].shape)
        assert m.binary[0][dropped] == 0.0

    def test_determinism_bit_for_bit(self):
        rng = np.random.default_rng(7)
        params = parsers.init_shift_parser(rng, channels=4)
        f_np = np.random.default_rng(99).standard_normal((2, 16, 16, 4)).astype(np.float32)
        m1 = parsers.shift_parse(ad.Tensor(f_np), k=4, params=params)
        m2 = parsers.shift_parse(ad.Tensor(f_np.copy()), k=4, params=params)
        assert m1.probs.tobytes() == m2.probs.tobytes()
        assert m1.binary.tobytes() == m2.binary.tobytes()

    def test_probs_invariant_to_matched_channel_permutation(self):
        rng = np.random.default_rng(8)
        C = 6
        params = parsers.init_shift_parser(rng, channels=C)
        f_np = rng.standard_normal((1, 8, 8, C)).astype(np.float32)
        perm = rng.permutation(C)
        permuted = parsers.ShiftParserParams(
            cond_w=ad.Tensor(params.cond_w.data[:, :, perm, :]),
            cond_b=params.cond_b, field=params.field)
        m_base = parsers.shift_parse(ad.Tensor(f_np), k=2, params=params)
        m_perm = parsers.shift_parse(ad.Tensor(f_np[:, :, :, perm]), k=2, params=permuted)
        np.testing.assert_allclose(m_perm.probs, m_base.probs, atol=1e-6)

    def test_straight_through_gradient_matches_soft_on_mask_linear_loss(self):
        # downstream loss linear in the mask -> hard-mode gradient w.r.t. the
        # pre-threshold probabilities must equal the soft-mode gradient
        rng = np.random.default_rng(9)
        with ad.precision("float64"):
            params = parsers.init_shift_parser(rng, channels=3, dtype=np.float64)
            f_np = rng.standard_normal((1, 8, 8, 3))
            coeffs = rng.standard_normal((1, 4, 4))

            grads = {}
            for mode in ("hard", "soft"):
                for t in params.field.conv_w + params.field.conv_b:
                    t.zero_grad()
                params.cond_w.zero_grad()
                m = parsers.shift_parse(ad.Tensor(f_np), k=2, params=params, mode=mode)
                loss = ad.reduce_sum(ad.mul(m.mask, ad.Tensor(coeffs, dtype=np.float64)))
                loss.backward()
                grads[mode] = params.cond_w.grad.copy()
            np.testing.assert_allclose(grads["hard"], grads["soft"], rtol=1e-10)

    def test_soft_mode_gradcheck(self):
        rng = np.random.default_rng(10)
        with ad.precision("float64"):
            params = parsers.init_shift_parser(rng, channels=2, dtype=np.float64)
            f = ad.Tensor(rng.standard_normal((1, 8, 8, 2)), requires_grad=True)

            def run(ts):
                m = parsers.shift_parse(ts[0], k=2, params=params, mode="soft")
                return m.mask

            rep = grad_check(run, [f], tol=1e-4, rng=rng)
        assert rep.passed, str(rep)

    def test_smoothness_beats_iid_bernoulli(self):
        rng = np.random.default_rng(11)
        params = parsers.init_shift_parser(rng, channels=3)
        disagreements_field, disagreements_iid = [], []
        for _ in range(30):
            f = rand_feature(rng, B=1, H=16, C=3)
            m = parsers.shift_parse(f, k=2, params=params)
            b = m.binary[0]
            disagreements_field.append(_neighbor_disagreements(b))
            flat = np.zeros(b.size)
            flat[rng.choice(b.size, size=int(m.n_focal[0]), replace=False)] = 1.0
            disagreements_iid.append(_neighbor_disagreements(flat.reshape(b.shape)))
        assert np.mean(disagreements_field) < np.mean(disagreements_iid)

    def test_shape_validation(self):
        rng = np.random.default_rng(12)
        params = parsers.init_shift_parser(rng, channels=3)
        with pytest.raises(DimensionError):
            parsers.shift_parse(ad.Tensor(np.zeros((1, 8, 6, 3))), k=2, params=params)
        with pytest.raises(DimensionError):
            parsers.shift_parse(ad.Tensor(np.zeros((1, 9, 9, 3))), k=2, params=params)
        with pytest.raises(ConfigError):
            parsers.shift_parse(rand_feature(rng, C=3), k=4, params=params, mode="fuzzy")


def _neighbor_disagreements(mask):
    h = (mask[1:, :] != mask[:-1, :]).sum()
    v = (mask[:, 1:] != mask[:, :-1]).sum()
    return int(h + v)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


class TestPlainFieldParse:
    def test_output_independent_of_feature(self):
        rng = np.random.default_rng(13)
        params = parsers.init_shift_parser(rng, channels=4)
        f1 = rand_feature(rng, B=1, H=16, C=4)
        f2 = rand_feature(rng, B=1, H=16, C=4)
        m1 = parsers.plain_field_parse(f1, k=4, params=params)
        m2 = parsers.plain_field_parse(f2, k=4, params=params)
        np.testing.assert_array_equal(m1.probs, m2.probs)

    def test_same_invariants_as_shift_parse(self):
        rng = np.random.default_rng(14)
        params = parsers.init_shift_parser(rng, channels=4)
        m = parsers.plain_field_parse(rand_feature(rng, C=4), k=4, params=params)
        P2 = m.grid_side ** 2
        assert set(np.unique(m.binary)) <= {0.0, 1.0}
        assert np.all(m.n_focal >= 1) and np.all(m.n_focal <= P2 - 1)


class TestSpatialAttentionParse:
    def test_zero_weights_bias_only_fallback(self):
        rng = np.random.default_rng(15)
        params = parsers.SAParserParams(w=ad.Tensor(np.zeros((1, 1, 2, 1))),
                                        b=ad.Tensor(np.array([2.0])))
        f = rand_feature(rng, B=1, H=8, C=3)
        m = parsers.spatial_attention_parse(f, k=2, params=params)
        sig = 1.0 / (1.0 + math.exp(-2.0))
        np.testing.assert_allclose(m.probs, sig, rtol=1e-6)
        # all probs equal and > 0.5 -> fallback demotes the first cell
        assert m.n_focal[0] == m.grid_side ** 2 - 1
        assert m.binary[0, 0, 0] == 0.0

    def test_constant_feature_constant_probs(self):
        params = parsers.SAParserParams(w=ad.Tensor(np.ones((1, 1, 2, 1))),
                                        b=ad.Tensor(np.array([-4.0])))
        f = ad.Tensor(np.full((1, 8, 8, 3), 0.5))
        m = parsers.spatial_attention_parse(f, k=2, params=params)
        assert np.allclose(m.probs, m.probs[0, 0, 0])
        assert m.n_focal[0] == 1  # all below 0.5 -> fallback promotes one

    def test_matches_composition_oracle(self):
        rng = np.random.default_rng(16)
        params = parsers.SAParserParams(
            w=ad.Tensor(rng.standard_normal((1, 1, 2, 1)), dtype=np.float64),
            b=ad.Tensor(rng.standard_normal(1), dtype=np.float64))
        f_np = rng.standard_normal((1, 8, 8, 5))
        with ad.precision("float64"):
            m = parsers.spatial_attention_parse(ad.Tensor(f_np), k=4, params=params)
        pooled = f_np.reshape(1, 2, 4, 2, 4, 5).mean(axis=(2, 4))
        feats = np.stack([pooled.mean(axis=-1), pooled.max(axis=-1)], axis=-1)
        logits = feats @ params.w.data[0, 0, :, 0] + params.b.data[0]
        np.testing.assert_allclose(m.probs, 1.0 / (1.0 + np.exp(-logits)), rtol=1e-10)


def read_pgm_p2(path):
    """Pixels of a plain PGM (P2) file as written by `netpbm.write_pgm_p2`."""
    with open(path, encoding="ascii") as fh:
        tokens = fh.read().split()
    w, h = int(tokens[1]), int(tokens[2])
    return np.array(tokens[4:], dtype=np.int64).reshape(h, w)


class TestMaskExport:
    def test_pgm_p2_round_trip(self, tmp_path):
        rng = np.random.default_rng(17)
        masks = [rng.integers(0, 2, size=(4, 4)) for _ in range(3)]
        paths = parsers.export_stage_masks(masks, str(tmp_path))
        assert [p.endswith(f"mask_stage{i}.pgm") for i, p in enumerate(paths, 1)]
        for mask, path in zip(masks, paths):
            np.testing.assert_array_equal(read_pgm_p2(path), mask)
        with open(paths[0]) as fh:
            header = fh.read().split()
        assert header[0] == "P2" and header[3] == "1"
