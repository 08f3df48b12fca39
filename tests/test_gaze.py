"""Tests for the focal/context stage: splitting, reassembly, abstraction,
position encoding, context impression, and the batched stage equivalence.

The unbatched reference formulation of the stage (per-sample focal and
context token lists) lives here as the oracle for the batched package code.
Nothing backpropagates through it, so its gathers and scatters are plain
numpy indexing on `.data`."""

import numpy as np
import pytest

from pronext import autodiff as ad
from pronext import gaze, parsers
from pronext.errors import ConfigError, DimensionError, InputError
from pronext.gradcheck import grad_check


def layer_norm_np(v, eps=1e-5):
    mu = v.mean(axis=-1, keepdims=True)
    var = v.var(axis=-1, keepdims=True)
    return (v - mu) / np.sqrt(var + eps)


def softmax_np(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def manual_mask(binary):
    """PatchMask with a fixed binary map: (P, P) is a batch of 1, or (B, P, P)."""
    binary = np.asarray(binary, dtype=ad.default_dtype())
    if binary.ndim == 2:
        binary = binary[None]
    probs = np.where(binary == 1, 0.9, 0.1).astype(binary.dtype)
    return parsers.PatchMask(probs=probs, binary=binary, mask=ad.Tensor(binary))


def small_stage(rng, C=2, k=2, D=8, layers=1, heads=2):
    return gaze.init_gaze_stage(rng, C=C, k=k, D=D, ca_layers=layers, heads=heads)


# ---------------------------------------------------------------------------
# unbatched reference formulation (test oracle)
# ---------------------------------------------------------------------------


def _tensor(a):
    return ad.Tensor(a, dtype=a.dtype)


def split_by_mask(f, m, k):
    """Partition one feature map into focal and context token lists.

    f: (H, W, C); m: PatchMask (first sample used). Returns
    (focal_tokens, context_tokens, (focal_positions, context_positions));
    tokens are flattened k x k patches, positions are (row, col) patch
    coordinates, row-major within each group.
    """
    if f.ndim != 3:
        raise DimensionError("split_by_mask expects a single (H, W, C) sample")
    H, W, C = f.shape
    P, Q = H // k, W // k
    if m.grid_side != P:
        raise DimensionError(f"mask grid {m.grid_side} does not match H/k = {P}")
    tokens = f.data.reshape(P, k, Q, k, C).transpose(0, 2, 1, 3, 4).reshape(P * Q, k * k * C)
    flat = m.binary[0].reshape(-1)
    focal_idx = np.nonzero(flat == 1)[0]
    context_idx = np.nonzero(flat == 0)[0]
    positions = (np.stack(np.divmod(focal_idx, P), axis=1),
                 np.stack(np.divmod(context_idx, P), axis=1))
    return _tensor(tokens[focal_idx]), _tensor(tokens[context_idx]), positions


def focal_reassemble(focal_tokens, positions, H, W, k):
    """Write focal patches back in place; every other position stays zero."""
    P, Q = H // k, W // k
    pos = np.asarray(positions)
    if pos.size and (pos.min() < 0 or pos.max() >= P):
        raise InputError("focal_reassemble: position outside the patch grid")
    flat_idx = pos[:, 0] * P + pos[:, 1]
    if len(np.unique(flat_idx)) != len(flat_idx):
        raise InputError("focal_reassemble: duplicate positions")
    C = focal_tokens.shape[1] // (k * k)
    grid = np.zeros((P * Q, k * k * C), dtype=focal_tokens.dtype)
    grid[flat_idx] = focal_tokens.data
    return _tensor(grid.reshape(P, Q, k, k, C).transpose(0, 2, 1, 3, 4).reshape(H, W, C))


def conditional_position_encoding(focal_tokens, context_tokens, positions, params):
    """Scatter all tokens onto the patch grid, convolve, gather back per group.

    positions is the (focal_positions, context_positions) pair from
    split_by_mask. Token width must match the depthwise kernel channels.
    """
    pos_f, pos_c = positions
    P = int(max(pos_f.max(initial=-1), pos_c.max(initial=-1))) + 1
    idx_f = pos_f[:, 0] * P + pos_f[:, 1]
    idx_c = pos_c[:, 0] * P + pos_c[:, 1]
    D = focal_tokens.shape[-1]
    grid = np.zeros((P * P, D), dtype=focal_tokens.dtype)
    grid[idx_f] = focal_tokens.data
    grid[idx_c] = context_tokens.data
    enc = ad.depthwise_conv2d(_tensor(grid.reshape(P, P, D)), params.pe_w, params.pe_b)
    enc = enc.data.reshape(P * P, D)
    return _tensor(enc[idx_f]), _tensor(enc[idx_c])


def context_impression(focal_tokens, context_tokens, positions, params):
    """Single-sample Context Impression.

    Projects both groups to the common width, adds conditional position
    encodings, runs the cross-attention stack (focal queries, context
    keys/values, no key weights), and mean-pools the focal tokens.
    """
    if focal_tokens.shape[0] == 0 or context_tokens.shape[0] == 0:
        raise InputError("context_impression needs both groups nonempty")
    q = ad.linear(focal_tokens, params.token_w, params.token_b)
    kv = ad.linear(context_tokens, params.token_w, params.token_b)
    pe_f, pe_c = conditional_position_encoding(q, kv, positions, params)
    h = ad.add(q, pe_f)
    kv = ad.add(kv, pe_c)
    for layer in params.ca_layers:
        h = gaze._ca_block(h, kv, layer, params.heads)
    h = ad.layer_norm(h, params.out_ln_g, params.out_ln_b)
    return ad.reduce_mean(h, axis=0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_padded_group_indices_match_per_row_loop(dtype):
    rng = np.random.default_rng(13)
    for trial in range(60):
        B, P = int(rng.integers(1, 6)), (2, 4, 8)[trial % 3]
        binary = (rng.random((B, P, P)) < rng.random()).astype(dtype)
        binary[0] = trial % 2                     # a row with no hits or all hits
        for value in (0.0, 1.0):
            rows = [np.nonzero(binary[b].reshape(-1) == value)[0] for b in range(B)]
            T = max(len(r) for r in rows)
            idx = np.zeros((B, T), dtype=np.int64)     # padding repeats index 0
            valid = np.zeros((B, T), dtype=dtype)
            for b, r in enumerate(rows):
                idx[b, :len(r)] = r
                valid[b, :len(r)] = 1.0
            got_idx, got_valid = gaze._padded_group_indices(binary, value)
            assert got_idx.dtype == np.int64 and got_valid.dtype == dtype
            np.testing.assert_array_equal(got_idx, idx)
            np.testing.assert_array_equal(got_valid, valid)


class TestSplitByMask:
    def test_counts_all_focal_but_one(self):
        rng = np.random.default_rng(0)
        f = ad.Tensor(rng.standard_normal((8, 8, 3)))
        binary = np.ones((4, 4))
        binary[2, 1] = 0
        focal, context, (pos_f, pos_c) = split_by_mask(f, manual_mask(binary), k=2)
        assert focal.shape == (15, 2 * 2 * 3)
        assert context.shape == (1, 2 * 2 * 3)
        np.testing.assert_array_equal(pos_c, [[2, 1]])

    def test_partition_round_trip(self):
        rng = np.random.default_rng(1)
        f_np = rng.standard_normal((8, 8, 3)).astype(np.float32)
        binary = (rng.random((4, 4)) > 0.5).astype(float)
        binary[0, 0], binary[3, 3] = 1, 0  # keep both groups nonempty
        f = ad.Tensor(f_np)
        focal, context, (pos_f, pos_c) = split_by_mask(f, manual_mask(binary), k=2)
        rebuilt = ad.add(focal_reassemble(focal, pos_f, 8, 8, 2),
                         focal_reassemble(context, pos_c, 8, 8, 2))
        np.testing.assert_array_equal(rebuilt.data, f_np)

    def test_k1_tokens_are_cells(self):
        rng = np.random.default_rng(2)
        f_np = rng.standard_normal((4, 4, 3)).astype(np.float32)
        binary = np.zeros((4, 4))
        binary[1, 2] = 1
        focal, _, (pos_f, _) = split_by_mask(ad.Tensor(f_np), manual_mask(binary), k=1)
        np.testing.assert_array_equal(focal.data[0], f_np[1, 2])
        np.testing.assert_array_equal(pos_f, [[1, 2]])

    def test_grid_mismatch_error(self):
        f = ad.Tensor(np.zeros((8, 8, 3)))
        with pytest.raises(DimensionError):
            split_by_mask(f, manual_mask(np.ones((2, 2))), k=2)


class TestFocalReassemble:
    def test_all_focal_identity(self):
        rng = np.random.default_rng(3)
        f_np = rng.standard_normal((6, 6, 2)).astype(np.float32)
        mask = manual_mask(np.ones((3, 3)))
        mask.binary[0, 1, 1] = 0  # split needs nonempty context
        focal, _, (pos_f, _) = split_by_mask(ad.Tensor(f_np), mask, k=2)
        out = focal_reassemble(focal, pos_f, 6, 6, 2)
        expected = f_np.copy()
        expected[2:4, 2:4, :] = 0
        np.testing.assert_array_equal(out.data, expected)

    def test_single_token_nonzero_count(self):
        rng = np.random.default_rng(4)
        k, C = 2, 3
        token = ad.Tensor(rng.standard_normal((1, k * k * C)))
        out = focal_reassemble(token, np.array([[1, 1]]), 8, 8, k)
        assert np.count_nonzero(out.data) == k * k * C

    def test_masked_write_equals_upsampled_mask_times_feature(self):
        rng = np.random.default_rng(5)
        f_np = rng.standard_normal((8, 8, 4)).astype(np.float32)
        binary = (rng.random((4, 4)) > 0.4).astype(float)
        binary[0, 0], binary[1, 1] = 1, 0
        f = ad.Tensor(f_np)
        focal, _, (pos_f, _) = split_by_mask(f, manual_mask(binary), k=2)
        rebuilt = focal_reassemble(focal, pos_f, 8, 8, 2)
        oracle = f_np * np.repeat(np.repeat(binary, 2, 0), 2, 1)[:, :, None]
        np.testing.assert_array_equal(rebuilt.data, oracle.astype(np.float32))

    def test_duplicate_positions_rejected(self):
        token = ad.Tensor(np.ones((2, 4)))
        with pytest.raises(InputError):
            focal_reassemble(token, np.array([[0, 0], [0, 0]]), 4, 4, 1)


class TestFocalAbstract:
    def test_shape_contract(self):
        rng = np.random.default_rng(6)
        params = small_stage(rng, C=8, k=8)
        f = ad.Tensor(rng.standard_normal((1, 32, 32, 8)))
        out = gaze.focal_abstract(f, params)
        assert out.shape == (1, 16, 16, 16)

    def test_zero_offsets_match_pool_then_rigid_conv(self):
        rng = np.random.default_rng(7)
        params = small_stage(rng, C=3, k=2)
        f = ad.Tensor(rng.standard_normal((1, 8, 8, 3)))
        out = gaze.focal_abstract(f, params)
        pooled = ad.max_pool2d(f, 2, 2)
        rigid = ad.conv2d(pooled, params.deform_w, params.deform_b, padding=1)
        assert out.data.tobytes() == rigid.data.tobytes()

    def test_odd_dims_rejected(self):
        rng = np.random.default_rng(8)
        params = small_stage(rng, C=1)
        with pytest.raises(DimensionError):
            gaze.focal_abstract(ad.Tensor(np.zeros((1, 5, 5, 1))), params)

    def test_gradient_through_chain(self):
        rng = np.random.default_rng(9)
        with ad.precision("float64"):
            params = small_stage(rng, C=2, k=2)
            # mid-cell offsets keep bilinear sampling away from its kinks
            params.offset_b = ad.Tensor(rng.choice([-1, 1], 18) * rng.uniform(0.3, 0.7, 18),
                                        requires_grad=True, dtype=np.float64)
            x = ad.Tensor(rng.standard_normal((1, 8, 8, 2)), requires_grad=True)
            rep = grad_check(lambda ts: gaze.focal_abstract(ts[0], params),
                             [x, params.deform_w, params.offset_b], tol=1e-4, rng=rng)
        assert rep.passed, str(rep)


class TestConditionalPositionEncoding:
    def test_zero_weights_bias_only(self):
        rng = np.random.default_rng(10)
        params = small_stage(rng, C=1, k=1, D=4)
        params.pe_w = ad.Tensor(np.zeros((3, 3, 4)))
        params.pe_b = ad.Tensor(np.array([1.0, 2.0, 3.0, 4.0]))
        focal = ad.Tensor(rng.standard_normal((3, 4)))
        context = ad.Tensor(rng.standard_normal((1, 4)))
        positions = (np.array([[0, 0], [0, 1], [1, 0]]), np.array([[1, 1]]))
        pe_f, pe_c = conditional_position_encoding(focal, context, positions, params)
        np.testing.assert_allclose(pe_f.data, np.tile([1, 2, 3, 4], (3, 1)), rtol=1e-6)
        np.testing.assert_allclose(pe_c.data, [[1, 2, 3, 4]], rtol=1e-6)

    def test_matches_scatter_conv_gather_oracle(self):
        rng = np.random.default_rng(11)
        D, P = 3, 4
        with ad.precision("float64"):
            params = small_stage(rng, C=1, k=1, D=3, heads=1)
            n_focal = 6
            order = rng.permutation(P * P)
            idx_f, idx_c = order[:n_focal], order[n_focal:]
            positions = (np.stack(np.divmod(idx_f, P), 1), np.stack(np.divmod(idx_c, P), 1))
            focal = ad.Tensor(rng.standard_normal((n_focal, D)))
            context = ad.Tensor(rng.standard_normal((P * P - n_focal, D)))
            pe_f, pe_c = conditional_position_encoding(focal, context, positions, params)

        grid = np.zeros((P, P, D))
        grid.reshape(-1, D)[idx_f] = focal.data
        grid.reshape(-1, D)[idx_c] = context.data
        padded = np.pad(grid, ((1, 1), (1, 1), (0, 0)))
        out = np.zeros_like(grid)
        for i in range(P):
            for j in range(P):
                win = padded[i:i + 3, j:j + 3, :]
                out[i, j] = (win * params.pe_w.data).sum(axis=(0, 1)) + params.pe_b.data
        np.testing.assert_allclose(pe_f.data, out.reshape(-1, D)[idx_f], rtol=1e-10)
        np.testing.assert_allclose(pe_c.data, out.reshape(-1, D)[idx_c], rtol=1e-10)


class TestContextImpression:
    def _identity_params(self, rng, D):
        params = small_stage(rng, C=1, k=1, D=D, layers=1, heads=1)
        eye = np.eye(D)
        at = params.ca_layers[0].attn
        for name in ("wq", "wk", "wv", "wo"):
            setattr(at, name, ad.Tensor(eye, dtype=np.float64))
        params.ca_layers[0].ffn_w1 = ad.Tensor(np.zeros((D, D)), dtype=np.float64)
        params.ca_layers[0].ffn_w2 = ad.Tensor(np.zeros((D, D)), dtype=np.float64)
        params.token_w = ad.Tensor(eye, dtype=np.float64)
        params.pe_w = ad.Tensor(np.zeros((3, 3, D)), dtype=np.float64)
        return params

    def test_two_token_closed_form_oracle(self):
        rng = np.random.default_rng(12)
        D = 4
        with ad.precision("float64"):
            params = self._identity_params(rng, D)
            x_f = rng.standard_normal((2, D))
            x_c = rng.standard_normal((2, D))
            positions = (np.array([[0, 0], [0, 1]]), np.array([[1, 0], [1, 1]]))
            e_c = context_impression(ad.Tensor(x_f), ad.Tensor(x_c), positions, params)

        q_n = layer_norm_np(x_f)
        kv_n = layer_norm_np(x_c)
        attn = softmax_np(q_n @ kv_n.T / np.sqrt(D)) @ kv_n
        h = x_f + attn
        oracle = layer_norm_np(h).mean(axis=0)
        np.testing.assert_allclose(e_c.data, oracle, rtol=1e-9)

    def test_order_relabeling_invariance(self):
        rng = np.random.default_rng(13)
        with ad.precision("float64"):
            params = small_stage(rng, C=2, k=2, D=8, layers=2, heads=2)
            n_f, n_c, width = 5, 11, 8
            order = rng.permutation(16)
            pos_f = np.stack(np.divmod(order[:n_f], 4), 1)
            pos_c = np.stack(np.divmod(order[n_f:], 4), 1)
            tok_f = rng.standard_normal((n_f, width))
            tok_c = rng.standard_normal((n_c, width))
            base = context_impression(ad.Tensor(tok_f), ad.Tensor(tok_c),
                                           (pos_f, pos_c), params)
            pf = rng.permutation(n_f)
            pc = rng.permutation(n_c)
            permuted = context_impression(ad.Tensor(tok_f[pf]), ad.Tensor(tok_c[pc]),
                                               (pos_f[pf], pos_c[pc]), params)
        np.testing.assert_allclose(permuted.data, base.data, rtol=1e-9)

    def test_empty_group_rejected(self):
        rng = np.random.default_rng(14)
        params = small_stage(rng, C=1, k=1, D=4, heads=1)
        with pytest.raises(InputError):
            context_impression(ad.Tensor(np.zeros((0, 4))), ad.Tensor(np.ones((2, 4))),
                                    (np.zeros((0, 2), int), np.array([[0, 0], [0, 1]])), params)

    def test_heads_divisibility(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ConfigError):
            gaze.init_gaze_stage(rng, C=2, k=2, D=6, ca_layers=1, heads=4)


class TestGazeShiftStage:
    def test_shape_contract(self):
        rng = np.random.default_rng(16)
        C, k, D = 8, 8, 16
        stage = gaze.init_gaze_stage(rng, C=C, k=k, D=D, ca_layers=1, heads=4)
        parser = parsers.init_shift_parser(rng, channels=C)
        f = ad.Tensor(rng.standard_normal((2, 32, 32, C)))
        out = gaze.gaze_shift(f, k, parser, stage)
        assert out.f_next.shape == (2, 16, 16, 16)
        assert out.e_c.shape == (2, D)
        assert out.mask.grid_side == 4

    def test_batched_equals_unbatched_reference(self):
        rng = np.random.default_rng(17)
        with ad.precision("float64"):
            C, k, D = 3, 2, 8
            stage = gaze.init_gaze_stage(rng, C=C, k=k, D=D, ca_layers=2, heads=2)
            parser = parsers.init_shift_parser(rng, channels=C)
            f_np = rng.standard_normal((3, 8, 8, C))
            out = gaze.gaze_shift(ad.Tensor(f_np), k, parser, stage)
            for i in range(3):
                f_i = ad.Tensor(f_np[i])
                m_i = parsers.shift_parse(ad.Tensor(f_np[i][None]), k, parser)
                focal, context, positions = split_by_mask(f_i, m_i, k)
                ref = context_impression(focal, context, positions, stage)
                np.testing.assert_allclose(out.e_c.data[i], ref.data, rtol=1e-9)

    def test_batched_matches_reference_at_padding_extremes(self):
        # one batch holding a single focal patch, a single context patch and
        # a random split, so each group block is mostly padding for one sample
        rng = np.random.default_rng(23)
        C, k, P = 3, 2, 4
        with ad.precision("float64"):
            stage = gaze.init_gaze_stage(rng, C=C, k=k, D=8, ca_layers=2, heads=2)
            binary = np.zeros((3, P, P))
            binary[0, 2, 1] = 1
            binary[1] = 1
            binary[1, 0, 3] = 0
            binary[2] = rng.random((P, P)) < 0.5
            binary[2, 0, 0], binary[2, 3, 3] = 1, 0
            f_np = rng.standard_normal((3, P * k, P * k, C))
            e_c = gaze.context_impression_batched(ad.Tensor(f_np), k, manual_mask(binary), stage)
            for i in range(3):
                focal, context, positions = split_by_mask(ad.Tensor(f_np[i]),
                                                          manual_mask(binary[i]), k)
                ref = context_impression(focal, context, positions, stage)
                np.testing.assert_allclose(e_c.data[i], ref.data, rtol=1e-9)

    def test_f_next_ignores_context_content(self):
        rng = np.random.default_rng(18)
        C, k = 4, 4
        stage = gaze.init_gaze_stage(rng, C=C, k=k, D=8, ca_layers=1, heads=2)
        parser = parsers.init_shift_parser(rng, channels=C)
        f_np = rng.standard_normal((1, 16, 16, C)).astype(np.float32)
        out1 = gaze.gaze_shift(ad.Tensor(f_np), k, parser, stage)
        binary = out1.mask.binary[0]
        ctx_cells = np.argwhere(binary == 0)
        r, c = ctx_cells[0]
        f_mod = f_np.copy()
        f_mod[0, r * k:(r + 1) * k, c * k:(c + 1) * k, :] += 0.01
        out2 = gaze.gaze_shift(ad.Tensor(f_mod), k, parser, stage)
        # same mask must come out (perturbation is tiny but the parser only
        # sees patch means; re-check rather than assume)
        if (out2.mask.binary == out1.mask.binary).all():
            assert out1.f_next.data.tobytes() == out2.f_next.data.tobytes()
            assert not np.array_equal(out1.e_c.data, out2.e_c.data)

    def test_partition_counts(self):
        rng = np.random.default_rng(19)
        C, k = 3, 2
        stage = gaze.init_gaze_stage(rng, C=C, k=k, D=8, ca_layers=1, heads=2)
        parser = parsers.init_shift_parser(rng, channels=C)
        f = ad.Tensor(rng.standard_normal((4, 8, 8, C)))
        out = gaze.gaze_shift(f, k, parser, stage)
        assert out.mask.binary.shape == (4, 4, 4)
        assert np.all((1 <= out.mask.n_focal) & (out.mask.n_focal <= 15))

    def test_soft_mode_full_stage_gradcheck(self):
        rng = np.random.default_rng(20)
        with ad.precision("float64"):
            C, k = 2, 2
            stage = gaze.init_gaze_stage(rng, C=C, k=k, D=4, ca_layers=1, heads=2)
            parser = parsers.init_shift_parser(rng, channels=C)
            x = ad.Tensor(rng.standard_normal((1, 8, 8, C)), requires_grad=True)

            def run(ts):
                out = gaze.gaze_shift(ts[0], k, parser, stage, mode="soft")
                return ad.add(ad.reduce_sum(ad.mul(out.f_next, out.f_next)),
                              ad.reduce_sum(out.e_c))

            rep = grad_check(run, [x, parser.cond_w, stage.token_w], tol=1e-4, rng=rng)
        assert rep.passed, str(rep)

    def test_determinism(self):
        rng = np.random.default_rng(21)
        C, k = 3, 2
        stage = gaze.init_gaze_stage(rng, C=C, k=k, D=8, ca_layers=1, heads=2)
        parser = parsers.init_shift_parser(rng, channels=C)
        f_np = np.random.default_rng(5).standard_normal((2, 8, 8, C)).astype(np.float32)
        a = gaze.gaze_shift(ad.Tensor(f_np), k, parser, stage)
        b = gaze.gaze_shift(ad.Tensor(f_np.copy()), k, parser, stage)
        assert a.f_next.data.tobytes() == b.f_next.data.tobytes()
        assert a.e_c.data.tobytes() == b.e_c.data.tobytes()

    def test_input_validation(self):
        rng = np.random.default_rng(22)
        stage = gaze.init_gaze_stage(rng, C=2, k=2, D=4, ca_layers=1, heads=2)
        parser = parsers.init_shift_parser(rng, channels=2)
        with pytest.raises(DimensionError):
            gaze.gaze_shift(ad.Tensor(np.zeros((8, 8, 2))), 2, parser, stage)
        with pytest.raises(DimensionError):
            gaze.gaze_shift(ad.Tensor(np.zeros((1, 6, 6, 2))), 2, parser, stage)
