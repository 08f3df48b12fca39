"""Kernel-level tests for the tensor engine.

Every derived expectation is computed by an independent oracle written here
(nested loops, closed-form interpolation, scalar formulas) rather than by
the kernel under test.
"""

import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from pronext import autodiff as ad
from pronext import gradcheck
from pronext import model as M
from pronext.cli import _desk_ablation_config
from pronext.errors import DimensionError, GraphError, InputError
from pronext.experiments import ABLATION_ROWS
from pronext.gradcheck import grad_check


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def conv2d_oracle(x, w, b=None, stride=1, padding=0):
    """Direct nested-loop sliding-window sum."""
    H, W, C = x.shape
    kh, kw, _, Co = w.shape
    xp = np.pad(x, ((padding, padding), (padding, padding), (0, 0)))
    Ho = (H + 2 * padding - kh) // stride + 1
    Wo = (W + 2 * padding - kw) // stride + 1
    out = np.zeros((Ho, Wo, Co))
    for i in range(Ho):
        for j in range(Wo):
            win = xp[i * stride:i * stride + kh, j * stride:j * stride + kw, :]
            for co in range(Co):
                out[i, j, co] = np.sum(win * w[:, :, :, co])
    if b is not None:
        out += b
    return out


def conv2d_im2col_oracle(x, w, b, padding, g):
    """The 9x-matrix conv2d: forward and weight gradient through the full
    im2col matrix, input gradient as one GEMM into a column gradient of the
    same size, scattered back tap by tap. x (B, H, W, C), g (B, Ho, Wo, C').
    Returns (output, weight gradient, bias gradient, input gradient)."""
    B, H, W, C = x.shape
    kh, kw, _, Cout = w.shape
    p = padding
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    Ho, Wo = H + 2 * p - kh + 1, W + 2 * p - kw + 1
    windows = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    cols = np.ascontiguousarray(windows.transpose(0, 1, 2, 4, 5, 3)).reshape(B * Ho * Wo, -1)
    w2 = w.reshape(kh * kw * C, Cout)
    out = cols @ w2
    if b is not None:
        out = out + b
    g2 = g.reshape(B * Ho * Wo, Cout)
    gcols = (g2 @ w2.T).reshape(B, Ho, Wo, kh, kw, C)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gxp[:, i:i + Ho, j:j + Wo, :] += gcols[:, :, :, i, j, :]
    return (out.reshape(B, Ho, Wo, Cout), (cols.T @ g2).reshape(w.shape), g2.sum(axis=0),
            gxp[:, p:p + H, p:p + W, :])


def conv2d_blocked_grad_oracle(x, w, padding, g):
    """conv2d's (weight gradient, input gradient) through im2col matrices of
    whole-sample blocks, each at most ad._IM2COL_BLOCK_BYTES or one sample:
    the weight gradient adds each block's cols.T @ g in block order; the
    input gradient is the convolution of g, padded by kh-1-padding (cropped
    where that is negative), with the kernel flipped and transposed.
    x (B, H, W, C), w (kh, kw, C, C'), g (B, Ho, Wo, C')."""
    kh, kw, C, Cout = w.shape

    def col_blocks(a, ph, pw):
        ch, cw = max(-ph, 0), max(-pw, 0)
        a = a[:, ch:a.shape[1] - ch, cw:a.shape[2] - cw]
        ph, pw = max(ph, 0), max(pw, 0)
        a = np.pad(a, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
        Ho, Wo, c = a.shape[1] - kh + 1, a.shape[2] - kw + 1, a.shape[3]
        per = max(1, ad._IM2COL_BLOCK_BYTES // (Ho * Wo * kh * kw * c * a.itemsize))
        for s in range(0, len(a), per):
            win = np.lib.stride_tricks.sliding_window_view(a[s:s + per], (kh, kw), axis=(1, 2))
            cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(-1, kh * kw * c)
            yield slice(s * Ho * Wo, (s + per) * Ho * Wo), cols

    g2 = g.reshape(-1, Cout)
    gw = None
    for rows, cols in col_blocks(x, padding, padding):
        part = cols.T @ g2[rows]
        gw = part if gw is None else np.add(gw, part, out=gw)
    wf = np.ascontiguousarray(w[::-1, ::-1].transpose(0, 1, 3, 2)).reshape(-1, C)
    gx = np.concatenate([cols @ wf for _, cols in col_blocks(g, kh - 1 - padding,
                                                            kw - 1 - padding)])
    return gw.reshape(w.shape), gx.reshape(x.shape)


def gelu_oracle(x, g):
    """GELU (tanh form) and its input gradient for upstream g, evaluated as
    the expressions read."""
    c = math.sqrt(2.0 / math.pi)
    xx = x * x
    t = np.tanh(c * (x + 0.044715 * (xx * x)))
    d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * c * (1.0 + 0.134145 * xx)
    return 0.5 * x * (1.0 + t), g * d


def block_norm_oracle(x, gamma, beta, g, eps=1e-5):
    """block_norm in float64 numpy: (output, x, gamma and beta gradients)."""
    x, gamma, beta, g = (np.asarray(a, dtype=np.float64) for a in (x, gamma, beta, g))
    n = x.shape[1] * x.shape[2]
    xc = x - x.mean(axis=(1, 2), keepdims=True)
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=(1, 2), keepdims=True) + eps)
    xhat = xc * inv
    gy = g * gamma
    gx = inv / n * (n * gy - gy.sum(axis=(1, 2), keepdims=True)
                    - xhat * (gy * xhat).sum(axis=(1, 2), keepdims=True))
    return xhat * gamma + beta, gx, (g * xhat).sum(axis=(0, 1, 2)), g.sum(axis=(0, 1, 2))


def block_norm_centred_oracle(x, gamma, beta, g, eps=1e-5):
    """block_norm as a kernel that keeps the centred map xc from its forward
    for its backward, with the engine's GEMV sums and row tilings in the
    engine's order: (output, x, gamma and beta gradients)."""
    B, H, W, C = x.shape
    n = H * W
    ones = np.ones(n, dtype=x.dtype)

    def sums(a):
        return ones @ a.reshape(B, n, C)

    def rows(v):
        return v[..., None, :].repeat(W, axis=-2).reshape(v.shape[:-1] + (1, W * C))

    xr = x.reshape(B, H, W * C)
    xc = xr - rows(sums(xr) / n)
    data = xc * xc
    inv = 1.0 / np.sqrt(sums(data) / n + eps)
    scale = gamma * inv
    np.multiply(xc, rows(scale), out=data)
    data += rows(beta)
    g = g.reshape(xr.shape)
    gxc = g * xc
    sum_gxhat, sum_g = inv * sums(gxc), sums(g)
    gx = g * rows(scale)
    gx -= np.multiply(xc, rows(scale * inv * sum_gxhat / n), out=gxc)
    gx -= rows(scale * sum_g / n)
    return (data.reshape(x.shape), gx.reshape(x.shape), sum_gxhat.sum(axis=0),
            sum_g.sum(axis=0))


def depthwise_padded_oracle(x, w, b, g):
    """depthwise_conv2d as a kernel that keeps its zero-padded input from the
    forward for the backward, in the engine's tap order and sums: (output,
    x, w and b gradients)."""
    B, H, W, C = x.shape
    kh, kw, _ = w.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    taps = list(np.ndindex(kh, kw))
    data = xp[:, :H, :W] * w[0, 0]
    prod = np.empty_like(data)
    for i, j in taps[1:]:
        data += np.multiply(xp[:, i:i + H, j:j + W], w[i, j], out=prod)
    data += b
    ones = np.ones(B * H * W, dtype=g.dtype)
    gw = np.empty_like(w)
    prod = np.empty_like(g)
    for i, j in taps:
        np.multiply(xp[:, i:i + H, j:j + W], g, out=prod)
        gw[i, j] = ones @ prod.reshape(-1, C)
    gxp = np.zeros_like(xp)
    for i, j in taps:
        gxp[:, i:i + H, j:j + W, :] += g * w[i, j]
    return data, gxp[:, ph:ph + H, pw:pw + W, :], gw, ones @ g.reshape(-1, C)


def depthwise_einsum_oracle(x, w, b, g):
    """Depthwise conv as one contraction over the (B, H, W, kh, kw, C)
    sliding-window view: (output, x, w and b gradients). x (B, H, W, C),
    w (kh, kw, C), g like x."""
    B, H, W, C = x.shape
    kh, kw, _ = w.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    cols = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(1, 2))
    cols = cols.transpose(0, 1, 2, 4, 5, 3)
    out = np.einsum("bhwijc,ijc->bhwc", cols, w, optimize=True) + b
    gw = np.einsum("bhwijc,bhwc->ijc", cols, g, optimize=True)
    gxp = np.zeros_like(xp)
    for i in range(kh):
        for j in range(kw):
            gxp[:, i:i + H, j:j + W, :] += g * w[i, j]
    return out, gxp[:, ph:ph + H, pw:pw + W, :], gw, g.sum(axis=(0, 1, 2))


def bilinear_oracle(f, r, c):
    """Closed-form 4-point formula with zero padding."""
    H, W, C = f.shape
    r0, c0 = math.floor(r), math.floor(c)
    fr, fc = r - r0, c - c0

    def at(ri, ci):
        if 0 <= ri < H and 0 <= ci < W:
            return f[ri, ci]
        return np.zeros(C)

    return ((1 - fr) * (1 - fc) * at(r0, c0) + (1 - fr) * fc * at(r0, c0 + 1)
            + fr * (1 - fc) * at(r0 + 1, c0) + fr * fc * at(r0 + 1, c0 + 1))


def bilinear_gather_oracle(f, coords, g):
    """Batched bilinear sampling as four corner gathers: the output and, for
    upstream gradient g, the feature gradient (scattered in float64) and the
    coordinate gradient. f (B, H, W, C), coords (B, N, 2), g (B, N, C)."""
    B, H, W, C = f.shape
    N = coords.shape[1]
    r, c = coords[:, :, 0], coords[:, :, 1]
    r0 = np.floor(r).astype(np.int64)
    c0 = np.floor(c).astype(np.int64)
    fr = (r - r0).astype(f.dtype)
    fc = (c - c0).astype(f.dtype)
    ri = np.stack([r0, r0, r0 + 1, r0 + 1], axis=1)          # (B, 4, N)
    ci = np.stack([c0, c0 + 1, c0, c0 + 1], axis=1)
    inb = (ri >= 0) & (ri < H) & (ci >= 0) & (ci < W)
    safe = np.clip(ri, 0, H - 1) * W + np.clip(ci, 0, W - 1)
    vals = np.take_along_axis(f.reshape(B, H * W, C), safe.reshape(B, 4 * N)[:, :, None], axis=1)
    vals = vals.reshape(B, 4, N, C) * inb[:, :, :, None]
    wts = np.stack([(1 - fr) * (1 - fc), (1 - fr) * fc,
                    fr * (1 - fc), fr * fc], axis=1)[:, :, :, None]
    out = (vals * wts).sum(axis=1)

    gf = np.zeros((B, H * W, C))
    np.add.at(gf, (np.arange(B)[:, None, None], safe), g[:, None] * wts * inb[:, :, :, None])
    v00, v01, v10, v11 = vals[:, 0], vals[:, 1], vals[:, 2], vals[:, 3]
    fcn, frn = fc[:, :, None], fr[:, :, None]
    gr = (g * (-(1 - fcn) * v00 - fcn * v01 + (1 - fcn) * v10 + fcn * v11)).sum(axis=2)
    gc = (g * (-(1 - frn) * v00 + (1 - frn) * v01 - frn * v10 + frn * v11)).sum(axis=2)
    return out, gf.reshape(B, H, W, C), np.stack([gr, gc], axis=2)


def softmax_oracle(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def identity_attention_params(d, dtype=np.float64):
    eye = np.eye(d, dtype=dtype)
    zero = np.zeros(d, dtype=dtype)
    return ad.AttentionParams(*(ad.Tensor(eye) for _ in range(4)),
                              *(ad.Tensor(zero) for _ in range(4)))


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------


def _model_conv_shapes():
    """(B, H, W, C, kh, kw, C', padding, bias) of every conv2d call, offset
    convs included, in the forward of S/8 at 64 px (B=8), of every ladder row
    of the desk config (B=16) and of the criterion-1 model (B=2), plus the
    criterion-1 kernel checks' conv and deformable conv."""
    shapes = {(1, 7, 7, 3, 3, 3, 4, 1, True), (1, 6, 6, 2, 3, 3, 18, 1, True)}
    real = ad.conv2d

    def recording(x, w, b=None, stride=1, padding=0):
        kh, kw, _, cout = w.shape
        shapes.add((batch,) + x.shape[-3:] + (kh, kw, cout, padding, b is not None))
        return real(x, w, b, stride, padding)

    desk = _desk_ablation_config(4, 32)
    tiny = M.ModelConfig(input_size=16, stem_channels=2, patch_size=2, embed_dim=8,
                         ca_layers=1, ca_heads=2, num_classes=4).validate()
    runs = [(M.build_variant("S", 8), 8)]
    runs += [(replace(desk, **overrides).validate(), 16)
             for _, overrides in ABLATION_ROWS]
    runs += [(tiny, 2)]
    ad.conv2d = recording
    try:
        for cfg, batch in runs:
            x = np.zeros((1, cfg.input_size, cfg.input_size, cfg.in_channels), dtype=np.float32)
            with ad.no_grad():
                M.ProNextModel(cfg, seed=0).forward(x)
    finally:
        ad.conv2d = real
    return sorted(shapes)


# bound on the largest entry-wise difference of conv2d's weight and input
# gradients from the 9x-matrix formulation, as a share of that one's largest
# entry; over the model conv shapes below it measured 5.1e-7 (w) and 7.5e-7
# (x) in float32, 8.8e-16 and 1.4e-15 in float64
DRIFT_VS_FULL_IM2COL = {np.float32: 2e-6, np.float64: 1e-12}


class TestConv2d:
    def test_identity_kernel(self):
        rng = np.random.default_rng(0)
        x = ad.Tensor(rng.standard_normal((5, 5, 1)))
        w = ad.Tensor(np.ones((1, 1, 1, 1)))
        out = ad.conv2d(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_kernel_zero_output_and_grad(self):
        rng = np.random.default_rng(1)
        x = ad.Tensor(rng.standard_normal((6, 6, 3)), requires_grad=True)
        w = ad.Tensor(np.zeros((3, 3, 3, 2)))
        out = ad.conv2d(x, w, stride=1, padding=1)
        assert not out.data.any()
        ad.reduce_sum(out).backward()
        assert not x.grad.any()

    def test_3x3_input_2x2_kernel_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((3, 3, 1))
        w = rng.standard_normal((2, 2, 1, 1))
        out = ad.conv2d(ad.Tensor(x, dtype=np.float64), ad.Tensor(w, dtype=np.float64))
        assert out.shape == (2, 2, 1)
        np.testing.assert_allclose(out.data, conv2d_oracle(x, w), rtol=1e-12)

    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (1, 2)])
    def test_random_shapes_match_oracle(self, stride, padding):
        rng = np.random.default_rng(stride * 10 + padding)
        x = rng.standard_normal((9, 9, 4))
        w = rng.standard_normal((3, 3, 4, 5))
        b = rng.standard_normal(5)
        with ad.precision("float64"):
            out = ad.conv2d(ad.Tensor(x), ad.Tensor(w), ad.Tensor(b),
                            stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, conv2d_oracle(x, w, b, stride, padding), rtol=1e-10)

    def test_batched_equals_per_sample(self):
        rng = np.random.default_rng(3)
        xs = rng.standard_normal((4, 8, 8, 3))
        w = rng.standard_normal((3, 3, 3, 6))
        with ad.precision("float64"):
            batched = ad.conv2d(ad.Tensor(xs), ad.Tensor(w), padding=1).data
            single = np.stack([ad.conv2d(ad.Tensor(xs[i]), ad.Tensor(w), padding=1).data
                               for i in range(4)])
        np.testing.assert_array_equal(batched, single)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_full_im2col_formulation(self, dtype):
        # the output and bias gradient are byte-equal to the 9x-matrix GEMM;
        # the weight and input gradients are byte-equal to the blocked
        # oracle, and near the 9x-matrix ones, whose summation order differs
        rng = np.random.default_rng(4)
        shapes = _model_conv_shapes()
        assert len(shapes) > 20
        drift = DRIFT_VS_FULL_IM2COL[dtype]
        for B, H, W, C, kh, kw, Cout, padding, bias in shapes:
            x = ad.Tensor(rng.standard_normal((B, H, W, C)), requires_grad=True, dtype=dtype)
            w = ad.Tensor(rng.standard_normal((kh, kw, C, Cout)) * 0.2, requires_grad=True,
                          dtype=dtype)
            b = ad.Tensor(rng.standard_normal(Cout), requires_grad=True, dtype=dtype) \
                if bias else None
            out = ad.conv2d(x, w, b, padding=padding)
            g = rng.standard_normal(out.shape).astype(dtype)
            full = conv2d_im2col_oracle(x.data, w.data, None if b is None else b.data,
                                        padding, g)
            blocked = conv2d_blocked_grad_oracle(x.data, w.data, padding, g)
            out.backward(g)
            where = f"on x {x.shape}, w {w.shape}, padding {padding}"
            got = (out.data, full[2] if b is None else b.grad, w.grad, x.grad)
            for name, a, e in zip(("out", "b", "w", "x"), got, full[:1] + full[2:3] + blocked):
                assert a.dtype == dtype and a.tobytes() == e.tobytes(), f"{name} differs {where}"
            for name, a, e in (("w", w.grad, full[1]), ("x", x.grad, full[3])):
                share = float(np.abs(a - e).max() / np.abs(e).max())
                assert share <= drift, f"{name}: {share:.2e} of the largest {where}"

    def test_graph_keeps_no_im2col_matrix(self):
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.standard_normal((8, 16, 16, 8)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((3, 3, 8, 8)), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.conv2d(x, w, padding=1)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the output; no padded copy of x, no im2col matrix (9x the input)
        assert kept < out.data.nbytes + x.data.nbytes // 4

    def test_backward_builds_im2col_one_block_at_a_time(self):
        # the S/8 stem conv: its whole-batch im2col matrix would be 37.7 MB
        rng = np.random.default_rng(7)
        x = ad.Tensor(rng.standard_normal((8, 64, 64, 32)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((3, 3, 32, 32)) * 0.1, requires_grad=True)
        b = ad.Tensor(rng.standard_normal(32), requires_grad=True)
        out = ad.conv2d(x, w, b, padding=1)
        g = rng.standard_normal(out.shape).astype(np.float32)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out.backward(g)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # x's gradient and one block (one sample's im2col: two would pass the
        # 8 MB cap) with its padded sample, every block built in one buffer
        block = 64 * 64 * 9 * 32 * x.data.itemsize
        assert 2 * block > ad._IM2COL_BLOCK_BYTES
        assert peak < x.data.nbytes + 3 * block // 2

    @pytest.mark.parametrize("k,padding", [(3, 0), (3, 1), (3, 2), (3, 3),
                                           (1, 0), (1, 1), (2, 0), (2, 1)])
    @pytest.mark.parametrize("batched", [True, False], ids=["batched", "unbatched"])
    def test_gradcheck(self, k, padding, batched):
        # at padding 3 a 3x3 kernel's input gradient crops g (kh-1-padding < 0)
        rng = np.random.default_rng(40 + 10 * k + padding)
        shape = (2, 5, 4, 3) if batched else (5, 4, 3)
        with ad.precision("float64"):
            ts = [ad.Tensor(rng.standard_normal(shape), requires_grad=True),
                  ad.Tensor(rng.standard_normal((k, k, 3, 2)) * 0.4, requires_grad=True),
                  ad.Tensor(rng.standard_normal(2) * 0.1, requires_grad=True)]
            rep = grad_check(lambda ts: ad.conv2d(*ts, padding=padding), ts, tol=1e-4,
                             rng=rng)
        assert rep.passed, str(rep)

    def test_forward_builds_im2col_one_block_at_a_time(self):
        # the S/8 stem conv: its full im2col matrix would be 37.7 MB
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.standard_normal((8, 64, 64, 32)))
        w = ad.Tensor(rng.standard_normal((3, 3, 32, 32)) * 0.1)
        padded = 8 * 66 * 66 * 32 * x.data.itemsize
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = ad.conv2d(x, w, padding=1)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < padded + out.data.nbytes + ad._IM2COL_BLOCK_BYTES

    def test_shape_errors(self):
        x = ad.Tensor(np.zeros((4, 4, 2)))
        with pytest.raises(DimensionError):
            ad.conv2d(x, ad.Tensor(np.zeros((3, 3, 5, 1))))
        with pytest.raises(DimensionError):
            ad.conv2d(x, ad.Tensor(np.zeros((6, 6, 2, 1))))
        for stride in (0, 2):
            with pytest.raises(DimensionError):
                ad.conv2d(x, ad.Tensor(np.zeros((1, 1, 2, 1))), stride=stride)


class TestDepthwiseConv:
    @pytest.mark.parametrize("B,P,C", [(8, 8, 384), (8, 4, 384), (8, 2, 384),
                                       (16, 8, 16), (16, 4, 16), (16, 2, 16)])
    def test_float32_matches_einsum_oracle(self, B, P, C):
        # the token grids of S/8 at 64 px (B=8) and of the desk config (B=16)
        rng = np.random.default_rng(P * C)
        x = ad.Tensor(rng.standard_normal((B, P, P, C)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((3, 3, C)) * 0.4, requires_grad=True)
        b = ad.Tensor(rng.standard_normal(C) * 0.1, requires_grad=True)
        g = rng.standard_normal(x.shape).astype(np.float32)
        out = ad.depthwise_conv2d(x, w, b)
        out.backward(g)
        want = depthwise_einsum_oracle(x.data, w.data, b.data, g)
        for name, a, e in zip(("out", "x", "w", "b"), (out.data, x.grad, w.grad, b.grad), want):
            share = float(np.abs(a - e).max() / np.abs(e).max())
            assert a.dtype == np.float32 and share <= 2e-6, f"{name}: {share:.2e} of the largest"

    def test_gradcheck(self):
        rng = np.random.default_rng(33)
        with ad.precision("float64"):
            ts = [ad.Tensor(rng.standard_normal((2, 5, 4, 3)), requires_grad=True),
                  ad.Tensor(rng.standard_normal((3, 3, 3)) * 0.4, requires_grad=True),
                  ad.Tensor(rng.standard_normal(3) * 0.1, requires_grad=True)]
            rep = grad_check(lambda ts: ad.depthwise_conv2d(*ts), ts, tol=1e-5, rng=rng)
        assert rep.passed, str(rep)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_the_padded_copy_kernel(self, dtype):
        rng = np.random.default_rng(34)
        for B, H, W, C in [(8, 8, 8, 384), (16, 4, 4, 16), (2, 5, 4, 3), (1, 2, 2, 16),
                           (3, 7, 6, 5)]:
            x = ad.Tensor(rng.standard_normal((B, H, W, C)), requires_grad=True, dtype=dtype)
            w = ad.Tensor(rng.standard_normal((3, 3, C)) * 0.4, requires_grad=True, dtype=dtype)
            b = ad.Tensor(rng.standard_normal(C) * 0.1, requires_grad=True, dtype=dtype)
            g = rng.standard_normal(x.shape).astype(dtype)
            out = ad.depthwise_conv2d(x, w, b)
            out.backward(g)
            want = depthwise_padded_oracle(x.data, w.data, b.data, g)
            for name, a, e in zip(("out", "x", "w", "b"), (out.data, x.grad, w.grad, b.grad),
                                  want):
                assert a.dtype == dtype and a.tobytes() == e.tobytes(), \
                    f"{name} differs on {x.shape}"

    def test_graph_keeps_no_padded_copy(self):
        rng = np.random.default_rng(35)
        x = ad.Tensor(rng.standard_normal((8, 8, 8, 384)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((3, 3, 384)) * 0.4, requires_grad=True)
        b = ad.Tensor(rng.standard_normal(384) * 0.1, requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.depthwise_conv2d(x, w, b)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the output; a padded copy of x is another 1.56 maps
        assert kept < out.data.nbytes + x.data.nbytes // 4


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


class TestMaxPool:
    def test_constant_input(self):
        out = ad.max_pool2d(ad.Tensor(np.full((4, 4, 2), 3.5)), window=2, stride=2)
        np.testing.assert_array_equal(out.data, np.full((2, 2, 2), 3.5, dtype=np.float32))

    def test_ramp_quadrants(self):
        ramp = np.arange(16, dtype=np.float64).reshape(4, 4, 1)
        out = ad.max_pool2d(ad.Tensor(ramp, dtype=np.float64), window=2, stride=2)
        np.testing.assert_array_equal(out.data[:, :, 0], [[5, 7], [13, 15]])

    def test_gradient_hits_argmax_only(self):
        # batched float32 with three distinct values, so most windows hold a
        # tied max; the oracle is numpy's first argmax per window
        rng = np.random.default_rng(4)
        vals = rng.integers(-1, 2, size=(3, 6, 8, 5)).astype(np.float32) * 1.5
        win = vals.reshape(3, 3, 2, 4, 2, 5).transpose(0, 1, 3, 5, 2, 4).reshape(3, 3, 4, 5, 4)
        is_max = win == win.max(axis=-1, keepdims=True)
        tied = is_max.sum(axis=-1) > 1
        first = win.argmax(axis=-1)
        assert (is_max & tied[..., None]).any(axis=(0, 1, 2, 3)).all()   # every tap ties
        assert set(first[tied].tolist()) == {0, 1, 2}                   # and leads a tie
        g = rng.standard_normal((3, 3, 4, 5)).astype(np.float32)
        x = ad.Tensor(vals, requires_grad=True)
        out = ad.max_pool2d(x, window=2, stride=2)
        out.backward(g)
        fwd = np.take_along_axis(win, first[..., None], axis=-1)[..., 0]
        expected = np.zeros_like(win)
        np.put_along_axis(expected, first[..., None], g[..., None], axis=-1)
        expected = expected.reshape(3, 3, 4, 5, 2, 2).transpose(0, 1, 4, 2, 5, 3).reshape(vals.shape)
        assert out.data.dtype == x.grad.dtype == np.float32
        assert out.data.tobytes() == fwd.tobytes()
        assert x.grad.tobytes() == expected.tobytes()

    def test_first_occurrence_tie_break(self):
        x = ad.Tensor(np.zeros((2, 2, 1)), requires_grad=True, dtype=np.float64)
        out = ad.max_pool2d(x, window=2, stride=2)
        ad.reduce_sum(out).backward()
        np.testing.assert_array_equal(x.grad[:, :, 0], [[1, 0], [0, 0]])

    def test_finite_difference(self):
        rng = np.random.default_rng(5)
        with ad.precision("float64"):
            # spread values so no window has a near-tie at eps scale
            base = rng.standard_normal((8, 8, 2)) + 0.01 * np.arange(128).reshape(8, 8, 2)
            x = ad.Tensor(base, requires_grad=True)
            rep = grad_check(lambda ts: ad.max_pool2d(ts[0], 2, 2), [x], tol=1e-4, rng=rng)
        assert rep.passed, str(rep)

    def test_window_errors(self):
        x = ad.Tensor(np.zeros((5, 5, 1)))
        with pytest.raises(DimensionError):
            ad.max_pool2d(x, window=2, stride=2)
        with pytest.raises(DimensionError):
            ad.max_pool2d(x, window=6, stride=1)
        # overlapping or gapped windows, on extents the strides divide
        with pytest.raises(DimensionError):
            ad.max_pool2d(ad.Tensor(np.zeros((4, 4, 1))), window=2, stride=1)
        with pytest.raises(DimensionError):
            ad.max_pool2d(ad.Tensor(np.zeros((7, 7, 1))), window=3, stride=2)


class TestPatchAvgPool:
    def test_full_image_patch_is_global_mean(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 4, 3))
        out = ad.patch_avg_pool(ad.Tensor(x, dtype=np.float64), k=4)
        assert out.shape == (1, 1, 3)
        np.testing.assert_allclose(out.data[0, 0], x.mean(axis=(0, 1)), rtol=1e-12)

    def test_constant(self):
        out = ad.patch_avg_pool(ad.Tensor(np.full((6, 6, 2), 1.25)), k=3)
        np.testing.assert_allclose(out.data, 1.25, rtol=1e-6)

    def test_row_index_values(self):
        x = np.repeat(np.arange(4.0)[:, None], 4, axis=1)[:, :, None]
        out = ad.patch_avg_pool(ad.Tensor(x, dtype=np.float64), k=2)
        np.testing.assert_array_equal(out.data[:, :, 0], [[0.5, 0.5], [2.5, 2.5]])

    def test_divisibility_error(self):
        with pytest.raises(DimensionError):
            ad.patch_avg_pool(ad.Tensor(np.zeros((5, 5, 1))), k=2)
        with pytest.raises(DimensionError):
            ad.patch_avg_pool(ad.Tensor(np.zeros((4, 6, 1))), k=2)


class TestGlobalAvgPool:
    def test_identity_on_1x1(self):
        x = np.array([[[1.0, 2.0, 3.0]]])
        np.testing.assert_array_equal(ad.global_avg_pool(ad.Tensor(x, dtype=np.float64)).data,
                                      [1.0, 2.0, 3.0])

    def test_constant(self):
        out = ad.global_avg_pool(ad.Tensor(np.full((3, 5, 2), 7.0), dtype=np.float64))
        np.testing.assert_array_equal(out.data, [7.0, 7.0])

    def test_arithmetic(self):
        x = np.array([1.0, 2.0, 3.0, 4.0]).reshape(2, 2, 1)
        assert ad.global_avg_pool(ad.Tensor(x, dtype=np.float64)).data[0] == 2.5


# ---------------------------------------------------------------------------
# sine activation
# ---------------------------------------------------------------------------


class TestSineAct:
    def test_zero_frequency(self):
        rng = np.random.default_rng(7)
        x = ad.Tensor(rng.standard_normal((4, 4)))
        out = ad.sine_act(x, ad.Tensor(3.0), ad.Tensor(0.0))
        np.testing.assert_array_equal(out.data, np.zeros((4, 4), dtype=np.float32))

    def test_peak_value(self):
        x = ad.Tensor(np.array(math.pi / 4), dtype=np.float64)
        out = ad.sine_act(x, ad.Tensor(2.0, dtype=np.float64), ad.Tensor(2.0, dtype=np.float64))
        assert abs(out.item() - 2.0) < 1e-12

    def test_derivative_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        with ad.precision("float64"):
            x = ad.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
            a = ad.Tensor(np.array(1.7), requires_grad=True)
            w = ad.Tensor(np.array(2.3), requires_grad=True)
            rep = grad_check(lambda ts: ad.sine_act(ts[0], ts[1], ts[2]), [x, a, w],
                             tol=1e-6, rng=rng)
        assert rep.passed, str(rep)
        # analytic cosine identity at a fixed point
        xa = x.data
        expected = 1.7 * 2.3 * np.cos(2.3 * xa)
        x.zero_grad()
        out = ad.sine_act(x, ad.Tensor(1.7, dtype=np.float64), ad.Tensor(2.3, dtype=np.float64))
        ad.reduce_sum(out).backward()
        np.testing.assert_allclose(x.grad, expected, rtol=1e-12)


# ---------------------------------------------------------------------------
# bilinear sampling
# ---------------------------------------------------------------------------


class TestBilinearSample:
    def test_integer_coords_exact(self):
        rng = np.random.default_rng(9)
        f = rng.standard_normal((4, 5, 3))
        coords = np.array([[0, 0], [2, 3], [3, 4]], dtype=np.float64)
        out = ad.bilinear_sample(ad.Tensor(f, dtype=np.float64),
                                 ad.Tensor(coords, dtype=np.float64))
        np.testing.assert_array_equal(out.data, f[[0, 2, 3], [0, 3, 4]])

    def test_midpoint_linearity(self):
        f = np.zeros((1, 2, 1))
        f[0, 1, 0] = 1.0
        out = ad.bilinear_sample(ad.Tensor(f, dtype=np.float64),
                                 ad.Tensor(np.array([[0.0, 0.5]]), dtype=np.float64))
        assert abs(out.data[0, 0] - 0.5) < 1e-12

    def test_random_point_matches_closed_form(self):
        rng = np.random.default_rng(10)
        f = rng.standard_normal((3, 3, 2))
        out = ad.bilinear_sample(ad.Tensor(f, dtype=np.float64),
                                 ad.Tensor(np.array([[0.3, 0.7]]), dtype=np.float64))
        np.testing.assert_allclose(out.data[0], bilinear_oracle(f, 0.3, 0.7), rtol=1e-12)

    def test_out_of_bounds_zero_padding(self):
        f = np.ones((2, 2, 1))
        coords = np.array([[-1.0, 0.0], [5.0, 5.0], [-0.5, 0.0], [1.5, 1.0]])
        out = ad.bilinear_sample(ad.Tensor(f, dtype=np.float64),
                                 ad.Tensor(coords, dtype=np.float64))
        np.testing.assert_allclose(out.data[:, 0], [0.0, 0.0, 0.5, 0.5], atol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(11)
        with ad.precision("float64"):
            f = ad.Tensor(rng.standard_normal((5, 5, 2)), requires_grad=True)
            coords = ad.Tensor(rng.uniform(0.2, 3.7, size=(7, 2)), requires_grad=True)
            rep = grad_check(lambda ts: ad.bilinear_sample(ts[0], ts[1]), [f, coords],
                             tol=1e-6, rng=rng)
        assert rep.passed, str(rep)


    def test_batched_float32_matches_gather_oracle(self):
        # out-of-bounds and integer corners, and 30 samples on one pixel so the
        # feature gradient accumulates many rows into one
        rng = np.random.default_rng(26)
        B, H, W, C, N = 3, 6, 7, 4, 120
        f = rng.standard_normal((B, H, W, C)).astype(np.float32)
        coords = np.stack([rng.uniform(-1.5, H + 0.5, (B, N)),
                           rng.uniform(-1.5, W + 0.5, (B, N))], axis=2)
        coords[:, :20] = np.round(coords[:, :20])
        coords[:, 20:50] = (2.25, 3.5)
        coords = coords.astype(np.float32)
        g = rng.standard_normal((B, N, C)).astype(np.float32)
        ft = ad.Tensor(f, requires_grad=True)
        ct = ad.Tensor(coords, requires_grad=True)
        out = ad.bilinear_sample(ft, ct)
        out.backward(g)
        want, want_gf, want_gc = bilinear_gather_oracle(f, coords, g)
        assert out.data.dtype == np.float32
        assert out.data.tobytes() == want.tobytes()
        for got, ref in ((ft.grad, want_gf), (ct.grad, want_gc)):
            assert got.dtype == np.float32
            assert np.abs(got - ref).max() <= 1e-6 * np.abs(ref).max()


# ---------------------------------------------------------------------------
# deformable convolution
# ---------------------------------------------------------------------------


def make_deform_params(rng, C, Co, kh=3, kw=3, zero_offsets=True, dtype=np.float64):
    """Bilinear interpolation has kinks on the integer lattice, so non-zero
    offsets are biased to mid-cell fractions to keep finite differences valid."""
    w = ad.Tensor(rng.standard_normal((kh, kw, C, Co)), dtype=dtype)
    b = ad.Tensor(rng.standard_normal(Co), dtype=dtype)
    n_off = 2 * kh * kw
    if zero_offsets:
        ow = ad.Tensor(np.zeros((kh, kw, C, n_off)), dtype=dtype)
        ob = ad.Tensor(np.zeros(n_off), dtype=dtype)
    else:
        ow = ad.Tensor(0.01 * rng.standard_normal((kh, kw, C, n_off)), dtype=dtype)
        ob = ad.Tensor(rng.choice([-1, 1], n_off) * rng.uniform(0.3, 0.7, n_off), dtype=dtype)
    return w, b, ow, ob


class TestDeformableConv:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_zero_offsets_bit_exact_with_rigid_conv(self, dtype):
        rng = np.random.default_rng(12)
        x = ad.Tensor(rng.standard_normal((8, 8, 3)), dtype=dtype)
        w, b, ow, ob = make_deform_params(rng, 3, 5, dtype=dtype)
        out = ad.deformable_conv2d(x, w, b, ow, ob)
        rigid = ad.conv2d(x, w, b, stride=1, padding=1)
        assert out.data.tobytes() == rigid.data.tobytes()

    def test_constant_input_invariant_to_offsets(self):
        rng = np.random.default_rng(13)
        x = ad.Tensor(np.full((6, 6, 2), 1.5), dtype=np.float64)
        w, b, _, _ = make_deform_params(rng, 2, 3)
        _, _, ow, ob = make_deform_params(rng, 2, 3, zero_offsets=False)
        # keep samples interior so zero padding never mixes in
        ow = ad.Tensor(ow.data * 0.0, dtype=np.float64)
        ob = ad.Tensor(np.clip(ob.data, -0.4, 0.4), dtype=np.float64)
        out = ad.deformable_conv2d(x, w, b, ow, ob)
        zero_out = ad.deformable_conv2d(x, w, b,
                                        ad.Tensor(np.zeros_like(ow.data), dtype=np.float64),
                                        ad.Tensor(np.zeros_like(ob.data), dtype=np.float64))
        inner = np.s_[2:-2, 2:-2, :]
        np.testing.assert_allclose(out.data[inner], zero_out.data[inner], rtol=1e-10)

    def test_single_tap_half_cell_shift_on_ramp(self):
        # 1x1 kernel of weight 1, constant offset (0, 0.5) on a horizontal ramp:
        # each output is the average of a cell and its right neighbour.
        H = W = 4
        ramp = np.tile(np.arange(W, dtype=np.float64)[None, :, None], (H, 1, 1))
        x = ad.Tensor(ramp, dtype=np.float64)
        w = ad.Tensor(np.ones((1, 1, 1, 1)), dtype=np.float64)
        b = ad.Tensor(np.zeros(1), dtype=np.float64)
        ow = ad.Tensor(np.zeros((1, 1, 1, 2)), dtype=np.float64)
        ob = ad.Tensor(np.array([0.0, 0.5]), dtype=np.float64)
        out = ad.deformable_conv2d(x, w, b, ow, ob)
        expected = np.zeros((H, W))
        for j in range(W):
            right = j + 1 if j + 1 < W else None
            expected[:, j] = 0.5 * ramp[0, j, 0] + 0.5 * (ramp[0, right, 0] if right is not None else 0.0)
        np.testing.assert_allclose(out.data[:, :, 0], expected, rtol=1e-12)

    def test_gradients(self):
        rng = np.random.default_rng(14)
        with ad.precision("float64"):
            x = ad.Tensor(rng.standard_normal((6, 6, 2)), requires_grad=True)
            w, b, ow, ob = make_deform_params(rng, 2, 3, zero_offsets=False)
            for t in (w, b, ow, ob):
                t.requires_grad = True
            rep = grad_check(lambda ts: ad.deformable_conv2d(*ts), [x, w, b, ow, ob],
                             tol=1e-4, rng=rng)
        assert rep.passed, str(rep)


# ---------------------------------------------------------------------------
# cross attention
# ---------------------------------------------------------------------------


class TestCrossAttention:
    def test_single_key_returns_projected_value(self):
        rng = np.random.default_rng(15)
        d = 4
        q = ad.Tensor(rng.standard_normal((3, d)), dtype=np.float64)
        kv = ad.Tensor(rng.standard_normal((1, d)), dtype=np.float64)
        params = identity_attention_params(d)
        out = ad.multi_head_cross_attention(q, kv, heads=2, params=params)
        np.testing.assert_allclose(out.data, np.tile(kv.data, (3, 1)), rtol=1e-12)

    def test_identical_keys_give_uniform_attention(self):
        rng = np.random.default_rng(16)
        d = 4
        q = ad.Tensor(rng.standard_normal((2, d)), dtype=np.float64)
        row = rng.standard_normal((1, d))
        kv = ad.Tensor(np.tile(row, (5, 1)), dtype=np.float64)
        params = identity_attention_params(d)
        out = ad.multi_head_cross_attention(q, kv, heads=1, params=params)
        np.testing.assert_allclose(out.data, np.tile(row, (2, 1)), rtol=1e-12)

    def test_closed_form_two_token_oracle(self):
        rng = np.random.default_rng(17)
        d = 2
        Q = rng.standard_normal((2, d))
        K = rng.standard_normal((2, d))
        q = ad.Tensor(Q, dtype=np.float64)
        kv = ad.Tensor(K, dtype=np.float64)
        params = identity_attention_params(d)
        out = ad.multi_head_cross_attention(q, kv, heads=1, params=params)
        attn = softmax_oracle(Q @ K.T / math.sqrt(2))
        np.testing.assert_allclose(out.data, attn @ K, atol=1e-10)

    def test_outputs_are_convex_combinations(self):
        rng = np.random.default_rng(18)
        d = 6
        q = ad.Tensor(rng.standard_normal((4, d)), dtype=np.float64)
        kv = ad.Tensor(rng.standard_normal((5, d)), dtype=np.float64)
        params = identity_attention_params(d)
        params.wq = ad.Tensor(rng.standard_normal((d, d)), dtype=np.float64)
        params.wk = ad.Tensor(rng.standard_normal((d, d)), dtype=np.float64)
        out = ad.multi_head_cross_attention(q, kv, heads=1, params=params)
        # projected values == kv here (wv = wo = I); recover the weights by lstsq
        V = kv.data
        weights, *_ = np.linalg.lstsq(V.T, out.data.T, rcond=None)
        np.testing.assert_allclose(weights.sum(axis=0), 1.0, atol=1e-8)
        assert np.all(weights > -1e-8)

    def test_head_divisibility_error(self):
        from pronext.errors import ConfigError
        q = ad.Tensor(np.zeros((2, 6)))
        with pytest.raises(ConfigError):
            ad.multi_head_cross_attention(q, q, heads=4, params=identity_attention_params(6))

    def test_key_weights_exclude_keys_exactly(self):
        rng = np.random.default_rng(19)
        d = 4
        q = ad.Tensor(rng.standard_normal((3, d)), dtype=np.float64)
        kv_full = rng.standard_normal((5, d))
        params = identity_attention_params(d)
        # zero-weighting the last two keys must equal attention over the first 3
        out_masked = ad.multi_head_cross_attention(
            ad.Tensor(q.data, dtype=np.float64), ad.Tensor(kv_full, dtype=np.float64),
            heads=2, params=params, key_weights=np.array([1, 1, 1, 0, 0], dtype=np.float64))
        out_sliced = ad.multi_head_cross_attention(
            ad.Tensor(q.data, dtype=np.float64), ad.Tensor(kv_full[:3], dtype=np.float64),
            heads=2, params=params)
        np.testing.assert_allclose(out_masked.data, out_sliced.data, rtol=1e-12)
        # all-ones weights are the unweighted attention, byte for byte
        out_ones = ad.multi_head_cross_attention(
            ad.Tensor(q.data, dtype=np.float64), ad.Tensor(kv_full, dtype=np.float64),
            heads=2, params=params, key_weights=np.ones(5))
        out_none = ad.multi_head_cross_attention(
            ad.Tensor(q.data, dtype=np.float64), ad.Tensor(kv_full, dtype=np.float64),
            heads=2, params=params)
        assert out_ones.data.tobytes() == out_none.data.tobytes()

    def test_zero_weight_key_far_above_the_rest_is_excluded(self):
        # a padding key whose logit sits 200 above every kept key (float32,
        # where exp overflows past ~88) must still get exactly no attention
        rng = np.random.default_rng(21)
        d = 4
        q = np.abs(rng.standard_normal((3, d))) + 0.5
        kept = 0.1 * rng.standard_normal((3, d))
        pad = np.full((1, d), 250.0 * math.sqrt(d) / q.sum(axis=1).min())
        params = identity_attention_params(d)
        assert np.all(((q @ pad.T).ravel() - (q @ kept.T).max(axis=1)) / math.sqrt(d) > 200)
        out_padded = ad.multi_head_cross_attention(
            ad.Tensor(q), ad.Tensor(np.concatenate([kept, pad])), heads=1, params=params,
            key_weights=np.array([1, 1, 1, 0], dtype=np.float32))
        out_kept = ad.multi_head_cross_attention(ad.Tensor(q), ad.Tensor(kept), heads=1,
                                                 params=params)
        assert out_padded.data.dtype == np.float32
        np.testing.assert_allclose(out_padded.data, out_kept.data, rtol=1e-6, atol=1e-7)

    def test_gradients(self):
        rng = np.random.default_rng(20)
        with ad.precision("float64"):
            d = 4
            q = ad.Tensor(rng.standard_normal((3, d)), requires_grad=True)
            kv = ad.Tensor(rng.standard_normal((4, d)), requires_grad=True)
            mats = [ad.Tensor(rng.standard_normal((d, d)) * 0.5, requires_grad=True) for _ in range(4)]
            vecs = [ad.Tensor(rng.standard_normal(d) * 0.1, requires_grad=True) for _ in range(4)]
            params = ad.AttentionParams(*mats, *vecs)
            rep = grad_check(
                lambda ts: ad.multi_head_cross_attention(ts[0], ts[1], 2, params),
                [q, kv] + mats + vecs, tol=1e-5, rng=rng)
        assert rep.passed, str(rep)


# ---------------------------------------------------------------------------
# cross entropy
# ---------------------------------------------------------------------------


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        for K in (2, 3, 10):
            logits = ad.Tensor(np.zeros((4, K)), dtype=np.float64)
            target = np.zeros((4, K))
            target[:, 0] = 1.0
            loss = ad.softmax_cross_entropy(logits, target)
            assert abs(loss.item() - math.log(K)) < 1e-12

    def test_dominant_margin_drives_loss_to_zero(self):
        logits = np.zeros((1, 3))
        logits[0, 2] = 60.0
        target = np.array([[0.0, 0.0, 1.0]])
        loss = ad.softmax_cross_entropy(ad.Tensor(logits, dtype=np.float64), target)
        assert loss.item() < 1e-12

    def test_scalar_oracle(self):
        # -log softmax_3 for logits (1,2,3) = log(1 + e^-1 + e^-2)
        expected = math.log(1.0 + math.exp(-1.0) + math.exp(-2.0))
        loss = ad.softmax_cross_entropy(ad.Tensor([[1.0, 2.0, 3.0]], dtype=np.float64),
                                        np.array([[0.0, 0.0, 1.0]]))
        assert abs(loss.item() - expected) < 1e-12
        assert abs(loss.item() - 0.40760596444438079) < 1e-12

    def test_gradient_is_softmax_minus_target_over_batch(self):
        rng = np.random.default_rng(21)
        z = rng.standard_normal((4, 5))
        t = rng.dirichlet(np.ones(5), size=4)
        logits = ad.Tensor(z, requires_grad=True, dtype=np.float64)
        loss = ad.softmax_cross_entropy(logits, t)
        loss.backward()
        np.testing.assert_allclose(logits.grad, (softmax_oracle(z) - t) / 4, rtol=1e-10)

    def test_row_sum_validation(self):
        logits = ad.Tensor(np.zeros((1, 3)))
        with pytest.raises(InputError):
            ad.softmax_cross_entropy(logits, np.array([[0.5, 0.2, 0.2]]))

    def test_mixup_style_soft_target(self):
        z = np.array([[0.3, -0.8, 1.1, 0.0]])
        t = np.array([[0.5, 0.0, 0.5, 0.0]])
        loss = ad.softmax_cross_entropy(ad.Tensor(z, dtype=np.float64), t)
        logp = z - np.log(np.exp(z).sum())
        assert abs(loss.item() - (-0.5 * logp[0, 0] - 0.5 * logp[0, 2])) < 1e-12


# ---------------------------------------------------------------------------
# grad_check itself + graph mechanics
# ---------------------------------------------------------------------------


class TestGradCheck:
    def test_linear_layer_tight(self):
        rng = np.random.default_rng(22)
        with ad.precision("float64"):
            x = ad.Tensor(rng.standard_normal((5, 3)), requires_grad=True)
            w = ad.Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            b = ad.Tensor(rng.standard_normal(4), requires_grad=True)
            rep = grad_check(lambda ts: ad.linear(ts[0], ts[1], ts[2]), [x, w, b],
                             tol=1e-6, rng=rng)
        assert rep.passed, str(rep)

    def test_linear_batched_input_shared_weight(self):
        # a 3-D input against a 2-D weight: the weight gradient sums every row
        rng = np.random.default_rng(27)
        with ad.precision("float64"):
            x = ad.Tensor(rng.standard_normal((3, 5, 4)), requires_grad=True)
            w = ad.Tensor(rng.standard_normal((4, 6)), requires_grad=True)
            b = ad.Tensor(rng.standard_normal(6), requires_grad=True)
            rep = grad_check(lambda ts: ad.linear(ts[0], ts[1], ts[2]), [x, w, b],
                             tol=1e-6, rng=rng)
        assert rep.passed, str(rep)

    def test_matmul_4d(self):
        rng = np.random.default_rng(28)
        with ad.precision("float64"):
            a = ad.Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
            b = ad.Tensor(rng.standard_normal((2, 3, 5, 2)), requires_grad=True)
            rep = grad_check(lambda ts: ad.matmul(ts[0], ts[1]), [a, b], tol=1e-6, rng=rng)
        assert rep.passed, str(rep)

    def test_matmul_4d_input_shared_weight(self):
        rng = np.random.default_rng(29)
        with ad.precision("float64"):
            a = ad.Tensor(rng.standard_normal((2, 3, 4, 5)), requires_grad=True)
            b = ad.Tensor(rng.standard_normal((5, 2)), requires_grad=True)
            rep = grad_check(lambda ts: ad.matmul(ts[0], ts[1]), [a, b], tol=1e-6, rng=rng)
        assert rep.passed, str(rep)

    def test_matmul_transposed_input_shared_weight(self):
        # a non-contiguous view as the input: the row-flattening must copy,
        # not reinterpret its memory
        rng = np.random.default_rng(30)
        with ad.precision("float64"):
            a = ad.Tensor(rng.standard_normal((4, 3, 5)).transpose(1, 0, 2), requires_grad=True)
            b = ad.Tensor(rng.standard_normal((5, 6)), requires_grad=True)
            assert not a.data.flags.c_contiguous
            out = ad.matmul(a, b)
            np.testing.assert_allclose(out.data, np.einsum("ijk,kl->ijl", a.data, b.data),
                                       rtol=1e-12)
            rep = grad_check(lambda ts: ad.matmul(ts[0], ts[1]), [a, b], tol=1e-6, rng=rng)
        assert rep.passed, str(rep)

    def test_matmul_shared_weight_without_its_gradient(self):
        rng = np.random.default_rng(31)
        with ad.precision("float64"):
            a = ad.Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
            b = ad.Tensor(rng.standard_normal((4, 5)))
            g = rng.standard_normal((2, 3, 5))
            out = ad.matmul(a, b)
            out.backward(g)
        assert b.grad is None
        np.testing.assert_allclose(a.grad, np.einsum("ijl,kl->ijk", g, b.data), rtol=1e-12)

    def test_matmul_shared_weight_float32_matches_per_sample_products(self):
        # one GEMM over every row may sum in another order than a GEMM per
        # sample; the difference is float32 roundoff, a few units in the last
        # place of the largest entry (7.7e-7 of it with OpenBLAS on one
        # thread), bounded here with room for other BLAS kernels
        rng = np.random.default_rng(32)
        a = rng.standard_normal((8, 4, 512)).astype(np.float32)
        b = rng.standard_normal((512, 96)).astype(np.float32)
        out = ad.matmul(ad.Tensor(a), ad.Tensor(b)).data
        ref = np.stack([a[i] @ b for i in range(len(a))])
        share = float(np.abs(out - ref).max() / np.abs(ref).max())
        assert out.dtype == np.float32 and share <= 1e-5, f"difference {share:.2e} of the largest"

    def test_requires_float64(self):
        x = ad.Tensor(np.zeros((2, 2)), requires_grad=True)  # float32 default
        with pytest.raises(InputError):
            grad_check(lambda ts: ad.reduce_sum(ts[0]), [x])

    def test_detects_wrong_gradient(self):
        # gelu forward with a deliberately broken backward: use stop_gradient
        with ad.precision("float64"):
            x = ad.Tensor(np.array([0.3, -0.2]), requires_grad=True)
            rep = grad_check(lambda ts: ad.add(ad.gelu(ts[0]),
                                               ad.stop_gradient(ad.sin(ts[0]))),
                             [x], tol=1e-6)
            # analytic grad misses the cos term, FD sees it -> must fail
        assert not rep.passed

    def test_roundoff_near_zero_gradient_passes_at_fine_step(self, monkeypatch):
        # whole-model soft-mask check, seed 214: attn.wq[0,6] has a true
        # gradient of 3.86e-6 that cancellation roundoff swamps at eps=2.5e-7
        # (rel err 1.13e-4); a retry at the smaller step alone made it worse
        # (rel err 1.57e-4), the larger step clears it (1.3e-5)
        cfg = M.ModelConfig(input_size=16, stem_channels=2, patch_size=2,
                            embed_dim=8, ca_layers=1, ca_heads=2,
                            num_classes=3).validate()
        target = np.zeros((1, 3))
        target[0, 1] = 1.0

        def check(retry_scale):
            monkeypatch.setattr(gradcheck, "KINK_RETRY_SCALE", retry_scale)
            rng = np.random.default_rng(1_214)
            model = M.ProNextModel(cfg, seed=214)
            model.mlp_w2.data = rng.standard_normal(model.mlp_w2.shape) * 0.2
            x = ad.Tensor(rng.standard_normal((1, 16, 16, 3)), requires_grad=True)

            def run(ts):
                pred = model.forward(ts[0], mode="soft")
                return ad.softmax_cross_entropy(pred.logits, target)

            return grad_check(run, [x, model.params["stage1.gaze.ca_layers0.attn.wq"]],
                              eps=2.5e-7, max_elems=5, rng=rng, denom_floor=1e-5)

        scale = gradcheck.KINK_RETRY_SCALE
        with ad.precision("float64"):
            single_step = check(1.0)        # both retries repeat the step eps
            retried = check(scale)
        # the case still exercises roundoff: the single fine step fails it
        assert [(f.input_index, f.coord) for f in single_step.failures] == [(1, (0, 6))]
        assert retried.passed, str(retried)

    @pytest.mark.parametrize("eps", [1e-5, 2.5e-7])
    def test_backward_off_by_a_tenth_percent_fails(self, eps):
        # the analytic gradient misses 0.1% of the true one; every step of the
        # retry sees the gap, so every coordinate fails
        rng = np.random.default_rng(24)
        with ad.precision("float64"):
            x = ad.Tensor(rng.uniform(-1, 1, 6), requires_grad=True)
            rep = grad_check(lambda ts: ad.add(ad.gelu(ts[0]), ad.stop_gradient(
                                 ad.mul_const(ad.gelu(ts[0]), 1e-3))),
                             [x], eps=eps)
        assert not rep.passed
        assert len(rep.failures) == rep.n_checked == 6


class TestGraphMechanics:
    def test_backward_twice_is_an_error(self):
        x = ad.Tensor(np.ones(3), requires_grad=True)
        y = ad.reduce_sum(ad.mul(x, x))
        y.backward()
        with pytest.raises(GraphError):
            y.backward()

    def test_second_backward_through_a_consumed_subgraph_is_an_error(self):
        x = ad.Tensor(np.array(3.0), requires_grad=True, dtype=np.float64)
        s = ad.mul(x, x)
        y1 = ad.reduce_sum(s)
        y2 = ad.reduce_sum(ad.mul_const(s, 10))
        y1.backward()
        # replaying s's stale gradient would read 72, a released s 6; the
        # right value is 66, which takes a fresh forward pass
        with pytest.raises(GraphError, match="'mul'"):
            y2.backward()
        assert x.grad == 6.0

    def test_separate_graphs_accumulate_on_a_shared_leaf(self):
        x = ad.Tensor(np.array(3.0), requires_grad=True, dtype=np.float64)
        ad.reduce_sum(ad.mul(x, x)).backward()
        ad.reduce_sum(ad.mul_const(x, 10)).backward()
        assert x.grad == 16.0

    def test_backward_releases_the_graph_and_leaves_keep_grads(self):
        rng = np.random.default_rng(6)
        x = ad.Tensor(rng.standard_normal((2, 6, 6, 3)), requires_grad=True)
        w = ad.Tensor(rng.standard_normal((3, 3, 3, 4)), requires_grad=True)
        h = ad.gelu(ad.conv2d(x, w, padding=1))
        inner = weakref.ref(h)
        y = ad.reduce_sum(h)
        del h
        assert inner() is not None
        y.backward()
        assert inner() is None
        assert y.grad is None and y._parents == ()
        assert x.grad.shape == x.shape and w.grad.shape == w.shape

    def test_diamond_graph_visits_each_op_once(self):
        x = ad.Tensor(np.array([2.0]), requires_grad=True, dtype=np.float64)
        shared = ad.mul(x, x)              # reused by two consumers
        y = ad.reduce_sum(ad.add(shared, shared))
        y.backward()
        # d/dx of 2x^2 at 2 is 8; double-visiting `shared` would give 16
        assert abs(x.grad[0] - 8.0) < 1e-12

    def test_topological_order_property(self):
        x = ad.Tensor(np.ones(2), requires_grad=True)
        a = ad.mul(x, x)
        b = ad.add(a, x)
        c = ad.reduce_sum(ad.mul(b, a))
        order = ad.topo_order(c)
        pos = {id(t): i for i, t in enumerate(order)}
        for t in order:
            for p in t._parents:
                assert pos[id(p)] < pos[id(t)]

    def test_no_nan_inf_for_bounded_inputs(self):
        rng = np.random.default_rng(23)
        x = rng.uniform(-1e3, 1e3, size=(6, 6, 2))
        with ad.precision("float64"):
            t = ad.Tensor(x, requires_grad=True)
            w = ad.Tensor(0.01 * rng.standard_normal((3, 3, 2, 2)), requires_grad=True)
            steps = [ad.conv2d(t, w, padding=1)]
            steps.append(ad.gelu(steps[-1]))
            steps.append(ad.max_pool2d(steps[-1], 2, 2))
            steps.append(ad.mul(steps[-1], steps[-1]))
            steps.append(ad.reduce_mean(steps[-1]))
            steps[-1].backward()
        for v in [s.data for s in steps] + [t.grad, w.grad]:
            assert np.isfinite(v).all()


class TestElementwiseAndNorms:
    def test_reduce_max_first_occurrence(self):
        x = ad.Tensor(np.array([[1.0, 3.0, 3.0, 0.0]]), requires_grad=True, dtype=np.float64)
        out = ad.reduce_max(x, axis=1)
        ad.reduce_sum(out).backward()
        np.testing.assert_array_equal(x.grad, [[0, 1, 0, 0]])

    def test_layer_norm_gradcheck(self):
        rng = np.random.default_rng(24)
        with ad.precision("float64"):
            x = ad.Tensor(rng.standard_normal((3, 5)), requires_grad=True)
            g = ad.Tensor(rng.standard_normal(5), requires_grad=True)
            b = ad.Tensor(rng.standard_normal(5), requires_grad=True)
            rep = grad_check(lambda ts: ad.layer_norm(ts[0], ts[1], ts[2]), [x, g, b],
                             tol=1e-5, rng=rng)
        assert rep.passed, str(rep)

    def test_block_norm_gradcheck(self):
        rng = np.random.default_rng(25)
        with ad.precision("float64"):
            x = ad.Tensor(rng.standard_normal((2, 4, 4, 3)), requires_grad=True)
            g = ad.Tensor(rng.standard_normal(3), requires_grad=True)
            b = ad.Tensor(rng.standard_normal(3), requires_grad=True)
            rep = grad_check(lambda ts: ad.block_norm(ts[0], ts[1], ts[2]), [x, g, b],
                             tol=1e-5, rng=rng)
        assert rep.passed, str(rep)

    @pytest.mark.parametrize("op,axes", [(ad.layer_norm, (-1,)), (ad.block_norm, (1, 2))],
                             ids=["layer_norm", "block_norm"])
    def test_norm_matches_numpy_oracle(self, op, axes):
        rng = np.random.default_rng(27)
        x = 3.0 * rng.standard_normal((2, 4, 5, 3)) + 1.0
        g = rng.standard_normal(3)
        b = rng.standard_normal(3)
        with ad.precision("float64"):
            out = op(ad.Tensor(x), ad.Tensor(g), ad.Tensor(b))
        mu = x.mean(axis=axes, keepdims=True)
        sd = np.sqrt(((x - mu) ** 2).mean(axis=axes, keepdims=True) + 1e-5)
        np.testing.assert_allclose(out.data, (x - mu) / sd * g + b, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("B,H,C", [(16, 32, 8), (16, 16, 16), (16, 8, 32), (16, 4, 64),
                                       (8, 64, 32), (8, 32, 64), (8, 16, 128), (8, 8, 256)])
    def test_block_norm_float32_matches_float64_oracle(self, B, H, C):
        # the conv-block maps of the desk config (B=16) and of S/8 at 64 px (B=8)
        rng = np.random.default_rng(H * C)
        x = ad.Tensor(2.0 * rng.standard_normal((B, H, H, C)) + 0.5, requires_grad=True)
        g = ad.Tensor(1 + 0.1 * rng.standard_normal(C), requires_grad=True)
        b = ad.Tensor(0.1 * rng.standard_normal(C), requires_grad=True)
        up = rng.standard_normal(x.shape).astype(np.float32)
        out = ad.block_norm(x, g, b)
        out.backward(up)
        want = block_norm_oracle(x.data, g.data, b.data, up)
        for name, a, e in zip(("out", "x", "gamma", "beta"), (out.data, x.grad, g.grad, b.grad),
                              want):
            share = float(np.abs(a - e).max() / np.abs(e).max())
            assert a.dtype == np.float32 and share <= 1e-5, f"{name}: {share:.2e} of the largest"

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_block_norm_bit_identical_to_the_centred_formulation(self, dtype):
        rng = np.random.default_rng(31)
        for B, H, C in [(16, 32, 8), (16, 16, 16), (16, 8, 32), (16, 4, 64), (8, 64, 32),
                        (8, 32, 64), (8, 16, 128), (8, 8, 256), (1, 4, 4), (2, 2, 16)]:
            x = ad.Tensor(2.0 * rng.standard_normal((B, H, H, C)) + 0.5, requires_grad=True,
                          dtype=dtype)
            g = ad.Tensor(1 + 0.1 * rng.standard_normal(C), requires_grad=True, dtype=dtype)
            b = ad.Tensor(0.1 * rng.standard_normal(C), requires_grad=True, dtype=dtype)
            up = rng.standard_normal(x.shape).astype(dtype)
            out = ad.block_norm(x, g, b)
            want = block_norm_centred_oracle(x.data, g.data, b.data, up)
            out.backward(up)
            for name, a, e in zip(("out", "x", "gamma", "beta"),
                                  (out.data, x.grad, g.grad, b.grad), want):
                assert a.dtype == dtype and a.tobytes() == e.tobytes(), \
                    f"{name} differs on {x.shape}"

    def test_block_norm_graph_keeps_no_second_map(self):
        rng = np.random.default_rng(32)
        x = ad.Tensor(rng.standard_normal((8, 32, 32, 8)), requires_grad=True)
        g = ad.Tensor(rng.standard_normal(8), requires_grad=True)
        b = ad.Tensor(rng.standard_normal(8), requires_grad=True)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out = ad.block_norm(x, g, b)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        # the output and a few (B, C) vectors; a centred copy is another map
        assert kept < out.data.nbytes + x.data.nbytes // 4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu_bit_identical_to_the_formula(self, dtype):
        rng = np.random.default_rng(30)
        x = (3.0 * rng.standard_normal((4, 16, 16, 8))).astype(dtype)
        x.reshape(-1)[:10] = [0.0, -0.0, 1e-40, -1e-40, 1e-20, -1e-20, 8.0, -8.0, 30.0, -30.0]
        g = rng.standard_normal(x.shape).astype(dtype)
        t = ad.Tensor(x, requires_grad=True, dtype=dtype)
        out = ad.gelu(t)
        out.backward(g)
        want, want_grad = gelu_oracle(x, g)
        assert out.data.dtype == t.grad.dtype == dtype
        assert out.data.tobytes() == want.tobytes()
        assert t.grad.tobytes() == want_grad.tobytes()

    def test_softmax_weighted_matches_renormalized_softmax(self):
        rng = np.random.default_rng(26)
        z = rng.standard_normal((2, 5))
        w = np.array([1.0, 1.0, 0.0, 1.0, 0.0])
        out = ad.softmax_weighted(ad.Tensor(z, dtype=np.float64), ad.Tensor(w, dtype=np.float64))
        sub = softmax_oracle(z[:, [0, 1, 3]])
        np.testing.assert_allclose(out.data[:, [0, 1, 3]], sub, rtol=1e-12)
        np.testing.assert_array_equal(out.data[:, [2, 4]], 0.0)

    def test_softmax_weighted_zero_weight_entry_cannot_overflow(self):
        # exp(100) overflows float32; the zero-weight entry must not turn inf * 0 into nan
        out = ad.softmax_weighted(ad.Tensor([[0.0, 100.0]], dtype=np.float32),
                                  ad.Tensor([1.0, 0.0], dtype=np.float32))
        np.testing.assert_array_equal(out.data, [[1.0, 0.0]])

    def test_softmax_weighted_zero_weight_gets_zero_weight_gradient(self):
        rng = np.random.default_rng(29)
        with ad.precision("float64"):
            z = ad.Tensor(rng.standard_normal((2, 4)), requires_grad=True)
            w = ad.Tensor([[1.0, 0.0, 0.5, 1.0], [0.0, 0.3, 1.0, 0.0]], requires_grad=True)
            out = ad.softmax_weighted(z, w)
            ad.reduce_sum(ad.mul(out, ad.Tensor(rng.standard_normal((2, 4))))).backward()
        np.testing.assert_array_equal(w.grad[w.data == 0], 0.0)
        assert np.all(w.grad[w.data > 0] != 0)

    def test_softmax_weighted_gradcheck(self):
        rng = np.random.default_rng(27)
        with ad.precision("float64"):
            z = ad.Tensor(rng.standard_normal((2, 4)), requires_grad=True)
            w = ad.Tensor(rng.uniform(0.2, 1.0, size=(2, 4)), requires_grad=True)
            rep = grad_check(lambda ts: ad.softmax_weighted(ts[0], ts[1]), [z, w],
                             tol=1e-5, rng=rng)
        assert rep.passed, str(rep)

    def test_upsample_nearest_roundtrip(self):
        rng = np.random.default_rng(28)
        with ad.precision("float64"):
            x = ad.Tensor(rng.standard_normal((2, 3, 3, 1)), requires_grad=True)
            up = ad.upsample_nearest2d(x, 4)
            assert up.shape == (2, 12, 12, 1)
            np.testing.assert_array_equal(up.data[0, :4, :4, 0], np.full((4, 4), x.data[0, 0, 0, 0]))
            ad.reduce_sum(up).backward()
            np.testing.assert_allclose(x.grad, 16.0)


# ---------------------------------------------------------------------------
# BLAS thread count
# ---------------------------------------------------------------------------


_THREAD_PROBE = """
import hashlib
import numpy as np
from pronext import autodiff as ad

rng = np.random.default_rng(0)
digest = hashlib.sha256()

def T(*shape, scale=1.0):
    return ad.Tensor(rng.standard_normal(shape) * scale, requires_grad=True)

for op, args in [
        (ad.block_norm, (T(8, 64, 64, 32), T(32), T(32))),
        (ad.depthwise_conv2d, (T(8, 8, 8, 384), T(3, 3, 384, scale=0.4), T(384))),
        (lambda x, w: ad.conv2d(x, w, padding=1), (T(8, 32, 32, 64), T(3, 3, 64, 64, scale=0.1)))]:
    out = op(*args)
    out.backward(rng.standard_normal(out.shape).astype(np.float32))
    for a in (out.data,) + tuple(t.grad for t in args):
        digest.update(a.tobytes())
print(digest.hexdigest())
"""


def test_kernels_do_not_depend_on_the_blas_thread_count():
    # seeded float32 forward and backward of the kernels that sum through BLAS
    import pronext
    src = os.path.dirname(os.path.dirname(os.path.abspath(pronext.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), OPENBLAS_NUM_THREADS=threads)
        out = subprocess.run([sys.executable, "-c", _THREAD_PROBE], env=env,
                             capture_output=True, text=True, check=True, timeout=300)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]
