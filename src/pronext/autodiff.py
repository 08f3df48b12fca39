"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps one ndarray; the functions below are the only way to build
on it (there are no operator overloads) and each records an implicit graph
of backward closures. The kernel set is exactly what the recognition model
needs: convolution, non-overlapping max and mean pooling, bilinear sampling
(for deformable convolution), scaled dot-product cross attention, one
normalization kernel (`layer_norm` over the last axis, `block_norm` over
H and W), and the pointwise glue the model uses. Training runs in float32;
gradient checking switches the default dtype to float64 via the `precision`
context manager.

All image-like tensors are channels-last. Spatial kernels accept either a
single sample (H, W, C) or a batch (B, H, W, C); single samples are promoted
to a batch of one internally and squeezed on the way out. Attention takes
(N, D) or (B, N, D) tokens the same way.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import ConfigError, DimensionError, GraphError, InputError, NumericError

# ---------------------------------------------------------------------------
# engine state
# ---------------------------------------------------------------------------

_DTYPE = np.float32
_GRAD_ENABLED = True
_STRICT_FINITE = False


def default_dtype():
    return _DTYPE


@contextlib.contextmanager
def precision(dtype):
    """Run a block under a different default dtype ('float32' or 'float64')."""
    global _DTYPE
    prev = _DTYPE
    _DTYPE = np.dtype(dtype).type
    try:
        yield
    finally:
        _DTYPE = prev


@contextlib.contextmanager
def no_grad():
    """Disable graph construction inside the block (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


@contextlib.contextmanager
def strict_finite():
    """Check every op output for NaN/Inf (slow; tests and debugging)."""
    global _STRICT_FINITE
    prev = _STRICT_FINITE
    _STRICT_FINITE = True
    try:
        yield
    finally:
        _STRICT_FINITE = prev


# ---------------------------------------------------------------------------
# tensor
# ---------------------------------------------------------------------------


class Tensor:
    """Dense real array participating in the reverse-mode graph."""

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op",
                 "_backward_done")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = np.asarray(data, dtype=dtype or _DTYPE)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._op = "leaf"
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def item(self):
        return float(self.data)

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(op={self._op}, shape={self.shape}, grad={self.requires_grad})"

    def backward(self, grad=None):
        """Reverse-topological sweep from this tensor.

        Each op node is visited exactly once. Calling backward a second time
        on the same graph is an error; run a fresh forward pass instead.
        """
        if not self.requires_grad:
            raise GraphError("backward() on a tensor that does not require grad")
        if self._backward_done:
            raise GraphError("backward() already ran for this graph; run a new forward pass")
        if not np.all(np.isfinite(self.data)):
            raise NumericError(f"non-finite values in backward root (op={self._op})")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise DimensionError("seed gradient shape differs from tensor shape")
        self.grad = grad
        for node in reversed(topo_order(self)):
            node._backward_done = True
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)


def _as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def topo_order(root):
    """Operations reachable from `root`, in topological order (iterative DFS)."""
    order = []
    visited = {id(root)}
    stack = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        advanced = False
        for p in parents:
            if id(p) not in visited:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                advanced = True
                break
        if not advanced:
            order.append(node)
            stack.pop()
    return order


def _make(data, parents, backward, op):
    if _STRICT_FINITE and not np.all(np.isfinite(data)):
        raise NumericError(f"non-finite values produced by op '{op}'")
    out = Tensor(data, dtype=data.dtype)
    out._op = op
    if _GRAD_ENABLED and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accum(t, g):
    if not t.requires_grad:
        return
    t.grad = g if t.grad is None else t.grad + g


def _sum_to(g, shape):
    """Reduce a broadcast gradient back to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (gs, ts) in enumerate(zip(g.shape, shape)) if ts == 1 and gs != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _row_matrix(weights, cols, n_cols):
    """CSR matrix with k = weights.shape[-1] entries per row: row i holds the
    i-th k weights at the i-th k columns. `S @ F` mixes rows of F; `S.T @ g`
    scatter-adds g back onto them, accumulating in the weights' dtype."""
    k = weights.shape[-1]
    n = weights.size
    idx_dtype = np.int32 if max(n, n_cols) < 2 ** 31 else np.int64
    indptr = np.arange(0, n + 1, k, dtype=idx_dtype)
    return sparse.csr_array((weights.reshape(-1), cols.reshape(-1).astype(idx_dtype, copy=False),
                             indptr), shape=(n // k, n_cols))


# ---------------------------------------------------------------------------
# pointwise and arithmetic ops
# ---------------------------------------------------------------------------


def add(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data + b.data

    def backward(g):
        _accum(a, _sum_to(g, a.shape))
        _accum(b, _sum_to(g, b.shape))

    return _make(data, (a, b), backward, "add")


def sub(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data - b.data

    def backward(g):
        _accum(a, _sum_to(g, a.shape))
        _accum(b, _sum_to(-g, b.shape))

    return _make(data, (a, b), backward, "sub")


def mul(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data * b.data

    def backward(g):
        _accum(a, _sum_to(g * b.data, a.shape))
        _accum(b, _sum_to(g * a.data, b.shape))

    return _make(data, (a, b), backward, "mul")


def div(a, b):
    a, b = _as_tensor(a), _as_tensor(b)
    data = a.data / b.data

    def backward(g):
        _accum(a, _sum_to(g / b.data, a.shape))
        _accum(b, _sum_to(-g * a.data / (b.data * b.data), b.shape))

    return _make(data, (a, b), backward, "div")


def mul_const(a, c):
    c = float(c)
    data = a.data * c

    def backward(g):
        _accum(a, g * c)

    return _make(data, (a,), backward, "mul_const")


def sin(a):
    data = np.sin(a.data)

    def backward(g):
        _accum(a, g * np.cos(a.data))

    return _make(data, (a,), backward, "sin")


def _sigmoid_np(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(a):
    data = _sigmoid_np(a.data)

    def backward(g):
        _accum(a, g * data * (1.0 - data))

    return _make(data, (a,), backward, "sigmoid")


def softplus(a):
    data = np.logaddexp(0.0, a.data).astype(a.dtype)

    def backward(g):
        _accum(a, g * _sigmoid_np(a.data))

    return _make(data, (a,), backward, "softplus")


_GELU_C = math.sqrt(2.0 / math.pi)


def gelu(a):
    """Smooth GELU (tanh form); kink-free, so finite differences stay clean."""
    x = a.data
    xx = x * x
    t = np.tanh(_GELU_C * (x + 0.044715 * (xx * x)))
    data = 0.5 * x * (1.0 + t)

    def backward(g):
        d = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * _GELU_C * (1.0 + 0.134145 * xx)
        _accum(a, g * d)

    return _make(data, (a,), backward, "gelu")


def stop_gradient(a):
    return Tensor(a.data, dtype=a.data.dtype)


# ---------------------------------------------------------------------------
# shape ops
# ---------------------------------------------------------------------------


def reshape(a, shape):
    old = a.shape
    data = a.data.reshape(shape)

    def backward(g):
        _accum(a, g.reshape(old))

    return _make(data, (a,), backward, "reshape")


def transpose(a, axes=None):
    data = np.transpose(a.data, axes)
    inv = None if axes is None else np.argsort(axes)

    def backward(g):
        _accum(a, np.transpose(g, inv))

    return _make(data, (a,), backward, "transpose")


def concat(tensors, axis=0):
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    splits = np.cumsum([t.shape[axis] for t in tensors])[:-1]

    def backward(g):
        for t, piece in zip(tensors, np.split(g, splits, axis=axis)):
            _accum(t, piece)

    return _make(data, tuple(tensors), backward, "concat")


def slice_channel(a, idx):
    """One channel of the last axis, kept as size-1: (..., C) -> (..., 1)."""
    data = a.data[..., idx:idx + 1]

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[..., idx:idx + 1] = g
        _accum(a, ga)

    return _make(data, (a,), backward, "slice_channel")


def gather_tokens(a, idx):
    """Batched row gather: a (B, N, D), idx (B, T) -> (B, T, D).

    Backward scatter-adds through the transposed selection matrix; duplicate
    indices (e.g. padding) accumulate, which is safe because padded rows only
    ever receive zero gradient.
    """
    idx = np.asarray(idx, dtype=np.int64)
    B, N, D = a.shape
    data = np.take_along_axis(a.data, idx[:, :, None], axis=1)

    def backward(g):
        rows = idx + np.arange(B)[:, None] * N
        S = _row_matrix(np.ones(rows.shape + (1,), dtype=g.dtype), rows, B * N)
        _accum(a, (S.T @ g.reshape(-1, D)).reshape(B, N, D))

    return _make(data, (a,), backward, "gather_tokens")


def upsample_nearest2d(a, k):
    """Repeat each spatial cell k x k: (B, P, Q, C) -> (B, kP, kQ, C)."""
    B, P, Q, C = a.shape
    data = np.repeat(np.repeat(a.data, k, axis=1), k, axis=2)

    def backward(g):
        _accum(a, g.reshape(B, P, k, Q, k, C).sum(axis=(2, 4)))

    return _make(data, (a,), backward, "upsample_nearest2d")


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def _broadcast_back(a, axis, keepdims, count=1):
    """Backward of a sum-type reduction of `a`: g / count spread over the
    reduced axes."""
    def backward(g):
        if count != 1:
            g = g / count
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.shape).astype(a.dtype, copy=True))

    return backward


def reduce_sum(a, axis=None, keepdims=False):
    data = np.asarray(a.data.sum(axis=axis, keepdims=keepdims))
    return _make(data, (a,), _broadcast_back(a, axis, keepdims), "sum")


def reduce_mean(a, axis=None, keepdims=False):
    data = np.asarray(a.data.mean(axis=axis, keepdims=keepdims))
    count = a.size if axis is None else math.prod(a.shape[ax] for ax in np.atleast_1d(axis))
    return _make(data, (a,), _broadcast_back(a, axis, keepdims, count), "mean")


def reduce_max(a, axis):
    """Max along one axis; gradient routes to the first (row-major) argmax."""
    idx = np.argmax(a.data, axis=axis)
    data = np.take_along_axis(a.data, np.expand_dims(idx, axis), axis=axis).squeeze(axis)

    def backward(g):
        ga = np.zeros_like(a.data)
        np.put_along_axis(ga, np.expand_dims(idx, axis), np.expand_dims(g, axis), axis=axis)
        _accum(a, ga)

    return _make(data, (a,), backward, "max")


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def matmul(a, b):
    if b.ndim == 2:
        # a shared weight (every token linear): forward, input gradient and
        # weight gradient are each one GEMM over the rows of a, not a stack
        # of per-batch GEMMs
        a2 = a.data.reshape(-1, a.shape[-1])
        data = (a2 @ b.data).reshape(a.shape[:-1] + b.shape[-1:])

        def backward(g):
            g2 = g.reshape(-1, g.shape[-1])
            if a.requires_grad:
                _accum(a, (g2 @ b.data.T).reshape(a.shape))
            if b.requires_grad:
                _accum(b, a2.T @ g2)

        return _make(data, (a, b), backward, "matmul")

    data = a.data @ b.data

    def backward(g):
        if a.requires_grad:
            _accum(a, _sum_to(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accum(b, _sum_to(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _make(data, (a, b), backward, "matmul")


def linear(x, w, b=None):
    """x @ w (+ b) over the last axis."""
    out = matmul(x, w)
    if b is not None:
        out = add(out, b)
    return out


# ---------------------------------------------------------------------------
# normalization and softmax
# ---------------------------------------------------------------------------


def _normalize(x, gamma, beta, axes, eps, op):
    """Standardize x over `axes`, then scale and shift per channel."""
    mu = x.data.mean(axis=axes, keepdims=True)
    xc = x.data - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=axes, keepdims=True) + eps)
    xhat = xc * inv
    data = xhat * gamma.data + beta.data
    n = math.prod(x.shape[ax] for ax in axes)

    def backward(g):
        gy = g * gamma.data
        _accum(gamma, _sum_to(g * xhat, gamma.shape))
        _accum(beta, _sum_to(g, beta.shape))
        gsum = gy.sum(axis=axes, keepdims=True)
        gxhat = (gy * xhat).sum(axis=axes, keepdims=True)
        _accum(x, inv / n * (n * gy - gsum - xhat * gxhat))

    return _make(data, (x, gamma, beta), backward, op)


def layer_norm(x, gamma, beta, eps=1e-5):
    """Normalize the last axis; per-feature scale and shift."""
    return _normalize(x, gamma, beta, (-1,), eps, "layer_norm")


def block_norm(x, gamma, beta, eps=1e-5):
    """Batch-statistics-free per-channel normalization over (H, W).

    x: (B, H, W, C); gamma, beta: (C,). Each sample's channel is standardized
    over its own spatial extent, so train and eval behave identically.
    """
    return _normalize(x, gamma, beta, (1, 2), eps, "block_norm")


def softmax_weighted(x, weights):
    """Softmax over the last axis with nonnegative per-entry weights.

    y_s = w_s * exp(x_s) / sum_t w_t * exp(x_t). Binary weights reproduce
    boolean key masking exactly (zero weight -> exactly zero attention);
    smooth weights keep the whole thing differentiable, including w.r.t. the
    weights themselves. Each row must have positive total weight.
    """
    w = weights.data if isinstance(weights, Tensor) else np.asarray(weights, dtype=x.dtype)
    w = np.broadcast_to(w, x.shape)
    z = x.data
    finite_max = np.where(w > 0, z, -np.inf).max(axis=-1, keepdims=True)
    if not np.all(np.isfinite(finite_max)):
        raise InputError("softmax_weighted: row with no positive weight")
    e = np.exp(z - finite_max)
    aw = e * w
    S = aw.sum(axis=-1, keepdims=True)
    data = aw / S

    def backward(g):
        da = (g - (g * data).sum(axis=-1, keepdims=True)) / S
        _accum(x, da * aw)
        if isinstance(weights, Tensor) and weights.requires_grad:
            _accum(weights, _sum_to(da * e, weights.shape))

    parents = (x, weights) if isinstance(weights, Tensor) else (x,)
    return _make(data, parents, backward, "softmax_weighted")


def softmax_cross_entropy(logits, target):
    """Mean over the batch of -sum(target * log softmax(logits)).

    Target rows must sum to 1 (soft targets allowed); the gradient w.r.t.
    logits is (softmax - target) / B.
    """
    t = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=logits.dtype)
    if t.shape != logits.shape:
        raise DimensionError("softmax_cross_entropy: target shape differs from logits")
    if np.any(np.abs(t.sum(axis=-1) - 1.0) > 1e-6):
        raise InputError("softmax_cross_entropy: target rows must sum to 1")
    z = logits.data
    zmax = z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z - zmax).sum(axis=-1, keepdims=True)) + zmax
    logp = z - lse
    B = z.shape[0]
    data = np.asarray(-(t * logp).sum() / B, dtype=z.dtype)
    sm = np.exp(logp)

    def backward(g):
        _accum(logits, (sm - t) * (g / B))

    return _make(data, (logits,), backward, "softmax_cross_entropy")


# ---------------------------------------------------------------------------
# spatial kernels
# ---------------------------------------------------------------------------


def _as_batched(x):
    """Promote (H, W, C) to (1, H, W, C); report whether it was promoted."""
    if x.ndim == 3:
        return reshape(x, (1,) + x.shape), True
    if x.ndim == 4:
        return x, False
    raise DimensionError(f"expected rank 3 or 4 image tensor, got rank {x.ndim}")


def _im2col(xp, kh, kw, stride, Ho, Wo):
    """View of all sliding windows, shape (B, Ho, Wo, kh, kw, C)."""
    sB, sH, sW, sC = xp.strides
    shape = (xp.shape[0], Ho, Wo, kh, kw, xp.shape[3])
    strides = (sB, sH * stride, sW * stride, sH, sW, sC)
    return np.lib.stride_tricks.as_strided(xp, shape=shape, strides=strides)


def conv2d(x, w, b=None, stride=1, padding=0):
    """2-D convolution (cross-correlation), channels-last.

    x: (B, H, W, C) or (H, W, C); w: (kh, kw, C, C'); b: (C',) optional.
    Output height is floor((H + 2*padding - kh) / stride) + 1.
    """
    xb, squeeze = _as_batched(x)
    B, H, W, C = xb.shape
    kh, kw, Cin, Cout = w.shape
    if stride < 1:
        raise DimensionError("conv2d: stride must be >= 1")
    if Cin != C:
        raise DimensionError(f"conv2d: kernel expects {Cin} channels, input has {C}")
    if kh > H + 2 * padding or kw > W + 2 * padding:
        raise DimensionError("conv2d: kernel larger than padded input")
    Ho = (H + 2 * padding - kh) // stride + 1
    Wo = (W + 2 * padding - kw) // stride + 1

    xp = np.pad(xb.data, ((0, 0), (padding, padding), (padding, padding), (0, 0))) \
        if padding else xb.data
    cols = np.ascontiguousarray(_im2col(xp, kh, kw, stride, Ho, Wo))
    cols2 = cols.reshape(B * Ho * Wo, kh * kw * C)
    w2 = w.data.reshape(kh * kw * C, Cout)
    out = cols2 @ w2
    if b is not None:
        out = out + b.data
    data = out.reshape(B, Ho, Wo, Cout)

    def backward(g):
        g2 = g.reshape(B * Ho * Wo, Cout)
        if w.requires_grad:
            _accum(w, (cols2.T @ g2).reshape(w.shape))
        if b is not None and b.requires_grad:
            _accum(b, g2.sum(axis=0))
        if xb.requires_grad:
            gcols = (g2 @ w2.T).reshape(B, Ho, Wo, kh, kw, C)
            gxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, i:i + Ho * stride:stride, j:j + Wo * stride:stride, :] += gcols[:, :, :, i, j, :]
            if padding:
                gxp = gxp[:, padding:padding + H, padding:padding + W, :]
            _accum(xb, gxp)

    parents = (xb, w) if b is None else (xb, w, b)
    res = _make(data, parents, backward, "conv2d")
    return reshape(res, res.shape[1:]) if squeeze else res


def depthwise_conv2d(x, w, b=None):
    """Depthwise convolution, stride 1, zero padded, channel-preserving.

    x: (B, H, W, C); w: (kh, kw, C); b: (C,) optional.
    """
    xb, squeeze = _as_batched(x)
    B, H, W, C = xb.shape
    kh, kw, Cw = w.shape
    if Cw != C:
        raise DimensionError("depthwise_conv2d: channel mismatch")
    ph, pw = kh // 2, kw // 2
    xp = np.pad(xb.data, ((0, 0), (ph, ph), (pw, pw), (0, 0)))
    cols = _im2col(xp, kh, kw, 1, H, W)
    data = np.einsum("bhwijc,ijc->bhwc", cols, w.data, optimize=True)
    if b is not None:
        data = data + b.data

    def backward(g):
        if w.requires_grad:
            _accum(w, np.einsum("bhwijc,bhwc->ijc", cols, g, optimize=True))
        if b is not None and b.requires_grad:
            _accum(b, g.sum(axis=(0, 1, 2)))
        if xb.requires_grad:
            gxp = np.zeros_like(xp)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, i:i + H, j:j + W, :] += g * w.data[i, j]
            _accum(xb, gxp[:, ph:ph + H, pw:pw + W, :])

    parents = (xb, w) if b is None else (xb, w, b)
    res = _make(data, parents, backward, "depthwise_conv2d")
    return reshape(res, res.shape[1:]) if squeeze else res


def max_pool2d(x, window, stride):
    """Channelwise max over non-overlapping window x window cells.

    Only stride == window is supported. The gradient of each cell goes to
    its first (row-major) tap equal to the max.
    """
    xb, squeeze = _as_batched(x)
    B, H, W, C = xb.shape
    k = window
    if k < 1 or stride != k:
        raise DimensionError("max_pool2d: only non-overlapping windows (stride == window)")
    if H % k or W % k:
        raise DimensionError("max_pool2d: input extent not divisible by the window")
    taps = xb.data.reshape(B, H // k, k, W // k, k, C)
    data = taps[:, :, 0, :, 0].copy()
    for i, j in list(np.ndindex(k, k))[1:]:
        # the running max as the second operand keeps the earlier tap on a
        # tie, so a tie of signed zeros keeps the first one's sign
        np.maximum(taps[:, :, i, :, j], data, out=data)

    def backward(g):
        hit = taps == data[:, :, None, :, None, :]
        free = ~hit[:, :, 0, :, 0]                     # cells whose max is not yet found
        for i, j in list(np.ndindex(k, k))[1:]:
            first = hit[:, :, i, :, j]
            first &= free                              # a view: clears later ties in hit
            free ^= first
        _accum(xb, np.where(hit, g[:, :, None, :, None, :], 0).reshape(B, H, W, C))

    res = _make(data, (xb,), backward, "max_pool2d")
    return reshape(res, res.shape[1:]) if squeeze else res


def patch_avg_pool(x, k):
    """Mean over non-overlapping k x k patches: (B, H, H, C) -> (B, H/k, H/k, C)."""
    xb, squeeze = _as_batched(x)
    B, H, W, C = xb.shape
    if H != W:
        raise DimensionError("patch_avg_pool: input must be square")
    if H % k:
        raise DimensionError(f"patch_avg_pool: side {H} not divisible by patch size {k}")
    P = H // k
    res = reduce_mean(reshape(xb, (B, P, k, P, k, C)), axis=(2, 4))
    return reshape(res, res.shape[1:]) if squeeze else res


def global_avg_pool(x):
    """Mean over all non-channel positions.

    (N, C) -> (C,); (H, W, C) -> (C,); (B, H, W, C) -> (B, C).
    """
    if x.ndim == 2:
        return reduce_mean(x, axis=0)
    if x.ndim == 3:
        return reduce_mean(x, axis=(0, 1))
    if x.ndim == 4:
        return reduce_mean(x, axis=(1, 2))
    raise DimensionError(f"global_avg_pool: unsupported rank {x.ndim}")


def sine_act(x, a, w):
    """Conditional periodic activation a * sin(w * x); a, w broadcast over x."""
    return mul(_as_tensor(a), sin(mul(_as_tensor(w), x)))


def bilinear_sample(feature, coords):
    """Bilinear interpolation with zero padding outside the feature extent.

    feature: (B, H, W, C) or (H, W, C); coords: (B, N, 2) or (N, 2) holding
    (row, col) positions in continuous pixel space. Differentiable w.r.t.
    both the feature map and the coordinates.

    Runs as one sparse interpolation matrix S of shape (B*N, B*H*W) with
    four weights per row: the output is S @ F over the flattened feature
    rows and the feature gradient is S.T @ g.
    """
    fb, fsq = _as_batched(feature)
    csq = coords.ndim == 2
    cb = reshape(coords, (1,) + coords.shape) if csq else coords
    B, H, W, C = fb.shape
    if cb.ndim != 3 or cb.shape[0] != B or cb.shape[2] != 2:
        raise DimensionError("bilinear_sample: coords must be (B, N, 2) matching the feature batch")

    r = cb.data[:, :, 0]
    c = cb.data[:, :, 1]
    N = r.shape[1]
    r0 = np.floor(r).astype(np.int64)
    c0 = np.floor(c).astype(np.int64)
    fr = (r - r0).astype(fb.dtype)
    fc = (c - c0).astype(fb.dtype)
    ur = 1 - fr
    uc = 1 - fc

    # one row per sample holding its four corners, order (00, 01, 10, 11);
    # an out-of-bounds corner gets weight 0 at a clipped column
    ri = np.stack([r0, r0, r0 + 1, r0 + 1], axis=2)          # (B, N, 4)
    ci = np.stack([c0, c0 + 1, c0, c0 + 1], axis=2)
    inb = (ri >= 0) & (ri < H) & (ci >= 0) & (ci < W)
    cols = ((np.arange(B)[:, None, None] * H + np.clip(ri, 0, H - 1)) * W
            + np.clip(ci, 0, W - 1))
    wts = np.stack([ur * uc, ur * fc, fr * uc, fr * fc], axis=2) * inb
    S = _row_matrix(wts, cols, B * H * W)
    flat = fb.data.reshape(B * H * W, C)
    data = (S @ flat).reshape(B, N, C)

    def backward(g):
        g2 = g.reshape(B * N, C)
        if fb.requires_grad:
            _accum(fb, (S.T @ g2).reshape(B, H, W, C))
        if cb.requires_grad:
            # the weights' r and c derivatives on S's pattern
            S_r = _row_matrix(np.stack([-uc, -fc, uc, fc], axis=2) * inb, S.indices, B * H * W)
            S_c = _row_matrix(np.stack([-ur, ur, -fr, fr], axis=2) * inb, S.indices, B * H * W)
            gr = (g2 * (S_r @ flat)).sum(axis=1)
            gc = (g2 * (S_c @ flat)).sum(axis=1)
            _accum(cb, np.stack([gr, gc], axis=1).reshape(B, N, 2).astype(cb.dtype))

    res = _make(data, (fb, cb), backward, "bilinear_sample")
    return reshape(res, res.shape[1:]) if fsq and csq else res


def deformable_conv2d(x, w, b, offset_w, offset_b):
    """Deformable convolution, stride 1, spatial size preserved.

    Offsets come from an internal standard convolution over the input with
    2*kh*kw output channels ((dy, dx) per tap and position). Zero offset
    weights make the op bit-identical to the rigid `conv2d`: integer-grid
    bilinear reads are exact gathers and the final contraction uses the same
    matmul layout.
    """
    xb, squeeze = _as_batched(x)
    B, H, W, C = xb.shape
    kh, kw, Cin, Cout = w.shape
    if Cin != C:
        raise DimensionError("deformable_conv2d: kernel channel mismatch")
    if offset_w.shape != (kh, kw, C, 2 * kh * kw):
        raise DimensionError("deformable_conv2d: offset conv must emit 2*kh*kw channels")
    ph, pw = kh // 2, kw // 2

    offsets = conv2d(xb, offset_w, offset_b, stride=1, padding=ph)
    offsets = reshape(offsets, (B, H * W * kh * kw, 2))

    ii, jj = np.meshgrid(np.arange(H), np.arange(W), indexing="ij")
    dy, dx = np.meshgrid(np.arange(kh) - ph, np.arange(kw) - pw, indexing="ij")
    base_r = (ii.reshape(-1, 1) + dy.reshape(1, -1)).reshape(-1)
    base_c = (jj.reshape(-1, 1) + dx.reshape(1, -1)).reshape(-1)
    base = np.stack([base_r, base_c], axis=1)[None].astype(xb.dtype)

    coords = add(offsets, Tensor(base, dtype=xb.dtype))
    samples = bilinear_sample(xb, coords)                     # (B, H*W*kh*kw, C)
    cols = reshape(samples, (B * H * W, kh * kw * C))         # tap-major, like im2col
    out = linear(cols, reshape(w, (kh * kw * C, Cout)), b)
    res = reshape(out, (B, H, W, Cout))
    return reshape(res, res.shape[1:]) if squeeze else res


# ---------------------------------------------------------------------------
# parameter initializers
# ---------------------------------------------------------------------------


def trunc_normal(rng, shape, std=0.02, dtype=None):
    """Normal(0, std) resampled into [-2*std, 2*std] (rejection sampling)."""
    dtype = dtype or _DTYPE
    out = rng.standard_normal(shape) * std
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum())) * std
        bad = np.abs(out) > 2 * std
    return Tensor(out, requires_grad=True, dtype=dtype)


def zeros_param(shape, dtype=None):
    return Tensor(np.zeros(shape), requires_grad=True, dtype=dtype or _DTYPE)


@dataclass
class AttentionParams:
    """Projection weights for one cross-attention layer (all D x D plus biases;
    the model passes no key bias, which the softmax would cancel)."""
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bq: Tensor
    bk: Tensor | None
    bv: Tensor
    bo: Tensor


def multi_head_cross_attention(query, keyval, heads, params, key_weights=None):
    """Scaled dot-product cross attention with Q/K/V/output projections.

    query: (Nq, D) or (B, Nq, D); keyval: matching rank with Nk rows. Scale is
    1/sqrt(D/heads); no class token. `key_weights` (B, Nk) or (Nk,) weights
    the keys inside the softmax: binary weights exclude keys exactly, smooth
    weights keep the parser differentiable in soft-mask mode. None weights
    every key 1.
    """
    D = query.shape[-1]
    if D % heads:
        raise ConfigError(f"attention width {D} not divisible by {heads} heads")
    squeeze = query.ndim == 2
    q_in = reshape(query, (1,) + query.shape) if squeeze else query
    kv_in = reshape(keyval, (1,) + keyval.shape) if keyval.ndim == 2 else keyval
    B, Nq, _ = q_in.shape
    Nk = kv_in.shape[1]
    dh = D // heads

    q = transpose(reshape(linear(q_in, params.wq, params.bq), (B, Nq, heads, dh)), (0, 2, 1, 3))
    k = transpose(reshape(linear(kv_in, params.wk, params.bk), (B, Nk, heads, dh)), (0, 2, 1, 3))
    v = transpose(reshape(linear(kv_in, params.wv, params.bv), (B, Nk, heads, dh)), (0, 2, 1, 3))

    logits = mul_const(matmul(q, transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(dh))
    if key_weights is None:
        attn = softmax_weighted(logits, np.ones(Nk, dtype=logits.dtype))
    else:
        kw_t = key_weights if isinstance(key_weights, Tensor) else Tensor(key_weights, dtype=logits.dtype)
        kw_b = reshape(kw_t, (1, 1, 1, Nk)) if kw_t.ndim == 1 else reshape(kw_t, (B, 1, 1, Nk))
        attn = softmax_weighted(logits, kw_b)
    ctx = reshape(transpose(matmul(attn, v), (0, 2, 1, 3)), (B, Nq, D))
    out = linear(ctx, params.wo, params.bo)
    return reshape(out, (Nq, D)) if squeeze else out
