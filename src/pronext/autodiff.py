"""Reverse-mode automatic differentiation over dense numpy arrays.

A Tensor wraps one ndarray; the functions below are the only way to build
on it (there are no operator overloads) and each records an implicit graph
of backward closures. The kernel set is exactly what the recognition model
needs: convolution, non-overlapping max and mean pooling, bilinear sampling
(for deformable convolution), scaled dot-product cross attention, two
normalization kernels, each with its own body (`layer_norm` over the last
axis, `block_norm` over H and W), and the pointwise glue the model uses.
Operands are Tensors; constants enter through `mul_const`. Training runs in
float32; gradient checking switches the default dtype to float64 via the
`precision` context manager.

A graph is single-use. `Tensor.backward` releases each op node as soon as
its closure has run: the node's gradient, closure and parent links go, so
intermediate gradients and the arrays the closures saved are freed during the
sweep, not after it. Only leaves keep `.grad`; a second backward that reaches
a consumed op node raises GraphError.

All image-like tensors are channels-last. Spatial kernels accept either a
single sample (H, W, C) or a batch (B, H, W, C); single samples are promoted
to a batch of one internally and squeezed on the way out. Attention takes
(N, D) or (B, N, D) tokens the same way.
"""

from __future__ import annotations

import contextlib
import functools
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
                 "_backward_done", "__weakref__")

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
        """Reverse-topological sweep from this tensor; the graph is single-use.

        Each op node is visited exactly once and released right after its
        closure has run: its `.grad`, closure and parent links are cleared,
        so intermediate gradients and saved arrays die as the sweep passes
        them. Only leaves keep `.grad`. A backward that reaches an op node an
        earlier backward consumed (this root again, or a subgraph shared with
        another root) raises GraphError before anything changes; run a fresh
        forward pass instead.
        """
        if not self.requires_grad:
            raise GraphError("backward() on a tensor that does not require grad")
        order = topo_order(self)
        for node in order:
            if node._backward_done:
                raise GraphError(f"backward() reached op '{node._op}', which an earlier "
                                 "backward consumed; run a new forward pass")
        if not np.all(np.isfinite(self.data)):
            raise NumericError(f"non-finite values in backward root (op={self._op})")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise DimensionError("seed gradient shape differs from tensor shape")
        self.grad = grad
        while order:
            node = order.pop()
            step = node._backward
            if step is None:                  # a leaf or a constant: keeps .grad
                continue
            g = node.grad
            node.grad = node._backward = None
            node._parents = ()
            node._backward_done = True
            if g is not None:
                step(g)


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
    data = a.data + b.data

    def backward(g):
        _accum(a, _sum_to(g, a.shape))
        _accum(b, _sum_to(g, b.shape))

    return _make(data, (a, b), backward, "add")


def sub(a, b):
    data = a.data - b.data

    def backward(g):
        _accum(a, _sum_to(g, a.shape))
        _accum(b, _sum_to(-g, b.shape))

    return _make(data, (a, b), backward, "sub")


def mul(a, b):
    data = a.data * b.data

    def backward(g):
        _accum(a, _sum_to(g * b.data, a.shape))
        _accum(b, _sum_to(g * a.data, b.shape))

    return _make(data, (a, b), backward, "mul")


def div(a, b):
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
    """Smooth GELU (tanh form); kink-free, so finite differences stay clean.

    y = 0.5 x (1 + t), t = tanh(c (x + 0.044715 x^3)), and the derivative is
    0.5 (1 + t) + 0.5 x (1 - t^2) c (1 + 0.134145 x^2). Both are evaluated in
    place in that per-element order (only the operands of a commutative op
    swap), so the values are those of the expressions as written; the graph
    keeps x and t, and the backward forms x^2 again."""
    x = a.data
    t = x * x
    t *= x
    t *= 0.044715
    t += x
    t *= _GELU_C
    np.tanh(t, out=t)
    data = np.add(t, 1.0)
    data *= 0.5 * x

    def backward(g):
        d = np.multiply(x, 0.5)
        u = np.multiply(t, t)
        np.subtract(1.0, u, out=u)
        d *= u
        d *= _GELU_C
        np.multiply(x, x, out=u)
        u *= 0.134145
        u += 1.0
        d *= u
        np.add(t, 1.0, out=u)
        u *= 0.5
        d += u
        d *= g
        _accum(a, d)

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


def transpose(a, axes):
    data = np.transpose(a.data, axes)
    inv = np.argsort(axes)

    def backward(g):
        _accum(a, np.transpose(g, inv))

    return _make(data, (a,), backward, "transpose")


def concat(tensors, axis=0):
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


NORM_EPS = 1e-5


def layer_norm(x, gamma, beta):
    """Normalize the last axis; per-feature scale and shift."""
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + NORM_EPS)
    xhat = xc * inv
    data = xhat * gamma.data + beta.data
    n = x.shape[-1]

    def backward(g):
        gy = g * gamma.data
        _accum(gamma, _sum_to(g * xhat, gamma.shape))
        _accum(beta, _sum_to(g, beta.shape))
        gsum = gy.sum(axis=-1, keepdims=True)
        gxhat = (gy * xhat).sum(axis=-1, keepdims=True)
        _accum(x, inv / n * (n * gy - gsum - xhat * gxhat))

    return _make(data, (x, gamma, beta), backward, "layer_norm")


def block_norm(x, gamma, beta):
    """Batch-statistics-free per-channel normalization over (H, W).

    x: (B, H, W, C); gamma, beta: (C,). Each sample's channel is standardized
    over its own spatial extent, so train and eval behave identically.

    Over H and W of a channels-last map numpy's reductions would run a C-long
    inner loop (C is as small as 2), so the kernel works on x as (B, H, W*C)
    rows: every per-(sample, channel) sum over H*W is a ones-vector GEMV, and
    every per-channel vector is tiled W times, so each broadcast runs along a
    whole W*C row.
    """
    B, H, W, C = x.shape
    n = H * W
    ones = np.ones(n, dtype=x.dtype)

    def sums(a):                  # (B, H, W*C) -> (B, C), summed over H*W
        return ones @ a.reshape(B, n, C)

    def rows(v):                  # (..., C) -> (..., 1, W*C)
        return v[..., None, :].repeat(W, axis=-2).reshape(v.shape[:-1] + (1, W * C))

    xr = x.data.reshape(B, H, W * C)
    mu = sums(xr) / n
    xc = xr - rows(mu)
    inv = 1.0 / np.sqrt(sums(xc * xc) / n + NORM_EPS)
    scale = gamma.data * inv                       # xhat = xc * inv
    data = np.multiply(xc, rows(scale), out=xc)
    data += rows(beta.data)

    # the graph keeps the (B, C) mean, not xc: backward forms xc again
    def backward(g):
        g = g.reshape(B, H, W * C)
        xc = x.data.reshape(g.shape) - rows(mu)
        sum_gxhat, sum_g = inv * sums(g * xc), sums(g)
        _accum(gamma, sum_gxhat.sum(axis=0))
        _accum(beta, sum_g.sum(axis=0))
        if x.requires_grad:
            # gamma inv (g - sum(g)/n - xhat sum(g xhat)/n)
            gx = g * rows(scale)
            gx -= np.multiply(xc, rows(scale * inv * sum_gxhat / n), out=xc)
            gx -= rows(scale * sum_g / n)
            _accum(x, gx.reshape(x.shape))

    return _make(data.reshape(x.shape), (x, gamma, beta), backward, "block_norm")


def softmax_weighted(x, weights):
    """Softmax over the last axis with nonnegative per-entry weights.

    y_s = w_s * exp(x_s) / sum_t w_t * exp(x_t). Binary weights reproduce
    boolean key masking exactly (zero weight -> exactly zero attention);
    smooth weights keep the whole thing differentiable, including w.r.t. the
    weights themselves. Each row must have positive total weight. Only
    positive-weight entries are exponentiated, so a zero-weight entry far
    above the rest cannot overflow, and an exactly-zero weight gets a zero
    weight-gradient.
    """
    w = weights.data if isinstance(weights, Tensor) else np.asarray(weights, dtype=x.dtype)
    w = np.broadcast_to(w, x.shape)
    z = x.data
    finite_max = np.where(w > 0, z, -np.inf).max(axis=-1, keepdims=True)
    if not np.all(np.isfinite(finite_max)):
        raise InputError("softmax_weighted: row with no positive weight")
    e = np.exp(np.where(w > 0, z - finite_max, -np.inf))
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


# bytes of im2col matrix one block of conv2d may hold; a block holds whole
# samples, at least one
_IM2COL_BLOCK_BYTES = 8 << 20


def _im2col(xp, kh, kw, Ho, Wo):
    """View of all stride-1 sliding windows of a C-contiguous xp, shape
    (B, Ho, Wo, kh, kw, C). The ndarray constructor sets it up in a fifth of
    `as_strided`'s time, which counts on small maps."""
    sB, sH, sW, sC = xp.strides
    shape = (xp.shape[0], Ho, Wo, kh, kw, xp.shape[3])
    return np.ndarray(shape, xp.dtype, xp, 0, (sB, sH, sW, sH, sW, sC))


def _pad_hw(x, ph, pw):
    """Zero-pad axes 1 and 2 of (B, H, W, C): copy the interior into an empty
    array and zero only the border (np.pad's per-call setup costs more than
    the copy on small maps)."""
    B, H, W, C = x.shape
    out = np.empty((B, H + 2 * ph, W + 2 * pw, C), dtype=x.dtype)
    out[:, ph:ph + H, pw:pw + W] = x
    out[:, :ph] = 0
    out[:, ph + H:] = 0
    out[:, ph:ph + H, :pw] = 0
    out[:, ph:ph + H, pw + W:] = 0
    return out


def _im2col_blocks(a, ph, pw, kh, kw):
    """Yield (rows, cols) per block of whole samples of a (B, H, W, C), padded
    by ph, pw on axes 1 and 2 (cropped where negative): cols is the block's
    tap-major im2col matrix, at most _IM2COL_BLOCK_BYTES or one sample, built
    in one buffer the next block overwrites; rows slices the batch's rows."""
    ch, cw = max(-ph, 0), max(-pw, 0)
    a = a[:, ch:a.shape[1] - ch, cw:a.shape[2] - cw]
    ph, pw = max(ph, 0), max(pw, 0)
    B, H, W, C = a.shape
    Ho, Wo = H + 2 * ph - kh + 1, W + 2 * pw - kw + 1
    per = min(B, max(1, _IM2COL_BLOCK_BYTES // (Ho * Wo * kh * kw * C * a.itemsize)))
    xp = np.zeros((per, H + 2 * ph, W + 2 * pw, C), a.dtype) if ph or pw else None
    cols = np.empty((per, Ho, Wo, kh, kw, C), a.dtype) if kh * kw > 1 else None
    for s in range(0, B, per):
        n = min(per, B - s)
        if xp is None:
            xs = np.ascontiguousarray(a[s:s + n])
        else:
            xs = xp[:n]
            xs[:, ph:ph + H, pw:pw + W] = a[s:s + n]
        if cols is not None:          # a 1x1 kernel's windows are xs itself
            np.copyto(cols[:n], _im2col(xs, kh, kw, Ho, Wo))
            xs = cols[:n]
        yield slice(s * Ho * Wo, (s + n) * Ho * Wo), xs.reshape(-1, kh * kw * C)


def conv2d(x, w, b=None, stride=1, padding=0):
    """2-D convolution (cross-correlation), channels-last, stride 1.

    x: (B, H, W, C) or (H, W, C); w: (kh, kw, C, C'); b: (C',) optional.
    Output height is H + 2*padding - kh + 1. Downsampling is `max_pool2d`'s
    job, so any `stride` other than 1 raises DimensionError.
    The forward and both gradients run on `_im2col_blocks`; the input gradient
    is g, padded by kh-1-padding, convolved with the flipped, transposed kernel.
    """
    xb, squeeze = _as_batched(x)
    B, H, W, C = xb.shape
    kh, kw, Cin, Cout = w.shape
    if stride != 1:
        raise DimensionError(f"conv2d: only stride 1 is supported, got {stride}")
    if Cin != C:
        raise DimensionError(f"conv2d: kernel expects {Cin} channels, input has {C}")
    if kh > H + 2 * padding or kw > W + 2 * padding:
        raise DimensionError("conv2d: kernel larger than padded input")
    Ho = H + 2 * padding - kh + 1
    Wo = W + 2 * padding - kw + 1

    # GEMM rows are independent: each block's product is those rows of one GEMM
    w2 = w.data.reshape(kh * kw * C, Cout)
    out = np.empty((B * Ho * Wo, Cout), dtype=np.result_type(xb.data, w2))
    for rows, cols in _im2col_blocks(xb.data, padding, padding, kh, kw):
        np.matmul(cols, w2, out=out[rows])
    if b is not None:
        out += b.data
    data = out.reshape(B, Ho, Wo, Cout)

    def backward(g):
        g2 = g.reshape(B * Ho * Wo, Cout)
        if w.requires_grad:
            parts = (cols.T @ g2[rows]
                     for rows, cols in _im2col_blocks(xb.data, padding, padding, kh, kw))
            _accum(w, functools.reduce(np.add, parts).reshape(w.shape))
        if b is not None and b.requires_grad:
            _accum(b, g2.sum(axis=0))
        if xb.requires_grad:
            wf = w.data[::-1, ::-1].transpose(0, 1, 3, 2).reshape(kh * kw * Cout, C)
            gx = np.empty((B * H * W, C), dtype=np.result_type(g, wf))
            for rows, cols in _im2col_blocks(g, kh - 1 - padding, kw - 1 - padding, kh, kw):
                np.matmul(cols, wf, out=gx[rows])
            _accum(xb, gx.reshape(B, H, W, C))

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
    xp = _pad_hw(xb.data, ph, pw)
    taps = list(np.ndindex(kh, kw))
    # one pass per tap, each over a shifted view of xp: a per-pixel
    # contraction over the kh*kw taps would run a 9-long inner loop
    data = xp[:, :H, :W] * w.data[0, 0]
    prod = np.empty_like(data)
    for i, j in taps[1:]:
        data += np.multiply(xp[:, i:i + H, j:j + W], w.data[i, j], out=prod)
    if b is not None:
        data += b.data

    # the graph keeps x, not its padded copy: the weight gradient pads again
    def backward(g):
        ones = np.ones(B * H * W, dtype=g.dtype)
        if w.requires_grad:
            xp = _pad_hw(xb.data, ph, pw)
            gw = np.empty_like(w.data)
            prod = np.empty_like(g)
            for i, j in taps:
                np.multiply(xp[:, i:i + H, j:j + W], g, out=prod)
                gw[i, j] = ones @ prod.reshape(-1, C)
            _accum(w, gw)
        if b is not None and b.requires_grad:
            _accum(b, ones @ g.reshape(-1, C))
        if xb.requires_grad:
            gxp = np.zeros((B, H + 2 * ph, W + 2 * pw, C), dtype=xb.data.dtype)
            for i, j in taps:
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
    order = list(np.ndindex(k, k))
    data = taps[:, :, 0, :, 0].copy()
    # for the backward, each cell's first tap holding the max: taps come in
    # row-major order, so a tap strictly above the running max is the new
    # first, and the largest such index wins
    first = None
    if _GRAD_ENABLED and xb.requires_grad:
        first = np.zeros(data.shape, dtype=np.min_scalar_type(k * k - 1))
        above = np.empty(data.shape, dtype=bool)
    for t, (i, j) in enumerate(order[1:], start=1):
        if first is not None:
            np.greater(taps[:, :, i, :, j], data, out=above)
            np.maximum(first, above * first.dtype.type(t), out=first)
        # the running max as the second operand keeps the earlier tap on a
        # tie, so a tie of signed zeros keeps the first one's sign
        np.maximum(taps[:, :, i, :, j], data, out=data)

    def backward(g):
        # each tap takes g where it is the cell's first and +0 elsewhere, by
        # masking g's bits: exact (g * hit would give -0 or NaN off the
        # mask), and without np.where's branch per element
        bits = np.dtype(f"u{g.itemsize}")
        gx = np.empty((B, H // k, k, W // k, k, C), dtype=g.dtype)
        g_bits, gx_bits = g.view(bits), gx.view(bits)
        for t, (i, j) in enumerate(order):
            np.bitwise_and(g_bits, np.negative(first == t, dtype=bits),
                           out=gx_bits[:, :, i, :, j])
        _accum(xb, gx.reshape(B, H, W, C))

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
    """Mean over all spatial positions: (H, W, C) -> (C,); (B, H, W, C) -> (B, C)."""
    if x.ndim == 3:
        return reduce_mean(x, axis=(0, 1))
    if x.ndim == 4:
        return reduce_mean(x, axis=(1, 2))
    raise DimensionError(f"global_avg_pool: unsupported rank {x.ndim}")


def sine_act(x, a, w):
    """Conditional periodic activation a * sin(w * x); a, w broadcast over x."""
    return mul(a, sin(mul(w, x)))


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

    offsets = conv2d(xb, offset_w, offset_b, padding=ph)
    offsets = reshape(offsets, (B, H * W * kh * kw, 2))

    # (row, col) of every (position, tap), ordered (h, w, i, j) like offsets
    base = np.empty((H, W, kh, kw, 2), dtype=xb.dtype)
    base[..., 0] = np.arange(H)[:, None, None, None] + (np.arange(kh) - ph)[:, None]
    base[..., 1] = np.arange(W)[:, None, None] + (np.arange(kw) - pw)
    base = base.reshape(1, H * W * kh * kw, 2)

    coords = add(offsets, Tensor(base, dtype=xb.dtype))
    samples = bilinear_sample(xb, coords)                     # (B, H*W*kh*kw, C)
    cols = reshape(samples, (B * H * W, kh * kw * C))         # tap-major, like im2col
    out = linear(cols, reshape(w, (kh * kw * C, Cout)), b)
    res = reshape(out, (B, H, W, Cout))
    return reshape(res, res.shape[1:]) if squeeze else res


# ---------------------------------------------------------------------------
# parameter initializers
# ---------------------------------------------------------------------------


def trunc_normal(rng, shape):
    """Normal(0, 0.02) resampled into [-0.04, 0.04] (rejection sampling)."""
    std = 0.02
    out = rng.standard_normal(shape) * std
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.standard_normal(int(bad.sum())) * std
        bad = np.abs(out) > 2 * std
    return Tensor(out, requires_grad=True)


def zeros_param(shape):
    return Tensor(np.zeros(shape), requires_grad=True)


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
