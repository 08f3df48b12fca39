"""Patch-level focal/context parsers.

The main parser runs a six-layer convolutional coordinate-field network
(1 low / 4 middle / 1 high) over a normalized coordinate grid. Between
convolutions it applies a periodic activation a*sin(w*x) whose amplitude and
frequency are derived from the input feature map: patch-average pooling, a
1x1 conv to a (amplitude, frequency) pair per patch, a per-stage band-pass
elimination of extreme-frequency entries, then global average pooling down
to one (a, w) pair per stage. A sigmoid plus 0.5 threshold yields the binary
map; the backward pass uses the straight-through estimator (the sigmoid
gradient crosses the threshold unchanged).

Two ablation baselines live here as well: a spatial-attention parser
(channel mean/max -> 1x1 conv -> sigmoid) and an unconditioned plain field
parser (fixed sin activations, input ignored, no condition conv weights).

Mask polarity is fixed at 1 = focal. Thresholding can never produce an
all-focal or all-context mask: a fallback promotes the top-1 probability
patch (or demotes the bottom-1), ties resolved by row-major index.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError
from .netpbm import write_pgm_p2

STAGES = ("low", "middle", "high")

# fraction of entries eliminated from each end of the frequency ranking,
# keyed by field-network stage: (high-frequency end, low-frequency end)
BAND_PASS_FRACTIONS = {
    "low": (0.20, 0.0),
    "middle": (0.10, 0.10),
    "high": (0.0, 0.20),
}

FIELD_WIDTH = 16  # hidden width of the coordinate-field network


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass
class PatchMask:
    """Binary focal/context assignment on the P x P patch grid.

    probs/binary are (B, P, P) numpy arrays; `mask` is the graph tensor used
    downstream: the straight-through binary in hard mode, the raw
    probabilities in soft mode.
    """

    probs: np.ndarray
    binary: np.ndarray
    mask: ad.Tensor
    soft: bool = False

    @property
    def batch(self):
        return self.probs.shape[0]

    @property
    def grid_side(self):
        return self.probs.shape[1]

    @property
    def n_focal(self):
        return self.binary.sum(axis=(1, 2)).astype(int)

    @property
    def n_context(self):
        return (self.grid_side ** 2 - self.n_focal).astype(int)


@dataclass
class ConditionMaps:
    """Per-patch amplitude/frequency condition."""

    amp: ad.Tensor            # (B, P, P)
    freq: ad.Tensor           # (B, P, P), positive (softplus applied)


@dataclass
class FieldNetParams:
    """Six 3x3 convolutions (2->16, 16->16 x4, 16->1) plus the 1x1 projection
    used by the skip over the final block."""

    conv_w: list
    conv_b: list
    skip_w: ad.Tensor
    skip_b: ad.Tensor


@dataclass
class ShiftParserParams:
    cond_w: ad.Tensor | None  # (1, 1, C, 2); None on the unconditioned plain field
    cond_b: ad.Tensor | None  # (2,)
    field: FieldNetParams


@dataclass
class SAParserParams:
    w: ad.Tensor              # (1, 1, 2, 1)
    b: ad.Tensor              # (1,)


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------


def build_coordinate_grid(P):
    """(P, P, 2) grid; channel 0 is the row coordinate, channel 1 the column,
    both normalized to [-1, 1] inclusive."""
    if P < 2:
        raise ConfigError(f"coordinate grid needs side >= 2, got {P}")
    lin = np.linspace(-1.0, 1.0, P, dtype=ad.default_dtype())
    rows, cols = np.meshgrid(lin, lin, indexing="ij")
    return np.stack([rows, cols], axis=-1)


def encode_condition(f, k, params):
    """Feature map -> per-patch (amplitude, frequency) maps.

    patch_avg_pool then 1x1 conv to two channels; frequency gets a softplus
    so w stays positive (negative frequencies are redundant for sine).
    """
    pooled = ad.patch_avg_pool(f, k)                       # (B, P, P, C)
    enc = ad.conv2d(pooled, params.cond_w, params.cond_b)  # (B, P, P, 2)
    B, P = enc.shape[0], enc.shape[1]
    amp = ad.reshape(ad.slice_channel(enc, 0), (B, P, P))
    freq = ad.softplus(ad.reshape(ad.slice_channel(enc, 1), (B, P, P)))
    return ConditionMaps(amp=amp, freq=freq)


def band_pass_elimination_counts(P, stage):
    hi_frac, lo_frac = BAND_PASS_FRACTIONS[stage]
    n = P * P
    return int(np.floor(hi_frac * n)), int(np.floor(lo_frac * n))


def band_pass_filter(cond, stage):
    """Zero out the extreme-frequency entries for one field-network stage.

    low: floor(0.20 * P^2) highest-frequency entries; middle: floor(0.10 * P^2)
    from each end; high: floor(0.20 * P^2) lowest. Both amplitude and
    frequency of an eliminated entry go to zero; survivors are untouched.
    Ties eliminate the earlier row-major index first.
    """
    if stage not in BAND_PASS_FRACTIONS:
        raise ConfigError(f"unknown band-pass stage '{stage}'")
    B, P, _ = cond.freq.shape
    n_hi, n_lo = band_pass_elimination_counts(P, stage)
    keep = np.ones((B, P * P), dtype=cond.freq.dtype)
    flat = cond.freq.data.reshape(B, P * P)
    if n_lo:
        asc = np.argsort(flat, axis=1, kind="stable")      # ties: earlier index first
        np.put_along_axis(keep, asc[:, :n_lo], 0.0, axis=1)
    if n_hi:
        desc = np.argsort(-flat, axis=1, kind="stable")
        np.put_along_axis(keep, desc[:, :n_hi], 0.0, axis=1)
    keep_t = ad.Tensor(keep.reshape(B, P, P), dtype=cond.freq.dtype)
    return ConditionMaps(amp=ad.mul(cond.amp, keep_t), freq=ad.mul(cond.freq, keep_t))


def stage_params(cond):
    """Pool the filtered maps to one (a, w) pair per sample; eliminated zeros
    stay in the mean. Returns tensors shaped (B, 1, 1, 1) for broadcasting."""
    B = cond.amp.shape[0]
    a = ad.reshape(ad.reduce_mean(cond.amp, axis=(1, 2)), (B, 1, 1, 1))
    w = ad.reshape(ad.reduce_mean(cond.freq, axis=(1, 2)), (B, 1, 1, 1))
    return a, w


def init_field_net(rng, dtype=None):
    """SIREN-style uniform init keeps sine pre-activations well-spread."""
    dtype = dtype or ad.default_dtype()
    widths = [2] + [FIELD_WIDTH] * 5 + [1]
    conv_w, conv_b = [], []
    for i in range(6):
        cin, cout = widths[i], widths[i + 1]
        fan_in = 9 * cin
        if i == 0:
            bound = 1.0 / fan_in
        else:
            bound = np.sqrt(6.0 / fan_in)
        conv_w.append(ad.Tensor(rng.uniform(-bound, bound, (3, 3, cin, cout)),
                                requires_grad=True, dtype=dtype))
        conv_b.append(ad.Tensor(np.zeros(cout), requires_grad=True, dtype=dtype))
    skip_w = ad.Tensor(rng.uniform(-0.25, 0.25, (1, 1, FIELD_WIDTH, 1)),
                       requires_grad=True, dtype=dtype)
    skip_b = ad.Tensor(np.zeros(1), requires_grad=True, dtype=dtype)
    return FieldNetParams(conv_w, conv_b, skip_w, skip_b)


def run_field_net(grid, field, acts):
    """Evaluate the 1/4/1 field network on a coordinate grid.

    acts maps stage name -> (a, w) tensors (broadcastable over the maps).
    Identity skips run from the middle block's input to its output and from
    the high block's input to its output (1x1 projection to match widths).
    Returns pre-sigmoid logits of shape (B, P, P, 1).
    """
    a_low, w_low = acts["low"]
    a_mid, w_mid = acts["middle"]
    a_high, w_high = acts["high"]
    h = ad.conv2d(grid, field.conv_w[0], field.conv_b[0], padding=1)
    low_out = ad.sine_act(h, a_low, w_low)
    h = low_out
    for i in (1, 2, 3):
        h = ad.sine_act(ad.conv2d(h, field.conv_w[i], field.conv_b[i], padding=1), a_mid, w_mid)
    mid_out = ad.add(ad.conv2d(h, field.conv_w[4], field.conv_b[4], padding=1), low_out)
    high_in = ad.sine_act(mid_out, a_high, w_high)
    logits = ad.add(ad.conv2d(high_in, field.conv_w[5], field.conv_b[5], padding=1),
                    ad.conv2d(mid_out, field.skip_w, field.skip_b))
    return logits


# ---------------------------------------------------------------------------
# threshold + straight-through + non-degeneracy fallback
# ---------------------------------------------------------------------------


def _threshold_with_fallback(probs):
    """probs (B, P, P) -> binary with 1 <= n_focal <= P^2 - 1 per sample."""
    B, P, _ = probs.shape
    flat = probs.reshape(B, P * P)
    binary = (flat > 0.5).astype(probs.dtype)
    counts = binary.sum(axis=1)
    none = np.nonzero(counts == 0)[0]
    binary[none, np.argmax(flat[none], axis=1)] = 1.0     # first max, row-major
    full = np.nonzero(counts == P * P)[0]
    binary[full, np.argmin(flat[full], axis=1)] = 0.0     # first min, row-major
    return binary.reshape(B, P, P)


def finish_mask(probs_t, mode):
    """Wrap raw probabilities into a PatchMask for the requested mode."""
    if mode not in ("hard", "soft"):
        raise ConfigError(f"parser mode must be 'hard' or 'soft', got '{mode}'")
    probs = probs_t.data
    binary = _threshold_with_fallback(probs)
    if mode == "soft":
        mask = probs_t
    else:
        # straight-through: forward is exactly `binary` (p - p cancels to 0.0
        # bitwise), backward passes the sigmoid gradient through unchanged
        mask = ad.add(ad.Tensor(binary, dtype=probs.dtype),
                      ad.sub(probs_t, ad.stop_gradient(probs_t)))
    return PatchMask(probs=probs.copy(), binary=binary, mask=mask, soft=(mode == "soft"))


def _grid_side(f, k):
    """Patch grid side P of a square (B, H, H, C) feature map."""
    H, W = f.shape[1:3]
    if H != W:
        raise DimensionError("parser input must be square")
    if H % k:
        raise DimensionError(f"feature side {H} not divisible by patch size {k}")
    return H // k


def _field_mask(B, P, field, acts, mode):
    """Coordinate grid -> field network -> sigmoid -> PatchMask."""
    grid = ad.Tensor(np.broadcast_to(build_coordinate_grid(P), (B, P, P, 2)).copy())
    probs_t = ad.reshape(ad.sigmoid(run_field_net(grid, field, acts)), (B, P, P))
    return finish_mask(probs_t, mode)


# ---------------------------------------------------------------------------
# the three parsers
# ---------------------------------------------------------------------------


def shift_parse(f, k, params, mode="hard", band_pass=True):
    """Conditional coordinate-field parser (the full method).

    `band_pass=False` keeps the conditional sine activations but skips the
    per-stage frequency elimination (the "conditional sine only" ablation).
    """
    P = _grid_side(f, k)
    cond = encode_condition(f, k, params)
    acts = {}
    for stage in STAGES:
        filtered = band_pass_filter(cond, stage) if band_pass else cond
        acts[stage] = stage_params(filtered)
    return _field_mask(f.shape[0], P, params.field, acts, mode)


def plain_field_parse(f, k, params, mode="hard"):
    """Unconditioned field baseline: fixed sin(x) activations (a = w = 1);
    the map sets only the batch size and grid side; reads only `params.field`."""
    one = ad.Tensor(np.ones((1, 1, 1, 1)))
    acts = {stage: (one, one) for stage in STAGES}
    return _field_mask(f.shape[0], _grid_side(f, k), params.field, acts, mode)


def spatial_attention_parse(f, k, params, mode="hard"):
    """Spatial-attention baseline: per-patch channel mean and max, 1x1 conv,
    sigmoid; same thresholding rules as the main parser."""
    B, P = f.shape[0], _grid_side(f, k)
    pooled = ad.patch_avg_pool(f, k)                       # (B, P, P, C)
    ch_mean = ad.reduce_mean(pooled, axis=-1, keepdims=True)
    ch_max = ad.reshape(ad.reduce_max(pooled, axis=-1), (B, P, P, 1))
    feats = ad.concat([ch_mean, ch_max], axis=-1)
    logits = ad.conv2d(feats, params.w, params.b)
    probs_t = ad.reshape(ad.sigmoid(logits), (B, P, P))
    return finish_mask(probs_t, mode)


# ---------------------------------------------------------------------------
# parameter construction + mask export
# ---------------------------------------------------------------------------


def init_shift_parser(rng, channels, dtype=None):
    """Condition conv starts near (a, w) = (1, softplus(1)): a zero amplitude
    would silence the sine activations and their gradients at step 0."""
    dtype = dtype or ad.default_dtype()
    cond_w = ad.Tensor(rng.standard_normal((1, 1, channels, 2)) * 0.02,
                       requires_grad=True, dtype=dtype)
    cond_b = ad.Tensor(np.array([1.0, 1.0]), requires_grad=True, dtype=dtype)
    return ShiftParserParams(cond_w=cond_w, cond_b=cond_b, field=init_field_net(rng, dtype))


def init_sa_parser(rng, dtype=None):
    dtype = dtype or ad.default_dtype()
    w = ad.Tensor(rng.standard_normal((1, 1, 2, 1)) * 0.5, requires_grad=True, dtype=dtype)
    b = ad.Tensor(np.zeros(1), requires_grad=True, dtype=dtype)
    return SAParserParams(w=w, b=b)


def export_stage_masks(binaries, out_dir):
    """Write one plain-text PGM (maxval 1) per stage: mask_stage{l}.pgm."""
    paths = []
    for l, mask in enumerate(binaries, start=1):
        path = os.path.join(out_dir, f"mask_stage{l}.pgm")
        write_pgm_p2(path, mask.astype(np.uint8), maxval=1)
        paths.append(path)
    return paths
