"""One hierarchical focal/context stage.

The patch mask splits the feature map into a focal branch and a context
branch. The focal branch is reassembled in place (context patches zeroed),
downsampled by 2-stride max pooling and abstracted by a channel-doubling
deformable convolution. The context branch compresses focal/context
interaction into one fixed-length embedding: patch tokens are projected to a
common width, given a conditional position encoding (depthwise convolution
over the token grid), and run through cross-attention blocks with focal
queries and context keys/values; the mean over focal tokens is the stage's
Context Impression. A stage built by `init_focal_stage` (no parser, or the
Context Impression switched off) holds no context weights and has no branch.

Everything here runs on whole batches (`context_impression_batched` says
how the split is expressed on them). The per-sample token-list formulation
of the same stage is the oracle in tests/test_gaze.py.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, DimensionError
from .parsers import (PatchMask, plain_field_parse, shift_parse,
                      spatial_attention_parse)


@dataclass
class StageOutput:
    f_next: ad.Tensor          # (B, H/2, W/2, 2C)
    e_c: ad.Tensor | None      # (B, D) context impression, None when disabled
    mask: PatchMask | None


@dataclass
class CALayerParams:
    ln_q_g: ad.Tensor
    ln_q_b: ad.Tensor
    ln_kv_g: ad.Tensor
    ln_kv_b: ad.Tensor
    attn: ad.AttentionParams
    ln_f_g: ad.Tensor
    ln_f_b: ad.Tensor
    ffn_w1: ad.Tensor
    ffn_b1: ad.Tensor
    ffn_w2: ad.Tensor
    ffn_b2: ad.Tensor


@dataclass
class GazeStageParams:
    """Everything one stage owns besides its parser parameters. The context
    fields stay None on a stage that computes no Context Impression."""

    deform_w: ad.Tensor        # (3, 3, C, 2C)
    deform_b: ad.Tensor
    offset_w: ad.Tensor        # (3, 3, C, 18), zero-init: starts as rigid conv
    offset_b: ad.Tensor
    token_w: ad.Tensor | None = None   # (k*k*C, D)
    token_b: ad.Tensor | None = None
    pe_w: ad.Tensor | None = None      # (3, 3, D) depthwise over the patch grid
    pe_b: ad.Tensor | None = None
    ca_layers: list = field(default_factory=list)
    out_ln_g: ad.Tensor | None = None
    out_ln_b: ad.Tensor | None = None
    heads: int = 1


# ---------------------------------------------------------------------------
# stage
# ---------------------------------------------------------------------------


def focal_abstract(masked_map, params):
    """2-stride max pooling then channel-doubling deformable convolution."""
    pooled = ad.max_pool2d(masked_map, window=2, stride=2)
    return ad.deformable_conv2d(pooled, params.deform_w, params.deform_b,
                                params.offset_w, params.offset_b)


def _ca_block(h, kv, layer, heads, key_weights=None):
    """Pre-normalized cross-attention + feed-forward, both residual."""
    q_n = ad.layer_norm(h, layer.ln_q_g, layer.ln_q_b)
    kv_n = ad.layer_norm(kv, layer.ln_kv_g, layer.ln_kv_b)
    h = ad.add(h, ad.multi_head_cross_attention(q_n, kv_n, heads, layer.attn,
                                                key_weights=key_weights))
    f_n = ad.layer_norm(h, layer.ln_f_g, layer.ln_f_b)
    mid = ad.gelu(ad.linear(f_n, layer.ffn_w1, layer.ffn_b1))
    return ad.add(h, ad.linear(mid, layer.ffn_w2, layer.ffn_b2))


def run_parser(f, k, parser_mode, parser_params, mode="hard", band_pass=True):
    if parser_mode == "shift":
        return shift_parse(f, k, parser_params, mode=mode, band_pass=band_pass)
    if parser_mode == "spatial_attention":
        return spatial_attention_parse(f, k, parser_params, mode=mode)
    if parser_mode == "plain_field":
        return plain_field_parse(f, k, parser_params, mode=mode)
    raise ConfigError(f"unknown parser mode '{parser_mode}'")


def _batched_tokens(f, k):
    B, H, W, C = f.shape
    P, Q = H // k, W // k
    t = ad.reshape(f, (B, P, k, Q, k, C))
    t = ad.transpose(t, (0, 1, 3, 2, 4, 5))
    return ad.reshape(t, (B, P * Q, k * k * C))


def _padded_group_indices(binary, value):
    """Per-sample indices of mask == value, padded to the batch max count.

    Returns (idx (B, T), valid (B, T)). Padding repeats index 0; padded rows
    are excluded from attention/pooling so they carry zero gradient.
    """
    hit = binary.reshape(binary.shape[0], -1) == value
    counts = hit.sum(axis=1)
    T = int(counts.max())
    # stable sort of the misses puts each row's hits first, in index order
    idx = np.argsort(~hit, axis=1, kind="stable")[:, :T]
    valid = np.arange(T) < counts[:, None]
    return np.where(valid, idx, 0), valid.astype(binary.dtype)


def context_impression_batched(f, k, mask, params):
    """Batched Context Impression.

    All P^2 tokens are projected and position-encoded on the grid. In hard
    mode the focal/context groups are then gathered into packed (padded)
    token blocks, matching the per-sample token-list split: group membership
    is an index selection, so no gradient flows from the embedding into the
    parser. In soft mode membership stays a smooth weighting (probabilities
    as query-mean weights and complementary attention key weights), which is
    the differentiable surrogate used by gradient checks.
    """
    B = f.shape[0]
    P = f.shape[1] // k
    tokens = _batched_tokens(f, k)                               # (B, P^2, kkC)
    x = ad.linear(tokens, params.token_w, params.token_b)        # (B, P^2, D)
    D = x.shape[-1]
    grid = ad.reshape(x, (B, P, P, D))
    pe = ad.reshape(ad.depthwise_conv2d(grid, params.pe_w, params.pe_b), (B, P * P, D))
    x = ad.add(x, pe)

    if mask.soft:
        m_flat = ad.reshape(mask.mask, (B, P * P))
        h = kv = x
        key_w = ad.sub(ad.Tensor(np.ones((B, P * P), dtype=x.dtype)), m_flat)
        qw = ad.reshape(m_flat, (B, P * P, 1))
    else:
        idx_f, valid_f = _padded_group_indices(mask.binary, 1.0)
        idx_c, key_w = _padded_group_indices(mask.binary, 0.0)
        h = ad.gather_tokens(x, idx_f)                           # (B, Tf, D)
        kv = ad.gather_tokens(x, idx_c)                          # (B, Tc, D)
        qw = ad.Tensor(valid_f[:, :, None])
    for layer in params.ca_layers:
        h = _ca_block(h, kv, layer, params.heads, key_weights=key_w)
    h = ad.layer_norm(h, params.out_ln_g, params.out_ln_b)
    return ad.div(ad.reduce_sum(ad.mul(h, qw), axis=1), ad.reduce_sum(qw, axis=1))


def gaze_shift(f, k, parser_mode, parser_params, stage_params, mode="hard",
               band_pass=True):
    """One full stage: parse, mask, abstract, compress.

    f: (B, H, W, C) with H == W divisible by 2k. Returns StageOutput with the
    halved/doubled focal map and, if the stage has its weights, the context
    impression.
    """
    if f.ndim != 4:
        raise DimensionError("gaze_shift expects a batched (B, H, W, C) tensor")
    B, H, W, C = f.shape
    if H != W:
        raise DimensionError("gaze_shift input must be square")
    if H % (2 * k):
        raise DimensionError(f"side {H} must be divisible by 2*k = {2 * k}")

    m = run_parser(f, k, parser_mode, parser_params, mode=mode, band_pass=band_pass)
    P = m.grid_side
    mask_up = ad.upsample_nearest2d(ad.reshape(m.mask, (B, P, P, 1)), k)
    masked = ad.mul(f, mask_up)                                  # focal patches in place
    f_next = focal_abstract(masked, stage_params)

    e_c = None
    if stage_params.token_w is not None:
        e_c = context_impression_batched(f, k, m, stage_params)
    return StageOutput(f_next=f_next, e_c=e_c, mask=m)


def plain_abstract(f, stage_params):
    """Parser-free stage reduction (the ablation baseline): the whole map goes
    through the same pooling + deformable abstraction, no context branch."""
    return StageOutput(f_next=focal_abstract(f, stage_params), e_c=None, mask=None)


# ---------------------------------------------------------------------------
# parameter construction
# ---------------------------------------------------------------------------


def _init_ca_layer(rng, D, dtype):
    def mat():
        return ad.trunc_normal(rng, (D, D), std=0.02, dtype=dtype)

    def vec():
        return ad.zeros_param(D, dtype=dtype)

    def ones():
        return ad.Tensor(np.ones(D), requires_grad=True, dtype=dtype)

    # no key bias: the softmax cancels a shift shared by all of a query's logits
    attn = ad.AttentionParams(wq=mat(), wk=mat(), wv=mat(), wo=mat(),
                              bq=vec(), bk=None, bv=vec(), bo=vec())
    return CALayerParams(ln_q_g=ones(), ln_q_b=vec(), ln_kv_g=ones(), ln_kv_b=vec(),
                         attn=attn, ln_f_g=ones(), ln_f_b=vec(),
                         ffn_w1=mat(), ffn_b1=vec(), ffn_w2=mat(), ffn_b2=vec())


def init_focal_stage(rng, C, dtype=None):
    """The focal abstraction of one stage on C input channels, without the
    context weights: what a stage with no Context Impression owns."""
    dtype = dtype or ad.default_dtype()
    return GazeStageParams(
        deform_w=ad.trunc_normal(rng, (3, 3, C, 2 * C), std=0.02, dtype=dtype),
        deform_b=ad.zeros_param(2 * C, dtype=dtype),
        offset_w=ad.zeros_param((3, 3, C, 18), dtype=dtype),
        offset_b=ad.zeros_param(18, dtype=dtype))


def init_gaze_stage(rng, C, k, D, ca_layers, heads, dtype=None):
    """`init_focal_stage` plus the Context Impression weights, drawn after it."""
    dtype = dtype or ad.default_dtype()
    if D % heads:
        raise ConfigError(f"embedding length {D} not divisible by {heads} heads")
    return replace(
        init_focal_stage(rng, C, dtype),
        token_w=ad.trunc_normal(rng, (k * k * C, D), std=0.02, dtype=dtype),
        token_b=ad.zeros_param(D, dtype=dtype),
        pe_w=ad.trunc_normal(rng, (3, 3, D), std=0.02, dtype=dtype),
        pe_b=ad.zeros_param(D, dtype=dtype),
        ca_layers=[_init_ca_layer(rng, D, dtype) for _ in range(ca_layers)],
        out_ln_g=ad.Tensor(np.ones(D), requires_grad=True, dtype=dtype),
        out_ln_b=ad.zeros_param(D, dtype=dtype),
        heads=heads)
