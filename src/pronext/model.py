"""The full 3-stage recognition model, its size variants, and a FLOP estimator.

Layout per forward pass (square input, side divisible by patch_size * 2^3):

    stem (two 3x3 conv blocks, stride 1)
      -> [stage: parse/mask/abstract + conv block] x NUM_STAGES (3)
      -> global average pool -> project to the embedding width
      -> add the stages' context impressions, where they have them
      -> 2-layer MLP head (final layer zero-initialized)

A conv block is a bias-free 3x3 conv -> block_norm -> GELU.

Channels double and spatial dims halve at every stage; the patch grid side
therefore halves too (P_l = H_l / patch_size). The parser can be swapped for
the spatial-attention or plain-field baselines, or disabled entirely, which
reduces the model to a plain convolutional trunk.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import ClassVar

import numpy as np

from . import autodiff as ad
from . import gaze, parsers
from .errors import ConfigError, DimensionError, NumericError

PARSER_MODES = ("shift", "spatial_attention", "plain_field", "none")

# (embed_dim, ca_layers, ca_heads, stem_channels) per variant
VARIANT_TABLE = {
    "S": (384, 2, 6, 32),
    "B": (768, 3, 12, 48),
    "L": (1024, 4, 16, 64),
    "XL": (1280, 5, 16, 80),
    "H": (1664, 6, 16, 96),
}

VALID_PATCH_SIZES = (2, 4, 8)

NUM_STAGES = 3


@dataclass
class ModelConfig:
    input_size: int = 32
    in_channels: int = 3
    stem_channels: int = 8
    patch_size: int = 4
    embed_dim: int = 64
    ca_layers: int = 1
    ca_heads: int = 4
    parser_mode: str = "shift"
    context_impression_enabled: bool = True
    band_pass: bool = True
    variant_name: str = "custom"
    num_classes: int = 4

    # keys older files and snapshots carry, readable only at the value implemented
    RETIRED: ClassVar[dict] = {"stages": NUM_STAGES, "block_norm": True, "ca_ffn": True}

    def validate(self):
        if self.patch_size not in VALID_PATCH_SIZES:
            raise ConfigError(f"patch_size must be one of {VALID_PATCH_SIZES}")
        if self.input_size % (self.patch_size * 2 ** NUM_STAGES):
            raise ConfigError(
                f"input_size {self.input_size} not divisible by "
                f"patch_size * 2^{NUM_STAGES} = {self.patch_size * 2 ** NUM_STAGES}")
        for name in ("input_size", "in_channels", "stem_channels", "embed_dim", "ca_heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.ca_layers < 0:
            raise ConfigError(f"ca_layers must be >= 0, got {self.ca_layers}")
        if self.embed_dim % self.ca_heads:
            raise ConfigError(f"embed_dim {self.embed_dim} not divisible by "
                              f"{self.ca_heads} heads")
        if self.parser_mode not in PARSER_MODES:
            raise ConfigError(f"parser_mode must be one of {PARSER_MODES}, "
                              f"got '{self.parser_mode}'")
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        return self

    def stage_channels(self, stage):
        """Input channels of stage `stage` (0-based)."""
        return self.stem_channels * 2 ** stage

    def stage_side(self, stage):
        return self.input_size // 2 ** stage

    def grid_side(self, stage):
        return self.stage_side(stage) // self.patch_size


def build_variant(name, k, input_size=64, num_classes=4):
    """Config for one named size variant at latent patch size k."""
    if name not in VARIANT_TABLE:
        raise ConfigError(f"unknown variant '{name}'; choose from {sorted(VARIANT_TABLE)}")
    embed_dim, ca_layers, ca_heads, stem_channels = VARIANT_TABLE[name]
    return ModelConfig(input_size=input_size, stem_channels=stem_channels,
                       patch_size=k, embed_dim=embed_dim, ca_layers=ca_layers,
                       ca_heads=ca_heads, variant_name=name,
                       num_classes=num_classes).validate()


# ---------------------------------------------------------------------------
# config file format: line-oriented `key = value`
# ---------------------------------------------------------------------------

_BOOL_WORDS = {"true": True, "false": False, "1": True, "0": False,
               "yes": True, "no": False}


def config_text(cfg):
    """The one writer: one `name = value` line per field, in field order."""
    return "".join(f"{f.name} = {getattr(cfg, f.name)}\n" for f in fields(cfg))


def parse_config(cls, text, source):
    """The one reader: `text` in the `key = value` format -> validated `cls`.

    Field types come from the dataclass defaults (bool, int, float or str).
    `#` starts a comment; blank lines are skipped. Every field must appear
    exactly once. A key in `cls.RETIRED` may appear at most once, and only at
    its one value. Errors raise ConfigError naming `source`, and the line
    where one line is at fault.
    """
    types = {f.name: type(f.default) for f in fields(cls)}
    retired = getattr(cls, "RETIRED", {})
    kinds = {**types, **{key: type(value) for key, value in retired.items()}}
    seen = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        where = f"{source}:{lineno}"
        if "=" not in stripped:
            raise ConfigError(f"{where}: expected 'key = value'")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in kinds:
            raise ConfigError(f"{where}: unknown key '{key}'")
        if key in seen:
            raise ConfigError(f"{where}: duplicate key '{key}'")
        kind = kinds[key]
        try:
            seen[key] = _BOOL_WORDS[raw.lower()] if kind is bool else kind(raw)
        except (KeyError, ValueError):
            raise ConfigError(f"{where}: expected {kind.__name__} for '{key}', "
                              f"got '{raw}'") from None
        if key in retired and seen[key] != retired[key]:
            raise ConfigError(f"{where}: '{key}' is retired; only "
                              f"'{key} = {retired[key]}' is supported, got '{raw}'")
    missing = [name for name in types if name not in seen]
    if missing:
        raise ConfigError(f"{source}: missing config key '{missing[0]}'")
    try:
        return cls(**{name: seen[name] for name in types}).validate()
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None


def load_config(cls, path):
    """Read a config file (ModelConfig or TrainConfig) with `parse_config`."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read config: {exc}") from None
    return parse_config(cls, text, path)


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------


@dataclass
class Prediction:
    logits: ad.Tensor
    stage_masks: list
    stage_embeddings: list
    fused: ad.Tensor


@dataclass
class ConvBlockParams:
    w: ad.Tensor
    norm_g: ad.Tensor
    norm_b: ad.Tensor


class _NoDraw:
    """Stands in for the init generator when every parameter is about to be
    loaded: it draws nothing and hands out float32 zeros of the asked shape."""

    def standard_normal(self, size):
        return np.zeros(size, dtype=np.float32)

    def uniform(self, low, high, size):
        return np.zeros(size, dtype=np.float32)


class ProNextModel:
    """Parameter container plus forward pass. Single-owner during a
    forward/backward; share read-only across threads only after training."""

    def __init__(self, cfg, seed=0, rng=None):
        """`rng`, when given, replaces the generator seeded by `seed`."""
        self.cfg = cfg.validate()
        self.rng = np.random.default_rng(seed) if rng is None else rng
        self.params = {}
        self._build()

    @classmethod
    def from_state(cls, cfg, arrays):
        """A model whose parameters are `arrays` (name -> array), built
        without drawing an init; the arrays are used in place where their
        dtype already matches."""
        model = cls(cfg, rng=_NoDraw())
        model.load_state(arrays)
        return model

    # -- construction -----------------------------------------------------

    def _register(self, name, tensor):
        self.params[name] = tensor
        return tensor

    def _conv_block(self, name, cin, cout):
        """3x3 conv weights and no bias, which block_norm would cancel."""
        return ConvBlockParams(
            w=self._register(f"{name}.w", ad.trunc_normal(self.rng, (3, 3, cin, cout))),
            norm_g=self._register(f"{name}.norm_g",
                                  ad.Tensor(np.ones(cout), requires_grad=True)),
            norm_b=self._register(f"{name}.norm_b", ad.zeros_param(cout)))

    def _register_tree(self, prefix, obj):
        """Register every Tensor reachable from a dataclass tree."""
        if isinstance(obj, ad.Tensor):
            obj.requires_grad = True
            self._register(prefix, obj)
        elif isinstance(obj, list):
            for i, item in enumerate(obj):
                self._register_tree(f"{prefix}{i}", item)
        elif hasattr(obj, "__dataclass_fields__"):
            for f in fields(obj):
                self._register_tree(f"{prefix}.{f.name}", getattr(obj, f.name))

    def _build(self):
        cfg = self.cfg
        self.stem = [self._conv_block("stem.block0", cfg.in_channels, cfg.stem_channels),
                     self._conv_block("stem.block1", cfg.stem_channels, cfg.stem_channels)]
        self.stage_parsers = []
        self.stage_params = []
        self.post_blocks = []
        # a stage computes a Context Impression only behind a parser
        context = cfg.context_impression_enabled and cfg.parser_mode != "none"
        for l in range(NUM_STAGES):
            C = cfg.stage_channels(l)
            if cfg.parser_mode == "shift":
                parser = parsers.init_shift_parser(self.rng, channels=C)
            elif cfg.parser_mode == "plain_field":
                parser = parsers.ShiftParserParams(None, None, parsers.init_field_net(self.rng))
            elif cfg.parser_mode == "spatial_attention":
                parser = parsers.init_sa_parser(self.rng)
            else:
                parser = None
            self._register_tree(f"stage{l}.parser", parser)
            self.stage_parsers.append(parser)

            stage = (gaze.init_gaze_stage(self.rng, C=C, k=cfg.patch_size, D=cfg.embed_dim,
                                          ca_layers=cfg.ca_layers, heads=cfg.ca_heads)
                     if context else gaze.init_focal_stage(self.rng, C))
            self._register_tree(f"stage{l}.gaze", stage)
            self.stage_params.append(stage)
            self.post_blocks.append(self._conv_block(f"stage{l}.post", 2 * C, 2 * C))

        final_c = cfg.stage_channels(NUM_STAGES)
        self.fuse_w = self._register("head.fuse_w",
                                     ad.trunc_normal(self.rng, (final_c, cfg.embed_dim)))
        self.fuse_b = self._register("head.fuse_b", ad.zeros_param(cfg.embed_dim))
        self.mlp_w1 = self._register("head.mlp_w1",
                                     ad.trunc_normal(self.rng, (cfg.embed_dim, cfg.embed_dim)))
        self.mlp_b1 = self._register("head.mlp_b1", ad.zeros_param(cfg.embed_dim))
        # zero-init final layer: step-0 logits are exactly zero
        self.mlp_w2 = self._register("head.mlp_w2",
                                     ad.zeros_param((cfg.embed_dim, cfg.num_classes)))
        self.mlp_b2 = self._register("head.mlp_b2", ad.zeros_param(cfg.num_classes))

    # -- parameter plumbing -------------------------------------------------

    def zero_grad(self):
        for t in self.params.values():
            t.grad = None

    def load_state(self, arrays):
        for name, tensor in self.params.items():
            if name not in arrays:
                raise ConfigError(f"checkpoint missing parameter '{name}'")
            if arrays[name].shape != tensor.shape:
                raise DimensionError(f"parameter '{name}' shape mismatch")
            tensor.data = arrays[name].astype(tensor.dtype, copy=False)

    # -- forward ------------------------------------------------------------

    def _apply_block(self, h, blk):
        h = ad.conv2d(h, blk.w, padding=1)
        return ad.gelu(ad.block_norm(h, blk.norm_g, blk.norm_b))

    def forward(self, x, mode="hard"):
        """x: (B, H, W, C) array or Tensor. mode 'soft' replaces the binary
        mask with raw probabilities everywhere (gradient checking only)."""
        cfg = self.cfg
        if not isinstance(x, ad.Tensor):
            x = ad.Tensor(x)
        if x.ndim != 4:
            raise DimensionError("forward expects a batched (B, H, W, C) input")
        if x.shape[1] != cfg.input_size or x.shape[3] != cfg.in_channels:
            raise DimensionError(
                f"input {x.shape[1:]} does not match configured "
                f"{(cfg.input_size, cfg.input_size, cfg.in_channels)}")

        h = x
        for blk in self.stem:
            h = self._apply_block(h, blk)

        masks, embeddings = [], []
        for l in range(NUM_STAGES):
            if self.stage_parsers[l] is None:
                out = gaze.plain_abstract(h, self.stage_params[l])
            else:
                out = gaze.gaze_shift(h, cfg.patch_size, self.stage_parsers[l],
                                      self.stage_params[l], mode=mode,
                                      band_pass=cfg.band_pass)
            h = self._apply_block(out.f_next, self.post_blocks[l])
            masks.append(out.mask)
            embeddings.append(out.e_c)

        pooled = ad.global_avg_pool(h)                           # (B, 8*C0)
        fused = ad.linear(pooled, self.fuse_w, self.fuse_b)      # (B, D)
        for e_c in embeddings:
            if e_c is not None:
                fused = ad.add(fused, e_c)
        hidden = ad.gelu(ad.linear(fused, self.mlp_w1, self.mlp_b1))
        logits = ad.linear(hidden, self.mlp_w2, self.mlp_b2)
        if not np.all(np.isfinite(logits.data)):
            raise NumericError("non-finite logits in forward pass")
        return Prediction(logits=logits, stage_masks=masks,
                          stage_embeddings=embeddings, fused=fused)


def loss_and_grads(model, pred, target):
    """Cross-entropy loss plus a full backward pass through all parameters.

    Returns (loss tensor, {name: gradient array}). Parameters with no path to
    the loss (e.g. parser weights when the mask saturates) map to zeros. The
    returned dict is the only holder of the gradients: the parameters keep no
    `.grad`, so nothing stale lives on into the next forward pass.
    """
    loss = ad.softmax_cross_entropy(pred.logits, target)
    model.zero_grad()
    loss.backward()
    grads = {name: (t.grad if t.grad is not None else np.zeros_like(t.data))
             for name, t in model.params.items()}
    model.zero_grad()
    return loss, grads


# ---------------------------------------------------------------------------
# analytic FLOP estimator
# ---------------------------------------------------------------------------


def _conv_flops(side, kh, kw, cin, cout):
    return side * side * kh * kw * cin * cout * 2


def _field_net_flops(P):
    w = parsers.FIELD_WIDTH
    per_cell = 9 * (2 * w + 4 * w * w + w * 1) * 2 + w * 1 * 2  # six convs + 1x1 skip
    return P * P * per_cell


def _attention_flops(P, token_width, D, layers):
    """Worst-case split: P^2 / 2 focal and P^2 / 2 context patches."""
    n = P * P
    nf = nc = n / 2
    total = n * token_width * D * 2          # shared token projection
    total += n * 9 * D * 2                   # depthwise position encoding
    per_layer = (nf + 2 * nc + nf) * D * D * 2   # Q, K, V, O projections
    per_layer += 2 * nf * nc * D * 2             # logits and weighted sum
    per_layer += 2 * nf * D * D * 2              # two D x D feed-forward mats
    return total + layers * per_layer


def flop_count(cfg):
    """Estimated GFLOPs per forward pass (multiply-accumulate = 2 FLOPs).

    Counts convolutions, attention matmuls, projections, and the MLP head;
    deformable sampling adds 8 FLOPs per kernel tap. Attention uses the
    worst-case half/half focal-context split. The closed-form hand derivation
    for the S/8 desk configuration lives in docs/flops_hand_count.md.
    """
    cfg.validate()
    total = 0.0
    side = cfg.input_size
    total += _conv_flops(side, 3, 3, cfg.in_channels, cfg.stem_channels)
    total += _conv_flops(side, 3, 3, cfg.stem_channels, cfg.stem_channels)

    for l in range(NUM_STAGES):
        C = cfg.stage_channels(l)
        H = cfg.stage_side(l)
        P = cfg.grid_side(l)
        half = H // 2
        if cfg.parser_mode == "shift":
            total += P * P * C * 2 * 2                      # 1x1 condition conv
            total += _field_net_flops(P)
        elif cfg.parser_mode == "plain_field":
            total += _field_net_flops(P)
        elif cfg.parser_mode == "spatial_attention":
            total += P * P * 2 * 1 * 2
        total += _conv_flops(half, 3, 3, C, 2 * 9)          # offset conv
        total += half * half * 9 * C * 8                    # bilinear taps
        total += _conv_flops(half, 3, 3, C, 2 * C)          # deformable contraction
        if cfg.parser_mode != "none" and cfg.context_impression_enabled:
            total += _attention_flops(P, cfg.patch_size ** 2 * C, cfg.embed_dim,
                                      cfg.ca_layers)
        total += _conv_flops(half, 3, 3, 2 * C, 2 * C)      # post conv block

    final_c = cfg.stage_channels(NUM_STAGES)
    total += final_c * cfg.embed_dim * 2
    total += cfg.embed_dim * cfg.embed_dim * 2
    total += cfg.embed_dim * cfg.num_classes * 2
    return total / 1e9
