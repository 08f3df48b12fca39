"""Procedural desk-scale datasets with ground-truth masks and boxes.

`generate(task, n, rng, image_size, num_classes)` builds every dataset. Three
task families, one per challenge regime:

  detail      2 to 16 classes (8 by default): the class is carried by a tiny
              3x3 glyph stamped somewhere inside a large common shape;
              background clutter and colors are class-independent, so
              channel statistics are useless.
  structure   2 classes: two concentric ellipses; the class is whether the
              vertical radius ratio of inner to outer exceeds 0.6. Textures
              are randomized and horizontal radii are independent, so only
              the vertical geometry decides. The mask is the outer ellipse.
  interaction 4 classes: the class pairs an object texture factor (stripe
              orientation) with a background palette factor (warm/cool);
              each factor alone leaves a 2-way ambiguity, so accuracy above
              1/2 requires using both object and context.

Labels are deterministic functions of the rendered factors (Bayes accuracy
is 1 by construction). Every image is quantized to 8-bit levels at
generation time so the PPM/PGM round trip is lossless.

Directory layout: index.csv with `filename,label,x0,y0,x1,y1` lines, P6
images, P5 object masks named `<image>_mask.pgm`, and meta.csv (`name` and
`num_classes`). Other files in the directory (an older version's
`_mask2.pgm` inner-structure masks or `cues.csv` sidecar) are not read. Every
file is read through one rule: one that cannot be opened or decoded is a
DataError naming it. The generative factors (`Dataset.cues`) stay in memory.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError, ParseError
from .netpbm import open_binary, read_pgm_p5, read_ppm_p6, write_pgm_p5, write_ppm_p6

# the smallest image side at which the detail glyph always fits inside its
# shape; below it the placement loop can find no spot and never ends
MIN_IMAGE_SIZE = 10


@dataclass
class Dataset:
    name: str
    images: np.ndarray                    # (N, H, W, 3) float32 in [0, 1]
    labels: np.ndarray                    # (N,) int64
    boxes: np.ndarray                     # (N, 4) int64, (x0, y0, x1, y1)
    masks: np.ndarray                     # (N, H, W) uint8 object masks
    cues: list = field(default_factory=list)  # generative factors, from `generate` only
    num_classes: int = 0

    def __len__(self):
        return len(self.labels)

    @property
    def image_size(self):
        return self.images.shape[1]


# ---------------------------------------------------------------------------
# rendering helpers
# ---------------------------------------------------------------------------


def _quantize(img):
    return (np.round(np.clip(img, 0.0, 1.0) * 255.0) / 255.0).astype(np.float32)


def _ellipse(size, cy, cx, ry, rx):
    yy, xx = np.mgrid[0:size, 0:size]
    return ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 <= 1.0


def _speckle(rng, size, base, amp=0.04):
    noise = rng.uniform(-amp, amp, size=(size, size, 1))
    return np.clip(np.asarray(base, dtype=np.float64)[None, None, :] + noise, 0, 1)


def _clutter(img, rng, colors, count, size, r_lo=2, r_hi=6):
    """Scatter small ellipses of the given color family; returns their union mask."""
    touched = np.zeros(img.shape[:2], dtype=bool)
    for _ in range(count):
        cy, cx = rng.integers(0, size, 2)
        ry, rx = rng.integers(r_lo, r_hi + 1, 2)
        blob = _ellipse(size, cy, cx, ry, rx)
        color = colors[rng.integers(0, len(colors))] + rng.uniform(-0.05, 0.05, 3)
        img[blob] = np.clip(color, 0, 1)
        touched |= blob
    return touched


def mask_boxes(masks):
    """(N, H, W) masks -> (N, 4) int64 boxes (x0, y0, x1, y1), inclusive-
    exclusive: each mask's row and column extents, read with argmax from both
    ends. An empty mask has no extent, so both ends read 0: the full image."""
    _, H, W = masks.shape
    rows, cols = masks.any(axis=2), masks.any(axis=1)
    return np.stack([cols.argmax(axis=1), rows.argmax(axis=1), W - cols[:, ::-1].argmax(axis=1),
                     H - rows[:, ::-1].argmax(axis=1)], axis=1).astype(np.int64)


def _make_glyphs():
    """16 distinct, roughly balanced 3x3 binary patterns (fixed table)."""
    rng = np.random.default_rng(90125)
    glyphs, seen = [], set()
    while len(glyphs) < 16:
        g = rng.integers(0, 2, size=(3, 3))
        if not (3 <= g.sum() <= 6):
            continue
        key = g.tobytes()
        if key in seen:
            continue
        seen.add(key)
        glyphs.append(g.astype(np.float64))
    return glyphs


GLYPHS = _make_glyphs()

_MUTED = [np.array(c) for c in
          ([0.45, 0.45, 0.5], [0.5, 0.42, 0.4], [0.4, 0.5, 0.45], [0.48, 0.48, 0.42])]
_WARM = [np.array(c) for c in
         ([0.75, 0.3, 0.2], [0.8, 0.55, 0.2], [0.85, 0.75, 0.25], [0.7, 0.4, 0.3])]
_COOL = [np.array(c) for c in
         ([0.2, 0.35, 0.75], [0.2, 0.6, 0.65], [0.25, 0.55, 0.35], [0.3, 0.4, 0.7])]


def _spawn_rngs(rng, n):
    """Independent per-sample generators; order-independent by construction."""
    seed = int(rng.integers(0, 2 ** 63 - 1))
    return [np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(i,)))) for i in range(n)]


# ---------------------------------------------------------------------------
# task renderers: one sample each, (image, label, mask, cue)
# ---------------------------------------------------------------------------


def _render_detail(r, S, num_classes):
    """Large common shape; the label is the 3x3 glyph stamped inside it."""
    label = int(r.integers(0, num_classes))
    img = _speckle(r, S, _MUTED[r.integers(0, 4)] * 0.55, amp=0.05)
    _clutter(img, r, _MUTED, count=7, size=S)
    cy = S / 2 + r.uniform(-0.09, 0.09) * S
    cx = S / 2 + r.uniform(-0.09, 0.09) * S
    ry = r.uniform(0.22, 0.3) * S
    rx = r.uniform(0.22, 0.3) * S
    shape = _ellipse(S, cy, cx, ry, rx)
    shade = r.uniform(0.55, 0.75)
    img[shape] = np.clip([shade, shade * r.uniform(0.9, 1.1), shade * 0.9]
                         + r.uniform(-0.03, 0.03, 3), 0, 1)
    # stamp the glyph fully inside the shape, near its center
    while True:
        gy = int(cy + r.uniform(-0.4, 0.4) * ry)
        gx = int(cx + r.uniform(-0.4, 0.4) * rx)
        if shape[gy - 1:gy + 2, gx - 1:gx + 2].all():
            break
    patch = GLYPHS[label][:, :, None]
    img[gy - 1:gy + 2, gx - 1:gx + 2, :] = patch
    cue = {"glyph": label, "gy": gy, "gx": gx}
    return _quantize(img), label, shape.astype(np.uint8), cue


VERTICAL_RATIO_THRESHOLD = 0.6


def _render_structure(r, S, num_classes):
    """Concentric ellipses; label 1 iff vertical radius ratio > 0.6."""
    # quantize the ratio so the cue reproduces the label exactly
    ratio = round(r.uniform(0.35, 0.85), 3)
    label = int(ratio > VERTICAL_RATIO_THRESHOLD)
    img = _speckle(r, S, np.array([0.16, 0.14, 0.15]) * r.uniform(0.8, 1.3), amp=0.05)
    _clutter(img, r, [np.array([0.25, 0.22, 0.24])], count=5, size=S, r_hi=5)
    cy = S / 2 + r.uniform(-0.04, 0.04) * S
    cx = S / 2 + r.uniform(-0.04, 0.04) * S
    ry_d = r.uniform(0.30, 0.42) * S
    rx_d = r.uniform(0.28, 0.40) * S
    ry_c = ratio * ry_d
    rx_c = r.uniform(0.40, 0.80) * rx_d  # horizontal ratio independent of label
    disc = _ellipse(S, cy, cx, ry_d, rx_d)
    cup = _ellipse(S, cy, cx, ry_c, rx_c)
    disc_color = np.array([0.78, 0.55, 0.32]) + r.uniform(-0.08, 0.08, 3)
    cup_color = np.array([0.95, 0.82, 0.55]) + r.uniform(-0.06, 0.06, 3)
    img[disc] = np.clip(disc_color + r.uniform(-0.03, 0.03, (int(disc.sum()), 3)), 0, 1)
    img[cup] = np.clip(cup_color + r.uniform(-0.03, 0.03, (int(cup.sum()), 3)), 0, 1)
    cue = {"ratio_milli": int(round(ratio * 1000))}
    return _quantize(img), label, disc.astype(np.uint8), cue


def _stripe_field(r, S, orient, pitch, hi, lo):
    yy, xx = np.mgrid[0:S, 0:S]
    phase = int(r.integers(0, pitch))
    bands = ((yy if orient == 0 else xx) + phase) // pitch % 2
    return np.repeat(np.where(bands[:, :, None] == 0, hi, lo), 3, axis=2)


def _render_interaction(r, S, num_classes):
    """Object stripe orientation x background palette; label = 2*tex + pal.

    The object is grayscale stripes (its noise is shared across channels, so
    all three channels are equal on every object pixel) and carries no
    palette; the palette lives only in the background and its clutter.

    The object's centre lies within +-0.10*S of the image centre and its radii
    are 0.14-0.34*S, so an input-independent centred prior already reaches
    GT-Known 0.68 at 32 px; the clutter includes small randomly-oriented
    striped decoys, so clean focal/context separation still matters.
    """
    pitch = max(2, S // 16)
    tex = int(r.integers(0, 2))       # 0 horizontal stripes, 1 vertical
    pal = int(r.integers(0, 2))       # 0 warm, 1 cool
    label = 2 * tex + pal
    colors = _WARM if pal == 0 else _COOL
    base = colors[r.integers(0, len(colors))] * r.uniform(0.5, 0.7)
    img = _speckle(r, S, base, amp=0.05)
    _clutter(img, r, colors, count=9, size=S)
    # small striped decoys in random orientation, label-independent
    for _ in range(2):
        dy, dx = r.integers(0, S, 2)
        blob = _ellipse(S, dy, dx, r.integers(2, 5), r.integers(2, 5))
        decoy = _stripe_field(r, S, int(r.integers(0, 2)), pitch,
                              r.uniform(0.55, 0.7), r.uniform(0.3, 0.45))
        img[blob] = decoy[blob]
    cy = S / 2 + r.uniform(-0.10, 0.10) * S
    cx = S / 2 + r.uniform(-0.10, 0.10) * S
    ry = r.uniform(0.14, 0.34) * S
    rx = r.uniform(0.14, 0.34) * S
    obj = _ellipse(S, cy, cx, ry, rx)
    stripes = _stripe_field(r, S, tex, pitch,
                            r.uniform(0.62, 0.68), r.uniform(0.38, 0.44))
    img[obj] = stripes[obj]
    img[obj] = np.clip(img[obj] + r.uniform(-0.06, 0.06, (int(obj.sum()), 1)), 0, 1)
    cue = {"texture": tex, "palette": pal}
    return _quantize(img), label, obj.astype(np.uint8), cue


# task -> (renderer, default class count, (fewest, most) classes it can label)
_TASK_TABLE = {"detail": (_render_detail, 8, (2, 16)),
               "structure": (_render_structure, 2, (2, 2)),
               "interaction": (_render_interaction, 4, (4, 4))}
TASKS = tuple(_TASK_TABLE)


def generate(task, n, rng, image_size=64, num_classes=None):
    """`n` samples of one task at `num_classes`, by default the task's own
    count (8 for detail). Arguments a task cannot honour raise ConfigError
    before anything is drawn. Each sample draws from its own generator, so
    the first k samples do not depend on `n`."""
    if task not in _TASK_TABLE:
        raise ConfigError(f"unknown task '{task}'; choose from {TASKS}")
    render, default, (lo, hi) = _TASK_TABLE[task]
    if n < 1:
        raise ConfigError(f"sample count must be >= 1, got {n}")
    if image_size < MIN_IMAGE_SIZE:
        raise ConfigError(f"image size must be >= {MIN_IMAGE_SIZE}, got {image_size}")
    k = default if num_classes is None else num_classes
    if not lo <= k <= hi:
        span = f"{lo} to {hi}" if lo < hi else f"exactly {lo}"
        raise ConfigError(f"{task} task supports {span} classes, got {k}")
    images, labels, masks, cues = zip(*(render(r, image_size, k)
                                       for r in _spawn_rngs(rng, n)))
    masks = np.stack(masks)
    return Dataset(name=task, images=np.stack(images),
                   labels=np.array(labels, dtype=np.int64),
                   boxes=mask_boxes(masks), masks=masks,
                   cues=list(cues), num_classes=k)


# ---------------------------------------------------------------------------
# dataset directory I/O
# ---------------------------------------------------------------------------


def write_dataset(ds, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    lines = []
    for i in range(len(ds)):
        stem = f"img_{i:05d}"
        write_ppm_p6(os.path.join(out_dir, stem + ".ppm"),
                     np.round(ds.images[i] * 255.0).astype(np.uint8))
        write_pgm_p5(os.path.join(out_dir, stem + "_mask.pgm"), ds.masks[i] * 255)
        x0, y0, x1, y1 = ds.boxes[i]
        lines.append(f"{stem}.ppm,{ds.labels[i]},{x0},{y0},{x1},{y1}")
    with open(os.path.join(out_dir, "index.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(os.path.join(out_dir, "meta.csv"), "w", encoding="utf-8") as fh:
        fh.write(f"name,{ds.name}\nnum_classes,{ds.num_classes}\n")


def _read_lines(path):
    """(line number, line) pairs of a UTF-8 text file, split as a text-mode
    file splits them; one that is not UTF-8 is a DataError naming it and the
    offending byte's offset in the file."""
    with open_binary(path) as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    return list(enumerate(io.StringIO(text, newline=None), 1))


def load_dataset(data_dir):
    index_path = os.path.join(data_dir, "index.csv")
    if not os.path.exists(index_path):
        raise DataError(f"{data_dir}: no index.csv")
    images, labels, label_lines, boxes, masks = [], [], [], [], []
    for lineno, line in _read_lines(index_path):
        line = line.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 6:
            raise ParseError(f"expected 6 fields, got {len(parts)}", line=lineno)
        fname = parts[0]
        try:
            label, x0, y0, x1, y1 = (int(p) for p in parts[1:])
        except ValueError:
            raise ParseError(f"non-integer field in '{line}'", line=lineno) from None
        img_path = os.path.join(data_dir, fname)
        mask_path = os.path.join(data_dir, fname.rsplit(".", 1)[0] + "_mask.pgm")
        image = read_ppm_p6(img_path)
        images.append(image.astype(np.float32) / 255.0)
        labels.append(label)
        label_lines.append(lineno)
        boxes.append((x0, y0, x1, y1))
        mask = read_pgm_p5(mask_path)
        masks.append((mask > 127).astype(np.uint8))
        h, w = images[0].shape[:2]
        for path, arr in ((img_path, image), (mask_path, mask)):
            if arr.shape[:2] != (h, w):
                raise DataError(f"{path} is {arr.shape[1]}x{arr.shape[0]} pixels, "
                                f"but the first image is {w}x{h}")
        if not (0 <= x0 < x1 <= w and 0 <= y0 < y1 <= h):
            raise DataError(f"{index_path}:{lineno}: box {(x0, y0, x1, y1)} "
                            f"is not a non-empty box inside the {w}x{h} image")
    if not labels:
        raise DataError(f"{index_path}: no samples")

    name, num_classes = os.path.basename(os.path.normpath(data_dir)), 0
    meta_path = os.path.join(data_dir, "meta.csv")
    if os.path.exists(meta_path):
        for lineno, line in _read_lines(meta_path):
            key, _, val = line.strip().partition(",")
            if key == "name":
                name = val
            elif key == "num_classes":
                try:
                    num_classes = int(val)
                except ValueError:
                    raise DataError(f"{meta_path}:{lineno}: num_classes '{val}' "
                                    "is not an integer") from None
    if not num_classes:
        num_classes = int(max(labels)) + 1
    for label, lineno in zip(labels, label_lines):
        if not 0 <= label < num_classes:
            raise DataError(f"{index_path}:{lineno}: label {label} outside "
                            f"[0, {num_classes})")
    return Dataset(name=name, images=np.stack(images),
                   labels=np.array(labels, dtype=np.int64),
                   boxes=np.array(boxes, dtype=np.int64), masks=np.stack(masks),
                   num_classes=num_classes)


def split_dataset(ds, n_train):
    """Deterministic head/tail split (generation order is already random)."""
    def take(sl):
        return Dataset(name=ds.name, images=ds.images[sl], labels=ds.labels[sl],
                       boxes=ds.boxes[sl], masks=ds.masks[sl], num_classes=ds.num_classes)
    return take(slice(0, n_train)), take(slice(n_train, len(ds)))
