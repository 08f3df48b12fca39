"""End-to-end optimization: augmentation, MixUp, AdamW, the training loop,
and checkpoint/resume.

Recipe at desk scale: bilinear resize, random crop, horizontal flips,
MixUp, adaptive moments with decoupled weight decay, constant learning
rate; evaluation only resizes to the model's input size. Weight init lives
in the model (truncated normal std 0.02, zero biases, zero final layer).
Multi-dataset training samples a dataset by weight each step, then a batch
uniformly within it.

Batch-level draws (dataset choice, indices, MixUp) come from one
checkpointable master generator; per-sample augmentation streams derive from
(seed, step, index), so each sample's augmentation does not depend on the
order in which the batch is assembled.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from . import model as model_mod
from .errors import ConfigError, DataError, InputError, NumericError

ADAM_EPS = 1e-8
# elements per block of the AdamW update: 128 KiB of float32, so a block's
# few temporaries fit in L2
ADAM_BLOCK = 1 << 15


@dataclass
class TrainConfig:
    batch_size: int = 16
    steps: int = 500
    lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    weight_decay: float = 0.05
    mixup_alpha: float = 0.2
    crop: int = 32
    resize: int = 32
    hflip_prob: float = 0.5
    seed: int = 0

    def validate(self):
        if not (0.0 <= self.hflip_prob <= 1.0):
            raise ConfigError("hflip_prob must be in [0, 1]")
        if self.mixup_alpha < 0:
            raise ConfigError("mixup_alpha must be >= 0 (0 disables MixUp)")
        if not 1 <= self.crop <= self.resize:
            raise ConfigError(f"crop must be in 1..resize ({self.resize}), got {self.crop}")
        if self.batch_size < 1 or self.steps < 0:
            raise ConfigError("batch_size >= 1 and steps >= 0 required")
        if self.seed < 0:   # numpy seeds only from non-negative integers
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        for name in ("lr", "weight_decay", "mixup_alpha"):
            if not np.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("beta1", "beta2"):  # AdamW's bias correction divides by 1 - beta**t
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        return self


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def bilinear_resize(img, out_side):
    """Plain numpy bilinear resize of (H, W, C) to (out_side, out_side, C), or
    of a batch (N, H, W, C) to (N, out_side, out_side, C)."""
    H, W = img.shape[-3:-1]
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
    def across(rows):
        return rows[..., c0, :] * (1 - fc)[:, None] + rows[..., c1, :] * fc[:, None]
    top, bot = across(img[..., r0, :, :]), across(img[..., r1, :, :])
    return top * (1 - fr)[:, None, None] + bot * fr[:, None, None]


def augment(image, cfg, rng):
    """Training augmentation: resize -> random crop -> maybe flip."""
    if image.ndim != 3 or image.shape[0] < 2 or image.shape[1] < 2:
        raise InputError("augment: image must be at least 2x2 with channels")
    img = bilinear_resize(image, cfg.resize)
    pad = cfg.resize - cfg.crop
    if pad:
        dy = int(rng.integers(0, pad + 1))
        dx = int(rng.integers(0, pad + 1))
        img = img[dy:dy + cfg.crop, dx:dx + cfg.crop, :]
    if cfg.hflip_prob > 0 and rng.random() < cfg.hflip_prob:
        img = img[:, ::-1, :]
    return np.ascontiguousarray(img)


def mixup(batch_x, batch_y, alpha, rng):
    """Convex combination of the batch with a random permutation of itself.

    lam ~ Beta(alpha, alpha); alpha = 0 disables (lam = 1).
    """
    if alpha < 0:
        raise InputError("mixup: alpha must be >= 0")
    if alpha == 0:
        return batch_x, batch_y
    lam = float(rng.beta(alpha, alpha))
    perm = rng.permutation(batch_x.shape[0])
    mixed_x = lam * batch_x + (1.0 - lam) * batch_x[perm]
    mixed_y = lam * batch_y + (1.0 - lam) * batch_y[perm]
    return mixed_x.astype(batch_x.dtype), mixed_y.astype(batch_y.dtype)


def one_hot(labels, num_classes):
    out = np.zeros((len(labels), num_classes), dtype=np.float32)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _sample_rng(seed, step, index):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(step, index))))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


def _blocks(*arrays):
    """Aligned `ADAM_BLOCK`-element slices of the arrays' flat views; arrays
    that fit one block come back whole, without slicing overhead."""
    n = arrays[0].size
    if n <= ADAM_BLOCK:
        yield arrays
        return
    flat = [np.reshape(a, -1) for a in arrays]
    for start in range(0, n, ADAM_BLOCK):
        yield [f[start:start + ADAM_BLOCK] for f in flat]


class AdamW:
    """Adaptive moments with bias correction and decoupled weight decay
    (Loshchilov & Hutter 2019).

    Each parameter is updated in place, in blocks of `ADAM_BLOCK` elements of
    its flat view, as fused "multi-tensor" optimizers do: a block's
    temporaries stay in cache instead of streaming full-size intermediates
    through memory. Every element sees the same operations in the same order
    as the unblocked formula, so the result is bit-identical to it.
    """

    def __init__(self, param_names):
        self.m = {n: None for n in param_names}
        self.v = {n: None for n in param_names}
        self.t = 0

    def step(self, params, grads, cfg):
        # every gradient is checked before anything moves, so a NumericError
        # leaves the parameters, the moments and t as they were
        for name in params:
            if not np.all(np.isfinite(grads[name])):
                raise NumericError(f"non-finite gradient for parameter '{name}'")
        self.t += 1
        b1, b2 = cfg.beta1, cfg.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        lr, decay = cfg.lr, cfg.lr * cfg.weight_decay
        for name, p in params.items():
            # the update writes through views, so the array must be
            # C-contiguous and writeable; one that is not is replaced once
            if not (p.data.flags.c_contiguous and p.data.flags.writeable):
                p.data = p.data.copy()
            if self.m[name] is None:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            for w, m, v, g in _blocks(p.data, self.m[name], self.v[name], grads[name]):
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * (g * g)
                update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
                decayed = decay * w
                w -= lr * update
                w -= decayed

    def state_arrays(self):
        out = {"opt.t": np.array([self.t], dtype=np.int64)}
        for name, m in self.m.items():
            if m is not None:
                out[f"opt.m.{name}"] = m
                out[f"opt.v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, params, arrays):
        """Take the moments from freshly loaded `arrays` in place, no copy."""
        self.t = _int_record(arrays, "opt.t")
        for name in self.m:
            key = f"opt.m.{name}"
            if key in arrays:
                self.m[name] = _moment_record(arrays, key, params[name])
                self.v[name] = _moment_record(arrays, f"opt.v.{name}", params[name])


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainLogRow:
    step: int
    loss: float
    acc: float

    def csv(self):
        return f"{self.step},{self.loss:.6f},{self.acc:.6f}"


class Trainer:
    """Owns a model, an optimizer, and the master RNG; supports bit-exact
    checkpoint/resume."""

    def __init__(self, model, cfg, datasets):
        if not datasets:
            raise ConfigError("train: need at least one dataset")
        for ds, _ in datasets:
            if len(ds) == 0:
                raise ConfigError(f"train: dataset '{ds.name}' is empty")
        self.model = model
        self.cfg = cfg.validate()
        self.datasets = datasets
        self.optimizer = AdamW(model.params.keys())
        self.rng = np.random.default_rng(cfg.seed)
        self.step = 0
        self.log = []
        weights = np.array([w for _, w in datasets], dtype=np.float64)
        if not np.isfinite(weights).all() or weights.min() < 0 or weights.sum() <= 0:
            raise ConfigError("train: dataset weights must be finite and nonnegative, sum > 0")
        self._weights = weights / weights.sum()

    # -- batch assembly ------------------------------------------------------

    def _assemble(self, ds, indices, step):
        xs = []
        for j, idx in enumerate(indices):
            srng = _sample_rng(self.cfg.seed, step, j)
            xs.append(augment(ds.images[idx], self.cfg, srng))
        x = np.stack(xs).astype(np.float32)
        y = ds.labels[indices]
        return x, y

    def pick_dataset(self):
        """Weighted dataset choice for one step (drawn from the master RNG)."""
        return int(self.rng.choice(len(self.datasets), p=self._weights))

    def train_step(self):
        cfg = self.cfg
        ds = self.datasets[self.pick_dataset()][0]
        indices = self.rng.integers(0, len(ds), size=cfg.batch_size)
        x, labels = self._assemble(ds, indices, self.step)
        y = one_hot(labels, self.model.cfg.num_classes)
        x, y_mixed = mixup(x, y, cfg.mixup_alpha, self.rng)

        pred = self.model.forward(x)
        loss, grads = model_mod.loss_and_grads(self.model, pred, y_mixed)
        self.optimizer.step(self.model.params, grads, cfg)
        acc = float(np.mean(np.argmax(pred.logits.data, axis=1) == labels))
        row = TrainLogRow(step=self.step, loss=float(loss.item()), acc=acc)
        self.log.append(row)
        self.step += 1
        return row

    def run(self, steps=None, quiet=True, log_fh=None):
        steps = self.cfg.steps if steps is None else steps
        start = time.time()
        for i in range(steps):
            row = self.train_step()
            if log_fh is not None:
                log_fh.write(row.csv() + "\n")
            if not quiet and (row.step % 50 == 0 or i == steps - 1):
                rate = (i + 1) / max(time.time() - start, 1e-9)
                print(f"step {row.step}: loss {row.loss:.4f} acc {row.acc:.3f} "
                      f"({rate:.1f} steps/s)")
        return self.log

    # -- checkpointing -------------------------------------------------------

    def save_checkpoint(self, path):
        arrays = {f"param.{n}": t.data for n, t in self.model.params.items()}
        arrays.update(self.optimizer.state_arrays())
        arrays["trainer.step"] = np.array([self.step], dtype=np.int64)
        arrays["trainer.rng"] = ckpt.pack_rng_state(self.rng)
        arrays["trainer.model_config"] = ckpt.pack_text(model_mod.config_text(self.model.cfg))
        arrays["trainer.train_config"] = ckpt.pack_text(model_mod.config_text(self.cfg))
        ckpt.save_arrays(path, arrays)

    @classmethod
    def resume(cls, path, datasets):
        arrays = ckpt.load_arrays(path)
        model = model_from_checkpoint_arrays(arrays)
        cfg = _config_record(arrays, "trainer.train_config", TrainConfig)
        trainer = cls(model, cfg, datasets)
        trainer.optimizer.load_state_arrays(model.params, arrays)
        trainer.step = _int_record(arrays, "trainer.step")
        trainer.rng = ckpt.unpack_rng_state(_record(arrays, "trainer.rng"))
        return trainer


def _record(arrays, name):
    """A record every trainer checkpoint has; without it the file is malformed."""
    if name not in arrays:
        raise DataError(f"checkpoint has no '{name}' record")
    return arrays[name]


def _int_record(arrays, name):
    """A counter record: exactly one value."""
    arr = _record(arrays, name)
    if arr.size != 1:
        raise DataError(f"checkpoint record '{name}' holds {arr.size} values, expected 1")
    return int(arr.reshape(-1)[0])


def _moment_record(arrays, name, param):
    """An optimizer moment: the shape of its parameter, finite, and for the
    second moment nonnegative (`sqrt(v)` of a negative entry is NaN); updated
    in place."""
    arr = _record(arrays, name)
    if arr.shape != param.shape:
        raise DataError(f"checkpoint record '{name}' has shape {arr.shape}, "
                        f"expected {param.shape}")
    _check_finite(name, arr)
    if name.startswith("opt.v.") and (arr < 0).any():
        raise DataError(f"checkpoint record '{name}' holds a negative second moment")
    return arr


def _check_finite(name, arr):
    if not np.isfinite(arr).all():
        raise DataError(f"checkpoint record '{name}' holds a non-finite value")


def _config_record(arrays, name, cls):
    return model_mod.parse_config(cls, ckpt.unpack_text(_record(arrays, name)), name)


def model_from_checkpoint_arrays(arrays):
    """The model a checkpoint holds; every parameter it reads must be finite."""
    cfg = _config_record(arrays, "trainer.model_config", model_mod.ModelConfig)
    model = model_mod.ProNextModel.from_state(
        cfg, {n[len("param."):]: a for n, a in arrays.items() if n.startswith("param.")})
    for name, tensor in model.params.items():
        _check_finite(f"param.{name}", tensor.data)
    return model


def load_model_from_checkpoint(path):
    """The model alone: reads only its parameters and its config snapshot."""
    return model_from_checkpoint_arrays(
        ckpt.load_arrays(path, ("param.", "trainer.model_config")))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(model, dataset, batch_size=64):
    """Accuracy and mean loss with every image resized to the model's input
    size; returns (accuracy, mean loss)."""
    n = len(dataset)
    correct = 0
    losses = []
    for start in range(0, n, batch_size):
        idx = np.arange(start, min(start + batch_size, n))
        x = bilinear_resize(dataset.images[idx], model.cfg.input_size)
        y = one_hot(dataset.labels[idx], model.cfg.num_classes)
        with ad.no_grad():
            pred = model.forward(x.astype(np.float32))
            loss = ad.softmax_cross_entropy(pred.logits, y)
        losses.append(float(loss.item()) * len(idx))
        correct += int((np.argmax(pred.logits.data, axis=1) == dataset.labels[idx]).sum())
    return correct / n, sum(losses) / n
