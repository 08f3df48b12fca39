"""End-to-end optimization: augmentation, MixUp, AdamW, the training loop,
and checkpoint/resume.

Recipe at desk scale: bilinear resize, random crop (center crop at eval),
horizontal flips, MixUp, adaptive moments with decoupled weight decay,
constant learning rate. Weight init lives in the model (truncated normal
std 0.02, zero biases, zero final layer). Multi-dataset training samples a
dataset by weight each step, then a batch uniformly within it.

Randomness is split so batch assembly could run on parallel workers: batch-
level draws (dataset choice, indices, MixUp) come from one checkpointable
master generator; per-sample augmentation streams derive from
(seed, step, index) and are order-independent.
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
        if self.crop > self.resize:
            raise ConfigError("crop must be <= resize")
        if self.batch_size < 1 or self.steps < 0:
            raise ConfigError("batch_size >= 1 and steps >= 0 required")
        return self


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


def bilinear_resize(img, out_side):
    """Plain numpy bilinear resize of (H, W, C) to (out_side, out_side, C)."""
    H, W, C = img.shape
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
    top = img[r0][:, c0] * (1 - fc)[None, :, None] + img[r0][:, c1] * fc[None, :, None]
    bot = img[r1][:, c0] * (1 - fc)[None, :, None] + img[r1][:, c1] * fc[None, :, None]
    return top * (1 - fr)[:, None, None] + bot * fr[:, None, None]


def augment(image, cfg, rng, train=True):
    """Resize -> crop (random in training, centered at eval) -> maybe flip."""
    if image.ndim != 3 or image.shape[0] < 2 or image.shape[1] < 2:
        raise InputError("augment: image must be at least 2x2 with channels")
    img = bilinear_resize(image, cfg.resize)
    pad = cfg.resize - cfg.crop
    if pad:
        if train:
            dy = int(rng.integers(0, pad + 1))
            dx = int(rng.integers(0, pad + 1))
        else:
            dy = dx = pad // 2
        img = img[dy:dy + cfg.crop, dx:dx + cfg.crop, :]
    if train and cfg.hflip_prob > 0 and rng.random() < cfg.hflip_prob:
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


def one_hot(labels, num_classes, dtype=np.float32):
    out = np.zeros((len(labels), num_classes), dtype=dtype)
    out[np.arange(len(labels)), labels] = 1.0
    return out


def _sample_rng(seed, step, index):
    return np.random.Generator(np.random.PCG64(
        np.random.SeedSequence(entropy=seed, spawn_key=(step, index))))


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class AdamW:
    """Adaptive moments with bias correction and decoupled weight decay."""

    def __init__(self, param_names):
        self.m = {n: None for n in param_names}
        self.v = {n: None for n in param_names}
        self.t = 0

    def step(self, params, grads, cfg):
        self.t += 1
        b1, b2 = cfg.beta1, cfg.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name, p in params.items():
            g = grads[name]
            if not np.all(np.isfinite(g)):
                raise NumericError(f"non-finite gradient for parameter '{name}'")
            if self.m[name] is None:
                self.m[name] = np.zeros_like(p.data)
                self.v[name] = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            p.data = p.data - cfg.lr * update - cfg.lr * cfg.weight_decay * p.data

    def state_arrays(self):
        out = {"opt.t": np.array([self.t], dtype=np.int64)}
        for name, m in self.m.items():
            if m is not None:
                out[f"opt.m.{name}"] = m
                out[f"opt.v.{name}"] = self.v[name]
        return out

    def load_state_arrays(self, arrays):
        self.t = _int_record(arrays, "opt.t")
        for name in self.m:
            key = f"opt.m.{name}"
            if key in arrays:
                self.m[name] = arrays[key].copy()
                self.v[name] = _record(arrays, f"opt.v.{name}").copy()


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
        if weights.min() < 0 or weights.sum() <= 0:
            raise ConfigError("train: dataset weights must be nonnegative, sum > 0")
        self._weights = weights / weights.sum()

    # -- batch assembly ------------------------------------------------------

    def _assemble(self, ds, indices, step):
        xs = []
        for j, idx in enumerate(indices):
            srng = _sample_rng(self.cfg.seed, step, j)
            xs.append(augment(ds.images[idx], self.cfg, srng, train=True))
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
        trainer.optimizer.load_state_arrays(arrays)
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


def _config_record(arrays, name, cls):
    return model_mod.parse_config(cls, ckpt.unpack_text(_record(arrays, name)), name)


def model_from_checkpoint_arrays(arrays):
    cfg = _config_record(arrays, "trainer.model_config", model_mod.ModelConfig)
    model = model_mod.ProNextModel(cfg, seed=0)
    model.load_state({n[len("param."):]: a for n, a in arrays.items()
                      if n.startswith("param.")})
    return model


def load_model_from_checkpoint(path):
    return model_from_checkpoint_arrays(ckpt.load_arrays(path))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def evaluate(model, dataset, cfg, batch_size=64):
    """Center-crop evaluation; returns (accuracy, mean loss)."""
    n = len(dataset)
    correct = 0
    losses = []
    for start in range(0, n, batch_size):
        idx = np.arange(start, min(start + batch_size, n))
        x = np.stack([augment(dataset.images[i], cfg, None, train=False) for i in idx])
        y = one_hot(dataset.labels[idx], model.cfg.num_classes)
        with ad.no_grad():
            pred = model.forward(x.astype(np.float32))
            loss = ad.softmax_cross_entropy(pred.logits, y)
        losses.append(float(loss.item()) * len(idx))
        correct += int((np.argmax(pred.logits.data, axis=1) == dataset.labels[idx]).sum())
    return correct / n, sum(losses) / n
