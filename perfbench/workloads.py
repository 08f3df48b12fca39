"""The three benchmark workloads and the pipeline they share.

Every workload drives the public pronext API in a closed loop, one group of
models after another. Per group it generates an `interaction` dataset,
writes it and loads it back (`data.write_dataset` / `load_dataset`, as
`pronext ablate` reads it), builds the models, warms each up with one train
step, saves and reloads its checkpoint (`Trainer.save_checkpoint` ->
`train.load_model_from_checkpoint`, as `train` -> `eval` does), and then
times, interleaved, training (`Trainer.train_step`), batched no-grad
inference on the held-out split with the reloaded models, and float64
gradient checks of the engine kernels (`grad_check`). The models of a group
train and infer in lockstep. The workloads differ in the models, the image
size and how the time is split between the phases:

  ladder     the desk ablation config, two groups of the six
             `experiments.ABLATION_ROWS`; mostly training.
  s8         `build_variant("S", 8)` at 64 px, three groups of one model;
             training, a 148 MB checkpoint and inference.
  gradcheck  the tiny criterion-1 config, eight groups of one model; mostly the
             float64 gradient suite (every kernel plus the soft-mask
             whole-model check).

Each timed phase gets a share of `--seconds` and a minimum sample count, and
the phases take turns cycle by cycle until each has both. The minimum fixes
the tail percentile (the highest of 50/75/90/95/99 that leaves at least ten
samples beyond it), so the percentile does not change between runs. Untimed
work before the timed phases (data, model build, warm-up, checkpoint
save/reload) is set-up; a group's set-up is its data plus the median over
its models.
"""

from __future__ import annotations

import contextlib
import math
import os
import shutil
import statistics
import time
from dataclasses import dataclass, field, replace

import numpy as np

TAIL_LADDER = (99, 95, 90, 75, 50)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    image_size: int
    n_images: int
    batch: int
    groups: int             # model groups run one after another
    shares: dict            # phase -> share of --seconds
    min_samples: dict       # phase -> timed samples per run (all models pooled)
    primary: str            # phase whose unit the per-layer metrics are per

    def tail_q(self, phase):
        n = self.min_samples[phase]
        return next(q for q in TAIL_LADDER if n * (100 - q) / 100 >= 10)


WORKLOADS = {w.name: w for w in (
    Workload(
        name="ladder",
        why="desk ablation config over all six ladder rows: every parser path, "
            "small tensors, so per-op overhead and parser loops dominate",
        image_size=32, n_images=512, batch=16, groups=2,
        shares={"train": 0.6, "infer": 0.25, "gradcheck": 0.15},
        min_samples={"train": 60, "infer": 100, "gradcheck": 6},
        primary="train"),
    Workload(
        name="s8",
        why="S/8 at 64 px, B=8: 12.3M params, D=384 attention, AdamW and a "
            "148 MB checkpoint carry real weight; training vs forward-only inference",
        image_size=64, n_images=96, batch=8, groups=3,
        shares={"train": 0.6, "infer": 0.3, "gradcheck": 0.1},
        min_samples={"train": 21, "infer": 42, "gradcheck": 3},
        primary="train"),
    Workload(
        name="gradcheck",
        why="float64 gradient suite over every kernel plus the soft-mask "
            "whole-model check on the tiny config: bound by Python dispatch",
        image_size=16, n_images=128, batch=16, groups=8,
        shares={"train": 0.15, "infer": 0.15, "gradcheck": 0.7},
        min_samples={"train": 40, "infer": 100, "gradcheck": 20},
        primary="gradcheck"),
)}

PHASES = ("train", "infer", "gradcheck")


def group_configs(pn, wl, num_classes):
    """Model configs per group; groups differ only in their seeds. Each ladder
    group trains the six rows together; s8 and gradcheck groups hold one model."""
    if wl.name == "ladder":
        base = pn.cli._desk_ablation_config(num_classes, wl.image_size)
        group = [replace(base, **overrides).validate()
                 for _, overrides in pn.experiments.ABLATION_ROWS]
    elif wl.name == "s8":
        group = [pn.model.build_variant("S", 8, input_size=wl.image_size,
                                        num_classes=num_classes)]
    else:
        group = [tiny_config(pn, num_classes)]
    return [group] * wl.groups


def tiny_config(pn, num_classes):
    """The whole-model config of acceptance criterion 1."""
    return pn.model.ModelConfig(input_size=16, stem_channels=2, patch_size=2,
                                embed_dim=8, ca_layers=1, ca_heads=2,
                                num_classes=num_classes).validate()


# ---------------------------------------------------------------------------
# gradient checks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckShapes:
    conv: tuple              # (side, cin, cout)
    pool: tuple              # (side, channels)
    patch: int               # patch_avg_pool window
    bilinear: tuple          # (side, channels, coordinates)
    deform: tuple            # (side, cin, cout)
    attn: tuple              # (width, heads, queries, keys)
    grid: int                # token grid side (depthwise conv, gather)
    classes: int
    max_elems: int | None    # None: the per-kernel counts of criterion 1


# the kernel shapes of acceptance criterion 1
TINY_SHAPES = CheckShapes(conv=(7, 3, 4), pool=(8, 2), patch=4, bilinear=(6, 2, 8),
                          deform=(6, 2, 3), attn=(6, 2, 3, 4), grid=3, classes=5,
                          max_elems=None)

WHOLE_MODEL_PICKS = ("stem.block0.w", "stage0.parser.cond_w",
                     "stage1.gaze.ca_layers0.attn.wq", "head.mlp_w1")


def model_shapes(cfg):
    """Kernel shapes of one model: the stem, stage 0's sampling and the last
    stage's deformable convolution. On larger maps a perturbed offset weight
    or bias moves every sampling point at once, so some point sits within eps
    of a bilinear kink too often for the check to be meaningful."""
    S, C, P = cfg.input_size, cfg.stem_channels, cfg.grid_side(0)
    half = S // 2
    return CheckShapes(conv=(S, cfg.in_channels, C), pool=(S, C), patch=cfg.patch_size,
                       bilinear=(half, C, half * half * 9), deform=(S // 8, 4 * C, 8 * C),
                       attn=(cfg.embed_dim, cfg.ca_heads, P * P // 2, P * P // 2),
                       grid=P, classes=cfg.num_classes, max_elems=2)


# Steps of the one-sided re-measurement, largest first.
RECHECK_STEPS = (1e-3, 1e-5, 1e-7)


def one_sided_recheck(ad, fn, inputs, report, denom_floor):
    """`report` without the failures that a one-sided re-measurement clears.

    `grad_check`'s central differences assume `fn` is smooth within the step
    on both sides of the point. A failed coordinate is measured again with
    its stencil wholly on one side: the analytic gradient at x + s against
    the central difference of f(x) and f(x + 2s), for s = +-step and every
    step of RECHECK_STEPS. It stays failed only if all of these fail, as a
    wrong backward does. What this clears: a bilinear kink next to the point
    (a deformable-convolution offset moves 64 sampling points at once, and on
    s8 one sat 7e-8 from an integer), a band-pass rank tie that the point
    sits on in the soft-mask model, and a near-zero gradient that roundoff
    swamps at small steps (the large step clears it).
    """
    if report.passed:
        return report
    out = fn(inputs)
    proj = np.asarray(np.random.default_rng(0).standard_normal(out.shape))

    def value():
        with ad.no_grad():
            return float((fn(inputs).data * proj).sum())

    def clears(failure):
        t, coord = inputs[failure.input_index], tuple(failure.coord)
        x0 = float(t.data[coord])
        try:
            for step in RECHECK_STEPS:
                for s in (step, -step):
                    t.data[coord] = x0 + s
                    for u in inputs:
                        u.zero_grad()
                    fn(inputs).backward(proj)
                    ana = 0.0 if t.grad is None else float(t.grad[coord])
                    t.data[coord] = x0 + 2 * s
                    far = value()
                    t.data[coord] = x0
                    numeric = (far - value()) / (2 * s)
                    if abs(ana - numeric) <= report.tol * max(abs(ana), abs(numeric), denom_floor):
                        return True
        finally:
            t.data[coord] = x0
        return False

    failures = [f for f in report.failures if not clears(f)]
    return replace(report, passed=not failures, failures=failures)


class CheckCounter:
    """Wraps the function handed to grad_check: counts and times evaluations,
    and re-measures failed coordinates one-sidedly (not counted)."""

    def __init__(self, ad, tracer):
        self.ad = ad
        self.tracer = tracer
        self.calls = self.coords = self.evals = 0
        self.eval_ms = []

    def check(self, grad_check, fn, inputs, **kwargs):
        tracing = self.tracer is not None and self.tracer.installed

        def counted(ts):
            t0 = time.perf_counter()
            if tracing:
                with self.tracer.span("gradcheck.eval"):
                    out = fn(ts)
            else:
                out = fn(ts)
            self.eval_ms.append((time.perf_counter() - t0) * 1e3)
            self.evals += 1
            return out

        with self.tracer.span("gradcheck.check") if tracing else contextlib.nullcontext():
            rep = grad_check(counted, inputs, **kwargs)
            rep = one_sided_recheck(self.ad, fn, inputs, rep,
                                    kwargs.get("denom_floor", 1e-6))   # grad_check's default
        self.calls += 1
        self.coords += rep.n_checked
        return rep


def kernel_checks(pn, rng, shp, counter):
    """One float64 grad_check per engine kernel; returns {kernel: report}."""
    ad, grad_check = pn.ad, pn.grad_check

    def T(a):
        return ad.Tensor(a, requires_grad=True)

    def me(default):
        return default if shp.max_elems is None else shp.max_elems

    def run(name, fn, inputs, max_elems):
        reports[name] = counter.check(grad_check, fn, inputs, max_elems=me(max_elems), rng=rng)

    reports = {}
    s, cin, cout = shp.conv
    run("conv2d", lambda ts: ad.conv2d(ts[0], ts[1], ts[2], stride=1, padding=1),
        [T(rng.standard_normal((s, s, cin))), T(rng.standard_normal((3, 3, cin, cout)) * 0.5),
         T(rng.standard_normal(cout) * 0.1)], 10)

    s, ch = shp.pool
    # spread values so no pooling window holds a near-tie at eps scale; the
    # spread stays below 1 so large maps do not drown the output in roundoff
    n = s * s * ch
    base = rng.standard_normal((s, s, ch)) + min(0.01, 1 / n) * np.arange(n).reshape(s, s, ch)
    run("max_pool2d", lambda ts: ad.max_pool2d(ts[0], 2, 2), [T(base)], 16)
    run("patch_avg_pool", lambda ts: ad.patch_avg_pool(ts[0], shp.patch),
        [T(rng.standard_normal((s, s, ch)))], 12)
    run("global_avg_pool", lambda ts: ad.global_avg_pool(ts[0]),
        [T(rng.standard_normal((s, s, ch)))], 12)
    run("block_norm", lambda ts: ad.block_norm(*ts),
        [T(rng.standard_normal((1, s, s, ch))), T(1 + 0.1 * rng.standard_normal(ch)),
         T(0.1 * rng.standard_normal(ch))], 8)

    g = shp.grid
    run("sine_act", lambda ts: ad.sine_act(*ts),
        [T(rng.standard_normal((g, g))), T(np.array(rng.uniform(0.5, 2.0))),
         T(np.array(rng.uniform(0.5, 2.0)))], 12)

    s, ch, n = shp.bilinear
    run("bilinear_sample", lambda ts: ad.bilinear_sample(ts[0], ts[1]),
        [T(rng.standard_normal((s, s, ch))), T(rng.uniform(0.25, s - 1.4, (n, 2)))], 12)

    s, cin, cout = shp.deform
    offsets = rng.choice([-1.0, 1.0], 18) * rng.uniform(0.3, 0.7, 18)   # mid-cell
    run("deformable_conv2d", lambda ts: ad.deformable_conv2d(*ts),
        [T(rng.standard_normal((s, s, cin))), T(rng.standard_normal((3, 3, cin, cout)) * 0.4),
         T(rng.standard_normal(cout) * 0.1), T(rng.standard_normal((3, 3, cin, 18)) * 0.01),
         T(offsets)], 8)

    d, heads, nq, nk = shp.attn
    mats = [T(rng.standard_normal((d, d)) / math.sqrt(d)) for _ in range(4)]
    vecs = [T(rng.standard_normal(d) * 0.1) for _ in range(4)]
    params = ad.AttentionParams(*mats, *vecs)
    key_w = np.ones(nk)
    key_w[-1] = 0.0                                   # one padded key, as in a hard mask
    # bk shifts all of a query's logits equally, so softmax makes its gradient
    # exactly zero and a finite difference of it measures only roundoff
    checked = [p for p in vecs if p is not params.bk]
    run("multi_head_cross_attention",
        lambda ts: ad.multi_head_cross_attention(ts[0], ts[1], heads, params, key_weights=key_w),
        [T(rng.standard_normal((nq, d))), T(rng.standard_normal((nk, d)))] + mats + checked, 6)
    run("layer_norm", lambda ts: ad.layer_norm(*ts),
        [T(rng.standard_normal((nq, d))), T(1 + 0.1 * rng.standard_normal(d)),
         T(0.1 * rng.standard_normal(d))], 8)
    run("gelu", lambda ts: ad.gelu(ts[0]), [T(rng.standard_normal((nq, d)))], 8)
    run("depthwise_conv2d", lambda ts: ad.depthwise_conv2d(*ts),
        [T(rng.standard_normal((1, g, g, d))), T(rng.standard_normal((3, 3, d)) * 0.4),
         T(rng.standard_normal(d) * 0.1)], 8)
    idx = rng.integers(0, g * g, (1, nq))
    idx[0, -1] = idx[0, 0]                            # padding repeats an index
    run("gather_tokens", lambda ts: ad.gather_tokens(ts[0], idx),
        [T(rng.standard_normal((1, g * g, d)))], 8)

    target = rng.dirichlet(np.ones(shp.classes), size=3)
    run("softmax_cross_entropy", lambda ts: ad.softmax_cross_entropy(ts[0], target),
        [T(rng.standard_normal((3, shp.classes)))], 15)
    return reports


def whole_model_check(pn, seed, counter):
    """Criterion 1's soft-mask whole-model check on the tiny config."""
    ad = pn.ad
    cfg = tiny_config(pn, 3)
    rng = np.random.default_rng(1_000 + seed)
    model = pn.model.ProNextModel(cfg, seed=seed)
    model.mlp_w2.data = rng.standard_normal(model.mlp_w2.shape) * 0.2
    x = ad.Tensor(rng.standard_normal((1, 16, 16, 3)), requires_grad=True)
    target = np.zeros((1, 3))
    target[0, 1] = 1.0

    def run(ts):
        pred = model.forward(ts[0], mode="soft")
        return ad.softmax_cross_entropy(pred.logits, target)

    return counter.check(pn.grad_check, run, [x] + [model.params[p] for p in WHOLE_MODEL_PICKS],
                         eps=2.5e-7, max_elems=5, rng=rng, denom_floor=1e-5)


# ---------------------------------------------------------------------------
# the pipeline
# ---------------------------------------------------------------------------


class NullTracer:
    """Stand-in when tracing is off."""

    phase = "setup"

    def span(self, name):
        return contextlib.nullcontext()

    def __bool__(self):
        return False


@dataclass
class RunResult:
    samples: dict = field(default_factory=lambda: {p: [] for p in PHASES})  # per model
    untraced: list = field(default_factory=list)     # primary unit ms with tracing off
    attributed: list = field(default_factory=list)   # per traced primary unit: child span ms
    group_setup_s: list = field(default_factory=list)    # data + median model set-up
    model_setup_s: list = field(default_factory=list)    # per model
    ckpt_bytes: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    checks: dict = field(default_factory=dict)
    gc: CheckCounter | None = None

    def all(self, phase):
        return [v for per_model in self.samples[phase] for v in per_model]

    def balanced(self, phase):
        """The first n samples of every model, n the smallest model's count, so
        every model weighs the same in the percentiles."""
        n = min(len(v) for v in self.samples[phase])
        return [v for per_model in self.samples[phase] for v in per_model[:n]]

    def check(self, name, ok, detail=""):
        passed, total = self.checks.get(name, (0, 0))
        self.checks[name] = (passed + bool(ok), total + 1)
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")


class Pipeline:
    def __init__(self, pn, wl, seed, seconds, workdir, tracer=None):
        self.pn, self.wl, self.seed, self.seconds = pn, wl, seed, seconds
        self.workdir = workdir
        self.tracer = tracer or NullTracer()
        self.res = RunResult()
        self.res.gc = CheckCounter(pn.ad, tracer)

    # -- timing ----------------------------------------------------------------

    def _budget(self, phase):
        return self.wl.shares[phase] * self.seconds / self.wl.groups

    def _min_cycles(self, phase, n_models):
        if self.tracer:
            return 2 if phase == self.wl.primary else 1
        return math.ceil(self.wl.min_samples[phase] / (self.wl.groups * n_models))

    def _interleave(self, ops, budgets, traced=True):
        """Closed loop over the phases in `ops`, {phase: (op, after, models)}.
        Each cycle runs `op(model index, cycle)` once per model and goes to
        the phase least far on its way to done, that is to its time budget
        and its minimum cycle count, so every phase's samples spread over the
        whole group. On a shared VM the machine's speed drifts by a fifth
        within seconds; a phase timed in one stretch would carry that drift
        into its median. `after(model index, result)` runs untimed (output checks).
        Returns the sample milliseconds per phase and model."""
        tracing = bool(self.tracer) and traced
        out = {p: [[] for _ in range(n)] for p, (_, _, n) in ops.items()}
        spent = dict.fromkeys(ops, 0.0)
        cycles = dict.fromkeys(ops, 0)
        need = {p: self._min_cycles(p, n) for p, (_, _, n) in ops.items()}

        def progress(p):
            return min(spent[p] / budgets[p], cycles[p] / need[p])

        pending = list(ops)
        while pending:
            phase = min(pending, key=progress)
            op, after, n_models = ops[phase]
            self.tracer.phase = phase
            for j in range(n_models):
                self.res.attempted += 1
                t0 = time.perf_counter()
                if tracing:
                    self.tracer.begin(f"bench.{phase}")
                try:
                    value = op(j, cycles[phase])
                except self.pn.errors.ProNextError as exc:
                    self.res.failed += 1
                    self.res.failures.append(f"{phase}: {type(exc).__name__}: {exc}")
                    if tracing:
                        self.tracer.end()
                    pending.remove(phase)
                    break
                if tracing:
                    _, child_ns = self.tracer.end()
                    if phase == self.wl.primary:
                        self.res.attributed.append(child_ns / 1e6)
                ms = (time.perf_counter() - t0) * 1e3
                out[phase][j].append(ms)
                spent[phase] += ms / 1e3
                after(j, value)
            else:
                cycles[phase] += 1
                if progress(phase) >= 1:
                    pending.remove(phase)
        self.tracer.phase = "setup"
        return out

    def _measure(self, ops):
        """The timed phases of one group. In a traced run the primary phase
        first runs alone for half its budget with the wrappers removed, for
        the tracing overhead, and then traced for the other half."""
        budgets = {p: self._budget(p) for p in ops}
        if self.tracer:
            P = self.wl.primary
            budgets[P] /= 2
            with _uninstalled(self.tracer, self.pn):
                for ms in self._interleave({P: ops[P]}, budgets, traced=False)[P]:
                    self.res.untraced += ms
        for phase, ms in self._interleave(ops, budgets).items():
            self.res.samples[phase] += ms

    # -- phases ----------------------------------------------------------------

    def run(self):
        for g in range(self.wl.groups):
            self._group(g)
        return self.res

    def _dataset(self, g):
        """Generate, write and load back this group's dataset; returns the
        (train, held-out) split."""
        pn, tr = self.pn, self.tracer
        ddir = os.path.join(self.workdir, f"data{g}")
        with tr.span("data.generate"):
            ds = pn.data.generate("interaction", self.wl.n_images,
                                  np.random.default_rng([self.seed, g]),
                                  image_size=self.wl.image_size)
        with tr.span("data.write"):
            pn.data.write_dataset(ds, ddir)
        with tr.span("data.load"):
            loaded = pn.data.load_dataset(ddir)
        shutil.rmtree(ddir)
        self.res.check("dataset_roundtrip", np.array_equal(loaded.images, ds.images)
                       and np.array_equal(loaded.labels, ds.labels), f"group {g}")
        return pn.data.split_dataset(loaded, int(0.75 * len(loaded)))

    def _group(self, g):
        """Set up one group of models, then train, infer and grad-check them
        interleaved. Set-up builds each model, warms it up with one train
        step, saves its checkpoint and reloads it, as `train` -> `eval` does;
        inference runs on the reloaded model while training goes on. The
        models train and infer in lockstep, so every ladder row trains the
        same number of steps."""
        t0 = time.perf_counter()
        train_ds, test_ds = self._dataset(g)
        data_s = time.perf_counter() - t0
        cfgs = group_configs(self.pn, self.wl, train_ds.num_classes)[g]
        pn, wl, res, tr = self.pn, self.wl, self.res, self.tracer
        ad = pn.ad
        batches = [np.arange(i, min(i + wl.batch, len(test_ds)))
                   for i in range(0, len(test_ds), wl.batch)]
        trainers, models, setup = [], [], []
        for j, cfg in enumerate(cfgs):
            t0 = time.perf_counter()
            seed = self.seed * 100 + g * 10 + j
            model = pn.model.ProNextModel(cfg, seed=seed)
            tcfg = pn.train.TrainConfig(batch_size=wl.batch, steps=0, lr=1e-3,
                                        mixup_alpha=0.0, crop=wl.image_size,
                                        resize=wl.image_size, seed=seed)
            trainer = pn.train.Trainer(model, tcfg, [(train_ds, 1.0)])
            # warm-up: the first step of a zero-initialised head sees logits
            # of exactly zero, so its loss is ln(num_classes)
            row = trainer.train_step()
            path = os.path.join(self.workdir, f"group{g}-model{j}.ckpt")
            with tr.span("checkpoint.save"):
                trainer.save_checkpoint(path)
            with tr.span("checkpoint.load"):
                reloaded = pn.train.load_model_from_checkpoint(path)
            with ad.no_grad():
                reloaded.forward(test_ds.images[batches[0]])          # warm-up
            setup.append(time.perf_counter() - t0)

            res.attempted += 1
            res.check("step0_loss_is_log_k", abs(row.loss - math.log(cfg.num_classes)) <= 1e-6,
                      f"group {g} model {j}: {row.loss!r}")
            res.ckpt_bytes.append(os.path.getsize(path))
            os.remove(path)
            saved = model.params
            res.check("checkpoint_bit_equal", reloaded.params.keys() == saved.keys() and all(
                reloaded.params[n].dtype == t.dtype
                and reloaded.params[n].data.tobytes() == t.data.tobytes()
                for n, t in saved.items()), f"group {g} model {j}")
            trainers.append(trainer)
            models.append(reloaded)

        def after_step(j, row):
            res.check("loss_finite", math.isfinite(row.loss), f"group {g} model {j}: {row.loss!r}")

        def infer(j, cycle):
            with ad.no_grad():
                return models[j].forward(test_ds.images[batches[cycle % len(batches)]])

        def after_infer(j, pred):
            for l, m in enumerate(pred.stage_masks):
                if m is not None:
                    P2 = m.grid_side ** 2
                    ok = bool(np.all((m.n_focal >= 1) & (m.n_focal <= P2 - 1)))
                    res.check("mask_nondegenerate", ok,
                              f"group {g} model {j} stage {l}: {m.n_focal}")

        shapes = TINY_SHAPES if wl.name == "gradcheck" else model_shapes(cfgs[0])

        def gc_round(_, i):
            gseed = self.seed * 100_000 + g * 1000 + i
            with ad.precision("float64"):
                reports = kernel_checks(pn, np.random.default_rng(gseed), shapes, res.gc)
                if wl.name == "gradcheck":
                    reports["whole_model_soft"] = whole_model_check(pn, gseed, res.gc)
            return reports

        def after_gc(_, reports):
            for name, rep in reports.items():
                res.check("grad_check", rep.passed, f"{name}: {rep}")

        self._measure({"train": (lambda j, _: trainers[j].train_step(), after_step, len(cfgs)),
                       "infer": (infer, after_infer, len(models)),
                       "gradcheck": (gc_round, after_gc, 1)})
        for j, model in enumerate(models):
            self._check_batched_vs_single(model, test_ds, batches[0], f"group {g} model {j}")
        res.model_setup_s += setup
        res.group_setup_s.append(data_s + statistics.median(setup))

    def _check_batched_vs_single(self, model, test_ds, idx, where):
        """Batched logits match one-sample-at-a-time forwards on a few images."""
        ad = self.pn.ad
        with ad.no_grad():
            batched = model.forward(test_ds.images[idx]).logits.data
            for j in range(min(3, len(idx))):
                single = model.forward(test_ds.images[idx[j:j + 1]]).logits.data[0]
                self.res.check("batched_matches_single",
                               np.allclose(batched[j], single, rtol=1e-4, atol=1e-5),
                               f"{where} image {j}: {batched[j]} vs {single}")


@contextlib.contextmanager
def _uninstalled(tracer, pn):
    """Remove the tracer's wrappers for the untraced window."""
    tracer.restore()
    try:
        yield
    finally:
        tracer.install(pn)
