"""Ablation ladder and scale-sweep experiment drivers.

The ablation trains six model settings per task and reports held-out
accuracy per cell (median over seeds): a parser-free convolutional baseline,
spatial attention with and without the context impression, the unconditioned
field parser, the conditional-sine parser without band-pass filtering, and
the full parser. The sweep trains named size variants under one identical
budget and pairs each with its estimated GFLOPs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import model as model_mod
from . import train as train_mod

ABLATION_ROWS = (
    ("baseline", dict(parser_mode="none", context_impression_enabled=False)),
    ("separation_sa", dict(parser_mode="spatial_attention",
                           context_impression_enabled=False)),
    ("context_sa", dict(parser_mode="spatial_attention",
                        context_impression_enabled=True)),
    ("plain_field", dict(parser_mode="plain_field", context_impression_enabled=True)),
    ("conditional_sine", dict(parser_mode="shift", band_pass=False,
                              context_impression_enabled=True)),
    ("band_pass", dict(parser_mode="shift", band_pass=True,
                       context_impression_enabled=True)),
)

def train_once(cfg, train_cfg, train_ds, test_ds, seed):
    """One training run from scratch; returns held-out accuracy."""
    model = model_mod.ProNextModel(cfg, seed=seed)
    tcfg = replace(train_cfg, seed=seed)
    train_mod.Trainer(model, tcfg, [(train_ds, 1.0)]).run()
    return train_mod.evaluate(model, test_ds, tcfg)[0]


@dataclass
class AblationCell:
    row: str
    task: str
    seed_accs: list

    @property
    def median(self):
        return float(np.median(self.seed_accs))


def run_ablation(base_cfg, train_cfg, task_data, seeds=(0, 1, 2), progress=None):
    """task_data: {task_name: (train_ds, test_ds)}. Returns AblationCell list
    in ladder order."""
    cells = []
    for row_name, overrides in ABLATION_ROWS:
        cfg = replace(base_cfg, **overrides).validate()
        for task, (train_ds, test_ds) in task_data.items():
            accs = []
            for seed in seeds:
                acc = train_once(replace(cfg, num_classes=train_ds.num_classes),
                                 train_cfg, train_ds, test_ds, seed)
                accs.append(acc)
                if progress:
                    progress(f"{row_name}/{task}/seed{seed}: acc {acc:.3f}")
            cells.append(AblationCell(row=row_name, task=task, seed_accs=accs))
    return cells


def ablation_csv(cells, tasks):
    """Table layout: one ladder row per line, one accuracy column per task."""
    lines = ["row," + ",".join(tasks)]
    for row_name, _ in ABLATION_ROWS:
        by_task = {c.task: c for c in cells if c.row == row_name}
        vals = [f"{by_task[t].median:.6f}" for t in tasks if t in by_task]
        lines.append(row_name + "," + ",".join(vals))
    return "\n".join(lines) + "\n"


@dataclass
class SweepPoint:
    variant: str
    k: int
    gflops: float
    seed_accs: list

    @property
    def mean(self):
        return float(np.mean(self.seed_accs))


def spearman_rank_correlation(xs, ys):
    """Spearman rho with average ranks on ties."""
    def ranks(v):
        v = np.asarray(v, dtype=np.float64)
        order = np.argsort(v, kind="stable")
        r = np.empty(len(v))
        r[order] = np.arange(1, len(v) + 1)
        for val in np.unique(v):
            mask = v == val
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r
    rx, ry = ranks(xs), ranks(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx ** 2).sum() * (ry ** 2).sum())
    return float((rx * ry).sum() / denom) if denom else 0.0


def run_scale_sweep(pairs, train_cfg, train_ds, test_ds, seeds=(0, 1, 2),
                    input_size=64, progress=None):
    """Train each (variant, k) with the identical budget; returns SweepPoints
    sorted by estimated GFLOPs ascending."""
    points = []
    for name, k in pairs:
        cfg = model_mod.build_variant(name, k, input_size=input_size,
                                      num_classes=train_ds.num_classes)
        gflops = model_mod.flop_count(cfg)
        accs = []
        for seed in seeds:
            acc = train_once(cfg, train_cfg, train_ds, test_ds, seed)
            accs.append(acc)
            if progress:
                progress(f"{name}/{k}/seed{seed}: acc {acc:.3f}")
        points.append(SweepPoint(variant=name, k=k, gflops=gflops, seed_accs=accs))
    return sorted(points, key=lambda p: p.gflops)


def sweep_csv(points):
    lines = ["variant,k,gflops,mean_acc"]
    for p in points:
        lines.append(f"{p.variant},{p.k},{p.gflops:.6f},{p.mean:.6f}")
    rho = spearman_rank_correlation([p.gflops for p in points],
                                    [p.mean for p in points])
    lines.append(f"spearman,,,{rho:.6f}")
    return "\n".join(lines) + "\n"
