"""Ablation ladder and scale-sweep experiment drivers.

The ablation trains six model settings per task and reports held-out
accuracy per cell (median over seeds): a parser-free convolutional baseline,
spatial attention with and without the context impression, the unconditioned
field parser, the conditional-sine parser without band-pass filtering, and
the full parser. The sweep trains named size variants under one identical
budget and pairs each with its estimated GFLOPs. Both are lists of cells,
each built and validated before anything trains, and run through one seed
loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

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


@dataclass
class Cell:
    """One cell of an experiment table: a validated model config and the
    train/test split it learns from. `key` is (row, task) on the ladder and
    (variant, k) in the sweep; `seed_accs` collects one held-out accuracy per
    seed."""
    key: tuple
    cfg: model_mod.ModelConfig
    train_ds: object
    test_ds: object
    seed_accs: list = field(default_factory=list)


def ablation_cells(base_cfg, task_data):
    """task_data: {task_name: (train_ds, test_ds)}. One cell per (row, task)
    in ladder order."""
    return [Cell((row_name, task),
                 replace(base_cfg, num_classes=train_ds.num_classes, **overrides).validate(),
                 train_ds, test_ds)
            for row_name, overrides in ABLATION_ROWS
            for task, (train_ds, test_ds) in task_data.items()]


def sweep_cells(pairs, train_ds, test_ds):
    """One cell per (variant, k), at the dataset's image size."""
    return [Cell((name, k), model_mod.build_variant(name, k, input_size=train_ds.image_size,
                                                    num_classes=train_ds.num_classes),
                 train_ds, test_ds)
            for name, k in pairs]


def run_seeds(cell, train_cfg, seeds, progress=None):
    """The seed loop: per seed, train the cell's model from scratch under
    `train_cfg`, evaluate it on the held-out split and report the accuracy."""
    for seed in seeds:
        model = model_mod.ProNextModel(cell.cfg, seed=seed)
        train_mod.Trainer(model, replace(train_cfg, seed=seed), [(cell.train_ds, 1.0)]).run()
        acc = train_mod.evaluate(model, cell.test_ds)[0]
        cell.seed_accs.append(acc)
        if progress:
            progress(f"{'/'.join(map(str, cell.key))}/seed{seed}: acc {acc:.3f}")


def ablation_csv(cells, tasks):
    """Table layout: one ladder row per line, one accuracy column per task;
    each value is the median over seeds."""
    lines = ["row," + ",".join(tasks)]
    for row_name, _ in ABLATION_ROWS:
        by_task = {c.key[1]: c.seed_accs for c in cells if c.key[0] == row_name}
        vals = [f"{float(np.median(by_task[t])):.6f}" for t in tasks if t in by_task]
        lines.append(row_name + "," + ",".join(vals))
    return "\n".join(lines) + "\n"


def spearman_rank_correlation(xs, ys):
    """Spearman rho with average ranks on ties; nan when either ranking is
    constant (fewer than two distinct values), where rho is undefined."""
    from scipy import stats   # imported here: it loads scipy.ndimage, which the CLI keeps out
    rx, ry = stats.rankdata(xs), stats.rankdata(ys)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = np.sqrt((rx ** 2).sum() * (ry ** 2).sum())
    return float((rx * ry).sum() / denom) if denom else float("nan")


def sweep_csv(cells):
    """One line per variant in ascending estimated GFLOPs, with its mean
    accuracy over seeds, then the Spearman rho between the two (an empty
    cell when rho is undefined)."""
    points = sorted(((model_mod.flop_count(c.cfg), float(np.mean(c.seed_accs)), c.key)
                     for c in cells), key=lambda p: p[0])
    lines = ["variant,k,gflops,mean_acc"]
    for gflops, acc, (name, k) in points:
        lines.append(f"{name},{k},{gflops:.6f},{acc:.6f}")
    rho = spearman_rank_correlation([p[0] for p in points], [p[1] for p in points])
    lines.append("spearman,,," + ("" if np.isnan(rho) else f"{rho:.6f}"))
    return "\n".join(lines) + "\n"
