"""Experiment drivers: the ablation ladder's seed loop and table, the rank
correlation behind the scale sweep's claim, and a traced training step
through the benchmark's tracer, which patches package functions by name
(`perfbench/tracer.py`, loaded here unmodified)."""

import importlib.util
import os
import sys
import types

import numpy as np
import pytest
from scipy import stats

from pronext import autodiff, cli, data, gaze, parsers
from pronext import model as M
from pronext import train as T
from pronext.experiments import ABLATION_ROWS, spearman_rank_correlation
from pronext.gradcheck import grad_check

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_ladder_progress_order_and_median_cells(tmp_path, capsys):
    """Untrained (0-step) ladder over two tasks and two seeds: one progress
    line per (row, task, seed) in ladder order, and each table cell is the
    median of that cell's per-seed accuracies."""
    tasks = ("detail", "interaction")
    for i, task in enumerate(tasks):
        ds = data.generate(task, 8, np.random.default_rng(i), image_size=32, num_classes=4)
        data.write_dataset(ds, str(tmp_path / "data" / task))
    out = tmp_path / "ladder"
    rc = cli.main(["ablate", "--data", str(tmp_path / "data"), "--tasks", ",".join(tasks),
                   "--steps", "0", "--seeds", "2", "--seed", "7", "--out", str(out)])
    assert rc == 0
    progress = [line for line in capsys.readouterr().out.splitlines() if "/seed" in line]
    labels = [line.split(":")[0] for line in progress]
    assert labels == [f"{row}/{task}/seed{seed}" for row, _ in ABLATION_ROWS
                      for task in tasks for seed in (7, 8)]
    # 2 held-out samples per task: every accuracy is exact at 3 decimals
    accs = [float(line.rsplit(" ", 1)[1]) for line in progress]
    table = (out / "ablation.csv").read_text().splitlines()
    assert table[0] == "row,detail,interaction"
    assert len(table) == 1 + len(ABLATION_ROWS)
    for r, line in enumerate(table[1:]):
        row, *cells = line.split(",")
        assert row == ABLATION_ROWS[r][0] and len(cells) == len(tasks)
        for t, cell in enumerate(cells):
            seed_accs = accs[4 * r + 2 * t:4 * r + 2 * t + 2]
            assert float(cell) == pytest.approx(np.median(seed_accs), abs=1e-9)


class TestSpearman:
    def test_ties_take_average_ranks(self):
        # x ranks (1, 2.5, 2.5, 4) against (1, 2, 3, 4): rho = 4.5 / sqrt(4.5 * 5);
        # ordinal tie-breaking would give 1.0
        assert spearman_rank_correlation([1, 2, 2, 3], [1, 2, 3, 4]) == \
            pytest.approx(3 / np.sqrt(10), abs=1e-12)

    def test_matches_scipy_with_many_ties(self):
        rng = np.random.default_rng(0)
        xs = rng.integers(0, 5, 40)
        ys = xs + rng.integers(0, 4, 40)
        assert spearman_rank_correlation(xs, ys) == \
            pytest.approx(stats.spearmanr(xs, ys).statistic, abs=1e-12)

    @pytest.mark.parametrize("xs,ys", [([3.0, 3.0, 3.0], [1.0, 2.0, 3.0]),
                                       ([1.0, 2.0, 3.0], [0.5, 0.5, 0.5]),
                                       ([2.0], [0.7])])
    def test_constant_input_gives_nan(self, xs, ys):
        # rho is undefined without two distinct ranks on each side, as in
        # scipy.stats.spearmanr; 0 would read as "no correlation"
        assert np.isnan(spearman_rank_correlation(xs, ys))

    def test_monotone_gives_plus_minus_one(self):
        xs = np.array([0.1, 0.5, 2.0, 7.0, 9.5])
        assert spearman_rank_correlation(xs, xs ** 3) == pytest.approx(1.0, abs=1e-12)
        assert spearman_rank_correlation(xs, -np.exp(xs)) == pytest.approx(-1.0, abs=1e-12)


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module       # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracer_patch_points_exist():
    """One tiny traced train step records the parser and conv2d spans, and
    restoring leaves every patched owner holding its original attributes."""
    pn = types.SimpleNamespace(ad=autodiff, parsers=parsers, gaze=gaze, model=M, train=T)
    owners = [autodiff, parsers, gaze, M, T, autodiff.Tensor, M.ProNextModel,
              T.Trainer, T.AdamW]
    before = {(id(o), name): value for o in owners for name, value in vars(o).items()}
    cfg = M.ModelConfig(input_size=16, stem_channels=2, patch_size=2, embed_dim=8,
                        ca_layers=1, ca_heads=2, num_classes=4).validate()
    ds = data.generate("interaction", 4, np.random.default_rng(0), image_size=16)
    tcfg = T.TrainConfig(batch_size=2, steps=1, crop=16, resize=16, seed=0)

    tracer = _load_perfbench("tracer").Tracer()
    tracer.install(pn)
    try:
        tracer.phase = "train"
        T.Trainer(M.ProNextModel(cfg, seed=0), tcfg, [(ds, 1.0)]).train_step()
    finally:
        tracer.restore()

    assert tracer.ncalls("train", "parsers.parse.stage0") == 1
    assert tracer.ncalls("train", "autodiff.conv2d") > 0
    assert tracer.ncalls("train", "autodiff.conv2d.bwd") > 0
    after = {(id(o), name): value for o in owners for name, value in vars(o).items()}
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []


def test_benchmark_kernel_checks_pass_under_the_tracer():
    """One round of the benchmark's kernel gradient checks at its tiny shapes,
    traced: every call form it uses still exists and all 14 reports pass."""
    workloads = _load_perfbench("workloads")
    pn = types.SimpleNamespace(ad=autodiff, parsers=parsers, gaze=gaze, model=M, train=T,
                               grad_check=grad_check)
    tracer = _load_perfbench("tracer").Tracer()
    tracer.install(pn)
    try:
        tracer.phase = "gradcheck"
        with autodiff.precision("float64"):
            reports = workloads.kernel_checks(pn, np.random.default_rng(0), workloads.TINY_SHAPES,
                                              workloads.CheckCounter(autodiff, tracer))
    finally:
        tracer.restore()
    assert len(reports) == 14
    assert [name for name, rep in reports.items() if not rep.passed] == []
    assert tracer.ncalls("gradcheck", "autodiff.block_norm") > 0
