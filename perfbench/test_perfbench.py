"""Self-test of the benchmark: `python3 -m pytest perfbench -q` from the
repository root (about three minutes; s8 dominates).

Runs every workload at minimum length in both modes and checks that each
metric named in BENCHMARK.json appears with its unit, that the outputs pass
their checks, and that tracing leaves the pronext modules holding their
original function objects.
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    assert out.returncode == 0, out.stderr[-2000:]
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_workloads_match_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_reported_with_unit(workload, trace):
    result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    named = SPEC["per_layer" if trace else "end_to_end"]
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in named}
    if trace:
        metrics = result["metrics"]
        # the spans inside a traced unit never exceed the unit itself
        assert (metrics["trace.attributed_ms_p50"]["value"]
                <= metrics["trace.traced_ms_p50"]["value"])
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _attributes(pn):
    owners = [pn.ad, pn.parsers, pn.gaze, pn.model, pn.train, pn.ad.Tensor,
              pn.model.ProNextModel, pn.train.Trainer, pn.train.AdamW]
    return {(id(o), name): value for o in owners for name, value in vars(o).items()}


def test_tracing_restores_original_functions(tmp_path):
    pn = run.import_pronext()
    before = _attributes(pn)
    res, tracer = run.run_workload(pn, workloads.WORKLOADS["gradcheck"], seed=5,
                                   seconds=0.2, trace=1, workdir=str(tmp_path))
    after = _attributes(pn)
    assert not tracer.installed
    assert before.keys() == after.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert changed == []
    assert res.failed == 0
    # the run really was traced
    assert tracer.total_calls("autodiff.conv2d") > 0
    assert tracer.total_calls("parsers.parse.stage0") > 0
