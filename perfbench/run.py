"""pronext benchmark: one workload per process, closed loop.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
`src/`. With `--trace 0` the last line of standard output is a JSON object
with the end-to-end metrics; with `--trace 1` it carries the per-layer
metrics of a separate traced run (see tracer.py). The line before it holds
the environment, sample counts, tail percentiles and every output check.
Datasets and checkpoints live under `.bench_work/` for the length of the run;
the full record and the spans of a traced run are written to `.bench_out/`.
BLAS, OpenMP and PRONEXT_THREADS are pinned to one thread.
"""

from __future__ import annotations

import os
import sys

THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PRONEXT_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import types  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from tracer import NAMED_OPS, Tracer  # noqa: E402


def import_pronext():
    """Import the package from this checkout's src/ (never another copy)."""
    sys.path.insert(0, SRC)
    try:
        import pronext
        from pronext import (autodiff, cli, data, errors, experiments, gaze, gradcheck,
                             model, parsers, train)
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import pronext from {SRC}: {exc}") from None
    if not os.path.abspath(pronext.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported pronext from {pronext.__file__}, not {SRC}")
    return types.SimpleNamespace(ad=autodiff, cli=cli, data=data, errors=errors,
                                 experiments=experiments, gaze=gaze, model=model,
                                 parsers=parsers, train=train,
                                 grad_check=gradcheck.grad_check)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas():
    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        import ctypes
        import glob
        libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
        for lib in glob.glob(os.path.join(libdir, "*openblas*")):
            fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_num_threads64_", None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
    except OSError:
        threads = None
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _src_sha256():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "pronext")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "threads_env": {v: os.environ.get(v) for v in
                        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "PRONEXT_THREADS")},
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "git_sha": _git_sha(),
        "src_sha256": _src_sha256(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _m(value, unit):
    return {"value": float(value), "unit": unit}


def e2e_metrics(wl, res):
    out = {"setup_s": _m(statistics.median(res.group_setup_s), "s")}
    for phase, label in (("train", "train_step"), ("infer", "infer_batch")):
        ms = res.balanced(phase)
        out[f"{label}_ms_p50"] = _m(statistics.median(ms), "ms")
        out[f"{label}_ms_tail"] = _m(np.percentile(ms, wl.tail_q(phase)), "ms")
        every = res.all(phase)
        out[f"{phase}_images_per_s"] = _m(wl.batch * len(every) / (sum(every) / 1e3), "1/s")
    out["peak_rss_mb"] = _m(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    out["gradcheck_s"] = _m(statistics.median(res.balanced("gradcheck")) / 1e3, "s")
    return out


def layer_metrics(wl, res, tr):
    P = wl.primary
    n = len(res.all(P))                         # traced primary units
    out = {}

    def per_unit(name, value, unit="ms"):
        out[name] = _m(value / n, unit)

    for op in NAMED_OPS + ("other",):
        per_unit(f"autodiff.{op}.fwd_ms", tr.self_ms(P, f"autodiff.{op}"))
        per_unit(f"autodiff.{op}.bwd_ms", tr.self_ms(P, f"autodiff.{op}.bwd"))
        per_unit(f"autodiff.{op}.calls", tr.ncalls(P, f"autodiff.{op}"), "count")
    per_unit("autodiff.ops_per_step", tr.counter("autodiff.ops", P), "count")
    per_unit("autodiff.backward_ms", tr.incl_ms(P, "autodiff.backward"))
    per_unit("autodiff.topo_order_ms", tr.incl_ms(P, "autodiff.topo_order"))

    for l in range(3):
        per_unit(f"parsers.parse_ms.stage{l}", tr.incl_ms(P, f"parsers.parse.stage{l}"))
    per_unit("parsers.band_pass_ms", tr.incl_ms(P, "parsers.band_pass"))
    per_unit("parsers.field_net_ms", tr.incl_ms(P, "parsers.field_net"))
    for l in range(3):
        out[f"parsers.focal_fraction.stage{l}"] = _m(
            _ratio(tr.counter(f"parsers.focal.stage{l}"), tr.counter(f"parsers.slots.stage{l}")),
            "ratio")
    out["parsers.fallback_ratio"] = _m(
        _ratio(tr.counter("parsers.fallbacks"), tr.counter("parsers.masks")), "ratio")

    per_unit("gaze.focal_abstract_ms", tr.incl_ms(P, "gaze.focal_abstract"))
    per_unit("gaze.context_ms", tr.incl_ms(P, "gaze.context"))
    out["gaze.pad_ratio"] = _m(
        _ratio(tr.counter("gaze.pad_slots"), tr.counter("gaze.real_slots")), "ratio")

    sections = 0.0
    for name in ("stem", "stage0", "stage1", "stage2", "post"):
        ms = tr.incl_ms(P, f"model.{name}")
        sections += ms
        per_unit(f"model.{name}_ms", ms)
    per_unit("model.head_ms", tr.incl_ms(P, "model.forward") - sections)
    out["model.build_ms"] = _m(_ratio(tr.total_incl_ms("model.build"),
                                      tr.total_calls("model.build")), "ms")

    steps = len(res.all("train"))
    out["train.assemble_ms"] = _m(tr.incl_ms("train", "train.assemble") / steps, "ms")
    out["train.optimizer_ms"] = _m(tr.incl_ms("train", "train.optimizer") / steps, "ms")

    for name in ("save", "load"):
        out[f"checkpoint.{name}_ms"] = _m(_ratio(tr.total_incl_ms(f"checkpoint.{name}"),
                                                 tr.total_calls(f"checkpoint.{name}")), "ms")
    out["checkpoint.bytes"] = _m(statistics.mean(res.ckpt_bytes), "bytes")
    for name in ("generate", "write", "load"):
        out[f"data.{name}_ms"] = _m(tr.total_incl_ms(f"data.{name}") / wl.groups, "ms")

    gc = res.gc
    rounds = len(res.all("gradcheck")) + (len(res.untraced) if P == "gradcheck" else 0)
    out["gradcheck.calls"] = _m(gc.calls / rounds, "count")
    out["gradcheck.coords"] = _m(gc.coords / rounds, "count")
    out["gradcheck.evals"] = _m(gc.evals / rounds, "count")
    out["gradcheck.retry_ratio"] = _m(
        _ratio(gc.evals - gc.calls - 2 * gc.coords, 2 * gc.coords), "ratio")
    out["gradcheck.eval_ms_p50"] = _m(statistics.median(gc.eval_ms), "ms")

    traced = statistics.median(res.all(P))
    untraced = statistics.median(res.untraced)
    out["trace.untraced_ms_p50"] = _m(untraced, "ms")
    out["trace.traced_ms_p50"] = _m(traced, "ms")
    out["trace.overhead_ms"] = _m(traced - untraced, "ms")
    out["trace.attributed_ms_p50"] = _m(statistics.median(res.attributed), "ms")
    return out


def _ratio(num, den):
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def run_workload(pn, wl, seed, seconds, trace, workdir):
    """One closed-loop run; with `trace` the layers are wrapped for its
    length and restored afterwards. Returns (RunResult, Tracer or None)."""
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install(pn)
    try:
        return W.Pipeline(pn, wl, seed, seconds, workdir, tracer).run(), tracer
    finally:
        if tracer:
            tracer.restore()


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pn = import_pronext()
    env = environment()
    wl = W.WORKLOADS[args.workload]
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(ROOT, ".bench_work", f"{tag}-{os.getpid()}")
    outdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(workdir)
    os.makedirs(outdir, exist_ok=True)
    try:
        res, tracer = run_workload(pn, wl, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer:
        res.check("mask_nondegenerate", tracer.counter("parsers.bad_masks") == 0,
                  "a traced parser call returned a degenerate mask")
        metrics = layer_metrics(wl, res, tracer)
        spans_path = os.path.join(outdir, f"{tag}.spans.jsonl")
        tracer.dump(spans_path)
    else:
        metrics = e2e_metrics(wl, res)
        spans_path = None

    detail = {
        "workload": wl.name, "why": wl.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "loop": "closed, one client", "env": env,
        "samples_per_model": {p: [len(v) for v in res.samples[p]] for p in res.samples},
        "percentile_samples": {p: len(res.balanced(p)) for p in res.samples},
        "tail_percentile": {p: wl.tail_q(p) for p in ("train", "infer")},
        "group_setup_s": res.group_setup_s, "model_setup_s": res.model_setup_s,
        "checks": {k: {"passed": p, "total": t} for k, (p, t) in sorted(res.checks.items())},
        "fail_ratio": res.failed / res.attempted, "failures": res.failures[:20],
        "spans": spans_path,
    }
    with open(os.path.join(outdir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump({"detail": detail, "metrics": metrics}, fh, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": res.failed == 0, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
