"""Central finite-difference verification of reverse-mode gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .errors import InputError

# a failing coordinate is re-measured at eps times this and eps over it
KINK_RETRY_SCALE = 0.25


@dataclass
class GradCheckFailure:
    input_index: int
    coord: tuple
    analytic: float
    numeric: float
    note: str = ""


@dataclass
class GradCheckReport:
    max_rel_err: float
    tol: float
    n_checked: int
    passed: bool
    failures: list = field(default_factory=list)

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return (f"grad_check {status}: max rel err {self.max_rel_err:.3e} "
                f"(tol {self.tol:.1e}, {self.n_checked} coordinates)")


def grad_check(fn, inputs, eps=1e-5, tol=1e-4, max_elems=48, rng=None,
               denom_floor=1e-6):
    """Compare reverse-mode gradients of `fn` against central differences.

    fn maps the given list of Tensors to a single output Tensor of any shape;
    a fixed random linear functional reduces the output to a scalar so every
    output element participates. Inputs must be float64 leaves with
    requires_grad set (run inside `ad.precision('float64')`).

    Per input tensor, up to `max_elems` coordinates are perturbed. Relative
    error is |analytic - numeric| / max(|analytic|, |numeric|, denom_floor).

    A failing coordinate is re-measured at both eps * KINK_RETRY_SCALE and
    eps / KINK_RETRY_SCALE, and the better of the three results is kept.
    Functions in this codebase are differentiable almost everywhere but have
    measure-zero kinks (pooling argmax ties, bilinear integer crossings,
    band-pass rank boundaries): a +-eps stencil that straddles a nearby kink
    produces a bogus mismatch that clears at the smaller step. At a fine eps
    the opposite happens: cancellation roundoff swamps a gradient near zero,
    and that clears at the larger step. A genuinely wrong gradient keeps
    failing at every step size.
    """
    rng = rng or np.random.default_rng(0)
    for t in inputs:
        if t.dtype != np.float64:
            raise InputError("grad_check requires float64 inputs; use ad.precision('float64')")
        t.zero_grad()

    out = fn(inputs)
    proj = rng.standard_normal(out.shape)
    out.backward(proj if out.ndim else np.asarray(1.0))
    if out.ndim == 0:
        proj = np.asarray(1.0)
    analytic = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data) for t in inputs]

    def scalar_eval():
        with ad.no_grad():
            val = fn(inputs)
        return float((val.data * proj).sum())

    report = GradCheckReport(max_rel_err=0.0, tol=tol, n_checked=0, passed=True)
    for i, t in enumerate(inputs):
        n = t.data.size
        coords = np.arange(n) if n <= max_elems else rng.choice(n, size=max_elems, replace=False)
        for c in coords:
            # index by coordinate: reshape(-1) of a non-contiguous input is a
            # copy, and a perturbation written there would never be seen
            coord = np.unravel_index(c, t.shape) if t.ndim else ()

            def central_diff(step):
                orig = t.data[coord]
                t.data[coord] = orig + step
                f_plus = scalar_eval()
                t.data[coord] = orig - step
                f_minus = scalar_eval()
                t.data[coord] = orig
                return (f_plus - f_minus) / (2 * step)

            numeric = central_diff(eps)
            ana = float(analytic[i][coord])
            if not (np.isfinite(numeric) and np.isfinite(ana)):
                report.failures.append(GradCheckFailure(i, coord, ana, numeric, "non-finite"))
                report.passed = False
                report.max_rel_err = np.inf
                continue

            def rel_err(n):
                return abs(ana - n) / max(abs(ana), abs(n), denom_floor)

            rel = rel_err(numeric)
            if rel > tol:
                for step in (eps * KINK_RETRY_SCALE, eps / KINK_RETRY_SCALE):
                    retry = central_diff(step)
                    retry_rel = rel_err(retry)
                    if retry_rel < rel:
                        numeric, rel = retry, retry_rel
            report.n_checked += 1
            if rel > report.max_rel_err:
                report.max_rel_err = rel
            if rel > tol:
                report.failures.append(GradCheckFailure(i, coord, ana, numeric))
                report.passed = False
    return report
