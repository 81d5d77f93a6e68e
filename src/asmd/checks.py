"""The analysis checks: the paper's lemmas, tested on runs and on their
checked references.

The solvers' guarantees rest on four facts, each checked here:

* the stepsize-sum inequality ``sum_k a_k / sqrt(S_k) <= 2 sqrt(S_N)``
  (``stepsum_gap``), with the adaptive rules it serves, ``step_size`` and
  ``stopping_criterion``;
* the one-step prox inequality (``mirror_step_residual``, replayed along a
  run by ``min_step_residual``);
* the telescoped bound on a run's summed gaps (``telescoping_bound_check``);
* unbiased column sampling (``unbiasedness_report``).

The references they use are the checked forms of what the step runs. The
potential, its gradient and divergence (``dgf_value``, ``dgf_gradient``,
``bregman``) and the checked ``prox_map`` and ``dual_norm`` check their
inputs (shape, finiteness, simplex membership where a feasible point is
required) and then run the step's own kernels, ``geometry.PROX_LOOPS`` and
``geometry.DUAL_NORM_KERNELS``: one entropy step of a run matches
``prox_map`` up to rounding, a Euclidean step bit for bit. The step itself
takes one square root of the running sum for both ``step_size`` and
``stopping_criterion``, with the same expressions.

``SUITES`` holds the property suites ``asmd validate`` runs against the
bundled fixtures. The solve path never imports this module; the CLI and
the tests do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fixtures import LINEAR_N2, QUADRATIC_N3, load_fixture
from .geometry import (
    DUAL_NORM_KERNELS,
    FEASIBILITY_TOL,
    PROX_LOOPS,
    Geometry,
    interior_clamp,
    on_simplex,
)
from .oracle import QuadraticObjective, RngStream, _check_point, draw_index
from .problems import ProblemInstance
from .solver import IterationRecord, SolverConfig, mirror_descent_steps, solve_adaptive

# -- geometry references -------------------------------------------------------


def _check_vector(geom: Geometry, v, name: str = "x") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (geom.dimension,):
        raise ValueError(
            f"{name} has shape {v.shape}, expected ({geom.dimension},) for this geometry"
        )
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite coordinates")
    return v


def require_feasible(geom: Geometry, x, name: str = "x") -> np.ndarray:
    x = _check_vector(geom, x, name)
    if not on_simplex(x):
        raise ValueError(f"{name} is not on the probability simplex (tol {FEASIBILITY_TOL})")
    return x


def dgf_value(geom: Geometry, x) -> float:
    """Value of the distance generating potential at a feasible point.

    Euclidean: ``||x||^2 / 2``. Entropy: ``sum x_i log x_i`` with the
    convention ``0 log 0 = 0``.
    """
    x = require_feasible(geom, x)
    if geom.kind == "euclidean":
        return 0.5 * float(x @ x)
    logs = np.zeros_like(x)
    np.log(x, where=x > 0.0, out=logs)
    return float((x * logs).sum())


def dgf_gradient(geom: Geometry, x) -> np.ndarray:
    """Gradient of the potential; entropy input is clamped off the boundary."""
    x = _check_vector(geom, x)
    if geom.kind == "euclidean":
        return x.copy()
    return 1.0 + np.log(interior_clamp(x))


def bregman(geom: Geometry, x, y) -> float:
    """Divergence ``V(x, y) = d(y) - d(x) - <d'(x), y - x>``.

    Closed forms: Euclidean ``||y - x||^2 / 2``; entropy
    ``sum_i y_i log(y_i / x_i)`` with the first argument clamped off the
    boundary so the logs are finite. Nonnegative, and zero exactly when
    the arguments coincide.
    """
    x = _check_vector(geom, x)
    y = _check_vector(geom, y, "y")
    if geom.kind == "euclidean":
        d = y - x
        return 0.5 * float(d @ d)
    xc = interior_clamp(x)
    logs = np.zeros_like(y)
    np.log(y / xc, where=y > 0.0, out=logs)
    return float((y * logs).sum())


def dual_norm(geom: Geometry, g) -> float:
    """Norm of a dual vector (a subgradient): l2 for the Euclidean setup,
    l-infinity for entropy (whose primal norm is l1)."""
    return DUAL_NORM_KERNELS[geom.kind](_check_vector(geom, g, "g"))


def prox_map(geom: Geometry, x, y) -> np.ndarray:
    """Mirror update ``argmin_u <y, u> + V(x, u)`` over the simplex.

    Entropy uses the multiplicative closed form
    ``u_i = x_i exp(-y_i) / sum_j x_j exp(-y_j)`` computed in max-shifted
    log space so large inputs cannot overflow; Euclidean projects ``x - y``
    back onto the simplex. The output satisfies the optimality condition
    ``<y + d'(u) - d'(x), v - u> >= 0`` for every feasible v.
    """
    lift, advance = PROX_LOOPS[geom.kind]
    return advance(lift(require_feasible(geom, x)), _check_vector(geom, y, "y"))[1]


# -- column sampling -------------------------------------------------------------


def _as_distribution(x) -> np.ndarray:
    """Clip round-off negatives to zero, without renormalizing: callers
    scale their uniform draw by the total mass ``cdf[-1]`` instead, which
    must be normal: a subnormal ``u * cdf[-1]`` can round up to ``cdf[-1]``."""
    if not np.isfinite(x).all():
        raise ValueError("point has non-finite coordinates")
    if (x < -FEASIBILITY_TOL).any():
        raise ValueError("point has negative coordinates beyond the feasibility tolerance")
    p = np.maximum(x, 0.0)
    total = float(p.sum())
    if total < np.finfo(float).tiny:
        raise ValueError("cannot sample an index: total mass after clipping is zero or subnormal")
    return p


@dataclass(frozen=True)
class UnbiasednessReport:
    """Empirical mean of column samples against the exact gradient."""

    empirical_mean: np.ndarray
    reference: np.ndarray
    max_abs_deviation: float
    stderr: np.ndarray
    samples: int


def unbiasedness_report(
    objective: QuadraticObjective, x, samples: int, rng: RngStream
) -> UnbiasednessReport:
    """Statistical check that column sampling averages to the gradient.

    Draws ``samples`` columns at x, compares their componentwise mean with
    ``A x`` and reports the per-component standard error of the mean, so a
    caller can apply a central-limit bound such as deviation <= 4 stderr.
    """
    if samples < 100:
        raise ValueError(f"need at least 100 samples, got {samples}")
    x = _check_point(x, objective.dimension)
    idx = draw_index(_as_distribution(x), rng, samples)
    counts = np.bincount(idx, minlength=objective.dimension).astype(float)
    cols = np.stack([objective.column(j) for j in range(objective.dimension)], axis=1)
    mean = cols @ counts / samples
    var = ((cols - mean[:, None]) ** 2) @ counts / (samples - 1)
    stderr = np.sqrt(var / samples)
    reference = objective.gradient(x)
    deviation = float(np.abs(mean - reference).max())
    return UnbiasednessReport(
        empirical_mean=mean,
        reference=reference,
        max_abs_deviation=deviation,
        stderr=stderr,
        samples=samples,
    )


# -- stepsize rules and lemmas ----------------------------------------------------


def step_size(radius: float, sum_m_sq: float) -> float:
    """Adaptive stepsize: radius over the root of the running sum of squared
    sample norms. Raises when the sum is still zero (degenerate gradients);
    callers stop instead, since the stopping rule is already satisfied
    then."""
    if sum_m_sq <= 0.0:
        raise ZeroDivisionError("all sample norms so far are zero")
    return radius / math.sqrt(sum_m_sq)


def stopping_criterion(radius: float, k: int, sum_m_sq: float, epsilon: float) -> bool:
    """True once ``(2 R / k) sqrt(sum M_i^2)`` is within the target."""
    if k < 1:
        raise ValueError("step index must be at least 1")
    return (2.0 * radius / k) * math.sqrt(sum_m_sq) <= epsilon


def stepsum_gap(alpha) -> float:
    """Slack in ``sum_k a_k / sqrt(S_k) <= 2 sqrt(S_N)`` for nonnegative a,
    where ``S_k`` is the running sum. This inequality is what makes the
    adaptive stepsizes telescope. Terms whose running sum is still zero
    contribute nothing (their numerators are necessarily zero too). A NaN
    or infinite term is rejected: the gap would be NaN, which passes no
    threshold test loudly."""
    a = np.asarray(alpha, dtype=float)
    if not (np.isfinite(a) & (a >= 0.0)).all():
        raise ValueError("sequence must be finite and nonnegative")
    if a.size == 0:
        return 0.0
    s = np.cumsum(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(s > 0.0, a / np.sqrt(s), 0.0)
    return 2.0 * math.sqrt(float(s[-1])) - float(terms.sum())


def mirror_step_residual(
    geom: Geometry, x_k, x_next, ref, grad, h: float, f_gap: float
) -> float:
    """Slack in the one-step prox inequality against a reference point.

    For an exact subgradient step ``x_next = prox(x_k, h grad)`` of a
    convex function, the quantity

        (V(x_k, ref) - V(x_next, ref)) / h + h ||grad||_*^2 / 2

    dominates the gap ``f(x_k) - f(ref)``; the return value is that bound
    minus the supplied gap and is nonnegative whenever the sample equals a
    true subgradient. With noisy samples it may go negative by the noise
    term's magnitude. The stepsize must be positive and finite and the gap
    finite, so the residual is never NaN.
    """
    if not 0.0 < h < math.inf:
        raise ValueError(f"stepsize must be positive and finite, got {h}")
    if not math.isfinite(f_gap):
        raise ValueError(f"gap must be finite, got {f_gap}")
    v_now = bregman(geom, x_k, ref)
    v_next = bregman(geom, x_next, ref)
    m = dual_norm(geom, np.asarray(grad, dtype=float))
    return (v_now - v_next) / h + 0.5 * h * m * m - float(f_gap)


@dataclass(frozen=True)
class TelescopingReport:
    lhs: float
    rhs: float
    holds: bool


def telescoping_bound_check(
    trace: Sequence[IterationRecord], geom: Geometry, problem: ProblemInstance, ref
) -> TelescopingReport:
    """Compare the summed gaps of a deterministic run with the telescoped
    stepsize bound.

    The left side sums objective gaps over productive steps and constraint
    gaps over the rest, both against the reference point; the right side is
    ``2 R sqrt(sum M_k^2)``. The reference must be feasible with a
    nonpositive constraint value. Every trace row carries its f(x_k).
    """
    if not trace:
        raise ValueError("trace is empty")
    ref = np.asarray(ref, dtype=float)
    if not on_simplex(ref):
        raise ValueError("reference point is not on the simplex")
    g_ref = problem.constraint_value(ref)
    if g_ref > 0:
        raise ValueError("reference point must satisfy the constraint")
    f_ref = problem.objective_value(ref)
    lhs = 0.0
    total = 0.0
    for rec in trace:
        total += rec.M_k * rec.M_k
        if rec.productive:
            lhs += rec.f_value - f_ref
        else:
            lhs += rec.g_value - g_ref
    rhs = 2.0 * geom.radius * math.sqrt(total)
    return TelescopingReport(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + 1e-8))


def min_step_residual(
    problem: ProblemInstance, config: SolverConfig, refs: Sequence[np.ndarray]
) -> float:
    """Smallest one-step residual over a replayed run and reference points.

    Replays the run the config describes (exact oracles only, so the
    replay is exact) and evaluates ``mirror_step_residual`` against every
    reference at every step. The degenerate all-zero-gradient step, if
    any, is skipped: its stepsize is infinite and the iterate does not
    move.
    """
    if problem.oracle_mode != "exact":
        raise ValueError("step residuals are meaningful for deterministic oracles only")
    geom = problem.geometry()
    refs = [np.asarray(r, dtype=float) for r in refs]
    f_refs = [problem.objective_value(r) for r in refs]
    g_refs = [problem.constraint_value(r) for r in refs]
    best = math.inf
    for st in mirror_descent_steps(problem, config):
        if not math.isfinite(st.h):
            continue
        level = problem.objective_value(st.x) if st.productive else st.g_value
        ref_levels = f_refs if st.productive else g_refs
        for ref, ref_level in zip(refs, ref_levels):
            gap = level - ref_level
            resid = mirror_step_residual(geom, st.x, st.x_next, ref, st.gradient, st.h, gap)
            best = min(best, resid)
    return best


# -- validate suites ----------------------------------------------------------------


def _suite_unbiasedness(samples: int, seed: int):
    """Column-sampling means must sit within four standard errors of the
    exact gradient, componentwise (zero-variance components must agree
    exactly)."""
    fixture = load_fixture(QUADRATIC_N3)
    cases = [
        (QuadraticObjective([[0.0, 2.0], [2.0, 0.0]]), np.array([0.5, 0.5])),
        (fixture.objective, fixture.feasible_witness),
        (fixture.objective, np.full(3, 1.0 / 3.0)),
    ]
    worst = 0.0
    for i, (objective, point) in enumerate(cases):
        report = unbiasedness_report(objective, point, samples, RngStream(seed + i))
        dev = np.abs(report.empirical_mean - report.reference)
        for d, s in zip(dev, report.stderr):
            if s == 0.0:
                if d != 0.0:
                    return False, f"zero-variance component deviated by {d:.3e}"
            else:
                worst = max(worst, d / s)
    return worst <= 4.0, f"max |deviation|/stderr = {worst:.3f} (threshold 4)"


def _suite_stepsum(samples: int, seed: int):
    """Random nonnegative sequences across twelve orders of magnitude."""
    rng = np.random.default_rng(seed)
    count = 10_000
    worst = math.inf
    for _ in range(count):
        length = int(rng.integers(1, 101))
        alpha = 10.0 ** rng.uniform(-6.0, 6.0, size=length)
        if rng.random() < 0.1:
            alpha[rng.random(length) < 0.5] = 0.0
        worst = min(worst, stepsum_gap(alpha))
    return worst >= -1e-10, f"min gap = {worst:.3e} over {count} sequences (threshold -1e-10)"


def _validation_runs():
    for name, epsilon in ((QUADRATIC_N3, 0.05), (LINEAR_N2, 0.05)):
        problem = load_fixture(name)
        yield problem, SolverConfig(epsilon=epsilon, seed=0)


def _suite_step_residual(samples: int, seed: int):
    """One-step descent inequality along deterministic runs, checked against
    ten random feasible reference points."""
    rng = np.random.default_rng(seed)
    worst = math.inf
    for problem, config in _validation_runs():
        refs = rng.dirichlet(np.ones(problem.dimension), size=10)
        worst = min(worst, min_step_residual(problem, config, refs))
    return worst >= -1e-8, f"min residual = {worst:.3e} (threshold -1e-8)"


def _suite_telescoping(samples: int, seed: int):
    """Summed run gaps stay under the telescoped stepsize bound."""
    worst = -math.inf
    for problem, config in _validation_runs():
        result = solve_adaptive(problem, config)
        report = telescoping_bound_check(
            result.trace, problem.geometry(), problem, problem.feasible_witness
        )
        if not report.holds:
            return False, f"lhs {report.lhs:.6e} exceeded rhs {report.rhs:.6e}"
        worst = max(worst, report.lhs - report.rhs)
    return True, f"max lhs - rhs = {worst:.3e} (threshold 1e-8)"


#: The ``asmd validate`` suites by name: each takes (samples, seed) and
#: returns (passed, detail).
SUITES = {
    "unbiasedness": _suite_unbiasedness,
    "stepsum": _suite_stepsum,
    "step-residual": _suite_step_residual,
    "telescoping": _suite_telescoping,
}
