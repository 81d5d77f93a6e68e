"""Mirror descent with functional constraints on the simplex.

The solvers run the productive / non-productive loop: at each iterate the
exact constraint value is inspected; if it is within the accuracy target
the step uses an objective subgradient sample and the iterate joins the
averaging set, otherwise the step uses the constraint subgradient to pull
the iterate back toward feasibility. The returned point is the average of
the productive iterates.

Two stepsize policies are provided. ``solve_adaptive`` divides the
geometry's radius by the root of the accumulated squared sample norms and
stops once ``(2 R / k) sqrt(sum M_i^2)`` falls to the accuracy target.
``solve_fixed`` is the classical baseline: a constant stepsize and a
precomputed iteration budget derived from a uniform subgradient bound.
The lemmas behind both rules, and the checked references a run is tested
against, are in ``asmd.checks``, which the solve path never imports.

Inputs are checked at the boundary: ``SolverConfig`` checks the run
parameters, ``ProblemInstance`` its data, the fixed policy its stepsize.
The step trusts its own iterates: it calls the geometry's check-free
kernels and the oracles' unchecked methods, and keeps one scalar guard,
``h * M_k`` finite. The dual norms of the constraint directions are
computed once per solve, with the same kernel, so a non-productive step
reads its ``M_k`` from a list. The prox step runs on ``PROX_LOOPS``: under
entropy it carries log-weights, ``z <- z - h g`` with the iterate
``exp(z - max z) / sum``, and never takes the log of an iterate. One such
step differs from ``checks.prox_map``, the checked reference, by rounding
only, so an entropy run's iterates drift from a chain of ``prox_map``
calls in their last digits; the Euclidean step is ``prox_map``'s own, bit
for bit.
Each step is yielded as an immutable ``StepState`` tuple.

A productive step samples through ``ProblemInstance.objective_sample``.
Each oracle has one read, which takes an optional support:
``values_unchecked(x, support)`` and ``gradient_unchecked(x, support)``.
Under Euclidean geometry a projected iterate is sparse, so the step scans
its support S once, ``support_of(x)``, and hands it to both: the
constraint values are read from |S| columns of the term matrix, and an
exact sample is the product ``x[S] @ A[S]`` over |S| rows of the matrix,
each falling back to the dense product past half the coordinates. Each
differs from the dense product by rounding only, but a run carries such
differences forward, so a late constraint value close to epsilon can land
on the other side of it and move N by a step. Entropy iterates are never
sparse: their steps skip the scan and keep the dense products. The
adaptive step takes one square root of the running sum for both its
stepsize and its stopping test, with the same expressions as
``checks.step_size`` and ``checks.stopping_criterion``.

The step never evaluates the objective. A traced run computes the trace's
f-values in blocks of ``TRACE_BLOCK`` (256) iterates with
``value_batch``, which reads the quadratic's matrix once per block rather
than once per row, and only its upper block triangle: the matrix is
exactly symmetric, so the blocks below the diagonal add nothing the
blocks above do not, and a block of rows costs half the dense product.
Summed in another order, a block value may differ from
``objective_value`` at the same point in its last digits, and past
``VALUE_BLOCK`` coordinates the same row may take another last digit in a
block of another size, since OpenBLAS's product of a stack of rows is not
always the stack of its parts' products bit for bit.

A single solve is strictly sequential; concurrent solves are safe because
problems and geometries are immutable and each run owns its own random
stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .geometry import DUAL_NORM_KERNELS, PROX_LOOPS, dgf_minimizer
from .oracle import RngStream, _is_index, support_of
from .problems import _REAL_TYPES, ProblemInstance

ADAPTIVE = "adaptive"
FIXED = "fixed"
VARIANTS = (ADAPTIVE, FIXED)

CRITERION_MET = "criterion_met"
CAP_REACHED = "cap_reached"

#: Trace rows whose f-values one ``value_batch`` call computes: a traced run
#: holds at most this many pending iterates, whatever its length, 4 MB at
#: n = 2000. The f-values of a 484-row trace at n = 2000 took 37 ms in
#: blocks of 256 and 44 ms in blocks of 64 (best of 7, one OpenBLAS thread,
#: 2-core Xeon VM): each block reads the matrix once.
TRACE_BLOCK = 256


def _is_real(v) -> bool:
    """A real number, and not a bool, which Python counts as one."""
    return isinstance(v, _REAL_TYPES) and not isinstance(v, bool)


class InfeasibleRunError(RuntimeError):
    """A run finished without a single productive iteration."""


@dataclass(frozen=True)
class SolverConfig:
    """Run parameters shared by both stepsize policies.

    ``epsilon`` doubles as the productivity threshold and the stopping
    threshold, exactly as in the update rule. ``fixed_M`` is the uniform
    subgradient bound the fixed policy needs. ``max_iterations`` caps the
    adaptive loop; when omitted, a safety cap of ten times the worst-case
    count (with the largest sample norm seen so far standing in for the
    uniform bound) is maintained on the fly. Each is refused with the other
    variant, whose step would ignore it. The objective value is
    evaluated only for trace rows, not by the step, in blocks of
    ``TRACE_BLOCK`` iterates, each of which reads the upper block triangle
    of a quadratic's matrix, not the whole matrix; its last digits may
    differ from ``objective_value`` at the same point. The parameters are
    checked here, once: ``epsilon`` a positive and finite real, ``fixed_M``
    a finite real when given, ``max_iterations`` an integer of at least 1
    when given, and ``seed`` an integer in [0, 2**64); booleans are refused
    as both. The step makes no per-iteration checks.
    """

    epsilon: float
    max_iterations: int | None = None
    seed: int = 0
    variant: str = ADAPTIVE
    fixed_M: float | None = None
    record_trace: bool = True

    def __post_init__(self):
        if not (_is_real(self.epsilon) and 0 < self.epsilon < math.inf):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be '{ADAPTIVE}' or '{FIXED}', got {self.variant!r}")
        cap = self.max_iterations
        if cap is not None and not (_is_index(cap) and cap >= 1):
            raise ValueError(f"max_iterations must be an integer of at least 1, got {cap!r}")
        if not (_is_index(self.seed) and 0 <= self.seed < 2**64):
            raise ValueError(f"seed must be an integer in [0, 2**64), got {self.seed!r}")
        bound = self.fixed_M
        if bound is not None and not (_is_real(bound) and math.isfinite(bound)):
            raise ValueError(f"fixed_M must be a finite real, got {bound!r}")
        if self.variant == FIXED and (self.fixed_M is None or not self.fixed_M > 0):
            raise ValueError("the fixed variant needs a positive fixed_M bound")
        ignored = "max_iterations" if self.variant == FIXED else "fixed_M"
        if getattr(self, ignored) is not None:
            raise ValueError(f"{ignored} does not apply to the {self.variant} variant")


@dataclass(frozen=True)
class IterationRecord:
    """One row of a run trace."""

    k: int
    productive: bool
    M_k: float
    h_k: float
    g_value: float
    f_value: float


@dataclass(frozen=True)
class RunResult:
    """Outcome of a solve: the averaged point plus counters and the trace.

    ``M_bar`` is the root mean square of the recorded sample norms and
    ``M_max`` the largest of them; both are kept whether or not the run
    records a trace.
    """

    x_bar: np.ndarray
    N: int
    N_I: int
    stop_reason: str
    trace: list[IterationRecord]
    M_bar: float
    M_max: float


class StepState(NamedTuple):
    """Everything the step itself computed, for diagnostics; immutable.

    ``gradient`` is the sample the step applied and whose dual norm it
    recorded. ``stopped`` marks the iteration at which the variant's
    stopping rule fired. Readers that need f(x) evaluate it themselves.
    """

    k: int
    x: np.ndarray
    productive: bool
    g_value: float
    gradient: np.ndarray
    M: float
    h: float
    x_next: np.ndarray
    sum_M_sq: float
    stopped: bool


def worst_case_iterations(M: float, R: float, epsilon: float, variant: str = ADAPTIVE) -> int:
    """Iteration count sufficient under a uniform subgradient bound M:
    ``ceil(4 M^2 R^2 / eps^2)`` for the adaptive policy and
    ``ceil(2 M^2 R^2 / eps^2)`` for the fixed baseline. Raises
    ``ValueError`` when the count is not finite, as when ``eps^2``
    underflows to zero or ``M^2`` overflows."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if not (M > 0 and R > 0 and epsilon > 0):
        raise ValueError("M, R and epsilon must all be positive")
    factor = 4.0 if variant == ADAPTIVE else 2.0
    eps_sq = epsilon * epsilon
    count = factor * M * M * R * R / eps_sq if eps_sq > 0.0 else math.inf
    if not math.isfinite(count):
        raise ValueError(f"worst-case iteration count not finite: M={M}, R={R}, epsilon={epsilon}")
    return math.ceil(count)


def mirror_descent_steps(problem: ProblemInstance, config: SolverConfig) -> Iterator[StepState]:
    """Drive the loop, yielding one StepState per iteration.

    The generator terminates right after yielding the step on which the
    stopping rule fired, or silently once the adaptive safety cap is
    exhausted (the caller then reports the cap). The fixed policy runs its
    precomputed budget exactly.
    """
    geom = problem.geometry()
    lift, advance = PROX_LOOPS[geom.kind]
    norm = DUAL_NORM_KERNELS[geom.kind]
    radius = geom.radius
    rng = RngStream(config.seed)
    constraint_values = problem.constraint.values_unchecked
    # projected iterates are sparse, entropy iterates never are
    sparse = geom.kind == "euclidean"
    support = None
    directions = problem.constraint.directions
    # a non-productive step's sample is a fixed direction: its norm is known
    direction_norms = [norm(d) for d in directions]
    epsilon = config.epsilon
    adaptive = config.variant == ADAPTIVE
    x = dgf_minimizer(geom)
    state = lift(x)
    if config.variant == FIXED:
        bound = float(config.fixed_M)
        budget = worst_case_iterations(bound, radius, config.epsilon, FIXED)
        h_fixed = config.epsilon / (bound * bound) if bound * bound > 0.0 else math.inf
        if not 0.0 < h_fixed < math.inf:
            raise ValueError(f"fixed stepsize epsilon / fixed_M^2 = {h_fixed} is not usable")
    sum_m_sq = 0.0
    m_max = 0.0
    # the adaptive limit; without max_iterations, a safety cap that changes
    # only when m_max does
    limit = config.max_iterations
    limit_m = 0.0
    k = 0
    while True:
        k += 1
        if sparse:
            support = support_of(x)
        values = constraint_values(x, support)
        active = values.argmax()  # ties to the smallest index
        g_value = float(values[active])
        productive = g_value <= epsilon
        if productive:
            gradient = problem.objective_sample(x, rng, support)
            m_k = norm(gradient)
        else:
            gradient = directions[active]
            m_k = direction_norms[active]
        sum_m_sq += m_k * m_k
        m_max = max(m_max, m_k)
        if adaptive:
            # step_size and stopping_criterion, sharing one root; h stays inf
            # while every sample so far was zero: the stopping rule fires
            # then, and the iterate does not move
            root = math.sqrt(sum_m_sq)
            h = radius / root if sum_m_sq != 0.0 else math.inf
            stopped = (2.0 * radius / k) * root <= epsilon
        else:
            h = h_fixed
            stopped = k >= budget
        if h == math.inf:
            x_next = x
        elif math.isfinite(h * m_k):
            # |h g_i| <= h M_k in both geometries, so the prox input is finite
            state, x_next = advance(state, h * gradient)
        else:
            raise ValueError(f"step {k}: the prox input h * M_k = {h * m_k} is not finite")
        # positional, in field order: keywords would cost a microsecond a step
        yield StepState(k, x, productive, g_value, gradient, m_k, h, x_next, sum_m_sq, stopped)
        if stopped:
            return
        if adaptive:
            if config.max_iterations is None and m_max != limit_m:
                limit_m = m_max
                limit = 10 * worst_case_iterations(m_max, radius, config.epsilon, ADAPTIVE)
            if k >= limit:
                return
        x = x_next


def _trace_block(objective, rows: list[tuple], xs: list[np.ndarray]) -> list[IterationRecord]:
    """The pending trace rows as records, their f-values from one
    ``value_batch`` call over the stacked iterates."""
    f_values = objective.value_batch(np.stack(xs))
    return [IterationRecord(*row, float(f)) for row, f in zip(rows, f_values)]


def _drive(problem: ProblemInstance, config: SolverConfig) -> RunResult:
    accum = np.zeros(problem.dimension)
    n_total = 0
    n_productive = 0
    sum_m_sq = 0.0
    m_max = 0.0
    stop_reason = CAP_REACHED
    trace: list[IterationRecord] = []
    # rows waiting for their f-value, and their iterates: references, since
    # the step never writes to an iterate it has handed out
    rows: list[tuple] = []
    xs: list[np.ndarray] = []
    for st in mirror_descent_steps(problem, config):
        n_total = st.k
        sum_m_sq = st.sum_M_sq
        m_max = max(m_max, st.M)
        if st.productive:
            accum += st.x
            n_productive += 1
        if config.record_trace:
            rows.append((st.k, st.productive, st.M, st.h, st.g_value))
            xs.append(st.x)
            if len(xs) == TRACE_BLOCK:
                trace += _trace_block(problem.objective, rows, xs)
                rows, xs = [], []
        if st.stopped:
            stop_reason = CRITERION_MET
    if xs:
        trace += _trace_block(problem.objective, rows, xs)
    if n_productive == 0:
        raise InfeasibleRunError(
            f"no productive iteration in {n_total} steps at epsilon={config.epsilon}; "
            "the averaged point is undefined"
        )
    return RunResult(
        x_bar=accum / n_productive,
        N=n_total,
        N_I=n_productive,
        stop_reason=stop_reason,
        trace=trace,
        M_bar=math.sqrt(sum_m_sq / n_total),
        M_max=m_max,
    )


def solve_adaptive(problem: ProblemInstance, config: SolverConfig) -> RunResult:
    """Run the adaptive-stepsize loop until its stopping rule fires.

    On a ``criterion_met`` exit with exact oracles the averaged point is
    within ``epsilon`` of the optimal value and violates the constraint by
    at most ``epsilon``; with sampled gradients the objective guarantee
    holds on average over seeds while the constraint guarantee still holds
    per run. A ``cap_reached`` result is returned (not raised) so callers
    can inspect the partial run.
    """
    if config.variant != ADAPTIVE:
        raise ValueError(f"config.variant is {config.variant!r}; expected '{ADAPTIVE}'")
    return _drive(problem, config)


def solve_fixed(problem: ProblemInstance, config: SolverConfig) -> RunResult:
    """Run the constant-stepsize baseline for its full precomputed budget.

    The stepsize is ``epsilon / fixed_M^2`` and the budget is
    ``ceil(2 fixed_M^2 R^2 / epsilon^2)`` with the geometry's radius
    standing in for the (unknowable) divergence to the solution; the run
    completes the budget and reports ``criterion_met``.
    """
    if config.variant != FIXED:
        raise ValueError(f"config.variant is {config.variant!r}; expected '{FIXED}'")
    return _drive(problem, config)

