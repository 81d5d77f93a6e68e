"""Proximal geometries on the probability simplex.

Two setups are provided, named by the same kinds that instance files and
the CLI use (``GEOMETRY_KINDS``):

* ``euclidean``: potential ``d(x) = ||x||_2^2 / 2``, primal norm l2,
  prox step realized as a Euclidean projection back onto the simplex;
  radius bound ``R^2 = 1``.
* ``entropy``: potential ``d(x) = sum_i x_i log x_i``, primal norm l1
  (dual l-infinity), prox step realized as a multiplicative update;
  radius bound ``R^2 = log n``, so it needs n >= 2.

Each geometry bundles what a mirror-descent step needs: the radius that
enters the stepsize and stopping rules, the dual norm used to measure
subgradients, and the prox step restricted to the simplex. Geometry values
are immutable and the kernels are pure functions, so they can be shared
freely between concurrently running solves.

The kernels, ``PROX_LOOPS`` and ``DUAL_NORM_KERNELS``, make no checks: the
step calls them directly, since it keeps its iterates on the simplex. A
prox kernel is a pair that carries a state from step to step. The entropy
state is the log-weights z, so a step is ``z <- z - y`` and
``x = exp(z - max z) / sum`` and takes no log and no interior clamp of its
iterate. The checked references, ``prox_map`` (one lift and one advance of
the same pair) and ``dual_norm``, with the potential and its divergence,
are in ``asmd.checks``: one entropy step of a run matches ``prox_map`` up
to rounding, a Euclidean step bit for bit.

The Euclidean step is ``project_simplex``, the sort-and-threshold
projection (Duchi et al., ICML 2008). At n <= 2000 its time goes to the
fixed cost of each numpy call more than to the O(n log n) sort, so it
keeps the sort and the arithmetic, and with them the bits of every
projection, in fewer calls: the ranks 1..n are built once per dimension,
the threshold index comes from one ``argmax``, and the result is clipped
in place.

At n = 50 a step costs numpy's per-call dispatch more than its arithmetic,
so the kernels take numpy's cheaper entry points, with the same arithmetic
and so the same bits: reductions go through the ufuncs' own ``reduce``
(``np.maximum.reduce``, ``np.add.reduce``), which ``ndarray.max()`` and
``.sum()`` reach only through Python wrappers; the entropy ``exp`` writes
into the ``z - max z`` array it reads; and the projection reads its
threshold scalars with ``item``, so that arithmetic runs on Python floats.
``tests/test_kernels.py`` keeps the plain expressions as references and
holds each kernel to their bytes.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

GEOMETRY_KINDS = ("entropy", "euclidean")

#: Tolerance for simplex membership checks (sum to one, nonnegativity).
FEASIBILITY_TOL = 1e-8

#: Mixing weight pulling a point off the simplex boundary before logs are
#: taken; small enough to stay below every test tolerance.
INTERIOR_DELTA = 1e-15

# the ufunc reductions behind ndarray.max() and .sum(), called directly
_reduce_max = np.maximum.reduce
_reduce_sum = np.add.reduce


@dataclass(frozen=True)
class Geometry:
    """A proximal setup on the n-dimensional probability simplex.

    ``kind`` is one of ``GEOMETRY_KINDS`` and fixes ``radius_squared``, the
    bound on the divergence from the potential's minimizer (the uniform
    point) to any feasible point, which enters both the stepsize rule and
    the stopping rule of the solvers:

    * Euclidean: 1, since half the squared l2 distance between simplex
      points is below 1.
    * Entropy: log(n), the largest divergence from the uniform point. Over
      arbitrary *pairs* the divergence is unbounded, so log(n) is a working
      convention rather than a uniform bound. It vanishes at n = 1, so the
      entropy setup needs n >= 2.
    """

    dimension: int
    kind: str

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {self.dimension}")
        if self.kind not in GEOMETRY_KINDS:
            raise ValueError(f"geometry must be one of {GEOMETRY_KINDS}, got {self.kind!r}")
        if self.kind == "entropy" and self.dimension < 2:
            raise ValueError("entropy geometry needs n >= 2: its radius log(n) vanishes at n = 1")

    @property
    def radius_squared(self) -> float:
        return math.log(self.dimension) if self.kind == "entropy" else 1.0

    @property
    def radius(self) -> float:
        return math.sqrt(self.radius_squared)


def on_simplex(x, tol: float = FEASIBILITY_TOL) -> bool:
    """Membership check: coordinates nonnegative and summing to one."""
    x = np.asarray(x, dtype=float)
    return bool(abs(float(x.sum()) - 1.0) <= tol and (x >= -tol).all())


def interior_clamp(x) -> np.ndarray:
    """Mix toward the uniform point so every coordinate is at least ``INTERIOR_DELTA``."""
    x = np.asarray(x, dtype=float)
    return (1.0 - x.size * INTERIOR_DELTA) * x + INTERIOR_DELTA


def _norm_l2(g: np.ndarray) -> float:
    # numpy's own norm of a real vector, sqrt(x.dot(x)), without its dispatch
    return math.sqrt(g.dot(g))


def _norm_linf(g: np.ndarray) -> float:
    return float(_reduce_max(np.abs(g)))


@functools.lru_cache(maxsize=8)
def _ranks(n: int) -> np.ndarray:
    """The ranks 1..n as a read-only float vector, built once per dimension."""
    ranks = np.arange(1.0, n + 1.0)
    ranks.flags.writeable = False
    return ranks


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex.

    Sort-and-threshold form, O(n log n), exact up to rounding. The
    threshold index is the last passing rank, found by one ``argmax`` over
    the reversed test.
    """
    v = np.asarray(v, dtype=float)
    # -sort(-v), sorted and negated in place
    u = np.negative(v)
    u.sort()
    np.negative(u, out=u)
    css = u.cumsum()
    passing = u * _ranks(v.size) > css - 1.0
    rho = v.size - 1 - int(passing[::-1].argmax())
    if not passing.item(rho):
        # past about 2**53, css_1 - 1 rounds back to u_1 and no index
        # passes; shifted by the max, the first index always does
        return project_simplex(v - u[0])
    theta = (css.item(rho) - 1.0) / (rho + 1.0)
    w = v - theta
    np.maximum(w, 0.0, out=w)
    return w


def _log_weights(x: np.ndarray) -> np.ndarray:
    return np.log(interior_clamp(x))


def _advance_entropy(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    z = z - y
    w = z - _reduce_max(z)
    np.exp(w, out=w)
    w /= _reduce_sum(w)
    return z, w


def _advance_euclidean(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = project_simplex(x - y)
    return x, x


#: Check-free kernels by geometry kind. ``norm(g)`` trusts g to be a
#: non-empty float vector. The prox kernels serve a run of steps that each
#: start where the last one ended: ``lift(x)`` turns a point of the simplex
#: into the carried state, and ``advance(state, y)``, for a finite y of the
#: same shape, returns the next state and its point, ``prox(x, y)``.
#: Entropy carries log-weights, Euclidean the point itself.
DUAL_NORM_KERNELS = {"entropy": _norm_linf, "euclidean": _norm_l2}
PROX_LOOPS = {
    "entropy": (_log_weights, _advance_entropy),
    "euclidean": (np.asarray, _advance_euclidean),
}


def dgf_minimizer(geom: Geometry) -> np.ndarray:
    """Minimizer of the potential over the simplex: the uniform point for
    both setups (by symmetry)."""
    n = geom.dimension
    return np.full(n, 1.0 / n)
