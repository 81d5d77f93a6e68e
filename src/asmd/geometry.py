"""Proximal geometries on the probability simplex.

Two setups are provided, named by the same kinds that instance files and
the CLI use (``GEOMETRY_KINDS``):

* ``euclidean``: potential ``d(x) = ||x||_2^2 / 2``, primal norm l2,
  prox step realized as a Euclidean projection back onto the simplex;
  radius bound ``R^2 = 1``.
* ``entropy``: potential ``d(x) = sum_i x_i log x_i``, primal norm l1
  (dual l-infinity), prox step realized as a multiplicative update;
  radius bound ``R^2 = log n``, so it needs n >= 2.

Each geometry bundles the pieces a mirror-descent step needs: the potential
and its gradient, the induced divergence ``V(x, y)``, the dual norm used to
measure subgradients, and the prox operator restricted to the simplex.
Geometry values are immutable and all operations are pure functions, so
they can be shared freely between concurrently running solves.

The public functions check their inputs (shape, finiteness, simplex
membership where a feasible point is required). ``prox_map`` and
``dual_norm`` then run check-free kernels, from ``PROX_LOOPS`` and
``DUAL_NORM_KERNELS``; the solver's step calls the kernels directly, since
the prox step keeps its iterates on the simplex. A prox kernel is a pair
that carries a state from step to step. The entropy state is the
log-weights z, so a step is ``z <- z - y`` and ``x = exp(z - max z) / sum``
and takes no log and no interior clamp of its iterate. ``prox_map`` is one
lift and one advance of the same pair, and stays the public, checked
reference: one entropy step of a run matches it up to rounding, a
Euclidean step bit for bit.

The Euclidean step is ``project_simplex``, the sort-and-threshold
projection (Duchi et al., ICML 2008). At n <= 2000 its time goes to the
fixed cost of each numpy call more than to the O(n log n) sort, so it
keeps the sort and the arithmetic, and with them the bits of every
projection, in fewer calls: the ranks 1..n are built once per dimension,
the threshold index comes from one ``argmax``, and the result is clipped
in place.
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


def _check_vector(geom: Geometry, v, name: str = "x") -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.shape != (geom.dimension,):
        raise ValueError(
            f"{name} has shape {v.shape}, expected ({geom.dimension},) for this geometry"
        )
    if not np.isfinite(v).all():
        raise ValueError(f"{name} has non-finite coordinates")
    return v


def on_simplex(x, tol: float = FEASIBILITY_TOL) -> bool:
    """Membership check: coordinates nonnegative and summing to one."""
    x = np.asarray(x, dtype=float)
    return bool(abs(float(x.sum()) - 1.0) <= tol and (x >= -tol).all())


def require_feasible(geom: Geometry, x, name: str = "x") -> np.ndarray:
    x = _check_vector(geom, x, name)
    if not on_simplex(x):
        raise ValueError(f"{name} is not on the probability simplex (tol {FEASIBILITY_TOL})")
    return x


def interior_clamp(x, delta: float = INTERIOR_DELTA) -> np.ndarray:
    """Mix toward the uniform point so every coordinate is at least delta."""
    x = np.asarray(x, dtype=float)
    return (1.0 - x.size * delta) * x + delta


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


def _norm_l2(g: np.ndarray) -> float:
    # numpy's own norm of a real vector, sqrt(x.dot(x)), without its dispatch
    return math.sqrt(g.dot(g))


def _norm_linf(g: np.ndarray) -> float:
    return float(np.abs(g).max())


def dual_norm(geom: Geometry, g) -> float:
    """Norm of a dual vector (a subgradient): l2 for the Euclidean setup,
    l-infinity for entropy (whose primal norm is l1)."""
    return DUAL_NORM_KERNELS[geom.kind](_check_vector(geom, g, "g"))


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
    if not passing[rho]:
        # past about 2**53, css_1 - 1 rounds back to u_1 and no index
        # passes; shifted by the max, the first index always does
        return project_simplex(v - u[0])
    theta = (css[rho] - 1.0) / (rho + 1.0)
    w = v - theta
    np.maximum(w, 0.0, out=w)
    return w


def _log_weights(x: np.ndarray) -> np.ndarray:
    return np.log(interior_clamp(x))


def _advance_entropy(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    z = z - y
    w = np.exp(z - z.max())
    w /= w.sum()
    return z, w


def _advance_euclidean(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = project_simplex(x - y)
    return x, x


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
