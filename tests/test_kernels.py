"""The step's kernels against the expressions they replaced, bit for bit.

The kernels in ``asmd.geometry`` and the oracles' unchecked reads call
numpy the cheap way: products through ``ndarray.dot``, reductions through
``ufunc.reduce``, the entropy ``exp`` in place and the projection's
threshold on Python floats. None of that changes the arithmetic, so each
kernel must return the bytes of the reference expression below, and a
solve run on the references must return the same N, N_I and x_bar bytes.
"""

import numpy as np
import pytest

from asmd import geometry
from asmd.geometry import DUAL_NORM_KERNELS, PROX_LOOPS, project_simplex
from asmd.oracle import MaxLinearConstraint, QuadraticObjective, support_of
from asmd.problems import generate_instance
from asmd.solver import SolverConfig, solve_adaptive

DIMENSIONS = [2, 3, 50, 500, 2000]


def reference_advance_entropy(z, y):
    z = z - y
    w = np.exp(z - z.max())
    w /= w.sum()
    return z, w


def reference_norm_linf(g):
    return float(np.abs(g).max())


def reference_project_simplex(v):
    """``project_simplex`` with its threshold read through numpy scalars."""
    v = np.asarray(v, dtype=float)
    u = np.negative(v)
    u.sort()
    np.negative(u, out=u)
    css = u.cumsum()
    passing = u * geometry._ranks(v.size) > css - 1.0
    rho = v.size - 1 - int(passing[::-1].argmax())
    if not passing[rho]:
        return reference_project_simplex(v - u[0])
    theta = (css[rho] - 1.0) / (rho + 1.0)
    w = v - theta
    np.maximum(w, 0.0, out=w)
    return w


def reference_advance_euclidean(x, y):
    x = reference_project_simplex(x - y)
    return x, x


def reference_values(constraint, x, support=None):
    if support is None or 2 * support.size > constraint.dimension:
        return constraint.term_matrix @ x - constraint.offsets
    return x.take(support).dot(constraint.term_columns.take(support, axis=0)) - constraint.offsets


def reference_gradient(objective, x, support=None):
    if support is None or 2 * support.size > objective.dimension:
        return objective.matrix @ x
    return x.take(support).dot(objective.matrix.take(support, axis=0))


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def simplex_points(rng, n):
    """A dense point, a sparse one and a vertex of the n-simplex."""
    dense = rng.random(n)
    sparse = np.where(rng.random(n) < 0.2, rng.random(n), 0.0)
    sparse[rng.integers(n)] += 1.0
    vertex = np.zeros(n)
    vertex[rng.integers(n)] = 1.0
    return [p / p.sum() for p in (dense, sparse, vertex)]


@pytest.mark.parametrize("n", DIMENSIONS)
def test_entropy_advance_is_the_reference(n):
    rng = np.random.default_rng(n)
    lift, advance = PROX_LOOPS["entropy"]
    for x in simplex_points(rng, n):
        # at 1e3, exp underflows to zero on most coordinates
        for scale in (1e-3, 1.0, 50.0, 1e3):
            z = lift(x)
            y = scale * rng.standard_normal(n)
            got, expected = advance(z, y), reference_advance_entropy(z, y)
            assert same_bytes(got[0], expected[0]) and same_bytes(got[1], expected[1])


@pytest.mark.parametrize("n", DIMENSIONS)
def test_linf_norm_is_the_reference(n):
    rng = np.random.default_rng(n)
    norm = DUAL_NORM_KERNELS["entropy"]
    vectors = [rng.standard_normal(n), np.zeros(n), -np.zeros(n), rng.random(n) - 1.0]
    for g in vectors:
        got, expected = norm(g), reference_norm_linf(g)
        assert type(got) is float and got.hex() == expected.hex()


@pytest.mark.parametrize("n", DIMENSIONS)
def test_projection_is_the_reference(n):
    rng = np.random.default_rng(n)
    # 1e17 reaches the shifted retry, where no rank passes the threshold test
    for scale in (1e-3, 1.0, 1e3, 1e17):
        for _ in range(4):
            v = scale * rng.standard_normal(n)
            assert same_bytes(project_simplex(v), reference_project_simplex(v))
    for x in simplex_points(rng, n):
        assert same_bytes(project_simplex(x), reference_project_simplex(x))


@pytest.fixture(scope="module")
def oracles():
    """A symmetric objective and a 7-term constraint at each dimension."""
    built = {}
    for n in DIMENSIONS:
        rng = np.random.default_rng(100 + n)
        a = rng.standard_normal((n, n))
        a += a.T
        terms = []
        for _ in range(7):
            idx = rng.choice(n, size=max(1, n // 10), replace=False)
            terms.append((idx, rng.standard_normal(idx.size)))
        built[n] = (QuadraticObjective(a), MaxLinearConstraint(terms, rng.random(7), n))
    return built


@pytest.mark.parametrize("n", DIMENSIONS)
def test_dense_reads_are_the_reference(n, oracles):
    objective, constraint = oracles[n]
    rng = np.random.default_rng(n)
    for x in simplex_points(rng, n):
        # the dense product without a support, and each side of the 2|S| <= n rule
        for support in (None, support_of(x)):
            assert same_bytes(constraint.values_unchecked(x, support),
                              reference_values(constraint, x, support))
            assert same_bytes(objective.gradient_unchecked(x, support),
                              reference_gradient(objective, x, support))


@pytest.mark.parametrize("oracle", ["exact", "column"])
@pytest.mark.parametrize("kind", ["entropy", "euclidean"])
def test_solve_on_the_reference_kernels_keeps_its_bits(kind, oracle, monkeypatch):
    problem = generate_instance(50, m_count=10, density=0.1, seed=7, geometry=kind, oracle=oracle)
    config = SolverConfig(epsilon=0.05, seed=1)
    result = solve_adaptive(problem, config)
    lift_entropy = PROX_LOOPS["entropy"][0]
    monkeypatch.setitem(PROX_LOOPS, "entropy", (lift_entropy, reference_advance_entropy))
    monkeypatch.setitem(PROX_LOOPS, "euclidean", (np.asarray, reference_advance_euclidean))
    monkeypatch.setitem(DUAL_NORM_KERNELS, "entropy", reference_norm_linf)
    monkeypatch.setattr(MaxLinearConstraint, "values_unchecked", reference_values)
    monkeypatch.setattr(QuadraticObjective, "gradient_unchecked", reference_gradient)
    replay = solve_adaptive(problem, config)
    assert result.N > 100
    assert (replay.N, replay.N_I, replay.stop_reason) == (result.N, result.N_I, result.stop_reason)
    assert same_bytes(replay.x_bar, result.x_bar)
    assert [r.f_value for r in replay.trace] == [r.f_value for r in result.trace]
