import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmd.geometry import (
    DUAL_NORM_KERNELS,
    GEOMETRY_KINDS,
    PROX_LOOPS,
    Geometry,
    bregman,
    dgf_gradient,
    dgf_minimizer,
    dgf_value,
    dual_norm,
    interior_clamp,
    on_simplex,
    project_simplex,
    prox_map,
)
from asmd.problems import generate_instance
from asmd.solver import SolverConfig, mirror_descent_steps

ENT2 = Geometry(2, "entropy")
EUC2 = Geometry(2, "euclidean")


def reference_projection(v) -> np.ndarray:
    """The sort-and-threshold projection as first written, one numpy call per
    quantity: the reference ``project_simplex`` must match bit for bit."""
    v = np.asarray(v, dtype=float)
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    idx = np.arange(1, v.size + 1)
    passing = np.nonzero(u * idx > css - 1.0)[0]
    if passing.size == 0:
        return reference_projection(v - u[0])
    rho = passing[-1]
    theta = (css[rho] - 1.0) / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


class TestGeometryConstruction:
    def test_defaults(self):
        # the kind alone sets the radius, bit for bit
        for n in (2, 3, 5, 50, 2000):
            assert Geometry(n, "euclidean").radius_squared == 1.0
            assert Geometry(n, "euclidean").radius == 1.0
            assert Geometry(n, "entropy").radius_squared == math.log(n)
            assert Geometry(n, "entropy").radius == math.sqrt(math.log(n))

    def test_entropy_needs_two_coordinates(self):
        # log(1) = 0 would be no radius at all
        with pytest.raises(ValueError, match="n >= 2"):
            Geometry(1, "entropy")
        geom = Geometry(1, "euclidean")
        assert geom.dimension == 1
        assert geom.radius == 1.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            Geometry(0, "euclidean")
        for kind in ("box", "entropy-simplex", "euclidean-simplex"):
            with pytest.raises(ValueError, match="geometry must be one of"):
                Geometry(2, kind)

    def test_kernels_keyed_by_the_kinds(self):
        assert set(PROX_LOOPS) == set(DUAL_NORM_KERNELS) == set(GEOMETRY_KINDS)


class TestDgfValue:
    def test_entropy_vertex_is_zero(self):
        assert dgf_value(ENT2, [1.0, 0.0]) == 0.0

    def test_entropy_uniform(self):
        # sum x log x at (1/2, 1/2) evaluates to -log 2
        assert dgf_value(ENT2, [0.5, 0.5]) == pytest.approx(-math.log(2), abs=1e-12)

    def test_euclidean_uniform(self):
        assert dgf_value(EUC2, [0.5, 0.5]) == pytest.approx(0.25, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dgf_value(ENT2, [0.5, 0.25, 0.25])

    def test_infeasible_rejected(self):
        with pytest.raises(ValueError):
            dgf_value(EUC2, [0.9, 0.3])
        with pytest.raises(ValueError):
            dgf_value(EUC2, [1.5, -0.5])


class TestBregman:
    @pytest.mark.parametrize("geom", [ENT2, EUC2])
    def test_zero_at_equal_points(self, geom):
        x = np.array([0.3, 0.7])
        assert abs(bregman(geom, x, x)) <= 1e-12

    def test_entropy_hand_value(self):
        # relative entropy of (1, 0) from (1/2, 1/2) is log 2
        assert bregman(ENT2, [0.5, 0.5], [1.0, 0.0]) == pytest.approx(math.log(2), abs=1e-9)

    def test_euclidean_hand_value(self):
        assert bregman(EUC2, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            bregman(ENT2, [0.5, 0.5], [0.2, 0.3, 0.5])

    @pytest.mark.parametrize("geom", [Geometry(6, "entropy"), Geometry(6, "euclidean")])
    def test_nonnegative_and_definite(self, geom):
        rng = np.random.default_rng(7)
        pts = rng.dirichlet(np.ones(6), size=2000)
        for i in range(1000):
            x, y = pts[2 * i], pts[2 * i + 1]
            v = bregman(geom, x, y)
            assert v >= -1e-12
            if np.abs(x - y).max() > 1e-3:
                assert v > 1e-12

    @pytest.mark.parametrize("geom", [Geometry(6, "entropy"), Geometry(6, "euclidean")])
    def test_strong_convexity_modulus_one(self, geom):
        rng = np.random.default_rng(8)
        pts = rng.dirichlet(np.ones(6), size=2000)
        for i in range(1000):
            x, y = pts[2 * i], pts[2 * i + 1]
            diff = y - x
            if geom.kind == "euclidean":
                sq = float(diff @ diff)
            else:
                sq = float(np.abs(diff).sum()) ** 2
            assert bregman(geom, x, y) >= 0.5 * sq - 1e-12


class TestDualNorm:
    def test_euclidean(self):
        assert dual_norm(EUC2, [3.0, 4.0]) == pytest.approx(5.0, abs=1e-15)

    def test_entropy_is_max_abs(self):
        assert dual_norm(ENT2, [3.0, -4.0]) == 4.0

    @pytest.mark.parametrize("geom", [ENT2, EUC2])
    def test_zero(self, geom):
        assert dual_norm(geom, [0.0, 0.0]) == 0.0

    def test_l2_kernel_matches_numpy_norm(self):
        # bit for bit, including a zero vector, subnormals, squares that
        # overflow to inf and n = 1
        norm = DUAL_NORM_KERNELS["euclidean"]
        tiny = np.finfo(float).smallest_subnormal
        cases = [np.zeros(1), np.zeros(5), np.array([-3.0]), np.array([tiny]),
                 np.array([tiny, 3 * tiny, -tiny]), np.array([1e-160, -2e-160]),
                 np.array([1e200]), np.array([1e200, -1e200, 1.0]), np.array([1.7e308])]
        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 50, 500, 2000):
            for scale in (1e-5, 1.0, 1e5):
                cases.append(rng.standard_normal(n) * scale)
        for g in cases:
            with np.errstate(over="ignore"):
                expected = float(np.linalg.norm(g))
                got = norm(g)
            assert type(got) is float
            assert np.float64(got).tobytes() == np.float64(expected).tobytes(), g

    @pytest.mark.parametrize("kind", ["entropy", "euclidean"])
    def test_sampled_duality(self, kind):
        # the dual norm should match the best inner product over random
        # unit-primal-norm directions, up to sampling slack
        n = 4
        rng = np.random.default_rng(11)
        geom = Geometry(n, kind)
        for _ in range(5):
            g = rng.standard_normal(n) * 3.0
            target = dual_norm(geom, g)
            best = -math.inf
            if kind == "euclidean":
                z = rng.standard_normal((10_000, n))
                u = z / np.linalg.norm(z, axis=1, keepdims=True)
                best = float((u @ g).max())
            else:
                for _ in range(10_000):
                    if rng.random() < 0.5:
                        i = int(rng.integers(n))
                        direction = np.zeros(n)
                        direction[i] = rng.choice([-1.0, 1.0])
                    else:
                        direction = rng.dirichlet(np.ones(n)) * rng.choice([-1.0, 1.0], size=n)
                    best = max(best, float(direction @ g))
            assert best <= target + 1e-12
            assert best >= 0.98 * target


class TestProxMap:
    def test_entropy_multiplicative_update(self):
        u = prox_map(ENT2, [0.5, 0.5], [math.log(2), 0.0])
        np.testing.assert_allclose(u, [1.0 / 3.0, 2.0 / 3.0], atol=1e-12)

    @pytest.mark.parametrize("geom", [ENT2, EUC2])
    def test_zero_dual_is_identity(self, geom):
        x = np.array([0.25, 0.75])
        np.testing.assert_allclose(prox_map(geom, x, np.zeros(2)), x, atol=1e-15)

    def test_euclidean_projection_to_vertex(self):
        u = prox_map(EUC2, [0.5, 0.5], [-0.5, 0.5])
        np.testing.assert_allclose(u, [1.0, 0.0], atol=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            prox_map(ENT2, [0.5, 0.5], [1.0])

    def test_entropy_overflow_guard(self):
        # huge dual inputs must not overflow thanks to the max shift
        geom = Geometry(3, "entropy")
        u = prox_map(geom, [1 / 3, 1 / 3, 1 / 3], [1e6, 0.0, -1e6])
        assert np.isfinite(u).all()
        assert u[2] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("kind", ["entropy", "euclidean"])
    def test_feasible_output(self, kind):
        n = 5
        geom = Geometry(n, kind)
        rng = np.random.default_rng(12)
        for _ in range(300):
            x = rng.dirichlet(np.ones(n))
            y = rng.standard_normal(n) * 5.0
            u = prox_map(geom, x, y)
            assert abs(u.sum() - 1.0) <= 1e-10
            assert (u >= -1e-12).all()

    @pytest.mark.parametrize("kind", ["entropy", "euclidean"])
    def test_optimality_condition(self, kind):
        n = 4
        geom = Geometry(n, kind)
        rng = np.random.default_rng(13)
        for _ in range(10):
            x = rng.dirichlet(np.ones(n))
            y = rng.standard_normal(n) * 2.0
            u = prox_map(geom, x, y)
            stationarity = y + dgf_gradient(geom, u) - dgf_gradient(geom, x)
            for v in rng.dirichlet(np.ones(n), size=100):
                assert float(stationarity @ (v - u)) >= -1e-8


class TestDgfMinimizer:
    def test_entropy_two(self):
        np.testing.assert_array_equal(dgf_minimizer(ENT2), [0.5, 0.5])

    def test_euclidean_four(self):
        np.testing.assert_array_equal(dgf_minimizer(Geometry(4, "euclidean")), [0.25] * 4)

    def test_singleton(self):
        geom = Geometry(1, "euclidean")
        np.testing.assert_array_equal(dgf_minimizer(geom), [1.0])
        with pytest.raises(ValueError):
            Geometry(1, "entropy")

    @pytest.mark.parametrize("geom", [Geometry(7, "entropy"), Geometry(7, "euclidean")])
    def test_radius_bound_from_minimizer(self, geom):
        rng = np.random.default_rng(14)
        start = dgf_minimizer(geom)
        for y in rng.dirichlet(np.ones(7), size=1000):
            assert bregman(geom, start, y) <= geom.radius_squared + 1e-9


class TestProjectSimplex:
    def test_identity_on_feasible(self):
        x = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_simplex(x), x, atol=1e-12)

    @given(st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_output_feasible(self, values):
        u = project_simplex(np.array(values))
        assert on_simplex(u, tol=1e-9)

    def test_projection_is_closest_point(self):
        # cross-check against a dense search over simplex grid points
        rng = np.random.default_rng(15)
        k = 200
        grid = np.stack([np.arange(k + 1), k - np.arange(k + 1)], axis=1) / k
        for _ in range(20):
            v = rng.standard_normal(2) * 2.0
            u = project_simplex(v)
            dists = ((grid - v) ** 2).sum(axis=1)
            assert float(((u - v) ** 2).sum()) <= float(dists.min()) + 1e-9

    @pytest.mark.parametrize(
        "v, expected", [([1e17, 0.0], [1.0, 0.0]), ([1e17, 1e17], [0.5, 0.5])]
    )
    def test_huge_coordinates(self, v, expected):
        # past 2**53 the threshold test finds no index without the max shift
        np.testing.assert_array_equal(project_simplex(np.array(v)), expected)

    @given(st.lists(st.floats(-1e18, 1e18, allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_reference(self, values):
        v = np.array(values)
        np.testing.assert_array_equal(project_simplex(v), reference_projection(v))

    @pytest.mark.parametrize("v", [
        [0.3], [-7.0], [0.0], [1e17],  # n = 1
        [0.5, 0.5], [2.0, -1.0], [-0.0, 0.0], [1e17, -1e17],  # n = 2
        [0.25, 0.25, 0.25, 0.25], [1.0, 1.0, 0.0, 0.0], [0.4, 0.4, 0.4, -3.0],  # ties
        [0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0],  # vertices
        [2.0**53, 2.0**53 + 2, 0.0], [1e300, -1e300, 3.0], [1e17, 1e17 - 16, 1.0],  # past 2**53
    ])
    def test_edge_cases_match_the_reference(self, v):
        v = np.array(v)
        np.testing.assert_array_equal(project_simplex(v), reference_projection(v))

    @pytest.mark.parametrize("oracle", ["exact", "column"])
    def test_solve_prox_inputs_match_the_reference(self, oracle):
        # every prox input x - h g of a Euclidean n = 50 solve
        p = generate_instance(50, m_count=10, density=0.1, seed=7,
                              geometry="euclidean", oracle=oracle)
        steps = 0
        for st_state in mirror_descent_steps(p, SolverConfig(epsilon=0.05, seed=1)):
            v = st_state.x - st_state.h * st_state.gradient
            expected = reference_projection(v)
            np.testing.assert_array_equal(project_simplex(v), expected)
            np.testing.assert_array_equal(st_state.x_next, expected)
            steps += 1
        assert steps > 100


def test_interior_clamp_keeps_values_close():
    x = np.array([1.0, 0.0])
    xc = interior_clamp(x)
    assert (xc > 0).all()
    assert np.abs(xc - x).max() < 1e-14
