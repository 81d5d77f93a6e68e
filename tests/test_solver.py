import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from asmd import checks, geometry, oracle, problems, solver
from asmd.checks import (
    dual_norm,
    min_step_residual,
    mirror_step_residual,
    prox_map,
    step_size,
    stepsum_gap,
    stopping_criterion,
    telescoping_bound_check,
)
from asmd.fixtures import LINEAR_N2, QUADRATIC_N3, load_fixture
from asmd.geometry import Geometry, dgf_minimizer, on_simplex
from asmd.oracle import LinearObjective, MaxLinearConstraint, QuadraticObjective
from asmd.problems import ProblemInstance, generate_instance, uniform_subgradient_bound
from asmd.solver import (
    ADAPTIVE,
    CAP_REACHED,
    CRITERION_MET,
    FIXED,
    TRACE_BLOCK,
    InfeasibleRunError,
    SolverConfig,
    mirror_descent_steps,
    solve_adaptive,
    solve_fixed,
    worst_case_iterations,
)


def zero_gradient_problem():
    """Objective with identically zero gradient; always feasible."""
    return ProblemInstance(
        name="flat",
        dimension=2,
        objective=LinearObjective([0.0, 0.0]),
        constraint=MaxLinearConstraint([([], [])], [1.0], 2),
        geometry_kind="entropy",
        oracle_mode="exact",
        feasible_witness=np.array([0.5, 0.5]),
        margin=1.0,
    )


def counting(calls, fn):
    """``fn`` wrapped to append its name to ``calls`` on every call."""

    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    return counted


def check_steps(problem, config):
    """Every step of a run against the public, checked functions. A step,
    productive or not, is one prox move along the recorded sample: bit for
    bit under Euclidean, and to rounding under entropy, whose step carries
    log-weights where ``prox_map`` takes the log of the iterate. Returns the
    number of exact Euclidean samples taken from the rows of the support and
    the number of Euclidean constraint evaluations taken from its columns."""
    geom = problem.geometry()
    radius = geom.radius
    constraint = problem.constraint
    objective = problem.objective
    n = problem.dimension
    support_products = 0
    support_values = 0
    for st_state in mirror_descent_steps(problem, config):
        assert on_simplex(st_state.x)
        assert on_simplex(st_state.x_next)
        assert st_state.M == dual_norm(geom, st_state.gradient)
        term_values = constraint.values(st_state.x)
        active = term_values.argmax()
        g_value = term_values[active]
        assert st_state.g_value == g_value
        support = np.flatnonzero(st_state.x)
        if geom.kind == "euclidean" and 2 * support.size <= n:
            values = np.dot(st_state.x[support], constraint.term_columns[support])
            assert st_state.g_value == (values - constraint.offsets).max()
            support_values += 1
        assert st_state.productive == (g_value <= config.epsilon)
        if not st_state.productive:
            assert np.array_equal(st_state.gradient, constraint.directions[active])
        elif problem.oracle_mode == "column":
            # a row of the matrix, handed out as a view
            assert np.shares_memory(st_state.gradient, objective.matrix)
            assert (objective.matrix == st_state.gradient).all(axis=1).any()
        else:
            reference = objective.gradient(st_state.x)
            scale = float(np.abs(reference).max())
            np.testing.assert_allclose(
                st_state.gradient, reference, rtol=1e-12, atol=1e-12 * scale)
            if isinstance(objective, LinearObjective) or geom.kind == "entropy":
                expected = reference
            else:
                if 2 * support.size <= n:
                    expected = np.dot(st_state.x[support], objective.matrix[support])
                    support_products += 1
                else:
                    expected = objective.matrix @ st_state.x
            np.testing.assert_array_equal(st_state.gradient, expected)
        if config.variant == ADAPTIVE:
            if st_state.sum_M_sq:
                assert st_state.h == step_size(radius, st_state.sum_M_sq)
            else:
                assert st_state.h == math.inf
            assert st_state.stopped == stopping_criterion(
                radius, st_state.k, st_state.sum_M_sq, config.epsilon)
        expected = prox_map(geom, st_state.x, st_state.h * st_state.gradient)
        if geom.kind == "euclidean":
            np.testing.assert_array_equal(st_state.x_next, expected)
        else:
            np.testing.assert_allclose(st_state.x_next, expected, rtol=0, atol=1e-12)
    return support_products, support_values


class TestStepSize:
    def test_single(self):
        assert step_size(1.0, 4.0) == 0.5

    def test_pythagorean(self):
        assert step_size(1.0, 25.0) == pytest.approx(0.2, abs=1e-15)

    def test_four_ones(self):
        assert step_size(2.0, 4.0) == 1.0

    def test_degenerate_signals(self):
        with pytest.raises(ZeroDivisionError):
            step_size(1.0, 0.0)


class TestStoppingCriterion:
    def test_fires_at_threshold(self):
        assert stopping_criterion(1.0, 4, 4.0, 1.0)

    def test_holds_out_early(self):
        assert not stopping_criterion(1.0, 1, 4.0, 1.0)

    def test_zero_accumulation_fires(self):
        assert stopping_criterion(1.0, 1, 0.0, 0.5)


class TestWorstCaseIterations:
    def test_adaptive_count(self):
        assert worst_case_iterations(1.0, 1.0, 0.1, ADAPTIVE) == 400

    def test_fixed_count(self):
        assert worst_case_iterations(1.0, 1.0, 0.1, FIXED) == 200

    def test_small_case(self):
        assert worst_case_iterations(2.0, 1.0, 1.0, ADAPTIVE) == 16

    def test_positivity_required(self):
        with pytest.raises(ValueError):
            worst_case_iterations(0.0, 1.0, 0.1)

    def test_non_finite_count_rejected(self):
        # eps^2 underflows to 0, or M^2 overflows: no finite count to return
        for args in ((1.0, 1.0, 1e-200), (1e200, 1.0, 0.1), (1e-200, 1.0, 1e-200)):
            for variant in (ADAPTIVE, FIXED):
                with pytest.raises(ValueError):
                    worst_case_iterations(*args, variant)
        with pytest.raises(ValueError):
            worst_case_iterations(1.0, 1.0, 0.1, "annealed")


class TestStepsumGap:
    def test_single_entry(self):
        assert stepsum_gap([1.0]) == pytest.approx(1.0, abs=1e-15)

    def test_three_ones(self):
        expected = 2 * math.sqrt(3) - (1 + 1 / math.sqrt(2) + 1 / math.sqrt(3))
        assert stepsum_gap([1.0, 1.0, 1.0]) == pytest.approx(expected, abs=1e-12)

    def test_all_zero(self):
        assert stepsum_gap([0.0, 0.0]) == 0.0

    def test_negative_rejected(self):
        # a NaN or infinite term would give a NaN gap, which passes any threshold
        for alpha in ([1.0, -1.0], [1.0, math.nan], [math.nan], [1.0, math.inf]):
            with pytest.raises(ValueError):
                stepsum_gap(alpha)

    def test_random_sweep(self):
        rng = np.random.default_rng(30)
        for _ in range(1000):
            length = int(rng.integers(1, 101))
            alpha = 10.0 ** rng.uniform(-6, 6, size=length)
            assert stepsum_gap(alpha) >= -1e-10

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=0,
            max_size=60,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_never_negative(self, alpha):
        assert stepsum_gap(alpha) >= -1e-10


class TestMirrorStepResidual:
    def test_zero_gradient_zero_gap(self):
        geom = Geometry(2, "entropy")
        x = np.array([0.5, 0.5])
        assert mirror_step_residual(geom, x, x, x, np.zeros(2), 1.0, 0.0) == 0.0

    def test_reference_at_current_point(self):
        geom = Geometry(3, "entropy")
        rng = np.random.default_rng(31)
        for _ in range(50):
            x = rng.dirichlet(np.ones(3))
            grad = rng.standard_normal(3)
            h = rng.uniform(0.05, 2.0)
            x_next = prox_map(geom, x, h * grad)
            assert mirror_step_residual(geom, x, x_next, x, grad, h, 0.0) >= -1e-10

    def test_entropy_hand_value(self):
        # linear objective with gradient (1, 0), step from the uniform point,
        # reference (0, 1): closed forms give log(2 / (1 + exp(-1)))
        geom = Geometry(2, "entropy")
        x = np.array([0.5, 0.5])
        grad = np.array([1.0, 0.0])
        ref = np.array([0.0, 1.0])
        x_next = prox_map(geom, x, grad)
        f_gap = 0.5 - 0.0
        expected = math.log(2.0 / (1.0 + math.exp(-1.0)))
        value = mirror_step_residual(geom, x, x_next, ref, grad, 1.0, f_gap)
        assert value == pytest.approx(expected, abs=1e-9)
        assert value >= 0.0

    def test_nonpositive_step_rejected(self):
        geom = Geometry(2, "entropy")
        x = np.array([0.5, 0.5])
        # an infinite or NaN step, or a NaN gap, would give a NaN residual
        for h, f_gap in ((0.0, 0.0), (-1.0, 0.0), (math.inf, 0.0), (math.nan, 0.0), (1.0, math.nan)):
            with pytest.raises(ValueError):
                mirror_step_residual(geom, x, x, x, np.zeros(2), h, f_gap)


class TestSolveAdaptive:
    def test_linear_problem_reaches_target(self, linear_problem):
        result = solve_adaptive(linear_problem, SolverConfig(epsilon=0.05))
        assert result.stop_reason == CRITERION_MET
        assert result.N_I == result.N
        assert all(rec.productive for rec in result.trace)
        assert linear_problem.objective_value(result.x_bar) <= 0.05

    def test_zero_gradient_stops_immediately(self):
        problem = zero_gradient_problem()
        result = solve_adaptive(problem, SolverConfig(epsilon=0.05))
        assert result.N == 1
        assert result.N_I == 1
        assert result.stop_reason == CRITERION_MET
        np.testing.assert_array_equal(result.x_bar, [0.5, 0.5])
        assert result.trace[0].M_k == 0.0
        assert math.isinf(result.trace[0].h_k)

    def test_quadratic_fixture(self, quad_problem, quad_reference):
        result = solve_adaptive(quad_problem, SolverConfig(epsilon=0.05))
        assert result.stop_reason == CRITERION_MET
        gap = quad_problem.objective_value(result.x_bar) - quad_reference.f_star
        assert gap <= 0.05 + 2 * quad_reference.resolution
        assert quad_problem.constraint_value(result.x_bar) <= 0.05
        m_hat = max(rec.M_k for rec in result.trace)
        bound = worst_case_iterations(m_hat, quad_problem.geometry().radius, 0.05)
        assert result.N <= bound

    def test_variant_mismatch_rejected(self, linear_problem):
        config = SolverConfig(epsilon=0.1, variant=FIXED, fixed_M=1.0)
        with pytest.raises(ValueError):
            solve_adaptive(linear_problem, config)

    def test_cap_reached_returns_partial_run(self, linear_problem):
        config = SolverConfig(epsilon=0.001, max_iterations=10)
        result = solve_adaptive(linear_problem, config)
        assert result.stop_reason == CAP_REACHED
        assert result.N == 10
        assert result.N_I == 10

    def test_cap_with_no_productive_step_raises(self, quad_problem):
        # the uniform start violates the constraint, so one capped step
        # cannot produce an averaged point
        config = SolverConfig(epsilon=0.001, max_iterations=1)
        with pytest.raises(InfeasibleRunError):
            solve_adaptive(quad_problem, config)

    def test_safety_cap_recomputed_only_when_m_max_changes(self, quad_problem, monkeypatch):
        calls = []
        monkeypatch.setattr(solver, "worst_case_iterations", counting(calls, worst_case_iterations))
        result = solve_adaptive(quad_problem, SolverConfig(epsilon=0.05))
        running_max = np.maximum.accumulate([rec.M_k for rec in result.trace])
        assert 1 <= len(calls) <= len(set(running_max.tolist())) < result.N

    def test_trace_matches_counters(self, quad_problem):
        result = solve_adaptive(quad_problem, SolverConfig(epsilon=0.05))
        assert len(result.trace) == result.N
        assert sum(rec.productive for rec in result.trace) == result.N_I
        m_sq = sum(rec.M_k**2 for rec in result.trace)
        assert result.M_bar == pytest.approx(math.sqrt(m_sq / result.N), rel=1e-12)

    def test_productive_flag_matches_threshold(self, quad_problem):
        epsilon = 0.05
        result = solve_adaptive(quad_problem, SolverConfig(epsilon=epsilon))
        for rec in result.trace:
            assert rec.productive == (rec.g_value <= epsilon)

    def test_stepsizes_nonincreasing(self, linear_problem):
        result = solve_adaptive(linear_problem, SolverConfig(epsilon=0.05))
        steps = [rec.h_k for rec in result.trace]
        assert all(a >= b for a, b in zip(steps, steps[1:]))

    def test_average_is_mean_of_productive_iterates(self, quad_problem):
        config = SolverConfig(epsilon=0.05)
        productive = [
            st.x for st in mirror_descent_steps(quad_problem, config) if st.productive
        ]
        result = solve_adaptive(quad_problem, config)
        np.testing.assert_allclose(result.x_bar, np.mean(productive, axis=0), atol=1e-15)

    def test_iterates_stay_feasible(self):
        bases = [
            load_fixture(QUADRATIC_N3),
            load_fixture(LINEAR_N2),
            generate_instance(50, m_count=10, density=0.1, seed=7),
        ]
        runs = 0
        support_products = 0
        support_values = 0
        for base in bases:
            quadratic = isinstance(base.objective, QuadraticObjective)
            for kind in geometry.GEOMETRY_KINDS:
                for mode in ("exact", "column") if quadratic else ("exact",):
                    problem = dataclasses.replace(base, geometry_kind=kind, oracle_mode=mode)
                    bound = uniform_subgradient_bound(problem)
                    for config in (
                        SolverConfig(epsilon=0.1, seed=1),
                        SolverConfig(epsilon=0.2, seed=1, variant=FIXED, fixed_M=bound),
                    ):
                        products, values = check_steps(problem, config)
                        support_products += products
                        support_values += values
                        runs += 1
        assert runs == 20
        # the support products ran, not only their dense fallbacks
        assert support_products > 0
        assert support_values > support_products

    def test_step_record_is_immutable(self, quad_problem):
        first = next(iter(mirror_descent_steps(quad_problem, SolverConfig(epsilon=0.05))))
        with pytest.raises(AttributeError):
            first.h = 0.0
        with pytest.raises(AttributeError):
            first.x = first.x_next

    def test_constraint_evaluated_once_per_step(self, quad_problem, monkeypatch):
        calls = []
        samples = []
        values = MaxLinearConstraint.values_unchecked
        sample = ProblemInstance.objective_sample

        def counted(constraint, x, support=None):
            calls.append((x, support))
            return values(constraint, x, support)

        def recorded(problem, x, rng, support=None):
            samples.append((x, support))
            return sample(problem, x, rng, support)

        bases = (quad_problem, generate_instance(50, m_count=10, density=0.1, seed=7))
        instances = [
            dataclasses.replace(base, geometry_kind=kind, oracle_mode=mode)
            for base in bases
            for kind in geometry.GEOMETRY_KINDS
            for mode in ("exact", "column")
        ]
        # patched after the instances are built, whose checks evaluate the witness
        monkeypatch.setattr(MaxLinearConstraint, "values_unchecked", counted)
        monkeypatch.setattr(ProblemInstance, "objective_sample", recorded)
        for problem in instances:
            calls.clear()
            samples.clear()
            result = solve_adaptive(problem, SolverConfig(epsilon=0.05, seed=1))
            assert len(calls) == result.N
            assert len(samples) == result.N_I > 0
            evaluated = {id(x): support for x, support in calls}
            for x, support in samples:
                # the support the step scanned for its own constraint evaluation
                assert evaluated[id(x)] is support
                if problem.geometry_kind == "euclidean":
                    np.testing.assert_array_equal(support, np.flatnonzero(x))
                else:
                    assert support is None

    def test_reproducible_bit_exact(self, quad_problem):
        stochastic = dataclasses.replace(quad_problem, oracle_mode="column")
        config = SolverConfig(epsilon=0.05, seed=77)
        a = solve_adaptive(stochastic, config)
        b = solve_adaptive(stochastic, config)
        assert a.trace == b.trace
        np.testing.assert_array_equal(a.x_bar, b.x_bar)
        assert a.N == b.N and a.N_I == b.N_I and a.M_bar == b.M_bar

    def test_stochastic_run_constraint_guarantee(self, quad_problem):
        stochastic = dataclasses.replace(quad_problem, oracle_mode="column")
        for seed in range(5):
            result = solve_adaptive(stochastic, SolverConfig(epsilon=0.05, seed=seed))
            assert result.stop_reason == CRITERION_MET
            assert quad_problem.constraint_value(result.x_bar) <= 0.05

    def test_check_invariants_passes_on_fixture(self, quad_problem):
        # the run's invariants, checked after the fact by the analysis checks
        config = SolverConfig(epsilon=0.05)
        result = solve_adaptive(quad_problem, config)
        assert result.stop_reason == CRITERION_MET
        assert all(on_simplex(st.x_next) for st in mirror_descent_steps(quad_problem, config))
        witness = quad_problem.feasible_witness
        assert min_step_residual(quad_problem, config, [witness]) >= -1e-8
        geom = quad_problem.geometry()
        assert telescoping_bound_check(result.trace, geom, quad_problem, witness).holds

    def test_step_makes_no_per_call_checks(self, monkeypatch):
        # inputs are checked when instances and configs are built, not per step
        bases = [
            load_fixture(QUADRATIC_N3),
            load_fixture(LINEAR_N2),
            generate_instance(15, m_count=6, density=0.2, seed=21),
        ]
        runs = []
        for base in bases:
            quadratic = isinstance(base.objective, QuadraticObjective)
            for kind in ("entropy", "euclidean"):
                for mode in ("exact", "column") if quadratic else ("exact",):
                    problem = dataclasses.replace(base, geometry_kind=kind, oracle_mode=mode)
                    bound = uniform_subgradient_bound(problem)
                    runs.append((solve_adaptive, problem, SolverConfig(epsilon=0.1, seed=1)))
                    fixed = SolverConfig(epsilon=0.1, variant=FIXED, fixed_M=bound)
                    runs.append((solve_fixed, problem, fixed))
        assert len(runs) == 20
        calls = []
        for module in (checks, geometry, oracle, problems, solver):
            for name in ("_check_vector", "on_simplex", "_as_distribution"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(calls, getattr(module, name)))
        for solve, problem, config in runs:
            assert solve(problem, config).stop_reason == CRITERION_MET
        assert calls == []

    @pytest.mark.parametrize("kind", ["entropy", "euclidean"])
    @pytest.mark.parametrize("mode", ["exact", "column"])
    def test_checks_do_not_grow_with_steps(self, kind, mode, monkeypatch):
        # the point and vector checks run at the boundary, never per step
        problem = generate_instance(
            15, m_count=6, density=0.2, seed=21, geometry=kind, oracle=mode)
        radius_sq = problem.geometry().radius_squared
        calls = []
        monkeypatch.setattr(oracle, "_check_point", counting(calls, oracle._check_point))
        monkeypatch.setattr(checks, "_check_vector", counting(calls, checks._check_vector))
        for make in (
            lambda steps: SolverConfig(epsilon=1e-3, max_iterations=steps, seed=1),
            # the fixed budget ceil(2 M^2 R^2 / eps^2) is about `steps`
            lambda steps: SolverConfig(
                epsilon=0.1, seed=1, variant=FIXED,
                fixed_M=0.1 * math.sqrt(steps / (2 * radius_sq))),
        ):
            counts, lengths = [], []
            for steps in (50, 500):
                calls.clear()
                config = make(steps)
                solve = solve_fixed if config.variant == FIXED else solve_adaptive
                lengths.append(solve(problem, config).N)
                counts.append(len(calls))
            assert lengths[1] > 5 * lengths[0]
            assert counts[0] == counts[1]

    def test_start_point_is_potential_minimizer(self, quad_problem):
        first = next(iter(mirror_descent_steps(quad_problem, SolverConfig(epsilon=0.05))))
        np.testing.assert_array_equal(first.x, dgf_minimizer(quad_problem.geometry()))


class TestSolveFixed:
    def test_exact_budget_unit_radius(self, linear_problem):
        euclidean = dataclasses.replace(linear_problem, geometry_kind="euclidean")
        config = SolverConfig(epsilon=0.1, variant=FIXED, fixed_M=1.0)
        result = solve_fixed(euclidean, config)
        assert result.N == 200
        assert len(result.trace) == 200
        assert result.stop_reason == CRITERION_MET

    def test_entropy_budget(self, linear_problem):
        # budget ceil(2 M^2 R^2 / eps^2) with R^2 = log 2 gives 2
        config = SolverConfig(epsilon=1.0, variant=FIXED, fixed_M=1.0)
        result = solve_fixed(linear_problem, config)
        assert result.N == 2
        assert all(rec.productive for rec in result.trace)

    def test_constant_stepsize(self, linear_problem):
        config = SolverConfig(epsilon=0.5, variant=FIXED, fixed_M=2.0)
        result = solve_fixed(linear_problem, config)
        assert {rec.h_k for rec in result.trace} == {0.5 / 4.0}

    def test_unusable_stepsize_rejected(self, linear_problem):
        # fixed_M^2 underflows to 0, so epsilon / fixed_M^2 has no finite value
        config = SolverConfig(epsilon=0.5, variant=FIXED, fixed_M=1e-200)
        with pytest.raises(ValueError):
            solve_fixed(linear_problem, config)

    def test_non_finite_prox_input_rejected(self):
        # h = 0.01 / 1e-308 is finite, but h times the sample norm 1e3 is not
        problem = dataclasses.replace(
            zero_gradient_problem(), objective=LinearObjective([1e3, 0.0])
        )
        config = SolverConfig(epsilon=0.01, variant=FIXED, fixed_M=1e-154)
        with pytest.raises(ValueError):
            solve_fixed(problem, config)

    def test_quadratic_accuracy(self, quad_problem, quad_reference):
        bound = uniform_subgradient_bound(quad_problem)
        config = SolverConfig(epsilon=0.1, variant=FIXED, fixed_M=bound)
        result = solve_fixed(quad_problem, config)
        gap = quad_problem.objective_value(result.x_bar) - quad_reference.f_star
        assert gap <= 0.1
        assert quad_problem.constraint_value(result.x_bar) <= 0.1

    def test_requires_bound(self, linear_problem):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.1, variant=FIXED)

    def test_variant_mismatch_rejected(self, linear_problem):
        with pytest.raises(ValueError):
            solve_fixed(linear_problem, SolverConfig(epsilon=0.1))


class TestTelescopingBound:
    def test_single_zero_gradient_step(self):
        problem = zero_gradient_problem()
        result = solve_adaptive(problem, SolverConfig(epsilon=0.5))
        report = telescoping_bound_check(
            result.trace, problem.geometry(), problem, problem.feasible_witness
        )
        assert report.lhs == 0.0
        assert report.rhs == 0.0
        assert report.holds

    def test_linear_run(self, linear_problem):
        result = solve_adaptive(linear_problem, SolverConfig(epsilon=0.05))
        report = telescoping_bound_check(
            result.trace, linear_problem.geometry(), linear_problem, np.array([1.0, 0.0])
        )
        assert report.holds

    def test_quadratic_run_with_grid_reference(self, quad_problem, quad_reference):
        result = solve_adaptive(quad_problem, SolverConfig(epsilon=0.05))
        report = telescoping_bound_check(
            result.trace, quad_problem.geometry(), quad_problem, quad_reference.x_star
        )
        assert report.holds

    def test_reference_must_be_feasible(self, quad_problem):
        result = solve_adaptive(quad_problem, SolverConfig(epsilon=0.05))
        with pytest.raises(ValueError):
            telescoping_bound_check(
                result.trace, quad_problem.geometry(), quad_problem, np.array([1.0, 0.0, 0.0])
            )

    def test_empty_trace_rejected(self, quad_problem):
        with pytest.raises(ValueError):
            telescoping_bound_check(
                [], quad_problem.geometry(), quad_problem, quad_problem.feasible_witness
            )


class TestMinStepResidual:
    def test_matches_direct_evaluation(self, quad_problem):
        config = SolverConfig(epsilon=0.2)
        geom = quad_problem.geometry()
        ref = quad_problem.feasible_witness
        f_ref = quad_problem.objective_value(ref)
        g_ref = quad_problem.constraint_value(ref)
        direct = math.inf
        for st_state in mirror_descent_steps(quad_problem, config):
            gap = (
                quad_problem.objective_value(st_state.x) - f_ref
                if st_state.productive
                else st_state.g_value - g_ref
            )
            direct = min(
                direct,
                mirror_step_residual(
                    geom, st_state.x, st_state.x_next, ref, st_state.gradient, st_state.h, gap
                ),
            )
        assert min_step_residual(quad_problem, config, [ref]) == pytest.approx(
            direct, rel=1e-12
        )

    def test_nonnegative_on_deterministic_runs(self, quad_problem, linear_problem):
        rng = np.random.default_rng(33)
        for problem in (quad_problem, linear_problem):
            refs = rng.dirichlet(np.ones(problem.dimension), size=10)
            assert min_step_residual(problem, SolverConfig(epsilon=0.1), refs) >= -1e-8

    def test_rejects_stochastic(self, quad_problem):
        stochastic = dataclasses.replace(quad_problem, oracle_mode="column")
        with pytest.raises(ValueError):
            min_step_residual(stochastic, SolverConfig(epsilon=0.1), [stochastic.feasible_witness])


class TestAdaptiveBoundOnGeneratedInstances:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_generated_instance_runs(self, seed):
        problem = generate_instance(6, m_count=4, density=0.5, margin=0.1, seed=seed)
        result = solve_adaptive(problem, SolverConfig(epsilon=0.1, seed=seed))
        assert result.stop_reason == CRITERION_MET
        assert problem.constraint_value(result.x_bar) <= 0.1
        m_hat = max(rec.M_k for rec in result.trace)
        bound = worst_case_iterations(m_hat, problem.geometry().radius, 0.1)
        assert result.N <= bound


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.1, variant="annealed")
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.1, max_iterations=0)
        with pytest.raises(ValueError):
            SolverConfig(epsilon=0.1, variant=FIXED, fixed_M=0.0)
        # a setting the variant's step would ignore
        with pytest.raises(ValueError, match="max_iterations .* fixed variant"):
            SolverConfig(epsilon=0.1, variant=FIXED, fixed_M=1.0, max_iterations=5)
        with pytest.raises(ValueError, match="fixed_M .* adaptive variant"):
            SolverConfig(epsilon=0.1, fixed_M=3.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError):
                SolverConfig(epsilon=bad)
            with pytest.raises(ValueError):
                SolverConfig(epsilon=0.1, variant=FIXED, fixed_M=bad)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"seed": 1.5}, "seed"),
            ({"seed": True}, "seed"),
            ({"seed": -1}, "seed"),
            ({"seed": 2**64}, "seed"),
            ({"max_iterations": 2.5}, "max_iterations"),
            ({"max_iterations": True}, "max_iterations"),
            ({"epsilon": True}, "epsilon"),
            ({"variant": FIXED, "fixed_M": True}, "fixed_M"),
        ],
        ids=["seed-real", "seed-bool", "seed-negative", "seed-2**64", "max_iterations-real",
             "max_iterations-bool", "epsilon-bool", "fixed_M-bool"],
    )
    def test_integers_and_reals_checked_at_the_boundary(self, fields, match):
        # each of these used to pass the config: a real seed or cap was
        # truncated or rounded up by the step, a bool counted as 1, and a
        # seed out of range failed only once the solve built its stream
        with pytest.raises(ValueError, match=match):
            SolverConfig(**{"epsilon": 0.1, **fields})

    def test_numpy_integers_and_reals_accepted(self, quad_problem):
        config = SolverConfig(epsilon=np.float64(0.2), seed=np.uint64(2**64 - 1),
                              max_iterations=np.int64(5))
        assert solve_adaptive(quad_problem, config).N <= 5
        fixed = SolverConfig(epsilon=1, variant=FIXED, fixed_M=np.float32(2.0))
        assert solve_fixed(quad_problem, fixed).stop_reason == CRITERION_MET

    def test_record_trace_off_keeps_result(self, quad_problem, monkeypatch):
        # trace rows take f from one value_batch call per block of
        # TRACE_BLOCK iterates; an untraced run evaluates the objective never
        value_calls = []
        batch_rows = []
        value_batch = QuadraticObjective.value_batch

        def counted_batch(objective, points):
            batch_rows.append(len(points))
            return value_batch(objective, points)

        value = counting(value_calls, QuadraticObjective.value)
        monkeypatch.setattr(QuadraticObjective, "value", value)
        monkeypatch.setattr(QuadraticObjective, "value_batch", counted_batch)
        # three full blocks and a partial one of 19 rows
        config = SolverConfig(epsilon=0.01, max_iterations=3 * TRACE_BLOCK + 19)
        on = solve_adaptive(quad_problem, config)
        assert on.N > TRACE_BLOCK
        assert value_calls == []
        assert len(batch_rows) == math.ceil(on.N / TRACE_BLOCK)
        assert max(batch_rows) <= TRACE_BLOCK
        assert sum(batch_rows) == on.N
        batch_rows.clear()
        off = solve_adaptive(quad_problem, dataclasses.replace(config, record_trace=False))
        assert value_calls == [] and batch_rows == []
        assert off.trace == []
        np.testing.assert_array_equal(on.x_bar, off.x_bar)
        assert (on.N, on.N_I, on.M_bar) == (off.N, off.N_I, off.M_bar)


def _trace_block_runs():
    quad = load_fixture(QUADRATIC_N3)
    column = dataclasses.replace(quad, oracle_mode="column")
    fixed = SolverConfig(epsilon=0.1, variant=FIXED, fixed_M=uniform_subgradient_bound(quad))
    generated = generate_instance(40, m_count=6, density=0.2, seed=3, oracle="column")
    return {
        "short": (quad, SolverConfig(epsilon=0.2), 11),
        "two-full-blocks": (
            quad, SolverConfig(epsilon=0.01, max_iterations=2 * TRACE_BLOCK), 2 * TRACE_BLOCK
        ),
        "partial-last-block": (quad, SolverConfig(epsilon=0.05), 211),
        "fixed": (quad, fixed, 124),
        "linear": (load_fixture(LINEAR_N2), SolverConfig(epsilon=0.05), 1110),
        "column": (column, SolverConfig(epsilon=0.1, seed=1), 160),
        "column-n40": (generated, SolverConfig(epsilon=0.1, seed=2), 2802),
    }


class TestTraceBlocks:
    """Trace f-values come from blocks of iterates; all else is the step's own."""

    RUNS = _trace_block_runs()

    @pytest.mark.parametrize("name", list(RUNS))
    def test_trace_matches_replay(self, name):
        problem, config, expected_n = self.RUNS[name]
        solve = solve_fixed if config.variant == FIXED else solve_adaptive
        traced = solve(problem, config)
        assert traced.N == expected_n
        assert traced.stop_reason == (CAP_REACHED if config.max_iterations else CRITERION_MET)
        steps = list(mirror_descent_steps(problem, config))
        assert [(r.k, r.productive, r.M_k, r.h_k, r.g_value) for r in traced.trace] == [
            (st.k, st.productive, st.M, st.h, st.g_value) for st in steps
        ]
        np.testing.assert_allclose(
            [r.f_value for r in traced.trace],
            [problem.objective_value(st.x) for st in steps],
            rtol=1e-12,
            atol=0,
        )
        untraced = solve(problem, dataclasses.replace(config, record_trace=False))
        np.testing.assert_array_equal(traced.x_bar, untraced.x_bar)
        assert (traced.N, traced.N_I, traced.M_bar, traced.M_max, traced.stop_reason) == (
            untraced.N, untraced.N_I, untraced.M_bar, untraced.M_max, untraced.stop_reason
        )
