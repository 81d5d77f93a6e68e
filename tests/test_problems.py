import dataclasses
import json

import numpy as np
import pytest

from asmd.geometry import dual_norm
from asmd.oracle import LinearObjective, MaxLinearConstraint, QuadraticObjective
from asmd.problems import (
    InstanceFormatError,
    InstanceValidationError,
    ProblemInstance,
    generate_instance,
    load_problem,
    problem_from_document,
    problem_to_document,
    reference_optimum,
    save_problem,
    uniform_subgradient_bound,
)

from conftest import assert_instances_equal


def tiny_linear_problem(geometry="entropy"):
    constraint = MaxLinearConstraint([([], [])], [1.0], 2)
    return ProblemInstance(
        name="tiny",
        dimension=2,
        objective=LinearObjective([0.0, 1.0]),
        constraint=constraint,
        geometry_kind=geometry,
        oracle_mode="exact",
        feasible_witness=np.array([0.5, 0.5]),
        margin=1.0,
    )


class TestGeneration:
    def test_regeneration_is_bit_identical(self):
        a = generate_instance(12, m_count=5, density=0.3, margin=0.1, seed=99)
        b = generate_instance(12, m_count=5, density=0.3, margin=0.1, seed=99)
        assert_instances_equal(a, b)

    def test_witness_slack_identity(self):
        for seed in range(10):
            p = generate_instance(8, m_count=4, density=0.4, margin=0.05, seed=seed)
            # the stored margin is the achieved slack, so the identity is exact
            assert p.constraint_value(p.feasible_witness) == -p.margin
            assert p.margin == pytest.approx(0.05, abs=1e-12)
            assert p.margin >= 0.05 / 2

    def test_shift_formula_by_hand(self):
        # direction (1, 0) shifted around witness (1/2, 1/2) with slack 0.1
        # gives the affine form x_1 - 0.6
        w = np.array([0.5, 0.5])
        idx, val = np.array([0]), np.array([1.0])
        offset = float(np.dot(val, w[idx])) + 0.1
        c = MaxLinearConstraint([(idx, val)], [offset], 2)
        assert c.value(np.array([1.0, 0.0])) == pytest.approx(0.4, abs=1e-15)
        assert c.value(np.array([0.0, 1.0])) == pytest.approx(-0.6, abs=1e-15)
        assert c.value(w) == pytest.approx(-0.1, abs=1e-15)
        # the achieved slack is what generated instances store as the margin
        assert c.value(w) == -(offset - float(np.dot(val, w[idx])))

    def test_symmetric_matrix(self):
        p = generate_instance(10, seed=3)
        assert not p.objective.symmetrized
        np.testing.assert_array_equal(p.objective.matrix, p.objective.matrix.T)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            generate_instance(1)
        with pytest.raises(ValueError):
            generate_instance(4, m_count=0)
        with pytest.raises(ValueError):
            generate_instance(4, density=0.0)
        with pytest.raises(ValueError):
            generate_instance(4, margin=0.0)


class TestValidation:
    def test_witness_must_satisfy_constraint(self):
        c = MaxLinearConstraint([([0], [1.0])], [-1.0], 2)  # x_0 + 1 > 0 everywhere
        with pytest.raises(InstanceValidationError):
            ProblemInstance(
                name="bad",
                dimension=2,
                objective=LinearObjective([0.0, 1.0]),
                constraint=c,
                geometry_kind="entropy",
                oracle_mode="exact",
                feasible_witness=np.array([0.5, 0.5]),
                margin=0.1,
            )

    def test_column_mode_needs_quadratic(self):
        p = tiny_linear_problem()
        with pytest.raises(InstanceValidationError):
            dataclasses.replace(p, oracle_mode="column")

    def test_dimension_consistency(self):
        p = tiny_linear_problem()
        with pytest.raises(InstanceValidationError):
            dataclasses.replace(p, feasible_witness=np.array([0.2, 0.3, 0.5]))

    def test_unknown_kinds(self):
        p = tiny_linear_problem()
        with pytest.raises(InstanceValidationError):
            dataclasses.replace(p, geometry_kind="spectrahedron")
        with pytest.raises(InstanceValidationError):
            dataclasses.replace(p, oracle_mode="hessian")

    @pytest.mark.parametrize("kind", ["entropy", "euclidean"])
    def test_geometry_takes_the_file_kind(self, kind, quad_problem, linear_problem):
        for base in (quad_problem, linear_problem):
            p = dataclasses.replace(base, geometry_kind=kind)
            assert p.geometry().kind == p.geometry_kind == kind
            assert p.geometry().dimension == p.dimension

    def test_entropy_needs_two_coordinates(self):
        doc = problem_to_document(tiny_linear_problem())
        doc.update(n=1, witness=[1.0], objective={"type": "linear", "c": [0.5]})
        with pytest.raises(InstanceValidationError, match="n >= 2"):
            problem_from_document(doc)
        doc["geometry"] = "euclidean"
        assert problem_from_document(doc).geometry().radius == 1.0


class TestFileRoundTrip:
    def test_round_trip_generated(self, tmp_path):
        p = generate_instance(9, m_count=3, density=0.5, seed=5, oracle="column")
        path = tmp_path / "instance.json"
        save_problem(p, path)
        assert_instances_equal(load_problem(path), p)

    def test_round_trip_linear(self, tmp_path):
        p = tiny_linear_problem()
        path = tmp_path / "lin.json"
        save_problem(p, path)
        assert_instances_equal(load_problem(path), p)

    def test_save_is_deterministic(self, tmp_path):
        p = generate_instance(6, seed=8)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        save_problem(p, a)
        save_problem(p, b)
        assert a.read_bytes() == b.read_bytes()

    def test_triplet_matrix_loading(self, tmp_path):
        p = tiny_linear_problem()
        doc = problem_to_document(p)
        doc["objective"] = {"type": "quadratic", "triplets": [[0, 1, 0.5], [1, 0, 0.5]]}
        loaded = problem_from_document(doc)
        np.testing.assert_array_equal(loaded.objective.matrix, [[0.0, 0.5], [0.5, 0.0]])

    def test_asymmetric_matrix_is_symmetrized_with_flag(self):
        doc = problem_to_document(tiny_linear_problem())
        doc["objective"] = {"type": "quadratic", "A": [[0.0, 1.0], [0.0, 0.0]]}
        loaded = problem_from_document(doc)
        assert loaded.objective.symmetrized
        np.testing.assert_array_equal(loaded.objective.matrix, [[0.0, 0.5], [0.5, 0.0]])

    def test_missing_field_names_the_field(self):
        doc = problem_to_document(tiny_linear_problem())
        del doc["witness"]
        with pytest.raises(InstanceFormatError, match="witness"):
            problem_from_document(doc)

    def test_missing_offsets_named(self):
        doc = problem_to_document(tiny_linear_problem())
        del doc["constraints"]["offsets"]
        with pytest.raises(InstanceFormatError, match="offsets"):
            problem_from_document(doc)

    def test_dimension_inconsistency_is_validation_error(self):
        doc = problem_to_document(tiny_linear_problem())
        doc["objective"]["c"] = [0.0, 1.0, 2.0]
        with pytest.raises(InstanceValidationError):
            problem_from_document(doc)

    def test_not_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InstanceFormatError):
            load_problem(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_problem(tmp_path / "absent.json")

    def test_file_is_plain_json(self, tmp_path):
        p = generate_instance(5, seed=1)
        path = tmp_path / "plain.json"
        save_problem(p, path)
        doc = json.loads(path.read_text())
        assert doc["n"] == 5
        assert doc["geometry"] == "entropy"


class TestReferenceOptimum:
    def test_linear_vertex_optimum(self):
        ref = reference_optimum(tiny_linear_problem(), 1e-3)
        assert ref.f_star == 0.0
        np.testing.assert_array_equal(ref.x_star, [1.0, 0.0])

    def test_quadratic_center_optimum(self):
        p = ProblemInstance(
            name="identity",
            dimension=2,
            objective=QuadraticObjective(np.eye(2)),
            constraint=MaxLinearConstraint([([], [])], [1.0], 2),
            geometry_kind="euclidean",
            oracle_mode="exact",
            feasible_witness=np.array([0.5, 0.5]),
            margin=1.0,
        )
        ref = reference_optimum(p, 1e-3)
        assert ref.f_star == pytest.approx(0.25, abs=1e-12)
        np.testing.assert_allclose(ref.x_star, [0.5, 0.5], atol=1e-12)

    def test_no_feasible_grid_point(self):
        # feasible set is a narrow band around x_0 = 1/3 that a coarse grid misses
        c = MaxLinearConstraint(
            [([0], [1.0]), ([0], [-1.0])],
            [1.0 / 3.0 + 0.01, -(1.0 / 3.0) + 0.01],
            2,
        )
        w = np.array([1.0 / 3.0, 2.0 / 3.0])
        p = ProblemInstance(
            name="needle",
            dimension=2,
            objective=LinearObjective([1.0, 0.0]),
            constraint=c,
            geometry_kind="entropy",
            oracle_mode="exact",
            feasible_witness=w,
            margin=0.01,
        )
        assert reference_optimum(p, 1e-3).feasible_points > 0
        with pytest.raises(InstanceValidationError):
            reference_optimum(p, 0.5)

    def test_refining_never_degrades(self, quad_problem):
        coarse = reference_optimum(quad_problem, 2e-2)
        fine = reference_optimum(quad_problem, 1e-2)
        assert fine.f_star <= coarse.f_star + 1e-12

    def test_dimension_cap(self):
        p = generate_instance(5, seed=2)
        with pytest.raises(ValueError):
            reference_optimum(p)

    def test_n4_default_resolution_runs(self):
        p = generate_instance(4, m_count=2, density=0.5, margin=0.2, seed=11)
        ref = reference_optimum(p)
        assert ref.resolution == 1e-2
        assert p.constraint_value(ref.x_star) <= 0.0


class TestUniformBound:
    def test_bound_dominates_observed_norms(self, quad_problem):
        from asmd.solver import SolverConfig, solve_adaptive

        bound = uniform_subgradient_bound(quad_problem)
        result = solve_adaptive(quad_problem, SolverConfig(epsilon=0.05))
        assert max(rec.M_k for rec in result.trace) <= bound + 1e-12

    def test_linear_bound(self):
        p = tiny_linear_problem()
        assert uniform_subgradient_bound(p) == 1.0

    @pytest.mark.parametrize("kind", ["entropy", "euclidean"])
    def test_rows_give_the_columnwise_bound_bit_for_bit(self, kind, quad_problem, linear_problem):
        # reference: the checked dual norm over the matrix's columns
        def columnwise(p):
            geom = p.geometry()
            if isinstance(p.objective, QuadraticObjective):
                obj = max(dual_norm(geom, col) for col in p.objective.matrix.T)
            else:
                obj = dual_norm(geom, p.objective.coefficients)
            return max(obj, max(dual_norm(geom, row) for row in p.constraint.directions))

        bases = [quad_problem, linear_problem] + [
            generate_instance(n, m_count=5, density=density, seed=seed)
            for n, density, seed in ((7, 0.5, 1), (60, 0.1, 2), (301, 0.3, 3))
        ]
        for base in bases:
            p = dataclasses.replace(base, geometry_kind=kind)
            assert uniform_subgradient_bound(p) == columnwise(p)
