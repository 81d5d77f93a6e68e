import base64
import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest

from asmd import oracle
from asmd.checks import dual_norm
from asmd.geometry import DUAL_NORM_KERNELS
from asmd.oracle import ROW_BLOCK, LinearObjective, MaxLinearConstraint, QuadraticObjective
from asmd.fixtures import LINEAR_N2, QUADRATIC_N3, fixture_path, load_fixture
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
from asmd.serialize import canonical_json
from asmd.solver import SolverConfig, solve_adaptive

from conftest import (
    BAD_PACKED,
    REMOVED_FORMS,
    assert_instances_equal,
    dense_text_json,
    pack,
    packed_objective,
    traced_peak,
)


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


def whole_matrix_generation(n, m_count=10, density=0.1, margin=0.05, seed=0):
    """The matrix, terms, offsets, witness and margin ``generate_instance``
    draws, by the whole-matrix formula it replaced: one n x n masked draw
    and ``0.5 * (b + b.T)``."""
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((n, n)) * (rng.random((n, n)) < density)
    matrix = 0.5 * (b + b.T)
    terms = []
    for _ in range(m_count):
        vals = rng.standard_normal(n)
        idx = np.flatnonzero(rng.random(n) < density)
        terms.append((idx, vals[idx]))
    witness = rng.dirichlet(np.ones(n))
    offsets = [float(np.dot(val, witness[idx])) + margin for idx, val in terms]
    achieved = -MaxLinearConstraint(terms, offsets, n).value(witness)
    return matrix, terms, offsets, witness, achieved


# sha256 of canonical_json(problem_to_document(p)), and of the file
# save_problem streams, for the benchmark's instance pools, taken from the
# whole-matrix generator; the n = 2000 column instance is also the bytes
# ``asmd gen --n 2000 --m 10 --density 0.1 --seed 7 --oracle column`` writes
POOL_DIGESTS = [
    pytest.param(dict(n=50, m_count=10, density=0.1, seed=7),
                 "29f0a85a89335c837edc9c78df988478c3980e56d4d40c7eee3ac0279e2675c7", id="n50-7"),
    pytest.param(dict(n=50, m_count=10, density=0.1, seed=8),
                 "d365ae1c1d2c1b05dfd9bf54103afaf003dd2af07530190cd32086d38aee32e2", id="n50-8"),
    pytest.param(dict(n=50, m_count=10, density=0.1, seed=9),
                 "b54155bba5a3566f328293aedee7eeca6c7dd17853e4f0591dbb983aeb0c1904", id="n50-9"),
    pytest.param(dict(n=50, m_count=10, density=0.1, seed=10),
                 "9f85edea47291e084e8a2ceca058fdefe552432c3f55feb4523d728cc090098c", id="n50-10"),
    pytest.param(dict(n=500, m_count=200, density=0.1, seed=7, geometry="euclidean"),
                 "91db9295e6f8d7e89a34fc6bd691534732e0eb68f9814b96e847c35bf0975dea",
                 id="n500-m200-7"),
    pytest.param(dict(n=2000, m_count=10, density=0.1, seed=7, oracle="column"),
                 "fe59232dd83937005e45b634988b59d09d84a6088b1b63ca14b5a9996bfb74b1",
                 id="n2000-column-7"),
]


class TestGeneration:
    @pytest.mark.parametrize("geometry", ["entropy", "euclidean"])
    @pytest.mark.parametrize("n", [2, 3, 127, 128, 129, 300])
    def test_matches_the_whole_matrix_formula(self, n, geometry):
        # the in-place strips keep every bit, signed zeros included
        p = generate_instance(n, m_count=4, density=0.3, seed=n, geometry=geometry)
        matrix, terms, offsets, witness, margin = whole_matrix_generation(
            n, m_count=4, density=0.3, seed=n)
        assert p.objective.matrix.tobytes() == matrix.tobytes()
        assert p.constraint.count == len(terms)
        for (idx, val), (ref_idx, ref_val) in zip(p.constraint.terms, terms):
            assert np.array_equal(idx, ref_idx)
            assert val.tobytes() == ref_val.tobytes()
        assert p.constraint.offsets.tobytes() == np.array(offsets).tobytes()
        assert p.feasible_witness.tobytes() == witness.tobytes()
        assert repr(p.margin) == repr(margin)

    def test_matrix_holds_signed_zeros(self):
        # the bit check above must see both zeros, or it would not test them
        matrix = generate_instance(300, density=0.3, seed=300).objective.matrix
        zeros = matrix[matrix == 0]
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()

    @pytest.mark.parametrize("arguments, digest", POOL_DIGESTS)
    def test_pool_documents_keep_their_digests(self, arguments, digest):
        text = canonical_json(problem_to_document(generate_instance(**arguments)))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("arguments, digest", POOL_DIGESTS)
    def test_pool_files_keep_their_digests(self, arguments, digest, tmp_path):
        path = tmp_path / "instance.json"
        save_problem(generate_instance(**arguments), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_adopts_the_matrix_without_the_symmetry_scan(self, monkeypatch):
        scans = []
        is_symmetric = oracle._is_symmetric
        monkeypatch.setattr(oracle, "_is_symmetric", lambda a: scans.append(a) or is_symmetric(a))
        p = generate_instance(300, seed=5)
        assert scans == []
        assert not p.objective.symmetrized
        assert not p.objective.matrix.flags.writeable

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

    def test_column_mode_needs_quadratic(self, linear_problem):
        # built or loaded, a linear objective has no column to serve
        for p in (tiny_linear_problem(), linear_problem):
            with pytest.raises(InstanceValidationError, match="column sampling needs a quadratic"):
                dataclasses.replace(p, oracle_mode="column")
        doc = json.loads(fixture_path(LINEAR_N2).read_text(encoding="utf-8"))
        doc["oracle"] = "column"
        with pytest.raises(InstanceValidationError, match="column sampling needs a quadratic"):
            problem_from_document(doc)

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

    def test_fields_are_frozen(self):
        p = tiny_linear_problem()
        for field, value in (("oracle_mode", "column"), ("geometry_kind", "box"), ("margin", 2.0)):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(p, field, value)
        with pytest.raises(ValueError):
            p.feasible_witness[0] = 1.0
        assert (p.oracle_mode, p.margin) == ("exact", 1.0)
        np.testing.assert_array_equal(p.feasible_witness, [0.5, 0.5])

    def test_replace_validates_again(self):
        p = tiny_linear_problem()
        for field, value in (("oracle_mode", "column"), ("geometry_kind", "box"), ("margin", -1.0)):
            with pytest.raises(InstanceValidationError):
                dataclasses.replace(p, **{field: value})
        assert dataclasses.replace(p, geometry_kind="euclidean").geometry_kind == "euclidean"

    def test_witness_is_a_copy(self):
        w = np.array([0.5, 0.5])
        p = dataclasses.replace(tiny_linear_problem(), feasible_witness=w)
        assert w.flags.writeable and not p.feasible_witness.flags.writeable
        w[0] = 2.0
        assert p.feasible_witness[0] == 0.5

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

    def test_dense_text_loads_to_the_same_instance(self, tmp_path):
        # the bundled quadratic as the dense "A" form wrote it
        dense = tmp_path / "dense.json"
        dense.write_text(DENSE_QUADRATIC_N3, encoding="utf-8")
        loaded, fixture = load_problem(dense), load_fixture(QUADRATIC_N3)
        assert_instances_equal(loaded, fixture)
        assert loaded.objective.matrix.tobytes() == fixture.objective.matrix.tobytes()

    def test_document_with_arrays_loads(self):
        p = generate_instance(7, m_count=3, density=0.5, seed=4)
        doc = problem_to_document(p)
        # the matrix is packed to raw bytes; the constraint rows stay arrays
        packed = doc["objective"]["packed"]
        assert set(packed) == {"counts", "indices", "values"}
        assert all(isinstance(blob, memoryview) for blob in packed.values())
        assert isinstance(doc["constraints"]["sparse"][0]["indices"], np.ndarray)
        assert_instances_equal(problem_from_document(doc), p)

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


@pytest.mark.parametrize(
    "objective", REMOVED_FORMS + [pytest.param({"type": "quadratic"}, id="no-matrix")])
def test_removed_matrix_forms_are_refused(objective):
    doc = problem_to_document(tiny_linear_problem())
    doc["objective"] = objective
    with pytest.raises(InstanceFormatError, match=r"'objective' needs 'packed' or 'A'$"):
        problem_from_document(doc)


def test_upper_scatters_both_halves():
    doc = problem_to_document(tiny_linear_problem())
    doc["objective"] = packed_objective(counts=pack([2, 0], "<i4"), indices=pack([0, 1], "<i4"),
                                        values=pack([2.0, -0.5], "<f8"))
    matrix = problem_from_document(doc).objective.matrix
    np.testing.assert_array_equal(matrix, [[2.0, -0.5], [-0.5, 0.0]])


def test_upper_mirror_is_the_two_scatter_formula():
    # three strips, with explicit zeros of both signs, against the reference
    # that scatters each entry to (i, j) and then to (j, i)
    n = 2 * ROW_BLOCK + 3
    rng = np.random.default_rng(4)
    doc = problem_to_document(generate_instance(n, seed=4))
    counts, rows, cols, values = [], [], [], []
    for i in range(n):
        idx = np.flatnonzero(rng.random(n - i) < 0.2) + i
        val = rng.standard_normal(idx.size)
        val[rng.random(idx.size) < 0.2] = -0.0
        val[rng.random(idx.size) < 0.1] = 0.0
        counts.append(idx.size)
        rows += [i] * idx.size
        cols += idx.tolist()
        values += val.tolist()
    expected = np.zeros((n, n))
    expected[rows, cols] = values
    expected[cols, rows] = values
    assert np.signbit(expected[expected == 0]).any()
    doc["objective"] = packed_objective(counts=pack(counts, "<i4"), indices=pack(cols, "<i4"),
                                        values=pack(values, "<f8"))
    matrix = problem_from_document(doc).objective.matrix
    assert matrix.tobytes() == expected.tobytes()


@pytest.mark.parametrize("edits, error, key", BAD_PACKED)
def test_packed_rejections(edits, error, key):
    doc = problem_to_document(tiny_linear_problem())
    doc["objective"] = packed_objective(**edits)
    with pytest.raises(ValueError, match=re.escape(f"'objective.packed.{key}'")) as info:
        problem_from_document(doc)
    assert type(info.value) is error


def test_packed_needs_every_blob():
    doc = problem_to_document(tiny_linear_problem())
    doc["objective"] = packed_objective()
    np.testing.assert_array_equal(problem_from_document(doc).objective.matrix, [[2, 0], [0, 3]])
    del doc["objective"]["packed"]["values"]
    with pytest.raises(InstanceFormatError, match=r"'objective\.packed\.values' is missing"):
        problem_from_document(doc)


def _edit(doc, path, value):
    *keys, last = path
    target = doc
    for key in keys:
        target = target[key]
    target[last] = value


BAD_REALS = [
    pytest.param(("objective",), {"type": "linear", "c": [True, "1.5"]}, "objective.c",
                 "bool, str", id="c"),
    pytest.param(("objective",), {"type": "quadratic", "A": [[1.0, True], [True, 1.0]]},
                 "objective.A", "bool", id="dense-A"),
    pytest.param(("constraints", "sparse", 0), {"indices": [0], "values": ["1"]},
                 "constraints.sparse[0].values", "str", id="constraint-values"),
    pytest.param(("constraints", "offsets"), [True], "constraints.offsets", "bool", id="offsets"),
    pytest.param(("witness",), ["0.5", 0.5], "witness", "str", id="witness-string"),
    pytest.param(("witness",), [[0.5, 0.5]], "witness", "list", id="witness-nested"),
    pytest.param(("margin",), "1", "margin", "'1'", id="margin-string"),
    pytest.param(("margin",), True, "margin", "True", id="margin-bool"),
]


@pytest.mark.parametrize("path, value, field, shown", BAD_REALS)
def test_non_reals_are_rejected(path, value, field, shown):
    # a float() cast would read true as 1.0 and "1.5" as 1.5, a different problem
    text = json.dumps(problem_to_document(tiny_linear_problem()), default=np.ndarray.tolist)
    doc = json.loads(text)
    _edit(doc, path, value)
    with pytest.raises(InstanceFormatError, match=re.escape(f"'{field}'")) as info:
        problem_from_document(doc)
    assert shown in str(info.value)


def _solve_bytes(p):
    result = solve_adaptive(p, SolverConfig(epsilon=0.05, seed=3, max_iterations=300))
    trace = np.array(
        [(r.k, r.productive, r.M_k, r.h_k, r.g_value, r.f_value) for r in result.trace]
    )
    return result.N, result.N_I, result.x_bar.tobytes(), trace.tobytes()


def linear_instance():
    p = generate_instance(40, m_count=3, seed=11)
    coefficients = np.random.default_rng(11).standard_normal(40)
    return dataclasses.replace(p, objective=LinearObjective(coefficients))


STREAMED_INSTANCES = [
    pytest.param(lambda: load_fixture(QUADRATIC_N3), id="quadratic-fixture"),
    pytest.param(lambda: load_fixture(LINEAR_N2), id="linear-fixture"),
    pytest.param(linear_instance, id="linear-n40"),
] + [
    pytest.param(lambda n=n, g=g: generate_instance(n, m_count=4, density=0.3, seed=n, geometry=g),
                 id=f"n{n}-{g}")
    for n in (2, 3, 127, 128, 129, 300) for g in ("entropy", "euclidean")
]


def triu_blobs(matrix):
    """The three packed blobs of a symmetric matrix, built from the whole
    upper triangle at once: the entries of ``np.nonzero(np.triu(matrix))``."""
    rows, cols = np.nonzero(np.triu(matrix))
    return {
        "counts": np.bincount(rows, minlength=matrix.shape[0]).astype("<i4").tobytes(),
        "indices": cols.astype("<i4").tobytes(),
        "values": matrix[rows, cols].astype("<f8").tobytes(),
    }


class TestCompactFiles:
    """The ``packed`` form loses nothing a solve can see, and stays compact."""

    @pytest.mark.parametrize("oracle", ["exact", "column"])
    @pytest.mark.parametrize("geometry", ["entropy", "euclidean"])
    @pytest.mark.parametrize("n", [2, 3, 50, 300])
    def test_round_trip(self, n, geometry, oracle, tmp_path):
        p = generate_instance(n, seed=n, geometry=geometry, oracle=oracle)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save_problem(p, first)
        q = load_problem(first)
        # masked -0.0 entries come back as +0.0; nothing else changes
        assert (q.objective.matrix == p.objective.matrix).all()
        assert np.abs(q.objective.matrix).tobytes() == np.abs(p.objective.matrix).tobytes()
        save_problem(q, second)
        assert second.read_bytes() == first.read_bytes()
        assert _solve_bytes(q) == _solve_bytes(p)

    @pytest.mark.parametrize("make", STREAMED_INSTANCES)
    def test_streamed_file_is_the_document_text(self, make, tmp_path):
        # the file save_problem streams is the text of the document in memory,
        # whose raw blobs load without the text as well
        p = make()
        path = tmp_path / "instance.json"
        save_problem(p, path)
        doc = problem_to_document(p)
        assert path.read_bytes() == canonical_json(doc).encode("utf-8")
        assert_instances_equal(problem_from_document(doc), p)

    def test_file_holds_the_upper_triangle_only(self, tmp_path):
        p = generate_instance(300, seed=5)
        path = tmp_path / "instance.json"
        save_problem(p, path)
        objective = json.loads(path.read_text())["objective"]
        assert set(objective) == {"type", "packed"}
        counts = np.frombuffer(base64.b64decode(objective["packed"]["counts"]), "<i4")
        stored = np.frombuffer(base64.b64decode(objective["packed"]["values"]), "<f8").size
        assert counts.sum() == stored == np.count_nonzero(np.triu(p.objective.matrix)) > 0

    @pytest.mark.parametrize(
        "n, seed", [(2, 0), (3, 1), (50, 7), (128, 2), (129, 3), (257, 4), (300, 5)])
    def test_packed_blobs_hold_the_text_rows(self, n, seed):
        # the same entries, in the same order, as the rows of np.triu
        p = generate_instance(n, seed=seed)
        packed = problem_to_document(p)["objective"]["packed"]
        assert {key: bytes(blob) for key, blob in packed.items()} == triu_blobs(p.objective.matrix)

    @pytest.mark.parametrize("n, strip", [(1, None), (2, None), (127, None), (128, None),
                                          (129, None), (257, None), (257, "zero"), (257, "dense")])
    def test_packed_blobs_at_strip_edges(self, n, strip, tmp_path):
        # a symmetric matrix with zeros of both signs; "zero" empties the
        # second strip of ROW_BLOCK rows, and "dense" leaves no zero in the first
        rng = np.random.default_rng(n)
        upper = np.triu(rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3))
        upper[(upper == 0) & (rng.random((n, n)) < 0.5)] = -0.0
        matrix = upper + np.triu(upper, 1).T
        if strip == "zero":
            matrix[ROW_BLOCK:2 * ROW_BLOCK] = matrix[:, ROW_BLOCK:2 * ROW_BLOCK] = 0.0
        if strip == "dense":
            fill = 1.0 + np.arange(n)
            matrix[:ROW_BLOCK], matrix[:, :ROW_BLOCK] = fill, fill[:, None]
            matrix[:ROW_BLOCK, :ROW_BLOCK] = 2.0
        assert np.array_equal(matrix, matrix.T)
        p = ProblemInstance(
            name="strips",
            dimension=n,
            objective=QuadraticObjective(matrix),
            constraint=MaxLinearConstraint([([], [])], [1.0], n),
            geometry_kind="euclidean",
            oracle_mode="exact",
            feasible_witness=np.full(n, 1.0 / n),
            margin=1.0,
        )
        packed = problem_to_document(p)["objective"]["packed"]
        assert {key: bytes(blob) for key, blob in packed.items()} == triu_blobs(matrix)
        path = tmp_path / "instance.json"
        save_problem(p, path)
        assert load_problem(path).objective.matrix.tobytes() == (matrix + 0.0).tobytes()

    def test_text_forms_load_to_the_packed_bits(self, tmp_path):
        # the bundled quadratic in the dense text form, then a generated one as
        # its packed file loads, with +0.0 zeros, which the packed form keeps
        assert dense_text_json(load_fixture(QUADRATIC_N3)) == DENSE_QUADRATIC_N3
        generated = problem_from_document(problem_to_document(generate_instance(300, seed=5)))
        for text, expected in ((DENSE_QUADRATIC_N3, load_fixture(QUADRATIC_N3)),
                               (dense_text_json(generated), generated)):
            text_path, packed_path = tmp_path / "text.json", tmp_path / "packed.json"
            text_path.write_text(text, encoding="utf-8")
            q = load_problem(text_path)
            save_problem(q, packed_path)
            assert "packed" in json.loads(packed_path.read_text())["objective"]
            r = load_problem(packed_path)
            assert q.objective.matrix.tobytes() == r.objective.matrix.tobytes()
            assert_instances_equal(q, r)
            assert_instances_equal(r, expected)

    def test_upper_forms_skip_the_symmetry_scan(self, tmp_path, monkeypatch):
        # the scatter and mirror build a finite, exactly symmetric matrix, which the
        # objective takes as it is; a dense "A" still goes through the checks
        p = generate_instance(50, seed=3)
        assert np.signbit(p.objective.matrix[p.objective.matrix == 0]).any()
        packed_path, text_path = tmp_path / "packed.json", tmp_path / "text.json"
        save_problem(p, packed_path)
        text_path.write_text(dense_text_json(p), encoding="utf-8")
        scans = []
        is_symmetric = oracle._is_symmetric
        monkeypatch.setattr(oracle, "_is_symmetric", lambda a: scans.append(a) or is_symmetric(a))
        q = load_problem(packed_path)
        assert not q.objective.symmetrized
        assert not q.objective.matrix.flags.writeable
        assert q.objective.matrix.tobytes() == (p.objective.matrix + 0.0).tobytes()
        assert scans == []
        q = load_problem(text_path)
        assert len(scans) == 1 and not q.objective.symmetrized
        assert q.objective.matrix.tobytes() == p.objective.matrix.tobytes()

    def test_edge_values_keep_their_bits(self, tmp_path, monkeypatch):
        sub = 2.2250738585072014e-308 / 4  # subnormal
        matrix = np.array([
            [-0.0, 5e-324, 1e308, 3.0],
            [5e-324, 0.0, -1e308, -0.0],
            [1e308, -1e308, sub, -sub],
            [3.0, -0.0, -sub, -7.0],
        ])
        p = ProblemInstance(
            name="edges",
            dimension=4,
            objective=QuadraticObjective(matrix),
            constraint=MaxLinearConstraint([([], [])], [1.0], 4),
            geometry_kind="euclidean",
            oracle_mode="exact",
            feasible_witness=np.full(4, 0.25),
            margin=1.0,
        )
        # packed zeros of either sign come back as +0.0, and every other entry
        # keeps its bits; the dense text keeps every entry's bits, -0.0 too
        packed_path, text_path, again = (tmp_path / name for name in ("p.json", "t.json", "a.json"))
        save_problem(p, packed_path)
        text_path.write_text(dense_text_json(p), encoding="utf-8")
        scans = []
        is_symmetric = oracle._is_symmetric
        monkeypatch.setattr(oracle, "_is_symmetric", lambda a: scans.append(a) or is_symmetric(a))
        assert load_problem(packed_path).objective.matrix.tobytes() == (matrix + 0.0).tobytes()
        assert scans == []
        assert load_problem(text_path).objective.matrix.tobytes() == matrix.tobytes()
        assert len(scans) == 1
        save_problem(load_problem(packed_path), again)
        assert again.read_bytes() == packed_path.read_bytes()


class TestPeakMemory:
    """Peaks at n = 2000 as multiples of the 8 n^2 bytes of the matrix.

    Generation builds the matrix in place, masking it in strips of
    ``ROW_BLOCK`` rows and symmetrizing it in tiles of that edge, and peaks
    at about 1.09 times it (1.15 with strips; the whole-matrix formula took
    3.15). Writing peaks at 0.24 times it over the live instance, in the
    packed arrays, since the document's text is streamed to the file a
    chunk at a time (it held the whole text at 0.77). Loading peaks at 1.47, its result included. The write and load
    bounds allow 10% more.
    """

    N = 2000
    MATRIX_BYTES = 8 * N * N

    def test_generation_holds_one_matrix(self):
        _, peak = traced_peak(lambda: generate_instance(self.N, seed=7, oracle="column"))
        assert peak <= 1.25 * self.MATRIX_BYTES

    def test_save_and_load(self, tmp_path):
        instance = generate_instance(self.N, seed=7, oracle="column")
        path = tmp_path / "instance.json"
        _, peak = traced_peak(lambda: save_problem(instance, path))
        assert peak <= 1.1 * 0.24 * self.MATRIX_BYTES
        loaded, peak = traced_peak(lambda: load_problem(path))
        assert peak <= 1.1 * 1.47 * self.MATRIX_BYTES
        assert loaded.objective.matrix.nbytes == self.MATRIX_BYTES


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


def zero_quadratic(sign):
    """An all-zero quadratic, of either sign, under a constraint whose one
    direction is zero, so that the bound is the objective's part alone."""
    return ProblemInstance(
        name="zero",
        dimension=4,
        objective=QuadraticObjective(np.full((4, 4), sign)),
        constraint=MaxLinearConstraint([([], [])], [0.0], 4),
        geometry_kind="entropy",
        oracle_mode="exact",
        feasible_witness=np.full(4, 0.25),
        margin=0.0,
    )


UNIFORM_BOUND_INSTANCES = [
    pytest.param(lambda: load_fixture(QUADRATIC_N3), id="quadratic-fixture"),
    pytest.param(lambda: load_fixture(LINEAR_N2), id="linear-fixture"),
    pytest.param(lambda: zero_quadratic(0.0), id="zero"),
    pytest.param(lambda: zero_quadratic(-0.0), id="minus-zero"),
] + [
    pytest.param(lambda arguments=param.values[0]: generate_instance(**arguments), id=param.id)
    for param in POOL_DIGESTS
]


class TestUniformBound:
    def test_bound_dominates_observed_norms(self, quad_problem):
        from asmd.solver import SolverConfig, solve_adaptive

        bound = uniform_subgradient_bound(quad_problem)
        result = solve_adaptive(quad_problem, SolverConfig(epsilon=0.05))
        assert max(rec.M_k for rec in result.trace) <= bound + 1e-12

    def test_linear_bound(self):
        p = tiny_linear_problem()
        assert uniform_subgradient_bound(p) == 1.0

    @pytest.mark.parametrize("make", UNIFORM_BOUND_INSTANCES)
    @pytest.mark.parametrize("kind", ["entropy", "euclidean"])
    def test_matches_the_per_row_loop(self, kind, make):
        # the same float, sign of zero included, as the kernel over every row
        p = dataclasses.replace(make(), geometry_kind=kind)
        norm = DUAL_NORM_KERNELS[kind]
        if isinstance(p.objective, QuadraticObjective):
            obj = max(norm(row) for row in p.objective.matrix)
        else:
            obj = norm(p.objective.coefficients)
        expected = max(obj, max(norm(row) for row in p.constraint.directions))
        assert repr(uniform_subgradient_bound(p)) == repr(expected)

    @pytest.mark.parametrize("kind", ["entropy", "euclidean"])
    def test_allocates_no_matrix_temporary(self, kind):
        p = generate_instance(2000, seed=7, oracle="column", geometry=kind)
        _, peak = traced_peak(lambda: uniform_subgradient_bound(p))
        assert peak < 0.01 * 8 * 2000 * 2000

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


DENSE_QUADRATIC_N3 = """{
  "name": "quadratic-n3",
  "n": 3,
  "objective": {
    "type": "quadratic",
    "A": [
      [0.59999999999999998, 0.20000000000000001, 0.10000000000000001],
      [0.20000000000000001, 0.5, 0.14999999999999999],
      [0.10000000000000001, 0.14999999999999999, 0.69999999999999996]
    ]
  },
  "constraints": {
    "sparse": [
      {
        "indices": [0],
        "values": [1.0]
      },
      {
        "indices": [1],
        "values": [0.80000000000000004]
      },
      {
        "indices": [0, 2],
        "values": [-0.5, 0.59999999999999998]
      }
    ],
    "offsets": [0.25, 0.28999999999999998, 0.25]
  },
  "geometry": "entropy",
  "oracle": "exact",
  "witness": [0.20000000000000001, 0.29999999999999999, 0.5],
  "margin": 0.049999999999999989
}
"""
