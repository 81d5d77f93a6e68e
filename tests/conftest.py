import base64

import numpy as np
import pytest

from asmd.fixtures import LINEAR_N2, QUADRATIC_N3, load_fixture
from asmd.problems import InstanceFormatError, InstanceValidationError, reference_optimum


@pytest.fixture(scope="session")
def quad_problem():
    return load_fixture(QUADRATIC_N3)


@pytest.fixture(scope="session")
def linear_problem():
    return load_fixture(LINEAR_N2)


@pytest.fixture(scope="session")
def quad_reference(quad_problem):
    return reference_optimum(quad_problem, 1e-3)


def random_simplex_points(rng, n, count):
    return rng.dirichlet(np.ones(n), size=count)


def assert_instances_equal(a, b):
    from asmd.oracle import LinearObjective, QuadraticObjective

    assert a.name == b.name
    assert a.dimension == b.dimension
    assert a.geometry_kind == b.geometry_kind
    assert a.oracle_mode == b.oracle_mode
    assert a.margin == b.margin
    assert np.array_equal(a.feasible_witness, b.feasible_witness)
    assert type(a.objective) is type(b.objective)
    if isinstance(a.objective, QuadraticObjective):
        assert np.array_equal(a.objective.matrix, b.objective.matrix)
    else:
        assert isinstance(a.objective, LinearObjective)
        assert np.array_equal(a.objective.coefficients, b.objective.coefficients)
    assert a.constraint.count == b.constraint.count
    assert np.array_equal(a.constraint.offsets, b.constraint.offsets)
    for (ia, va), (ib, vb) in zip(a.constraint.terms, b.constraint.terms):
        assert np.array_equal(ia, ib)
        assert np.array_equal(va, vb)


def pack(values, dtype: str) -> str:
    """Base64 text of ``values`` as a little-endian array, as instance files store it."""
    return base64.b64encode(np.asarray(values, dtype=dtype).tobytes()).decode("ascii")


def upper_text_json(p) -> str:
    """The instance file in the text ``upper`` form that older writers produced.

    Row i lists the nonzero entries A[i, j], j >= i, as sparse
    ``indices``/``values`` lists, from ``np.triu`` of the matrix.
    """
    from asmd.problems import problem_to_document
    from asmd.serialize import canonical_json

    matrix = p.objective.matrix
    rows, cols = np.nonzero(np.triu(matrix))
    bounds = np.searchsorted(rows, np.arange(1, matrix.shape[0]))
    upper = [
        {"indices": idx, "values": val}
        for idx, val in zip(np.split(cols, bounds), np.split(matrix[rows, cols], bounds))
    ]
    doc = problem_to_document(p)
    doc["objective"] = {"type": "quadratic", "upper": upper}
    return canonical_json(doc)


# edits to a valid n = 2 ``packed`` object, the class of error each one
# raises and the field it names
BAD_PACKED = [
    # the valid counts with a '*' inside, which a lenient decoder would skip
    pytest.param({"counts": "AQAA*AAEAAAA="}, InstanceFormatError, "counts", id="alphabet"),
    pytest.param({"values": "AAAAAAAAéAAA"}, InstanceFormatError, "values", id="non-ascii"),
    pytest.param({"indices": [0, 1]}, InstanceFormatError, "indices", id="not-text"),
    pytest.param({"indices": pack([0] * 5, "u1")}, InstanceFormatError, "indices",
                 id="partial-element"),
    pytest.param({"counts": pack([2], "<i4")}, InstanceValidationError, "counts",
                 id="count-length"),
    pytest.param({"counts": pack([3, -1], "<i4")}, InstanceValidationError, "counts",
                 id="negative-count"),
    pytest.param({"counts": pack([1, 0], "<i4")}, InstanceValidationError, "indices",
                 id="count-sum"),
    pytest.param({"values": pack([2.0], "<f8")}, InstanceValidationError, "values",
                 id="value-length"),
    pytest.param({"counts": pack([0, 2], "<i4")}, InstanceValidationError, "indices",
                 id="below-diagonal"),
    pytest.param({"indices": pack([0, 2], "<i4")}, InstanceValidationError, "indices",
                 id="index-n"),
    pytest.param({"counts": pack([2, 0], "<i4"), "indices": pack([1, 1], "<i4")},
                 InstanceValidationError, "indices", id="repeated-index"),
    pytest.param({"counts": pack([2, 0], "<i4"), "indices": pack([1, 0], "<i4")},
                 InstanceValidationError, "indices", id="decreasing-index"),
    pytest.param({"values": pack([2.0, np.nan], "<f8")}, InstanceValidationError, "values",
                 id="nan"),
    pytest.param({"values": pack([np.inf, 3.0], "<f8")}, InstanceValidationError, "values",
                 id="inf"),
    pytest.param({"values": pack([2.0, -np.inf], "<f8")}, InstanceValidationError, "values",
                 id="minus-inf"),
]


def packed_objective(**edits) -> dict:
    """A quadratic objective [[2, 0], [0, 3]] in packed form, with ``edits``
    replacing its blobs."""
    packed = {"counts": pack([1, 1], "<i4"), "indices": pack([0, 1], "<i4"),
              "values": pack([2.0, 3.0], "<f8")}
    return {"type": "quadratic", "packed": dict(packed, **edits)}
