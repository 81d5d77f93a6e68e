import base64
import tracemalloc

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


def dense_text_json(p) -> str:
    """The instance file with its matrix in the dense ``A`` form, the form
    written by hand, every entry's bits kept."""
    from asmd.problems import problem_to_document
    from asmd.serialize import canonical_json

    doc = problem_to_document(p)
    doc["objective"] = {"type": "quadratic", "A": p.objective.matrix}
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


# quadratic objectives in the text forms older files used, which the reader refuses
REMOVED_FORMS = [
    pytest.param({"type": "quadratic", "upper": [{"indices": [0], "values": [1.0]},
                                                 {"indices": [], "values": []}]}, id="upper"),
    pytest.param({"type": "quadratic", "triplets": [[0, 0, 1.0]]}, id="triplets"),
]


def packed_objective(**edits) -> dict:
    """A quadratic objective [[2, 0], [0, 3]] in packed form, with ``edits``
    replacing its blobs."""
    packed = {"counts": pack([1, 1], "<i4"), "indices": pack([0, 1], "<i4"),
              "values": pack([2.0, 3.0], "<f8")}
    return {"type": "quadratic", "packed": dict(packed, **edits)}


def traced_peak(call):
    """``call()`` and the peak of the allocations tracemalloc saw while it
    ran, above those live before it; numpy reports its buffers to it."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        live, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak - live
