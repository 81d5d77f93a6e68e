import base64
import math

import numpy as np
import pytest

from asmd.fixtures import LINEAR_N2, QUADRATIC_N3, fixture_path, load_fixture
from asmd.problems import generate_instance, problem_to_document, save_problem
from asmd.serialize import (
    _BLOB_CHUNK,
    atomic_write_text,
    canonical_json,
    canonical_pieces,
    format_real,
    vector_digest,
)

EDGE_VALUES = [0.0, -0.0, 1.0, 2.0**53, 1e16, 1e17 - 16, 1e17, 5e-324, 1e-5, 1e300, 0.1]
EDGE_VALUES += [-v for v in EDGE_VALUES[2:]]


def joined(values) -> str:
    return "[" + ", ".join(map(format_real, values)) + "]"


def listed(doc):
    """The same document with every array replaced by its ``tolist()``."""
    if isinstance(doc, dict):
        return {k: listed(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [listed(v) for v in doc]
    if isinstance(doc, np.ndarray):
        return doc.tolist()
    return doc


@pytest.mark.parametrize("name", [QUADRATIC_N3, LINEAR_N2])
def test_fixture_rewrites_to_its_own_bytes(name, tmp_path):
    out = tmp_path / name
    save_problem(load_fixture(name), out)
    assert out.read_bytes() == fixture_path(name).read_bytes()


def test_edge_values_array_matches_list():
    arr = np.array(EDGE_VALUES)
    expected = joined(EDGE_VALUES) + "\n"
    assert canonical_json(arr) == expected
    assert canonical_json(arr.tolist()) == expected
    assert joined(EDGE_VALUES).startswith("[0.0, -0.0, 1.0, 9007199254740992.0, ")


def test_random_reals_match_format_real():
    # normals across magnitudes, then the same values rounded to integers,
    # so that both sides of the 1e17 limit for a trailing ".0" are hit
    rng = np.random.default_rng(11)
    values = rng.standard_normal(4000) * 10.0 ** rng.uniform(-30, 30, 4000)
    for row in (values, np.round(values), rng.standard_normal(1000)):
        assert canonical_json(row) == joined(row.tolist()) + "\n"


def test_generated_matrix_array_matches_list():
    matrix = generate_instance(200, seed=3).objective.matrix
    zeros = matrix[matrix == 0.0]
    # the masked matrix holds zeros of both signs, so the sign-bit rule is exercised
    assert np.signbit(zeros).any() and not np.signbit(zeros).all()
    rows = ",\n".join("  " + joined(row) for row in matrix.tolist())
    expected = "[\n" + rows + "\n]\n"
    assert canonical_json(matrix) == expected
    assert canonical_json(matrix.tolist()) == expected


def test_instance_document_array_matches_list():
    problems = [generate_instance(30, m_count=4, density=0.3, seed=5)]
    problems += [load_fixture(LINEAR_N2), load_fixture(QUADRATIC_N3)]
    for p in problems:
        doc = problem_to_document(p)
        kinds = {a.dtype.kind for a in _arrays(doc)}
        # the integer path carries the constraint indices; a quadratic's matrix is base64 text
        assert "i" in kinds and "f" in kinds
        assert canonical_json(doc) == canonical_json(listed(doc))


def _arrays(doc):
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [a for v in doc for a in _arrays(v)]
    return [doc] if isinstance(doc, np.ndarray) else []


INT_EDGE_VALUES = [0, 1, -1, 7, -12345, 2**31, -(2**31) - 1, 2**53 + 1]
INT_EDGE_VALUES += [np.iinfo(np.int64).max, np.iinfo(np.int64).min]


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint64])
def test_integer_array_matches_list(dtype):
    info = np.iinfo(dtype)
    values = [v for v in INT_EDGE_VALUES if info.min <= v <= info.max]
    values += [int(info.max), int(info.min)]
    arr = np.array(values, dtype=dtype)
    expected = "[" + ", ".join(map(str, values)) + "]\n"
    assert canonical_json(arr) == canonical_json(arr.tolist()) == expected
    assert canonical_json(arr[:0]) == canonical_json([]) == "[]\n"
    doc = {"indices": arr, "nested": [arr, arr[:1]]}
    assert canonical_json(doc) == canonical_json(listed(doc))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entry_rejected_in_both_forms(bad):
    values = [1.0, 0.0, bad, 2.0]
    messages = []
    for form in (values, np.array(values), np.array([values, values])):
        with pytest.raises(ValueError, match="cannot serialize non-finite value") as info:
            canonical_json(form)
        messages.append(str(info.value))
    assert messages == [f"cannot serialize non-finite value {bad!r}"] * 3


def test_vector_digest_array_matches_list():
    x = np.random.default_rng(0).dirichlet(np.ones(7))
    x[2] = 0.0
    assert vector_digest(x) == vector_digest(x.tolist())
    assert vector_digest(x) != vector_digest(x[::-1])


@pytest.mark.parametrize("size", [0, 1, 2, 3, _BLOB_CHUNK - 1, _BLOB_CHUNK, 2 * _BLOB_CHUNK + 2])
def test_blob_is_its_base64_text(size):
    raw = np.random.default_rng(size).integers(0, 256, size, dtype=np.uint8).tobytes()
    expected = '"' + base64.b64encode(raw).decode("ascii") + '"'
    for blob in (raw, bytearray(raw), memoryview(raw)):
        assert canonical_json(blob) == expected + "\n"
        assert canonical_json({"blob": blob}) == '{\n  "blob": ' + expected + "\n}\n"
    # chunks of whole 3-byte groups: no padding before the last, none longer than a chunk
    chunks = list(canonical_pieces(raw))[1:-2]
    assert len(chunks) == -(-size // _BLOB_CHUNK)
    assert all(len(c) == 4 * _BLOB_CHUNK // 3 for c in chunks[:-1])
    assert b"=" not in b"".join(chunks[:-1])


def test_blob_of_an_array_is_its_raw_bytes():
    values = np.array([1.5, -0.0, 5e-324, np.pi])
    text = base64.b64encode(values.tobytes()).decode("ascii")
    assert canonical_json(memoryview(values)) == f'"{text}"\n'
    assert canonical_json([memoryview(values), [1.0]]) == f'[\n  "{text}",\n  [1.0]\n]\n'


def test_written_pieces_are_the_canonical_text(tmp_path):
    doc = {"blob": bytes(range(256)) * 1000, "rows": np.eye(3), "name": "é", "empty": {}}
    path = tmp_path / "doc.json"
    atomic_write_text(path, canonical_pieces(doc))
    assert path.read_bytes() == canonical_json(doc).encode("utf-8")
    atomic_write_text(path, "text é\n")
    assert path.read_bytes() == "text é\n".encode("utf-8")


def test_failed_stream_keeps_the_old_file(tmp_path):
    # the last field raises after a megabyte of blob went to the temp file
    path = tmp_path / "doc.json"
    path.write_bytes(b"old bytes\n")
    doc = {"blob": bytes(range(256)) * 4096, "last": math.nan}
    consumed = []

    def pieces():
        for piece in canonical_pieces(doc):
            consumed.append(len(piece))
            yield piece

    with pytest.raises(ValueError, match="cannot serialize non-finite value nan"):
        atomic_write_text(path, pieces())
    assert sum(consumed) > len(doc["blob"])
    assert path.read_bytes() == b"old bytes\n"
    assert list(tmp_path.glob(".tmp-*.part")) == []
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]
