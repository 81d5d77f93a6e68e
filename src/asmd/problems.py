"""Problem instances: construction, random generation, file round-trips,
and a brute-force grid reference usable in small dimensions.

An instance couples an objective, a max-linear constraint, a geometry
selection, an oracle mode and a stored strictly feasible witness point.
The witness certifies that the constraint set meets the simplex, which
the solvers' guarantees presuppose.

Instance files are JSON documents written through the canonical serializer,
so save/load round-trips are bit-exact and regeneration with the same
arguments is byte-identical. A quadratic's matrix is stored as the nonzero
entries A[i, j], j >= i, of its upper triangle, packed: ``"packed"`` holds
three little-endian arrays, ``counts`` (``<i4``, the entries of each row
i), ``indices`` (``<i4``, the columns j, strictly increasing within a
row) and ``values`` (``<f8``, the entries' exact bits). A document keeps
them as raw bytes, which the writer streams to the file as base64 text a
chunk at a time, and a file holds that text; the reader takes either.
Every other number is JSON text with 17 significant digits. The reader
scatters the entries once, in row-major order, and mirrors the upper
triangle to the lower one with a transposed block copy per strip; zeros
of either sign come back as +0.0, which no product, sample or norm can
tell apart. It checks sizes, index range and order, and finite values.
The one other form it accepts is a dense ``"A"``, the form to write by
hand, which goes through the objective's checked constructor.

At large n the matrix is the one big array, so generation, the writer and
the reader work on it in blocks of ``oracle.ROW_BLOCK``: the generator
masks the matrix in place in strips of that many rows and symmetrizes it
in square tiles of that edge, the writer scans only the upper triangle,
strip by strip, and the reader mirrors it strip by strip. None holds a
second n x n array, and the writer holds no text of the whole document.

The reader checks the types of each parsed list at once, from the set of
its element types: booleans, strings and nested lists are rejected where a
real or an index is expected, with the field named, and no element is
checked one at a time in Python.
"""

from __future__ import annotations

import base64
import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .geometry import DUAL_NORM_KERNELS, Geometry, on_simplex
from .oracle import (
    ROW_BLOCK,
    LinearObjective,
    MaxLinearConstraint,
    QuadraticObjective,
    RngStream,
    _is_index,
    _upper_tiles,
    draw_index,
)
from . import serialize
from .serialize import BLOB_TYPES

ORACLE_MODES = ("exact", "column")

#: The upper triangle, diagonal included, of a strip's leading square.
_UPPER_SQUARE = np.triu(np.ones((ROW_BLOCK, ROW_BLOCK), dtype=bool))


class InstanceFormatError(ValueError):
    """An instance file is malformed; the message names the offending field."""


class InstanceValidationError(ValueError):
    """Instance data is structurally sound but internally inconsistent."""


@dataclass(frozen=True)
class ProblemInstance:
    name: str
    dimension: int
    objective: QuadraticObjective | LinearObjective
    constraint: MaxLinearConstraint
    geometry_kind: str
    oracle_mode: str
    feasible_witness: np.ndarray
    margin: float

    def __post_init__(self):
        # frozen, so a field changes only through dataclasses.replace, which
        # validates again; the witness is a read-only copy like the oracle arrays
        witness = np.array(self.feasible_witness, dtype=float)
        witness.flags.writeable = False
        object.__setattr__(self, "feasible_witness", witness)
        self.validate()

    def validate(self) -> None:
        # the geometry is the one check of the dimension and the kind
        try:
            self.geometry()
        except ValueError as exc:
            raise InstanceValidationError(str(exc)) from None
        if self.oracle_mode not in ORACLE_MODES:
            raise InstanceValidationError(
                f"oracle must be one of {ORACLE_MODES}, got {self.oracle_mode!r}"
            )
        if self.objective.dimension != self.dimension:
            raise InstanceValidationError(
                f"objective dimension {self.objective.dimension} != n = {self.dimension}"
            )
        if self.constraint.dimension != self.dimension:
            raise InstanceValidationError(
                f"constraint dimension {self.constraint.dimension} != n = {self.dimension}"
            )
        if self.feasible_witness.shape != (self.dimension,):
            raise InstanceValidationError(
                f"witness has shape {self.feasible_witness.shape}, expected ({self.dimension},)"
            )
        if self.oracle_mode == "column" and not isinstance(self.objective, QuadraticObjective):
            raise InstanceValidationError("column sampling needs a quadratic objective")
        if not math.isfinite(self.margin) or self.margin < 0:
            raise InstanceValidationError(f"margin must be a finite nonnegative real, got {self.margin}")
        if not on_simplex(self.feasible_witness):
            raise InstanceValidationError("witness is not on the probability simplex")
        if self.constraint.value(self.feasible_witness) > 0:
            raise InstanceValidationError("witness violates the constraint")

    # -- solver-facing oracle surface -------------------------------------

    def geometry(self) -> Geometry:
        return Geometry(self.dimension, self.geometry_kind)

    def objective_value(self, x) -> float:
        return self.objective.value(x)

    def objective_sample(self, x, rng: RngStream, support: np.ndarray | None = None) -> np.ndarray:
        """The step's gradient sample at its own iterate x, unchecked: the
        iterates are float vectors on the simplex by construction. A column
        draw, or the objective's one exact read, ``gradient_unchecked(x,
        support)``; a Euclidean step passes the support it scanned for its
        constraint values, an entropy step none."""
        if self.oracle_mode == "column":
            return self.objective.matrix[draw_index(x, rng)]
        return self.objective.gradient_unchecked(x, support)

    def constraint_value(self, x) -> float:
        return self.constraint.value(x)


def _symmetric_masked_normal(rng: np.random.Generator, n: int, density: float) -> np.ndarray:
    """``0.5 * (b + b.T)`` for ``b = N * (U < density)``, with N then U drawn
    as n x n standard normals and uniforms, built bit for bit inside the
    array of normals, the only n x n array it allocates.

    The uniforms come ``ROW_BLOCK`` rows at a time, which consumes the
    stream exactly as one n x n draw does, and each block masks its rows in
    place; a masked entry is ``N * 0.0``, a zero of N's sign. Then each
    ``ROW_BLOCK x ROW_BLOCK`` tile on or above the diagonal takes
    ``0.5 * (upper + lower.T)`` with its mirror, the same expression for
    every entry as the whole-matrix formula, and writes it to both: addition
    commutes, so the mirrored entries keep their bits too. A tile pair is
    read before either is written, and no other tile touches it, so every
    entry is computed from the masked draws.
    """
    a = rng.standard_normal((n, n))
    for i in range(0, n, ROW_BLOCK):
        rows = a[i:i + ROW_BLOCK]
        rows *= rng.random(rows.shape) < density
    for rows, cols in _upper_tiles(n):
        half = a[rows, cols] + a[cols, rows].T
        half *= 0.5
        a[rows, cols] = half
        a[cols, rows] = half.T
    return a


def generate_instance(
    n: int,
    m_count: int = 10,
    density: float = 0.1,
    margin: float = 0.05,
    seed: int = 0,
    geometry: str = "entropy",
    oracle: str = "exact",
    name: str | None = None,
) -> ProblemInstance:
    """Random quadratic-over-simplex instance with max-linear constraints.

    The matrix is the symmetric part of a density-masked standard normal
    matrix, built in place (``_symmetric_masked_normal``): the returned
    matrix is the only n x n array generation holds, beside strips of
    ``ROW_BLOCK`` rows and tiles of that edge. It is finite and exactly
    symmetric by construction, so the objective adopts it without the
    checked constructor's copy and scan. Constraint directions are masked
    normals stored sparsely. Each direction is shifted by a scalar offset
    so a witness point drawn uniformly from the simplex satisfies every
    constraint with slack ``margin``. The stored margin is the achieved
    slack ``-g(witness)``, which equals the requested one up to one
    rounding and makes the identity ``constraint value at witness ==
    -margin`` hold exactly.

    Identical arguments reproduce the instance bit for bit.
    """
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if m_count < 1:
        raise ValueError(f"m_count must be at least 1, got {m_count}")
    if not 0.0 < density <= 1.0:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if not margin > 0:
        raise ValueError(f"margin must be positive, got {margin}")
    rng = np.random.default_rng(seed)
    objective = QuadraticObjective._from_symmetric(_symmetric_masked_normal(rng, n, density))
    raw_terms = []
    for _ in range(m_count):
        vals = rng.standard_normal(n)
        idx = np.flatnonzero(rng.random(n) < density)
        raw_terms.append((idx, vals[idx]))
    witness = rng.dirichlet(np.ones(n))
    offsets = [float(np.dot(val, witness[idx])) + margin for idx, val in raw_terms]
    constraint = MaxLinearConstraint(raw_terms, offsets, n)
    achieved = -constraint.value(witness)
    if name is None:
        name = f"quad-simplex-n{n}-m{m_count}-seed{seed}"
    return ProblemInstance(
        name=name,
        dimension=n,
        objective=objective,
        constraint=constraint,
        geometry_kind=geometry,
        oracle_mode=oracle,
        feasible_witness=witness,
        margin=achieved,
    )


# -- file format -----------------------------------------------------------


_PACKED_DTYPES = {"counts": "<i4", "indices": "<i4", "values": "<f8"}


def _packed_upper(matrix: np.ndarray) -> dict:
    """The nonzero entries A[i, j], j >= i, as the three packed blobs, each
    the raw bytes of a little-endian array.

    The upper triangle is scanned in strips of ``ROW_BLOCK`` rows, rows
    i:j past column i with the strip's square cut to its upper triangle,
    so no scan covers the lower half or holds more than a strip's indices.
    A strip's mask is scanned once, for its flat indices in row-major
    order, which split into the entries' rows and columns; the rows give
    the counts and, with the columns, gather the values.
    """
    n = matrix.shape[0]
    parts = {key: [] for key in _PACKED_DTYPES}
    for i in range(0, n, ROW_BLOCK):
        strip = matrix[i:i + ROW_BLOCK, i:]
        height, width = strip.shape
        nonzero = strip != 0
        square = nonzero[:, :ROW_BLOCK]
        square &= _UPPER_SQUARE[:height, :square.shape[1]]
        rows, cols = np.divmod(np.flatnonzero(nonzero), width)
        parts["counts"].append(np.bincount(rows, minlength=height))
        parts["values"].append(strip[rows, cols])
        cols += i
        parts["indices"].append(cols.astype("<i4"))
    # each blob's strips are dropped once joined, so no join holds two blobs' strips
    return {
        key: memoryview(np.concatenate(parts.pop(key)).astype(dtype, copy=False).view(np.uint8))
        for key, dtype in _PACKED_DTYPES.items()
    }


def problem_to_document(p: ProblemInstance) -> dict:
    """The instance as a file document.

    A quadratic's matrix is packed to raw bytes, which ``canonical_json``
    writes as base64 text. The other numeric fields are arrays (the
    instance's own, or slices of them), not lists, so that it writes them
    through its array paths.
    """
    if isinstance(p.objective, QuadraticObjective):
        objective = {"type": "quadratic", "packed": _packed_upper(p.objective.matrix)}
    else:
        objective = {"type": "linear", "c": p.objective.coefficients}
    return {
        "name": p.name,
        "n": p.dimension,
        "objective": objective,
        "constraints": {
            "sparse": [{"indices": idx, "values": val} for idx, val in p.constraint.terms],
            "offsets": p.constraint.offsets,
        },
        "geometry": p.geometry_kind,
        "oracle": p.oracle_mode,
        "witness": p.feasible_witness,
        "margin": p.margin,
    }


def _field(doc: dict, key: str, where: str = "document"):
    if not isinstance(doc, dict):
        raise InstanceFormatError(f"field '{where}' must be an object")
    if key not in doc:
        raise InstanceFormatError(f"field '{where}.{key}' is missing")
    return doc[key]


_REAL_TYPES = (int, float, np.integer, np.floating)
_INDEX_TYPES = (int, np.integer)


def _typed_array(values, where: str, dtype=float, nested: bool = False) -> np.ndarray:
    """A list (of lists, if ``nested``) or an array of reals, or of indices
    for ``dtype=np.int64``, as an array of ``dtype``.

    The check reads the set of element types, built in one pass in C, so a
    boolean, a string or a nested list is rejected without a Python step
    per element.
    """
    allowed, noun = (_REAL_TYPES, "reals") if dtype is float else (_INDEX_TYPES, "integers")
    try:
        if isinstance(values, np.ndarray):
            types = {values.dtype.type}
        else:
            types = set(map(type, chain.from_iterable(values) if nested else values))
        bad = sorted(t.__name__ for t in types if issubclass(t, bool) or not issubclass(t, allowed))
        if not bad:
            return np.array(values, dtype=dtype)
        detail = f"got {', '.join(bad)}"
    except (TypeError, ValueError, OverflowError) as exc:
        detail = str(exc)
    shape = "lists" if nested else "a list"
    raise InstanceFormatError(f"field '{where}' must be {shape} of {noun}: {detail}")


def _real(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, _REAL_TYPES):
        raise InstanceFormatError(f"field '{where}' must be a real, got {value!r}")
    return float(value)


def _packed_arrays(packed) -> list[np.ndarray]:
    """The counts, indices and values arrays of a ``packed`` object, whose
    blobs are base64 text (a file) or raw bytes (a document in memory)."""
    arrays = []
    for key, dtype in _PACKED_DTYPES.items():
        where = f"objective.packed.{key}"
        blob = _field(packed, key, "objective.packed")
        if not isinstance(blob, (str, *BLOB_TYPES)):
            raise InstanceFormatError(
                f"field '{where}' must be base64 text or bytes, got {type(blob).__name__}"
            )
        try:
            if isinstance(blob, str):
                blob = base64.b64decode(blob, validate=True)
            arrays.append(np.frombuffer(blob, dtype=dtype))
        except ValueError as exc:  # binascii.Error is one
            raise InstanceFormatError(
                f"field '{where}' must be a base64 {dtype} array: {exc}"
            ) from None
    return arrays


def _upper_matrix(counts, cols, vals, n: int) -> np.ndarray:
    """The symmetric matrix whose upper triangle holds ``vals`` at columns
    ``cols``, row i taking the next ``counts[i]`` of them: the ``packed``
    blobs' arrays.

    They are checked here, all entries at once: n rows, sizes that match,
    indices in [i, n) and strictly increasing within a row, finite values.
    An error names the blob, and the row of an offending entry.

    Checked, the entries' row-major flat indices ``i n + j`` increase, so
    one scatter writes the upper triangle front to back. Each strip of
    ``ROW_BLOCK`` rows i:j is then mirrored below the diagonal: the
    columns past j by one transposed block copy, the strip's leading
    square by a copy of its upper triangle to its lower one. Every entry
    below the diagonal is its mirror's bits, signed zeros included.
    """
    if counts.size != n:
        raise InstanceValidationError(
            f"field 'objective.packed.counts' must hold n = {n} rows, got {counts.size}"
        )
    negative = counts < 0
    if negative.any():
        i = int(np.argmax(negative))
        raise InstanceValidationError(
            f"field 'objective.packed.counts' must be nonnegative, got {counts[i]} for row {i}"
        )
    total = int(counts.sum())
    if cols.size != total:
        raise InstanceValidationError(
            f"field 'objective.packed.indices' holds {cols.size} indices, "
            f"but the counts add to {total}"
        )
    if vals.size != cols.size:
        raise InstanceValidationError(
            f"field 'objective.packed.values' holds {vals.size} values for {cols.size} indices"
        )
    rows_of = np.repeat(np.arange(n), counts)
    unordered = np.zeros(cols.size, dtype=bool)
    unordered[1:] = (rows_of[1:] == rows_of[:-1]) & (cols[1:] <= cols[:-1])
    out_of_range = (cols < rows_of) | (cols >= n)
    checks = (
        ("indices", out_of_range, f"indices must lie in [i, n) for n = {n}", cols),
        ("indices", unordered, "indices must strictly increase", cols),
        ("values", ~np.isfinite(vals), "values must be finite", vals),
    )
    for key, bad, rule, entries in checks:
        if bad.any():
            k = int(np.argmax(bad))
            raise InstanceValidationError(
                f"field 'objective.packed.{key}' (row {rows_of[k]}) {rule}, got {entries[k]}"
            )
    # the flat indices i n + j take the place of the rows, which only the
    # checks needed, so the scatter holds no second index array
    flat = rows_of
    flat *= n
    flat += cols
    matrix = np.zeros((n, n))
    matrix.reshape(-1)[flat] = vals
    for i in range(0, n, ROW_BLOCK):
        j = i + ROW_BLOCK
        matrix[j:, i:j] = matrix[i:j, j:].T
        square = matrix[i:j, i:j]
        k = square.shape[0]
        np.copyto(square, square.T, where=~_UPPER_SQUARE[:k, :k])
    return matrix


def _quadratic_objective(objective_doc: dict, n: int) -> QuadraticObjective:
    """The objective of a quadratic's document. The ``packed`` upper
    triangle builds a finite, exactly symmetric matrix, which the objective
    takes as it is; a dense ``A`` goes through its checked constructor."""
    if "packed" in objective_doc:
        arrays = _packed_arrays(objective_doc["packed"])
        return QuadraticObjective._from_symmetric(_upper_matrix(*arrays, n))
    if "A" not in objective_doc:
        raise InstanceFormatError("field 'objective' needs 'packed' or 'A'")
    matrix = _typed_array(objective_doc["A"], "objective.A", nested=True)
    if matrix.shape != (n, n):
        raise InstanceValidationError(
            f"field 'objective.A' has shape {matrix.shape}, expected ({n}, {n})"
        )
    return QuadraticObjective(matrix)


def problem_from_document(doc) -> ProblemInstance:
    n = _field(doc, "n")
    if not _is_index(n) or n < 1:
        raise InstanceFormatError(f"field 'n' must be a positive integer, got {n!r}")
    objective_doc = _field(doc, "objective")
    obj_type = _field(objective_doc, "type", "objective")
    if obj_type == "quadratic":
        objective = _quadratic_objective(objective_doc, n)
    elif obj_type == "linear":
        c = _typed_array(_field(objective_doc, "c", "objective"), "objective.c")
        if c.shape != (n,):
            raise InstanceValidationError(
                f"field 'objective.c' has length {c.size}, expected {n}"
            )
        objective = LinearObjective(c)
    else:
        raise InstanceFormatError(
            f"field 'objective.type' must be 'quadratic' or 'linear', got {obj_type!r}"
        )
    constraints_doc = _field(doc, "constraints")
    sparse = _field(constraints_doc, "sparse", "constraints")
    if not isinstance(sparse, (list, tuple)):
        raise InstanceFormatError(
            f"field 'constraints.sparse' must be a list of terms, got {type(sparse).__name__}"
        )
    offsets = _typed_array(
        _field(constraints_doc, "offsets", "constraints"), "constraints.offsets"
    )
    terms = []
    for pos, term in enumerate(sparse):
        where = f"constraints.sparse[{pos}]"
        terms.append(
            (
                _typed_array(_field(term, "indices", where), f"{where}.indices", np.int64),
                _typed_array(_field(term, "values", where), f"{where}.values"),
            )
        )
    try:
        constraint = MaxLinearConstraint(terms, offsets, n)
    except ValueError as exc:
        raise InstanceValidationError(f"field 'constraints': {exc}") from None
    try:
        return ProblemInstance(
            name=str(_field(doc, "name")),
            dimension=n,
            objective=objective,
            constraint=constraint,
            geometry_kind=_field(doc, "geometry"),
            oracle_mode=_field(doc, "oracle"),
            feasible_witness=_typed_array(_field(doc, "witness"), "witness"),
            margin=_real(_field(doc, "margin"), "margin"),
        )
    except InstanceValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise InstanceFormatError(str(exc)) from None


def save_problem(p: ProblemInstance, path) -> None:
    """Stream the instance's document to ``path``, piece by piece.

    The writer is looked up on ``serialize``, not imported by name: the
    benchmark's tracer wraps ``problems.atomic_write_text`` and sizes its
    argument as one text, which a stream of pieces is not.
    """
    serialize.atomic_write_text(path, serialize.canonical_pieces(problem_to_document(p)))


def load_problem(path) -> ProblemInstance:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InstanceFormatError(f"not valid JSON: {exc}") from None
    return problem_from_document(doc)


# -- brute-force reference -------------------------------------------------


@dataclass(frozen=True)
class ReferenceOptimum:
    f_star: float
    x_star: np.ndarray
    resolution: float
    feasible_points: int


def default_resolution(n: int) -> float:
    """Grid spacing keeping the lattice enumerable at desk scale."""
    return 1e-3 if n <= 3 else 1e-2


def _simplex_lattice(n: int, k: int) -> np.ndarray:
    """Integer compositions of k into n nonnegative parts, as rows."""
    if n == 1:
        return np.array([[k]], dtype=np.int64)
    if n == 2:
        left = np.arange(k + 1, dtype=np.int64)
        return np.stack([left, k - left], axis=1)
    blocks = []
    for first in range(k + 1):
        rest = _simplex_lattice(n - 1, k - first)
        col = np.full((rest.shape[0], 1), first, dtype=np.int64)
        blocks.append(np.hstack([col, rest]))
    return np.vstack(blocks)


def reference_optimum(p: ProblemInstance, resolution: float | None = None) -> ReferenceOptimum:
    """Exhaustive minimum of the objective over feasible simplex grid points.

    Scans the lattice with the given spacing, keeps points whose constraint
    value is nonpositive and returns the best objective value among them.
    The result overestimates the true optimum by at most the objective's
    Lipschitz constant times the resolution (in the grid neighborhood of
    the solution). Only supported for n <= 4; the lattice is combinatorial.

    Halving the resolution refines the lattice in place (every coarse point
    stays on the fine grid), so the reported value never degrades.
    """
    n = p.dimension
    if n > 4:
        raise ValueError("grid reference is limited to n <= 4")
    if resolution is None:
        resolution = default_resolution(n)
    if not 0 < resolution <= 1:
        raise ValueError(f"resolution must be in (0, 1], got {resolution}")
    k = int(round(1.0 / resolution))
    points = _simplex_lattice(n, k).astype(float) / k
    feasible = p.constraint.value_batch(points) <= 0.0
    count = int(feasible.sum())
    if count == 0:
        raise InstanceValidationError(
            f"no feasible grid point at resolution {resolution}; refine the grid"
        )
    candidates = points[feasible]
    values = p.objective.value_batch(candidates)
    best = int(np.argmin(values))
    return ReferenceOptimum(
        f_star=float(values[best]),
        x_star=candidates[best].copy(),
        resolution=resolution,
        feasible_points=count,
    )


def uniform_subgradient_bound(p: ProblemInstance) -> float:
    """Bound on the dual norm of every oracle sample over the simplex.

    Objective samples are columns of the matrix or convex combinations of
    them (the exact gradient), so the columnwise maximum covers both oracle
    modes; constraint subgradients are among the dense directions. The
    matrix is exactly symmetric, so its contiguous rows stand in for the
    columns; the oracles checked every vector at construction, so the
    norms run check-free. Under entropy the matrix's part, the largest
    row's infinity norm, is its largest entry in absolute value.
    """
    norm = DUAL_NORM_KERNELS[p.geometry_kind]
    if isinstance(p.objective, QuadraticObjective):
        matrix = p.objective.matrix
        if p.geometry_kind == "entropy":
            # the largest |A_ij| by two reductions, with no |A| temporary;
            # adding 0.0 turns a -0.0 into the +0.0 the row kernel returns
            obj = float(max(matrix.max(), -matrix.min())) + 0.0
        else:
            obj = max(norm(row) for row in matrix)
    else:
        obj = norm(p.objective.coefficients)
    con = max(norm(row) for row in p.constraint.directions)
    return max(obj, con)
