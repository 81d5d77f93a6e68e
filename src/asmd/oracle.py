"""First-order oracles for simplex-constrained problems.

Objectives come in two flavors. ``QuadraticObjective`` is the form
``x' A x / 2`` with exact gradient ``A x``; one column of A drawn with
probability given by the current simplex point is an unbiased estimate of
that gradient at O(n) cost (the column oracle, drawn by
``ProblemInstance.objective_sample``). ``LinearObjective`` is ``<c, x>``
with a constant gradient. Beside values and gradients, the objective
protocol is ``column(j)``, served only where there is a column oracle,
and ``subgradient_bound(kind)``, a dual norm bound on every sample; only
this module and the file writer know how an objective stores its data. A
quadratic's ``value_batch``, the f-values of a traced run at a stack of
iterates, reads only the upper block triangle of the symmetric matrix, in
half the flops of the dense product; ``value`` stays dense, the reference
the batch is tested against.

``MaxLinearConstraint`` is a pointwise maximum of affine forms evaluated
exactly. Sparse directions plus scalar offsets are its stored and file
form, so the raw sparsity survives the feasibility shift applied by
instance generators; values and subgradients read dense rows built from
them at construction. The argmax of one evaluation is the active term,
whose dense shifted direction is the constraint subgradient.

Oracles return plain arrays and check their data once, at construction:
finite data yields finite samples. They are immutable after construction:
every array they hold is a read-only copy of the caller's data, so a
column sample is a row view of the (exactly symmetric) quadratic matrix
and a linear gradient is the coefficient vector itself, not copies.

Index draws have one CDF scan, ``draw_index``, which makes no check: the
solver's step calls it on its own iterates, which are on the simplex by
construction, and ``checks.unbiasedness_report``, the statistical check
of the column oracle, checks that its point is a distribution first. For
the same reason each oracle serves the step one unchecked read, the
constraint ``values_unchecked(x, support=None)`` and an objective
``gradient_unchecked(x, support=None)``; the public ``values``, ``value``
and ``gradient`` check the point's shape first. Each read makes its
products through ``ndarray.dot``, the same BLAS call as ``@`` with less
dispatch: at n = 50 a bare 50 x 50 product takes about 0.6 us through
``dot`` and 1.0 us through ``@``.

Under the Euclidean geometry the prox step projects onto the simplex, so
most coordinates of an iterate are zero, and the step reads both oracles
over the iterate's support S, which it scans once, ``support_of(x)``, and
passes to each read. The constraint values are ``x[S] @ C'[S] - b`` from
``term_columns``, a C-contiguous copy of the transposed term matrix,
O(|S| m) in place of O(n m); a quadratic's exact gradient is
``x[S] @ A[S]`` over |S| rows of the symmetric matrix, O(|S| n) in place
of O(n^2). Each read applies its own rule: without a support, or once
|S| passes n / 2, as at the uniform starting point, it is the dense
product, and otherwise it differs from it by rounding only. The public
``values`` scans the support itself and applies the same rule, so it
returns a step's values bit for bit. Entropy iterates are never sparse,
so entropy steps keep the dense products and skip the scan. ``gradient``
stays dense: it is the reference the support product is tested against.

Randomness is confined to ``RngStream`` objects owned by each solver run,
so concurrent runs with distinct streams never interact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import DUAL_NORM_KERNELS

#: Edge of the blocks of every pass over an n x n matrix: the symmetry check
#: here and the generator's symmetrization take ``ROW_BLOCK x ROW_BLOCK``
#: tiles, and the generator's mask, the writer and the reader strips of
#: ``ROW_BLOCK`` rows. It bounds each temporary to a tile or a strip where a
#: whole-matrix pass allocates n x n.
ROW_BLOCK = 128

#: Columns per block of ``QuadraticObjective.value_batch``. On 256 rows, a
#: trace block, at n = 500, 1000, 2000 and 4000 (one OpenBLAS thread, 2-core
#: Xeon VM), width 256 took 0.86, 0.76, 0.68 and 0.64 of the dense product's
#: time, the least of the widths 128, 256 and 512 or within 0.01 of it.
VALUE_BLOCK = 256


@dataclass
class RngStream:
    """Deterministic random stream: same seed and same query sequence give
    the same samples bit for bit."""

    seed: int

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        self._gen = np.random.Generator(np.random.PCG64(int(self.seed)))

    def uniform(self, size: int | None = None):
        """Uniform draws in [0, 1); a sized call consumes the stream exactly
        like the same number of scalar calls."""
        return self._gen.random(size=size)


_REAL_TYPES = (int, float, np.integer, np.floating)
_INDEX_TYPES = (int, np.integer)


def _is_index(i) -> bool:
    """An integer, and not a bool, which Python counts as one."""
    return isinstance(i, _INDEX_TYPES) and not isinstance(i, bool)


def _is_real(v) -> bool:
    """A real number, and not a bool, which Python counts as one."""
    return isinstance(v, _REAL_TYPES) and not isinstance(v, bool)


def _check_point(x, dimension: int) -> np.ndarray:
    """``x`` as a float vector, rejected unless its shape is ``(dimension,)``."""
    x = np.asarray(x, dtype=float)
    if x.shape != (dimension,):
        raise ValueError(f"point has shape {x.shape}, expected ({dimension},)")
    return x


def _upper_tiles(n: int):
    """The ``ROW_BLOCK x ROW_BLOCK`` tiles on or above the diagonal of an
    n x n matrix, as (rows, columns) slice pairs, strip by strip; the
    mirror of a tile ``a[rows, cols]`` is ``a[cols, rows]``."""
    for i in range(0, n, ROW_BLOCK):
        rows = slice(i, i + ROW_BLOCK)
        for k in range(i, n, ROW_BLOCK):
            yield rows, slice(k, k + ROW_BLOCK)


def _is_symmetric(a: np.ndarray) -> bool:
    """``np.array_equal(a, a.T)`` for a square a, NaN and signed zeros
    alike, comparing each tile on or above the diagonal with the transpose
    of its mirror, so every read of the transpose stays within a tile."""
    tiles = _upper_tiles(a.shape[0])
    return all((a[rows, cols] == a[cols, rows].T).all() for rows, cols in tiles)


def support_of(x: np.ndarray) -> np.ndarray:
    """The indices of x's nonzero coordinates, ``x.nonzero()[0]``, from a
    boolean mask, which numpy scans about twice as fast as the floats."""
    return x.astype(bool).nonzero()[0]


def draw_index(p: np.ndarray, rng: RngStream, size: int | None = None) -> int | np.ndarray:
    """Index i drawn with probability ``p_i / sum(p)`` via one uniform and a
    CDF scan, without checks: p must be nonnegative with a normal total.

    With ``size``, an array of that many indices from one stream block.
    """
    cdf = p.cumsum()
    u = rng.uniform(size) * cdf[-1]
    idx = cdf.searchsorted(u, side="right")
    return int(idx) if size is None else idx


class QuadraticObjective:
    """Quadratic form ``x' A x / 2`` with gradient ``A x``.

    The stored matrix is kept exactly symmetric so the gradient formula is
    exact: asymmetric input is replaced by ``(A + A') / 2`` (which leaves
    the quadratic form unchanged) and ``symmetrized`` records that this
    happened. It is read-only, so row i, the same vector as column i, is
    handed out as a view.
    """

    def __init__(self, matrix):
        a = np.array(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        self.symmetrized = not _is_symmetric(a)
        if self.symmetrized:
            with np.errstate(over="ignore", invalid="ignore"):
                a = 0.5 * (a + a.T)
        # checked after symmetrizing, because a + a' can overflow
        if not np.isfinite(a).all():
            raise ValueError("matrix has non-finite entries")
        self._adopt(a)

    @classmethod
    def _from_symmetric(cls, matrix: np.ndarray) -> "QuadraticObjective":
        """The objective on ``matrix`` itself, without a copy or a scan.

        For a caller that built a finite, exactly symmetric square float
        array and checked it already, and that writes to it no more: it is
        made read-only here. The two callers are the instance reader, for
        the ``packed`` upper triangle (``problems._quadratic_objective``), and
        the generator, whose in-place symmetric part is symmetric by
        construction (``problems.generate_instance``).
        """
        objective = cls.__new__(cls)
        objective.symmetrized = False
        objective._adopt(matrix)
        return objective

    def _adopt(self, a: np.ndarray) -> None:
        a.flags.writeable = False
        self.matrix = a
        self.dimension = a.shape[0]

    def value(self, x) -> float:
        x = _check_point(x, self.dimension)
        return 0.5 * float(x @ (self.matrix @ x))

    def value_batch(self, points: np.ndarray) -> np.ndarray:
        """``value`` at each row of ``points``, unchecked, from the upper
        block triangle of the symmetric matrix.

        With X the stacked points, each block of ``VALUE_BLOCK`` columns
        s:e takes the product ``P = X[:, s:e] @ A[s:e, s:]``. An entry
        right of the diagonal block stands for itself and its mirror below
        it, so it counts in full; the diagonal block holds both, so its
        columns of P are halved. The row sums of ``P * X[:, s:]`` then add
        up to ``x' A x / 2``, in half the flops of the dense
        ``(X @ A) * X``, through views of A whose blocks below the diagonal
        are never read. Summed in another order, a value may differ from
        ``value`` at the same point in its last digits. At n <=
        ``VALUE_BLOCK`` there is one block, and the result is
        ``0.5 * ((X @ A) * X).sum(axis=1)`` bit for bit, since halving is
        exact.
        """
        total = np.zeros(len(points))
        for s in range(0, self.dimension, VALUE_BLOCK):
            e = s + VALUE_BLOCK
            block = points[:, s:e] @ self.matrix[s:e, s:]
            block[:, :e - s] *= 0.5
            block *= points[:, s:]
            total += block.sum(axis=1)
        return total

    def gradient(self, x) -> np.ndarray:
        """Exact gradient ``A x`` (O(n^2) dense)."""
        return self.gradient_unchecked(_check_point(x, self.dimension))

    def column(self, j: int) -> np.ndarray:
        """Column j of A: row j of the exactly symmetric matrix, a read-only view."""
        return self.matrix[j]

    def subgradient_bound(self, kind: str) -> float:
        """The largest dual norm under the geometry ``kind`` of a column, and
        so of an exact gradient, a convex combination of columns: the checked
        rows stand in for the columns, so the norms run check-free."""
        if kind == "entropy":
            # the largest |A_ij| by two reductions, with no |A| temporary;
            # adding 0.0 turns a -0.0 into the +0.0 the row kernel returns
            return float(max(self.matrix.max(), -self.matrix.min())) + 0.0
        return max(map(DUAL_NORM_KERNELS[kind], self.matrix))

    def gradient_unchecked(self, x: np.ndarray, support: np.ndarray | None = None) -> np.ndarray:
        """``gradient`` for a float vector of the right shape, unchecked.

        Given x's support S, ``support_of(x)``, with 2 |S| <= n, this is
        ``x[S] @ A[S]``: row i is column i, since the matrix is exactly
        symmetric, so it reads |S| rows, O(|S| n), and differs from
        ``A @ x`` by rounding only. Without a support, or past half the
        coordinates, where the gather would copy most of A, it is the
        dense product itself.
        """
        if support is None or 2 * support.size > self.dimension:
            return self.matrix.dot(x)
        return x.take(support).dot(self.matrix.take(support, axis=0))


class LinearObjective:
    """Linear objective ``<c, x>`` with constant exact gradient c."""

    def __init__(self, coefficients):
        c = np.array(coefficients, dtype=float)
        if c.ndim != 1:
            raise ValueError("coefficients must be a vector")
        if not np.isfinite(c).all():
            raise ValueError("coefficients have non-finite entries")
        c.flags.writeable = False
        self.coefficients = c
        self.dimension = c.size

    def value(self, x) -> float:
        return float(np.dot(self.coefficients, _check_point(x, self.dimension)))

    def value_batch(self, points: np.ndarray) -> np.ndarray:
        return points @ self.coefficients

    def gradient(self, x) -> np.ndarray:
        """The read-only coefficient vector itself."""
        return self.gradient_unchecked(_check_point(x, self.dimension))

    def gradient_unchecked(self, x: np.ndarray, support: np.ndarray | None = None) -> np.ndarray:
        """``gradient`` for a float vector of the right shape, unchecked: a
        constant gradient has no use for the support."""
        return self.coefficients

    def subgradient_bound(self, kind: str) -> float:
        """The dual norm of the constant gradient under the geometry ``kind``."""
        return DUAL_NORM_KERNELS[kind](self.coefficients)


class MaxLinearConstraint:
    """Pointwise maximum of affine forms ``g(x) = max_m (<c_m, x> - b_m)``.

    ``terms`` holds the directions as sparse (indices, values) pairs, the
    stored and file form, with the scalar offsets kept separate. Values
    and subgradients read dense rows built from the pairs: every value is
    ``term_matrix @ x - offsets`` (row m of ``term_matrix`` is c_m), exact
    off the simplex too. Row m of ``directions`` is ``c_m - b_m * ones``;
    on the simplex it induces the same values, and it is the subgradient
    the solver applies and whose dual norm it records. ``term_columns`` is
    a C-contiguous copy of the transposed term matrix: its row i holds
    every term's coefficient of x_i, so values at a point whose support S
    is at most half the coordinates read only |S| of its rows (see
    ``values_unchecked``). Every array it holds is read-only, so callers
    may hold rows without copying. Argmax
    ties break to the smallest index so traces are reproducible (any
    maximizer is a valid subgradient).

    Evaluation is exact and deterministic: this oracle is the zero-noise
    special case of the sampling contract.
    """

    def __init__(self, sparse_terms, offsets, dimension: int):
        if dimension < 1:
            raise ValueError("dimension must be at least 1")
        offs = np.array(offsets, dtype=float)
        if offs.ndim != 1 or offs.size < 1:
            raise ValueError("offsets must be a non-empty vector")
        if not np.isfinite(offs).all():
            raise ValueError("offsets have non-finite entries")
        if len(sparse_terms) != offs.size:
            raise ValueError(
                f"{len(sparse_terms)} sparse terms but {offs.size} offsets"
            )
        terms = []
        for pos, (indices, values) in enumerate(sparse_terms):
            # checked before the cast, which would truncate 0.7 or True to
            # another index
            if isinstance(indices, np.ndarray):
                integral = indices.dtype.kind in "iu" or indices.size == 0
            else:
                integral = all(_is_index(i) for i in indices)
            if not integral:
                raise ValueError(f"term {pos}: indices must be integers, not reals or booleans")
            try:
                idx = np.array(indices, dtype=np.int64).reshape(-1)
            except OverflowError:
                raise ValueError(
                    f"term {pos}: index out of range for dimension {dimension}"
                ) from None
            val = np.array(values, dtype=float).reshape(-1)
            if idx.size != val.size:
                raise ValueError(f"term {pos}: {idx.size} indices but {val.size} values")
            if idx.size and (idx.min() < 0 or idx.max() >= dimension):
                raise ValueError(f"term {pos}: index out of range for dimension {dimension}")
            if not np.isfinite(val).all():
                raise ValueError(f"term {pos}: non-finite values")
            idx.flags.writeable = False
            val.flags.writeable = False
            terms.append((idx, val))
        self.dimension = dimension
        self.terms = tuple(terms)
        self.offsets = offs
        raw = np.zeros((offs.size, dimension))
        with np.errstate(over="ignore"):
            for m, (idx, val) in enumerate(terms):
                np.add.at(raw[m], idx, val)
            shifted = raw - offs[:, None]
        # an overflowing raw entry (repeated indices) overflows its shifted row too
        if not np.isfinite(shifted).all():
            raise ValueError("shifted directions c_m - b_m overflow")
        # a copy, not a transposed layout of raw: the dense product
        # term_matrix @ x keeps its bits only in the row-major layout
        columns = np.ascontiguousarray(raw.T)
        for array in (offs, raw, shifted, columns):
            array.flags.writeable = False
        self.term_matrix = raw
        self.term_columns = columns
        self.directions = shifted

    @property
    def count(self) -> int:
        return len(self.terms)

    def values(self, x) -> np.ndarray:
        """All affine term values ``C x - b`` at x, read over x's support
        by the rule of ``values_unchecked``."""
        x = _check_point(x, self.dimension)
        return self.values_unchecked(x, support_of(x))

    def values_unchecked(self, x: np.ndarray, support: np.ndarray | None = None) -> np.ndarray:
        """``C x - b`` for a float vector of the right shape, unchecked.

        Given x's support S, ``support_of(x)``, with 2 |S| <= n, this is
        ``x[S] @ term_columns[S] - b``, O(|S| m), which differs from the
        dense ``term_matrix @ x - b`` by rounding only. Without a support,
        or past half the coordinates, it is the dense product itself.
        """
        if support is None or 2 * support.size > self.dimension:
            return self.term_matrix.dot(x) - self.offsets
        return x.take(support).dot(self.term_columns.take(support, axis=0)) - self.offsets

    def value(self, x) -> float:
        return float(self.values(x).max())

    def value_batch(self, points: np.ndarray) -> np.ndarray:
        """Value at each row of ``points``: the same product over the stack."""
        return (points @ self.term_matrix.T - self.offsets).max(axis=1)

