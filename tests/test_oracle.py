import numpy as np
import pytest

from asmd.checks import unbiasedness_report
from asmd.oracle import (
    ROW_BLOCK,
    VALUE_BLOCK,
    LinearObjective,
    MaxLinearConstraint,
    QuadraticObjective,
    RngStream,
    _is_symmetric,
    draw_index,
    support_of,
)
from asmd.problems import (
    InstanceValidationError,
    ProblemInstance,
    generate_instance,
    problem_from_document,
    problem_to_document,
)


def make_constraint(rows, offsets=None):
    """Dense rows to sparse-term construction, exercising the stored form."""
    rows = np.asarray(rows, dtype=float)
    terms = []
    for row in rows:
        idx = np.flatnonzero(row)
        terms.append((idx, row[idx]))
    if offsets is None:
        offsets = np.zeros(rows.shape[0])
    return MaxLinearConstraint(terms, offsets, rows.shape[1])


def column_problem(matrix):
    """A column-oracle instance on ``matrix`` whose constraint never binds."""
    objective = QuadraticObjective(matrix)
    n = objective.dimension
    return ProblemInstance(
        name="columns",
        dimension=n,
        objective=objective,
        constraint=MaxLinearConstraint([([], [])], [1.0], n),
        geometry_kind="entropy",
        oracle_mode="column",
        feasible_witness=np.full(n, 1.0 / n),
        margin=1.0,
    )


def active_direction(c, x):
    """The constraint subgradient at x: the active term's shifted direction."""
    return c.directions[c.values(x).argmax()]


class TestRngStream:
    def test_seed_validation(self):
        with pytest.raises(ValueError):
            RngStream(-1)
        with pytest.raises(ValueError):
            RngStream(2**64)

    def test_bit_exact_reproduction(self):
        a, b = RngStream(42), RngStream(42)
        assert [a.uniform() for _ in range(100)] == [b.uniform() for _ in range(100)]

    def test_sized_reads_match_scalar_reads(self):
        a, b = RngStream(7), RngStream(7)
        block = a.uniform(size=50)
        singles = np.array([b.uniform() for _ in range(50)])
        np.testing.assert_array_equal(block, singles)
        # both streams advanced by the same 50 draws
        assert a.uniform() == b.uniform()


class TestQuadraticObjective:
    def test_identity_gradient(self):
        q = QuadraticObjective(np.eye(2))
        np.testing.assert_array_equal(q.gradient([0.5, 0.5]), [0.5, 0.5])

    def test_zero_matrix(self):
        q = QuadraticObjective(np.zeros((2, 2)))
        np.testing.assert_array_equal(q.gradient([0.3, 0.7]), [0.0, 0.0])

    def test_offdiagonal(self):
        q = QuadraticObjective([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(q.gradient([1.0, 0.0]), [0.0, 1.0])

    def test_symmetrization_flag(self):
        q = QuadraticObjective([[0.0, 1.0], [0.0, 0.0]])
        assert q.symmetrized
        np.testing.assert_array_equal(q.matrix, [[0.0, 0.5], [0.5, 0.0]])
        assert not QuadraticObjective(np.eye(3)).symmetrized

    def test_blocked_symmetry_check_matches_array_equal(self):
        # three blocks of rows, the last one partial
        n = 2 * ROW_BLOCK + 44
        raw = np.random.default_rng(5).standard_normal((n, n))
        symmetric = raw + raw.T
        one_off = symmetric.copy()
        one_off[n - 1, n - 3] += 1e-9  # a single asymmetric entry, in the last block
        far_corner = symmetric.copy()
        far_corner[n - 1, 3] += 1e-9  # in the last block of rows, below the first block
        nan_diagonal = symmetric.copy()
        nan_diagonal[n - 2, n - 2] = np.nan
        signed_zeros = symmetric.copy()
        signed_zeros[3, n - 1], signed_zeros[n - 1, 3] = -0.0, 0.0
        cases = [(symmetric, True), (one_off, False), (far_corner, False),
                 (nan_diagonal, False), (signed_zeros, True)]
        for matrix, expected in cases:
            assert _is_symmetric(matrix) == np.array_equal(matrix, matrix.T) == expected
        assert QuadraticObjective(one_off).symmetrized
        # -0.0 == +0.0, so the signed zeros are no asymmetry to repair
        q = QuadraticObjective(signed_zeros)
        assert not q.symmetrized
        assert np.signbit(q.matrix[3, n - 1]) and not np.signbit(q.matrix[n - 1, 3])

    def test_symmetry_check_reads_every_tile_of_a_strip(self):
        # one asymmetric entry in the first block of rows, past its diagonal tile
        n = 2 * ROW_BLOCK + 44
        raw = np.random.default_rng(6).standard_normal((n, n))
        matrix = raw + raw.T
        matrix[3, ROW_BLOCK + 5] += 1e-9
        assert not np.array_equal(matrix, matrix.T)
        assert not _is_symmetric(matrix) and not _is_symmetric(matrix.T)

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_gradient_on_support(self, n):
        rng = np.random.default_rng(n)
        raw = rng.standard_normal((n, n))
        q = QuadraticObjective(raw + raw.T)
        before = q.matrix.copy()
        for size in sorted({1, n // 2, n // 2 + 1, n}):
            for _ in range(5):
                x = np.zeros(n)
                support = rng.choice(n, size=size, replace=False)
                x[support] = rng.dirichlet(np.ones(size)) if size else []
                dense = q.matrix @ x
                product = q.gradient_unchecked(x, x.nonzero()[0])
                # no support, the entropy step's read, is A @ x bit for bit
                assert q.gradient_unchecked(x).tobytes() == dense.tobytes()
                if 2 * size > n:
                    # the dense fallback, bit for bit
                    assert product.tobytes() == dense.tobytes()
                else:
                    scale = float(np.abs(q.matrix).max())
                    np.testing.assert_allclose(product, dense, rtol=1e-13, atol=1e-13 * scale)
                    rows = np.sort(support)
                    np.testing.assert_array_equal(product, np.dot(x[rows], q.matrix[rows]))
        assert not q.matrix.flags.writeable
        assert q.matrix.tobytes() == before.tobytes()

    @pytest.mark.parametrize("rows", [1, 64])
    @pytest.mark.parametrize(
        "n", [1, 2, VALUE_BLOCK - 1, VALUE_BLOCK, VALUE_BLOCK + 1, 2 * VALUE_BLOCK + 1]
    )
    def test_value_batch_matches_value(self, n, rows):
        rng = np.random.default_rng([n, rows])
        raw = rng.standard_normal((n, n))
        # positive definite, so no value cancels to near zero and the
        # tolerance can be relative alone
        q = QuadraticObjective(raw @ raw.T / n + np.eye(n))
        simplex = rng.dirichlet(np.ones(n), size=rows)
        off_simplex = rng.standard_normal((rows, n))
        for points in (simplex, off_simplex):
            batch = q.value_batch(points)
            assert batch.shape == (rows,)
            np.testing.assert_allclose(batch, [q.value(x) for x in points], rtol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, VALUE_BLOCK - 1, VALUE_BLOCK])
    def test_value_batch_is_the_dense_formula_in_one_block(self, n):
        rng = np.random.default_rng(n)
        raw = rng.standard_normal((n, n))
        q = QuadraticObjective(raw + raw.T)
        for points in (rng.dirichlet(np.ones(n), size=64), rng.standard_normal((1, n))):
            dense = 0.5 * ((points @ q.matrix) * points).sum(axis=1)
            assert q.value_batch(points).tobytes() == dense.tobytes()

    def test_value_batch_reads_the_upper_block_triangle(self):
        n = 2 * VALUE_BLOCK + 1
        rng = np.random.default_rng(9)
        raw = rng.standard_normal((n, n))
        q = QuadraticObjective(raw + raw.T)
        poisoned = q.matrix.copy()
        for s in range(0, n, VALUE_BLOCK):
            poisoned[s + VALUE_BLOCK:, s:s + VALUE_BLOCK] = np.nan
        upper = QuadraticObjective._from_symmetric(poisoned)
        points = rng.dirichlet(np.ones(n), size=8)
        values = upper.value_batch(points)
        assert np.isfinite(values).all()
        np.testing.assert_array_equal(values, q.value_batch(points))

    def test_non_finite_rejected(self):
        for matrix in ([[0.0, np.inf], [np.inf, 0.0]], [[0.0, np.nan], [1.0, 0.0]]):
            with pytest.raises(ValueError, match="non-finite"):
                QuadraticObjective(matrix)
        # finite entries whose symmetric part overflows
        with pytest.raises(ValueError, match="non-finite"):
            QuadraticObjective([[0.0, 1e308], [1.7e308, 0.0]])

    def test_symmetrization_preserves_value(self):
        rng = np.random.default_rng(0)
        raw = rng.standard_normal((4, 4))
        q = QuadraticObjective(raw)
        x = rng.dirichlet(np.ones(4))
        assert q.value(x) == pytest.approx(0.5 * x @ raw @ x, rel=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            QuadraticObjective(np.eye(2)).gradient([0.2, 0.3, 0.5])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        raw = rng.standard_normal((5, 5))
        q = QuadraticObjective(0.5 * (raw + raw.T))
        x = rng.dirichlet(np.ones(5))
        grad = q.gradient(x)
        h = 1e-6
        for _ in range(10):
            v = rng.standard_normal(5)
            directional = (q.value(x + h * v) - q.value(x - h * v)) / (2 * h)
            assert directional == pytest.approx(float(grad @ v), rel=1e-5, abs=1e-10)


class TestColumnSampling:
    def test_degenerate_distribution(self):
        p = column_problem([[1.0, 5.0], [5.0, 2.0]])
        x = np.array([1.0, 0.0])
        rng = RngStream(3)
        for _ in range(50):
            assert draw_index(x, rng) == 0
            np.testing.assert_array_equal(p.objective_sample(x, rng), p.objective.matrix[:, 0])

    def test_sample_is_read_only_row_view(self):
        p = column_problem([[1.0, 2.0, 0.0], [2.0, 3.0, -1.0], [0.0, -1.0, 4.0]])
        matrix = p.objective.matrix
        for i in range(3):
            sample = p.objective_sample(np.eye(3)[i], RngStream(i))
            assert np.shares_memory(sample, matrix)
            np.testing.assert_array_equal(sample, matrix[:, i])
            with pytest.raises(ValueError):
                sample[0] = 5.0
        with pytest.raises(ValueError):
            matrix[0, 1] = 5.0

    def test_identical_columns(self):
        p = column_problem(np.ones((2, 2)))
        x = np.array([0.3, 0.7])
        rng = RngStream(4)
        for _ in range(50):
            np.testing.assert_array_equal(p.objective_sample(x, rng), [1.0, 1.0])

    def test_monte_carlo_mean_matches_gradient(self):
        q = QuadraticObjective([[0.0, 2.0], [2.0, 0.0]])
        report = unbiasedness_report(q, [0.5, 0.5], 100_000, RngStream(5))
        np.testing.assert_array_equal(report.reference, [1.0, 1.0])
        assert (np.abs(report.empirical_mean - report.reference) <= 4 * report.stderr).all()
        # both components flip between 0 and 2, so the standard error is 1/sqrt(m)
        np.testing.assert_allclose(report.stderr, 1.0 / np.sqrt(100_000), rtol=1e-2)

    def test_zero_mass_index_never_drawn(self):
        x = np.array([0.3, 0.0, 0.7])
        rng = RngStream(6)
        idx = draw_index(x, rng, 10_000)
        assert set(np.unique(idx)) <= {0, 2}

    def test_roundoff_negatives_are_clipped(self):
        # under the identity, the empirical mean is each index's share of draws
        x = np.array([0.5, -1e-9, 0.5])
        report = unbiasedness_report(QuadraticObjective(np.eye(3)), x, 5_000, RngStream(7))
        assert set(np.flatnonzero(report.empirical_mean)) <= {0, 2}

    def test_large_negative_rejected(self):
        with pytest.raises(ValueError, match="negative coordinates"):
            unbiasedness_report(QuadraticObjective(np.eye(2)), [1.1, -0.1], 100, RngStream(8))

    def test_all_zero_rejected(self):
        with pytest.raises(ValueError, match="zero or subnormal"):
            unbiasedness_report(QuadraticObjective(np.eye(3)), np.zeros(3), 100, RngStream(9))
        # a subnormal total too: u * cdf[-1] can round up to it, giving index n
        subnormal = np.array([5e-324, 0.0])
        with pytest.raises(ValueError, match="zero or subnormal"):
            unbiasedness_report(QuadraticObjective(np.eye(2)), subnormal, 1000, RngStream(0))

    def test_determinism_across_streams(self):
        x = np.array([0.2, 0.5, 0.3])
        rng_a, rng_b = RngStream(12), RngStream(12)
        seq_a = [draw_index(x, rng_a) for _ in range(500)]
        seq_b = [draw_index(x, rng_b) for _ in range(500)]
        assert seq_a == seq_b


class TestUnbiasednessReport:
    def test_degenerate_point_has_zero_deviation(self):
        q = QuadraticObjective([[1.0, 3.0], [3.0, 2.0]])
        report = unbiasedness_report(q, [1.0, 0.0], 500, RngStream(13))
        assert report.max_abs_deviation == 0.0
        assert (report.stderr == 0.0).all()

    def test_identical_columns_zero_deviation(self):
        q = QuadraticObjective(np.full((3, 3), 2.0))
        report = unbiasedness_report(q, [0.2, 0.3, 0.5], 500, RngStream(14))
        assert report.max_abs_deviation == 0.0

    def test_sample_floor(self):
        q = QuadraticObjective(np.eye(2))
        with pytest.raises(ValueError):
            unbiasedness_report(q, [0.5, 0.5], 99, RngStream(15))


class TestLinearObjective:
    def test_value_and_gradient(self):
        obj = LinearObjective([0.0, 1.0])
        assert obj.value([0.25, 0.75]) == 0.75
        np.testing.assert_array_equal(obj.gradient([0.25, 0.75]), [0.0, 1.0])

    def test_gradient_on_support_is_the_coefficients(self):
        obj = LinearObjective([1.0, 2.0, 3.0])
        x = np.array([0.0, 1.0, 0.0])
        assert obj.gradient_unchecked(x, x.nonzero()[0]) is obj.coefficients
        assert obj.gradient_unchecked(x) is obj.coefficients

    def test_gradient_is_read_only(self):
        obj = LinearObjective([1.0, 2.0])
        g = obj.gradient([0.5, 0.5])
        with pytest.raises(ValueError):
            g[0] = 99.0
        np.testing.assert_array_equal(obj.coefficients, [1.0, 2.0])
        np.testing.assert_array_equal(obj.gradient([0.5, 0.5]), [1.0, 2.0])


class TestMaxLinearConstraint:
    def test_max_of_two(self):
        c = make_constraint([[1.0, 0.0], [0.0, 2.0]])
        assert c.value([0.5, 0.5]) == 1.0
        np.testing.assert_array_equal(active_direction(c, [0.5, 0.5]), [0.0, 2.0])

    def test_zero_functional(self):
        c = MaxLinearConstraint([([], [])], [0.0], 2)
        assert c.value([0.4, 0.6]) == 0.0
        np.testing.assert_array_equal(active_direction(c, [0.4, 0.6]), [0.0, 0.0])

    def test_constant_on_simplex(self):
        c = make_constraint([[-1.0, -1.0]])
        assert c.value([0.5, 0.5]) == -1.0

    def test_tie_breaks_to_smallest_index(self):
        c = make_constraint([[1.0, 0.0], [1.0, 0.0]])
        assert c.values([0.5, 0.5]).argmax() == 0
        np.testing.assert_array_equal(active_direction(c, [0.5, 0.5]), [1.0, 0.0])

    def test_single_term(self):
        c = make_constraint([[3.0, -1.0]])
        np.testing.assert_array_equal(active_direction(c, [0.9, 0.1]), [3.0, -1.0])

    def test_offsets_shift_dense_directions(self):
        c = MaxLinearConstraint([([0], [1.0])], [0.6], 2)
        assert c.value([1.0, 0.0]) == pytest.approx(0.4, abs=1e-15)
        np.testing.assert_allclose(active_direction(c, [1.0, 0.0]), [0.4, -0.6], atol=1e-15)

    def test_subgradient_inequality(self):
        rng = np.random.default_rng(16)
        rows = rng.standard_normal((6, 5))
        c = make_constraint(rows, rng.standard_normal(6))
        pts = rng.dirichlet(np.ones(5), size=2000)
        for i in range(1000):
            x, y = pts[2 * i], pts[2 * i + 1]
            lower = c.value(x) + float(active_direction(c, x) @ (y - x))
            assert c.value(y) >= lower - 1e-10

    def test_dense_evaluation_matches_sparse_pairs(self):
        rng = np.random.default_rng(17)
        rows = rng.standard_normal((4, 3)) * (rng.random((4, 3)) < 0.6)
        c = make_constraint(rows, rng.standard_normal(4))
        # off the simplex too, where the shifted directions give other values
        for x in (np.array([2.0, -1.0, 0.5]), np.array([-3.0, 0.25, 4.0]), np.zeros(3)):
            sparse = np.array([val @ x[idx] for idx, val in c.terms]) - c.offsets
            np.testing.assert_allclose(c.values(x), sparse, rtol=1e-15, atol=0)
        pts = rng.dirichlet(np.ones(3), size=200)
        np.testing.assert_allclose(
            c.value_batch(pts), [c.value(p) for p in pts], rtol=1e-15, atol=1e-15
        )

    def test_support_scan_is_nonzero(self):
        x = np.array([0.0, -0.0, 5e-324, np.nan, -2.0, 0.5, np.inf, 0.0])
        np.testing.assert_array_equal(support_of(x), x.nonzero()[0])
        np.testing.assert_array_equal(support_of(np.zeros(3)), np.zeros(0, dtype=np.intp))

    @pytest.mark.parametrize("n", [1, 2, 3, 50])
    def test_values_on_support(self, n):
        rng = np.random.default_rng(100 + n)
        rows = rng.standard_normal((7, n)) * (rng.random((7, n)) < 0.5)
        c = make_constraint(rows, rng.standard_normal(7))
        # each product sums at most n terms, so each is within gamma_n |C| |x|
        # of the exact values (Higham, Thm 3.5), and subtracting the offsets
        # rounds each result once more
        eps = np.finfo(float).eps
        gamma = n * eps / (1.0 - n * eps)
        steps = 0
        for size in sorted({0, 1, n // 2, n // 2 + 1, n}):
            for _ in range(5):
                x = np.zeros(n)
                support = rng.choice(n, size=size, replace=False)
                x[support] = rng.dirichlet(np.ones(size)) if size else []
                dense = c.term_matrix @ x - c.offsets
                values = c.values(x)
                # one support rule for the public and the step's evaluation
                np.testing.assert_array_equal(values, c.values_unchecked(x, x.nonzero()[0]))
                np.testing.assert_array_equal(c.values_unchecked(x), dense)
                assert c.value(x) == values.max() == values[values.argmax()]
                if 2 * size > n:
                    # the dense fallback, bit for bit
                    np.testing.assert_array_equal(values, dense)
                else:
                    bound = 2 * gamma * (np.abs(c.term_matrix) @ x) + 2 * eps * np.abs(dense)
                    assert (np.abs(values - dense) <= bound).all()
                    cols = np.sort(support)
                    np.testing.assert_array_equal(
                        values, np.dot(x[cols], c.term_columns[cols]) - c.offsets)
                    steps += 1
        assert steps > 0
        np.testing.assert_array_equal(c.term_columns, c.term_matrix.T)
        assert c.term_columns.flags.c_contiguous

    def test_validation(self):
        with pytest.raises(ValueError):
            MaxLinearConstraint([([0], [1.0, 2.0])], [0.0], 2)
        with pytest.raises(ValueError):
            MaxLinearConstraint([([5], [1.0])], [0.0], 2)
        with pytest.raises(ValueError):
            MaxLinearConstraint([([0], [1.0])], [0.0, 1.0], 2)
        with pytest.raises(ValueError):
            MaxLinearConstraint([], [], 2)
        # a cast would truncate these to other indices
        for indices in ([0.7, 1], [1.0], [True, 0], ["1"], [np.float64(1.0)]):
            with pytest.raises(ValueError, match="integers"):
                MaxLinearConstraint([(indices, [1.0] * len(indices))], [0.0], 2)
        with pytest.raises(ValueError, match="out of range"):
            MaxLinearConstraint([([2**70], [1.0])], [0.0], 2)
        for empty in ([], np.array([]), np.zeros(0, dtype=np.int64)):
            assert MaxLinearConstraint([(empty, [])], [0.0], 2).terms[0][0].size == 0
        kept = MaxLinearConstraint([([np.int64(1), 0], [1.0, 2.0])], [0.0], 2)
        np.testing.assert_array_equal(kept.terms[0][0], [1, 0])
        # finite data whose shifted direction c_m - b_m overflows
        with pytest.raises(ValueError, match="overflow"):
            MaxLinearConstraint([([0], [1e308])], [-1e308], 2)
        doc = problem_to_document(generate_instance(2, m_count=1, seed=0))
        doc["constraints"] = {"sparse": [{"indices": [0], "values": [1e308]}], "offsets": [-1e308]}
        with pytest.raises(InstanceValidationError, match="overflow"):
            problem_from_document(doc)


def test_oracle_arrays_refuse_writes():
    p = generate_instance(n=6, m_count=3, density=0.5, seed=7)
    c = p.constraint
    g_before = c.value(np.full(6, 1.0 / 6))
    arrays = [p.objective.matrix, c.offsets, c.term_matrix, c.term_columns, c.directions]
    arrays += [a for term in c.terms for a in term]
    arrays.append(LinearObjective([1.0, 2.0]).coefficients)
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[...] = 0.0
    # a shifted offset or a replaced term would leave the dense rows stale
    with pytest.raises(ValueError):
        c.offsets[0] -= 10
    with pytest.raises(TypeError):
        c.terms[0] = c.terms[1]
    assert c.value(np.full(6, 1.0 / 6)) == g_before


def test_construction_leaves_caller_arrays_writable():
    idx, val = np.array([0, 1]), np.array([1.0, -1.0])
    offsets, coefficients = np.zeros(1), np.ones(2)
    MaxLinearConstraint([(idx, val)], offsets, 2)
    LinearObjective(coefficients)
    for a in (idx, val, offsets, coefficients):
        assert a.flags.writeable
