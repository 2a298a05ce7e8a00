import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from topokry import SparseSymMatrix
from topokry.fem import TripletPattern, index_dtype
from singular_lab import as_small_square, pseudo_inverse, range_basis
from util import (
    SingularMatrixError,
    assert_same_csr,
    assert_same_sums,
    dense_solve,
    random_singular_psd,
    random_sparse_symmetric,
    random_spd,
    reduceat_sum_oracle,
    triplet_sum_oracle,
)


class TestSparseSymMatrix:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            SparseSymMatrix(sp.csr_matrix([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            SparseSymMatrix(sp.csr_matrix((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            SparseSymMatrix(sp.csr_matrix([[np.nan, 0.0], [0.0, 1.0]]))

    def test_triplets_sum_duplicates(self):
        a = SparseSymMatrix.from_triplets(
            2, [0, 0, 1, 0, 1], [1, 1, 0, 0, 1], [1.0, 2.0, 3.0, 5.0, 7.0]
        )
        np.testing.assert_allclose(a.to_dense(), [[5.0, 3.0], [3.0, 7.0]])

    def test_triplet_index_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            SparseSymMatrix.from_triplets(2, [0, 2], [0, 2], [1.0, 1.0])

    def test_triplet_indices_must_be_integers(self):
        # a float index would be truncated: 0.5 would land at 0
        for rows, cols in (([0.5], [0.5]), ([0.0], [0]), ([0], [1.0]), ([True], [True])):
            with pytest.raises(ValueError, match="integers"):
                SparseSymMatrix.from_triplets(2, rows, cols, [1.0])
        # no triplet at all is an empty matrix, whatever type numpy gives []
        empty = SparseSymMatrix.from_triplets(2, [], [], [])
        assert empty.csr.shape == (2, 2) and empty.csr.nnz == 0

    def test_triplets_sum_as_sorting_afresh(self):
        # up to ~60 duplicates per position, so the sums run past the
        # 8-term blocks numpy's reductions unroll
        rng = np.random.default_rng(17)
        for n, terms in ((1, 30), (5, 400), (30, 2000)):
            rows, cols, values = mirrored(
                rng.integers(0, n, terms), rng.integers(0, n, terms), rng.standard_normal(terms)
            )
            for share in (0.0, 0.3, 0.9, 1.0):
                keep = np.repeat(rng.random(terms) < share, 2)
                got = SparseSymMatrix.from_triplets(n, rows[keep], cols[keep], values[keep])
                expected = triplet_sum_oracle(n, rows[keep], cols[keep], values[keep])
                assert_same_csr(got.csr, without_zeros(expected))

    def test_scaled_preserves_symmetry_exactly(self):
        rng = np.random.default_rng(7)
        a, _ = random_sparse_symmetric(rng, 12)
        s = rng.uniform(0.1, 3.0, size=12)
        scaled = a.scaled(s).to_dense()
        assert np.array_equal(scaled, scaled.T)

    def test_scaled_matches_entrywise_product_bit_for_bit(self):
        # each stored a_ij becomes a_ij * (s_i * s_j), nothing else
        rng = np.random.default_rng(11)
        for n in (0, 1, 12, 60):
            a, _ = random_sparse_symmetric(rng, n)
            s = rng.uniform(0.1, 3.0, size=n)
            coo = a.csr.tocoo()
            expected = coo.data * (s[coo.row] * s[coo.col])
            scaled = a.scaled(s).csr
            np.testing.assert_array_equal(scaled.indptr, a.csr.indptr)
            np.testing.assert_array_equal(scaled.indices, a.csr.indices)
            assert scaled.data.tobytes() == expected.tobytes()
            assert not np.shares_memory(scaled.indices, a.csr.indices)
            assert not np.shares_memory(scaled.indptr, a.csr.indptr)

    def test_zero_rows(self):
        a = SparseSymMatrix(
            sp.csr_matrix([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [2.0, 0.0, 1.0]])
        )
        np.testing.assert_array_equal(a.zero_rows(), [1])


class TestAsSmallSquare:
    @pytest.mark.parametrize(
        "a, message",
        [
            (np.ones(3), "square 2-D"),
            (np.ones((2, 3)), "square 2-D"),
            ([[1.0, np.inf], [0.0, 1.0]], "non-finite"),
            (np.broadcast_to(1.0, (2001, 2001)), "2001x2001"),
            (SparseSymMatrix(sp.identity(2001, format="csr")), "2001x2001"),
        ],
        ids=["1-D", "2x3", "inf", "dense-2001", "sparse-2001"],
    )
    def test_rejects(self, a, message):
        with pytest.raises(ValueError, match=message):
            as_small_square(a)

    def test_sparse_made_dense(self):
        a = SparseSymMatrix(sp.diags([1.0, 2.0], format="csr"))
        np.testing.assert_array_equal(as_small_square(a), np.diag([1.0, 2.0]))


def mirrored(rows, cols, values):
    """Each triplet followed by its mirror: a symmetric input whose (i, j)
    and (j, i) sum the same values in the same order."""
    return (
        np.column_stack([rows, cols]).ravel(),
        np.column_stack([cols, rows]).ravel(),
        np.repeat(values, 2),
    )


def bounded_runs(rng, n, positions):
    """Shuffled triplet positions on an n-by-n grid: ``positions`` distinct
    ones, each taken 1 to 8 times, the runs the pattern's sum keeps in
    reduceat's association."""
    cells = rng.choice(n * n, size=positions, replace=False)
    rows, cols = np.divmod(np.repeat(cells, rng.integers(1, 9, positions)), n)
    shuffle = rng.permutation(rows.size)
    return rows[shuffle], cols[shuffle]


def block_csr(pattern, n, rows, cols, sums):
    """The CSR matrix of the r-by-r entry sums of the pattern of the given
    positions, through scipy's block format, without its exact zeros."""
    first = pattern.order[np.flatnonzero(np.diff(pattern.entry, prepend=-1))]
    r = sums.shape[1]
    indptr = np.searchsorted(rows[first], np.arange(n + 1)).astype(np.int32)
    csr = sp.bsr_matrix(
        (sums, cols[first].astype(np.int32), indptr), shape=(r * n, r * n)
    ).tocsr()
    csr.eliminate_zeros()
    return csr


def without_zeros(csr):
    csr = csr.copy()
    csr.eliminate_zeros()
    return csr


class TestTripletPattern:
    """``fem.TripletPattern``, which sums every stiffness operator."""

    cases = ((1, 1), (5, 20), (30, 300))

    def test_masked_sum_matches_sorting_the_kept_triplets(self):
        rng = np.random.default_rng(17)
        for n, positions in self.cases:
            rows, cols = bounded_runs(rng, n, positions)
            values = rng.standard_normal(rows.size)
            blocks = values[:, None, None]
            pattern = TripletPattern(rows, cols)
            order = pattern.order
            for share in (0.0, 0.3, 0.9, 1.0):
                keep = rng.random(rows.size) < share
                kept = np.flatnonzero(keep[order])
                got = block_csr(pattern, n, rows, cols, pattern.sum(blocks[order][kept], kept))
                expected = triplet_sum_oracle(
                    n, rows[keep], cols[keep], values[keep]
                )
                assert_same_csr(got, without_zeros(expected))
            assert_same_csr(
                block_csr(pattern, n, rows, cols, pattern.sum(blocks[order])),
                without_zeros(triplet_sum_oracle(n, rows, cols, values)),
            )

    def test_block_sum_matches_the_scalar_sum_of_each_component(self):
        # 2x2 block values: the CSR entries (2a + p, 2b + q) hold the bytes
        # of the sorted-afresh sum of the (p, q) components of the kept
        # triplets, masked or not
        rng = np.random.default_rng(23)
        for n, positions in self.cases:
            rows, cols = bounded_runs(rng, n, positions)
            values = rng.standard_normal((rows.size, 2, 2))
            pattern = TripletPattern(rows, cols)
            order = pattern.order
            for share in (0.0, 0.3, 1.0):
                keep = rng.random(rows.size) < share
                kept = np.flatnonzero(keep[order])
                got = block_csr(pattern, n, rows, cols, pattern.sum(values[order][kept], kept))
                assert got.format == "csr"
                assert got.shape == (2 * n, 2 * n)
                for p, q in np.ndindex(2, 2):
                    expected = triplet_sum_oracle(
                        n, rows[keep], cols[keep], values[keep, p, q]
                    )
                    assert_same_csr(got[p::2, q::2], without_zeros(expected))

    def test_indices_are_int32_when_they_fit(self):
        # order stays intp: a gather through an int32 index converts it first
        pattern = TripletPattern([3, 0, 3, 1], [0, 2, 0, 1])
        assert pattern.entry.dtype == np.int32
        assert pattern.order.dtype == np.intp
        assert pattern.entries == 3
        summation = pattern.summation()
        assert summation.indices.dtype == summation.indptr.dtype == np.int32

    @pytest.mark.parametrize("length", range(1, 13))
    def test_runs_of_any_length_sum_as_reduceat_does(self, length):
        # from_triplets sums runs of any length through scipy's reduceat;
        # the pattern's rotated 0/1 product keeps reduceat's association
        # up to 8 terms, past which reduceat sums pairwise (a mesh entry
        # has at most 4)
        rng = np.random.default_rng(length)
        n = 3
        rows = np.repeat(np.arange(n), length)
        cols = rows[::-1]
        pattern = TripletPattern(rows, cols)
        for _ in range(50):
            magnitude = 10.0 ** rng.integers(-8, 8)
            # (0, 2) and (2, 0) take the same run, so the input is symmetric
            a, b = rng.standard_normal((2, length)) * magnitude
            keep_a, keep_b = rng.random((2, length)) < 0.8
            values = np.concatenate([a, b, a])
            keep = np.concatenate([keep_a, keep_b, keep_a])
            got = SparseSymMatrix.from_triplets(n, rows[keep], cols[keep], values[keep])
            expected = triplet_sum_oracle(n, rows[keep], cols[keep], values[keep])
            assert_same_csr(got.csr, without_zeros(expected))
            if length > 8:
                continue
            blocks = rng.standard_normal((rows.size, 2, 2)) * magnitude
            kept = np.flatnonzero(rng.random(rows.size) < 0.8)
            assert_same_sums(
                pattern.sum(blocks[kept], kept),
                reduceat_sum_oracle(pattern, blocks[kept], kept),
            )
            assert_same_sums(pattern.sum(blocks), reduceat_sum_oracle(pattern, blocks))

    def test_value_count_must_match_kept_terms(self):
        pattern = TripletPattern([0, 1, 1], [0, 1, 1])
        with pytest.raises(ValueError, match="kept terms"):
            pattern.sum(np.ones((2, 1, 1)), np.array([0]))


class TestIndexDtype:
    def test_int32_up_to_its_largest_value(self):
        # a CSR array of a mesh past about 60M nodes holds values past
        # int32 (36 slots per node): its dtype follows its largest value
        assert index_dtype(0) is np.int32
        assert index_dtype(np.iinfo(np.int32).max) is np.int32
        assert index_dtype(np.iinfo(np.int32).max + 1) is np.int64
        assert index_dtype(36 * 60_000_000) is np.int64


class TestSpmv:
    def test_identity(self):
        a = SparseSymMatrix(sp.identity(3, format="csr"))
        np.testing.assert_array_equal(a.csr @ np.array([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_matches_dense_multiply_oracle(self):
        rng = np.random.default_rng(11)
        a, dense = random_sparse_symmetric(rng, 10)
        x = rng.standard_normal(10)
        # oracle: explicit row-by-row dense multiplication
        expected = np.array([dense[i] @ x for i in range(10)])
        got = a.csr @ x
        assert np.linalg.norm(got - expected) <= 1e-14 * max(np.linalg.norm(expected), 1.0)

    def test_linearity_property(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            a, _ = random_sparse_symmetric(rng, n)
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            al, be = rng.standard_normal(2)
            lhs = a.csr @ (al * x + be * y)
            rhs = al * (a.csr @ x) + be * (a.csr @ y)
            scale = max(np.linalg.norm(rhs), 1e-30)
            assert np.linalg.norm(lhs - rhs) <= 1e-12 * scale

    def test_self_adjoint_property(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            a, _ = random_sparse_symmetric(rng, n)
            x, y = rng.standard_normal(n), rng.standard_normal(n)
            lhs = x @ (a.csr @ y)
            rhs = (a.csr @ x) @ y
            scale = max(abs(lhs), abs(rhs), 1e-30)
            assert abs(lhs - rhs) <= 1e-12 * scale


class TestDenseSolve:
    """The LU oracle in the test helpers, which regular solves are checked
    against."""

    def test_diagonal(self):
        x = dense_solve(np.diag([1.0, 2.0, 4.0]), [1.0, 2.0, 4.0])
        np.testing.assert_allclose(x, [1.0, 1.0, 1.0], atol=1e-14)

    def test_symmetric_2x2(self):
        x = dense_solve([[2.0, 1.0], [1.0, 2.0]], [3.0, 3.0])
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-14)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(19)
        a = random_spd(rng, 8)
        b = rng.standard_normal(8)
        x = dense_solve(a, b)
        assert np.linalg.norm(a @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_singular_raises(self):
        with pytest.raises(SingularMatrixError):
            dense_solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])

    def test_exactly_singular_raises_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError, match="column 1"):
                dense_solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0])

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            dense_solve(np.zeros((3, 3)), np.ones(3))

    def test_needs_pivoting(self):
        # zero leading pivot: elimination only works with row exchange
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(dense_solve(a, [2.0, 3.0]), [3.0, 2.0])

    def test_size_limit(self):
        with pytest.raises(ValueError, match="2000"):
            dense_solve(np.eye(2001), np.ones(2001))


class TestPseudoSolve:
    """x = A+ b through :func:`pseudo_inverse`."""

    def test_regular_block_untouched(self):
        np.testing.assert_allclose(
            pseudo_inverse(np.diag([1.0, 0.0])) @ [2.0, 0.0], [2.0, 0.0], atol=1e-12
        )

    def test_null_component_annihilated(self):
        np.testing.assert_allclose(
            pseudo_inverse(np.diag([1.0, 0.0])) @ [2.0, 5.0], [2.0, 0.0], atol=1e-12
        )

    def test_diagonal_pseudo_inverse(self):
        np.testing.assert_allclose(
            pseudo_inverse(np.diag([2.0, 3.0, 0.0])) @ [4.0, 9.0, 7.0],
            [2.0, 3.0, 0.0],
            atol=1e-12,
        )

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            pseudo_inverse([[1.0, 2.0], [0.0, 1.0]])

    def test_zero_matrix_maps_to_zero(self):
        np.testing.assert_array_equal(
            pseudo_inverse(np.zeros((3, 3))) @ [1.0, 2.0, 3.0], np.zeros(3)
        )

    def test_result_in_range_property(self):
        rng = np.random.default_rng(23)
        for _ in range(15):
            n = int(rng.integers(3, 12))
            nullity = int(rng.integers(1, n))
            a, q1, _ = random_singular_psd(rng, n, nullity)
            b = rng.standard_normal(n)
            x = pseudo_inverse(a) @ b
            b_range = q1 @ (q1.T @ b)
            assert np.linalg.norm(a @ x - b_range) <= 1e-9 * max(np.linalg.norm(b), 1e-30)


def rank_cut_cases():
    """Seeded singular PSD matrices, the zero matrix and the empty one."""
    rng = np.random.default_rng(29)
    cases = [(np.zeros((4, 4)), 0), (np.zeros((0, 0)), 0)]
    for n, nullity in ((3, 1), (8, 3), (12, 11), (20, 7)):
        cases.append((random_singular_psd(rng, n, nullity)[0], n - nullity))
    return cases


class TestRankCut:
    """``pseudo_inverse`` and ``range_basis`` share one eigenvalue cut."""

    @pytest.mark.parametrize("a, rank", rank_cut_cases())
    def test_range_rank_is_the_count_pseudo_inverse_keeps(self, a, rank):
        # A A+ projects onto the eigenvectors the cut keeps: its trace counts them
        kept = np.trace(a @ pseudo_inverse(a))
        assert range_basis(a).rank == rank
        assert abs(kept - rank) <= 1e-9

    @pytest.mark.parametrize("a, rank", rank_cut_cases())
    def test_pseudo_inverse_inverts_the_regular_block(self, a, rank):
        dec = range_basis(a)
        expected = dec.q_range @ np.linalg.inv(dec.a11) @ dec.q_range.T
        got = pseudo_inverse(a)
        assert got.shape == a.shape
        assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)

    def test_sparse_input_gives_the_dense_bits(self):
        a, _, _ = random_singular_psd(np.random.default_rng(31), 9, 2)
        sparse = SparseSymMatrix(sp.csr_matrix(a))
        assert pseudo_inverse(sparse).tobytes() == pseudo_inverse(a).tobytes()
        for name in ("q_range", "q_null", "a11"):
            got, expected = getattr(range_basis(sparse), name), getattr(range_basis(a), name)
            assert got.tobytes() == expected.tobytes(), name
