"""Sparse symmetric matrices, vector checks, and small dense solvers.

Vectors are plain 1-D float64 numpy arrays and dense matrices are 2-D
float64 numpy arrays; :func:`as_vector` / :func:`as_dense` validate them at
API boundaries.  The dense solvers exist as test oracles, and
:func:`pseudo_inverse` also solves the coarsest multigrid level; like
every dense tool they are limited to n <= DENSE_SIZE_LIMIT = 2000 by
contract; :func:`as_small_square`, :func:`check_dense_size` and
:func:`check_symmetric` hold the checks they share, and
``RANK_TOLERANCE`` = 1e-10 and ``PIVOT_TOLERANCE`` = 1e-14 the cuts below
which they count an eigenvalue or a pivot as zero.

Sparse matrices are built from COO triplets by :class:`TripletPattern`,
the one sort-and-sum implementation: it sorts the triplet positions once,
so a caller whose positions never change (the element scatter of a mesh)
pays for the sort once and for a linear masked sum on every build.  A
triplet's value is an r-by-c block: the element scatter sorts node pairs
and sums 2x2 blocks, a quarter of the terms a sort of DOF pairs would
keep, and :meth:`SparseSymMatrix.from_triplets` sums 1x1 blocks.
"""
from __future__ import annotations

import warnings

import numpy as np
import scipy.sparse as sp

DENSE_SIZE_LIMIT = 2000
# eigenvalues with |lambda| <= RANK_TOLERANCE * |lambda|_max count as zero
RANK_TOLERANCE = 1e-10
# LU pivots with |u_kk| <= PIVOT_TOLERANCE * max|a_ij| make a matrix singular
PIVOT_TOLERANCE = 1e-14


class SingularMatrixError(ValueError):
    """Raised when a direct solve meets a numerically singular matrix."""


def as_vector(x, n: int | None = None, name: str = "vector") -> np.ndarray:
    """Validate and return a finite 1-D float64 array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {v.shape}")
    if n is not None and v.size != n:
        raise ValueError(f"{name} has length {v.size}, expected {n}")
    if v.size and not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains non-finite components")
    return v


def as_dense(a, name: str = "matrix") -> np.ndarray:
    """Validate and return a finite 2-D float64 array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def as_small_square(a, name: str = "matrix") -> np.ndarray:
    """Validate a finite square 2-D array within the dense size limit."""
    m = as_dense(a, name)
    n, cols = m.shape
    if n != cols:
        raise ValueError(f"{name} must be square, got {m.shape}")
    check_dense_size(n, name)
    return m


def check_dense_size(n: int, name: str = "matrix") -> None:
    """Raise unless an n-by-n matrix is within the dense size limit."""
    if n > DENSE_SIZE_LIMIT:
        raise ValueError(
            f"{name} is {n}x{n}; dense work is limited to n <= {DENSE_SIZE_LIMIT}"
        )


def check_symmetric(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return a square array, raising unless it is symmetric to within
    1e-12 of its largest entry."""
    if m.size:
        scale = np.abs(m).max()
        if np.abs(m - m.T).max() > 1e-12 * max(scale, 1e-300):
            raise ValueError(f"{name} must be symmetric")
    return m


class SparseSymMatrix:
    """Symmetric sparse matrix stored in CSR with the full pattern.

    Symmetry is an invariant checked at construction, not a storage trick:
    every stored (i, j) has an exactly equal stored (j, i).  Duplicate
    triplets are summed in a fixed order so assembly is bit-reproducible.
    Dimension 0 is permitted as the degenerate result of eliminating every
    degree of freedom from a system.
    """

    def __init__(self, csr: sp.csr_matrix, check: bool = True):
        csr = csr.tocsr()
        csr.sort_indices()
        n, m = csr.shape
        if n != m:
            raise ValueError(f"matrix must be square, got {csr.shape}")
        if check and n > 0:
            if csr.nnz and not np.all(np.isfinite(csr.data)):
                raise ValueError("matrix contains non-finite entries")
            if (csr != csr.T).nnz != 0:
                raise ValueError("matrix is not symmetric")
        self._csr = csr

    @property
    def dimension(self) -> int:
        return self._csr.shape[0]

    @property
    def csr(self) -> sp.csr_matrix:
        return self._csr

    @classmethod
    def from_triplets(cls, n: int, rows, cols, values) -> "SparseSymMatrix":
        """Build from COO triplets, summing duplicates in a stable order.

        The input comes from outside, so its ranges and its symmetry are
        checked on every call.
        """
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("triplet arrays must have matching shapes")
        if rows.size and (
            rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n
        ):
            raise ValueError("triplet index out of range")
        pattern, order = TripletPattern.sort(n, rows, cols)
        return cls(pattern.sum(values[order][:, None, None]))

    @classmethod
    def from_dense(cls, a) -> "SparseSymMatrix":
        return cls(sp.csr_matrix(as_dense(a)))

    @classmethod
    def from_diagonal(cls, d) -> "SparseSymMatrix":
        d = as_vector(d, name="diagonal")
        return cls(sp.diags(d, format="csr"), check=False)

    @classmethod
    def identity(cls, n: int) -> "SparseSymMatrix":
        return cls(sp.identity(n, format="csr"), check=False)

    def diagonal(self) -> np.ndarray:
        return self._csr.diagonal()

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def submatrix(self, keep) -> "SparseSymMatrix":
        """Principal submatrix on the given index set (order preserved)."""
        keep = np.asarray(keep, dtype=np.int64)
        reduced = self._csr[keep][:, keep].tocsr()
        return SparseSymMatrix(reduced, check=False)

    def scaled(self, s) -> "SparseSymMatrix":
        """Symmetric diagonal scaling diag(s) @ A @ diag(s)."""
        n = self.dimension
        s = as_vector(s, n, "scaling")
        csr = self._csr
        # s[r]*s[c] is computed once per entry; the (i,j)/(j,i) pair gets the
        # exact same product, so symmetry survives bit-for-bit.
        data = csr.data * (np.repeat(s, np.diff(csr.indptr)) * s[csr.indices])
        out = sp.csr_matrix(
            (data, csr.indices.copy(), csr.indptr.copy()), shape=(n, n)
        )
        return SparseSymMatrix(out, check=False)

    def zero_rows(self) -> np.ndarray:
        """Indices of rows with no stored entries (fully decoupled DOFs)."""
        counts = np.diff(self._csr.indptr)
        return np.flatnonzero(counts == 0)


class TripletPattern:
    """The positions of n-by-n COO triplets, sorted once by (row, col).

    :meth:`sort` builds a pattern and hands back the stable sort
    permutation ``order``: sorted term t is input term ``order[t]``.  The
    pattern does not keep it.  :meth:`sum` takes values in that sorted
    order and returns the matrix of their duplicate sums, so a caller
    whose positions stay fixed builds each new matrix without sorting.
    Indices are trusted: callers check their ranges before building a
    pattern.
    """

    @classmethod
    def sort(cls, n: int, rows, cols) -> tuple["TripletPattern", np.ndarray]:
        """The pattern of unsorted positions and their sort permutation."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        # Stable lexsort keeps the per-entry addend order identical for
        # (i, j) and (j, i), so symmetric inputs assemble symmetrically
        # down to the last bit.
        order = np.lexsort((cols, rows))
        return cls(n, rows[order], cols[order]), order

    def __init__(self, n: int, rows, cols):
        """The pattern of positions already sorted by (row, col)."""
        r = np.asarray(rows, dtype=np.int64)
        c = np.asarray(cols, dtype=np.int64)
        first = np.ones(r.size, dtype=bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        self.n = n
        # int32 indices, as scipy prefers, whenever they hold every index;
        # scipy's block-to-CSR conversion widens them again if the expanded
        # matrix (r * n rows, r * c * entries values) needs int64
        index = np.int32 if max(n, r.size) <= np.iinfo(np.int32).max else np.int64
        # each distinct (row, col) is one entry; entry[t] is sorted term t's
        self.entry = np.cumsum(first, dtype=index) - 1
        self.rows = r[first].astype(index)
        self.cols = c[first].astype(index)

    def sum(self, values, kept=None) -> sp.csr_matrix:
        """CSR matrix of the sorted terms' r-by-c block values, duplicates
        summed.

        ``kept`` lists the sorted terms to sum, in ascending order, and
        ``values`` (shape (K, r, c)) holds one block per kept term; ``None``
        keeps every term.  An entry none of whose terms is kept is not
        stored at all.  Each stored block is the ``np.add.reduceat`` sum of
        its kept blocks in sorted order, the same sum a stable sort of the
        kept triplets alone would give, and ``reduceat`` along the term axis
        adds each block component exactly as it adds a 1-D run.  The result
        is the (r n)-by-(c n) expansion of the block matrix, stored zeros
        included.
        """
        entry = self.entry if kept is None else self.entry.take(kept)
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or len(values) != entry.size:
            raise ValueError(
                f"values of shape {values.shape} for {entry.size} kept terms"
            )
        first = np.ones(entry.size, dtype=bool)
        np.not_equal(entry[1:], entry[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        stored = entry.take(starts)
        data = np.add.reduceat(values, starts, axis=0)
        indptr = np.zeros(self.n + 1, dtype=self.cols.dtype)
        np.cumsum(
            np.bincount(self.rows.take(stored), minlength=self.n), out=indptr[1:]
        )
        r, c = values.shape[1:]
        return sp.bsr_matrix(
            (data, self.cols.take(stored), indptr),
            shape=(r * self.n, c * self.n),
            blocksize=(r, c),
        ).tocsr()


def dense_solve(a, b) -> np.ndarray:
    """Solve A x = b by LU factorization with partial pivoting (LAPACK).

    Test oracle for regular systems; n is limited to 2000.  Raises
    :class:`SingularMatrixError` when a pivot of the factorization falls
    to ``PIVOT_TOLERANCE`` times the largest entry of A.
    """
    # imported here: at module level it would add tens of milliseconds to
    # every ``import topokry`` for a function only tests call
    from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

    a = as_small_square(a, "a")
    n = a.shape[0]
    b = as_vector(b, n, "b")
    if n == 0:
        return np.zeros(0)
    scale = np.abs(a).max()
    if scale == 0.0:
        raise SingularMatrixError("zero matrix")
    with warnings.catch_warnings():
        # an exactly zero pivot is reported below, as any tiny one is
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(a, check_finite=False)
    pivots = np.abs(np.diagonal(lu))
    small = np.flatnonzero(pivots <= PIVOT_TOLERANCE * scale)
    if small.size:
        k = int(small[0])
        raise SingularMatrixError(f"pivot {lu[k, k]:.3e} at column {k}")
    return lu_solve((lu, piv), b, check_finite=False)


def pseudo_inverse(a) -> np.ndarray:
    """Moore-Penrose pseudo-inverse A+ of a symmetric A.

    Uses the symmetric eigendecomposition and drops eigenvalues with
    |lambda| <= RANK_TOLERANCE * |lambda|_max; n is limited to 2000.
    """
    a = check_symmetric(as_small_square(a, "a"), "a")
    if a.size == 0:
        return np.zeros_like(a)
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    keep = np.abs(w) > RANK_TOLERANCE * np.abs(w).max()
    v = v[:, keep]
    return (v / w[keep]) @ v.T


def pseudo_solve(a, b) -> np.ndarray:
    """Minimum-norm least-squares solution x = A+ b for symmetric A.

    Test oracle for singular systems; see :func:`pseudo_inverse`.
    """
    pinv = pseudo_inverse(a)
    return pinv @ as_vector(b, pinv.shape[0], "b")
