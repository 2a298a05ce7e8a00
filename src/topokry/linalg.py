"""Sparse symmetric matrices, value checks and the dense pseudo-inverse.

Vectors are plain 1-D float64 numpy arrays; :func:`as_vector` validates
them at API boundaries.  :func:`pseudo_inverse` solves the coarsest
multigrid level, and the tests' ``singular_lab.range_basis`` splits a
matrix into its range and null space; both take one symmetric
eigendecomposition, cut at ``RANK_TOLERANCE`` = 1e-10: an eigenvalue
with |lambda| <= RANK_TOLERANCE * |lambda|_max counts as zero.  The
pseudo-inverse checks nothing: its one caller, the multigrid V-cycle,
hands it the finite, symmetric coarsest operator that it built.

:meth:`SparseSymMatrix.from_triplets` sums COO triplets from outside
through scipy, a stable sort by (row, col) and ``np.add.reduceat``; the
stiffness operators, fine and coarse, are summed by ``fem``.
"""
from __future__ import annotations

import operator
from functools import cached_property

import numpy as np
import scipy.sparse as sp

# eigenvalues with |lambda| <= RANK_TOLERANCE * |lambda|_max count as zero
RANK_TOLERANCE = 1e-10


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


def is_integer(value) -> bool:
    """Whether ``operator.index`` takes the value and it is no bool: a
    Python or numpy integer, and not a float, even an integral one."""
    if isinstance(value, bool):  # operator.index takes True, not np.True_
        return False
    try:
        operator.index(value)
    except TypeError:
        return False
    return True


class SparseSymMatrix:
    """Symmetric sparse matrix stored in CSR with the full pattern.

    Symmetry is an invariant checked at construction, not a storage trick:
    every stored (i, j) has an exactly equal stored (j, i).  Duplicate
    triplets are summed in a fixed order so assembly is bit-reproducible.
    Dimension 0 is permitted as the degenerate result of eliminating every
    degree of freedom from a system.
    """

    def __init__(self, csr: sp.csr_matrix, check: bool = True, diagonal=None):
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
        if diagonal is not None:
            diagonal.flags.writeable = False
        self._diagonal = diagonal

    @property
    def dimension(self) -> int:
        return self._csr.shape[0]

    @property
    def csr(self) -> sp.csr_matrix:
        return self._csr

    @classmethod
    def from_triplets(cls, n: int, rows, cols, values) -> "SparseSymMatrix":
        """Build from COO triplets, summing duplicates in a stable order.

        The input comes from outside, so its index types, its ranges and
        its symmetry are checked on every call.  scipy's
        ``coo_matrix.sum_duplicates`` sorts the triplets stably by (row,
        col) and adds each position's run with ``np.add.reduceat``, so
        (i, j) and (j, i) of a symmetric input sum alike, to the bit;
        exact-zero sums are not stored.
        """
        rows, cols = np.asarray(rows), np.asarray(cols)
        values = np.asarray(values, dtype=float)
        if not (rows.shape == cols.shape == values.shape):
            raise ValueError("triplet arrays must have matching shapes")
        if rows.size and not all(np.issubdtype(a.dtype, np.integer) for a in (rows, cols)):
            raise ValueError("triplet indices must be integers")
        if rows.size and (
            rows.min() < 0 or rows.max() >= n or cols.min() < 0 or cols.max() >= n
        ):
            raise ValueError("triplet index out of range")
        coo = sp.coo_matrix((values, (rows, cols)), shape=(n, n))
        coo.sum_duplicates()
        csr = coo.tocsr()
        csr.eliminate_zeros()
        return cls(csr)

    def diagonal(self) -> np.ndarray:
        """The diagonal: read from the CSR arrays, or the read-only array
        the builder passed, which a layout gathers at a fraction of the
        cost (:meth:`fem.CsrLayout.matrix`)."""
        return self._csr.diagonal() if self._diagonal is None else self._diagonal

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
        """Indices of rows with no stored entries (fully decoupled DOFs),
        read once per matrix; the array is read-only."""
        return self._zero_rows

    @cached_property
    def _zero_rows(self) -> np.ndarray:
        rows = np.flatnonzero(np.diff(self._csr.indptr) == 0)
        rows.flags.writeable = False
        return rows


def _eigen_cut(a: np.ndarray):
    """The eigenvalues w and eigenvectors v of the symmetric part of a
    dense a, and the mask of |w| > RANK_TOLERANCE * |w|_max: the eigenpairs
    that span the range."""
    w, v = np.linalg.eigh(0.5 * (a + a.T))
    magnitude = np.abs(w)
    return w, v, magnitude > RANK_TOLERANCE * magnitude.max(initial=0.0)


def pseudo_inverse(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose pseudo-inverse A+ of a dense symmetric A.

    Inverts the eigenvalues that survive the ``RANK_TOLERANCE`` cut and
    drops the rest.  Nothing is checked: the caller vouches that a is
    finite, symmetric and small.
    """
    w, v, keep = _eigen_cut(a)
    v = v[:, keep]
    return (v / w[keep]) @ v.T
