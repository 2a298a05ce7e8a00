"""Sparse symmetric matrices, value checks and the dense pseudo-inverse.

Vectors are plain 1-D float64 numpy arrays; :func:`as_vector` validates
them at API boundaries.  :func:`pseudo_inverse` solves the coarsest
multigrid level, and the tests' ``singular_lab.range_basis`` splits a
matrix into its range and null space; both take one symmetric
eigendecomposition, cut at ``RANK_TOLERANCE`` = 1e-10: an eigenvalue
with |lambda| <= RANK_TOLERANCE * |lambda|_max counts as zero.  The
pseudo-inverse checks nothing: its one caller, the multigrid V-cycle,
hands it the finite, symmetric coarsest operator that it built.

Sparse matrices are built from COO triplets by :class:`TripletPattern`,
the one sum implementation: it sorts the triplet positions once and
keeps the sort permutation, so a caller whose positions never change
(the element scatter of a mesh) pays for the sort once and for one
masked sum on every build.  A triplet's value is an r-by-c block: the
element scatter sums 2x2 blocks of the upper node pairs, 10 terms per
element where a sort of DOF pairs would keep 64, and
:meth:`SparseSymMatrix.from_triplets` sums 1x1 blocks.  A
:class:`CsrLayout` gathers the sums into CSR and stores no exact-zero
sum.  Index arrays take :func:`index_dtype`, except those a build
gathers through, which are intp: ``ndarray.take`` converts any other
index to intp first, a copy of the whole index on every call.
"""
from __future__ import annotations

import operator
from functools import cached_property

import numpy as np
import scipy.sparse as sp

# eigenvalues with |lambda| <= RANK_TOLERANCE * |lambda|_max count as zero
RANK_TOLERANCE = 1e-10
# np.add.reduceat adds a run's terms after its first one in order while
# they are fewer than this; longer runs go through numpy's pairwise sum
SEQUENTIAL_RUN = 8


def index_dtype(largest: int) -> type:
    """The dtype of an index array whose values reach ``largest``: int32,
    which scipy prefers and which halves the bytes, when it holds it, and
    int64 otherwise."""
    return np.int32 if largest <= np.iinfo(np.int32).max else np.int64


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
    """Whether ``operator.index`` takes the value: a Python or numpy
    integer, and not a float, even an integral one."""
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
        pattern = TripletPattern(n, rows, cols)
        sums = pattern.sum(values[pattern.order][:, None, None])
        indptr = np.searchsorted(pattern.rows, np.arange(n + 1))
        csr = sp.csr_matrix((sums.ravel(), pattern.cols, indptr), shape=(n, n))
        csr.eliminate_zeros()
        return cls(csr)

    def diagonal(self) -> np.ndarray:
        """The diagonal: read from the CSR arrays, or the read-only array
        the builder passed, which a layout gathers at a fraction of the
        cost (:meth:`CsrLayout.diagonal`)."""
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


class TripletPattern:
    """The positions of n-by-n COO triplets, sorted once by (row, col).

    ``order`` is the stable sort permutation: sorted term t is input term
    ``order[t]``.  :meth:`sum` takes values in that sorted order and
    returns the duplicate sums of each distinct position, an entry, which
    the caller puts into a CSR matrix (a mesh through a
    :class:`CsrLayout`), so a caller whose positions stay fixed builds
    each new matrix without sorting.  ``order`` is intp, as ``lexsort``
    returns it, so a caller that gathers through it, or through the term
    indices it reads from it, converts no index; ``entry``, ``rows`` and
    ``cols`` take :func:`index_dtype`.  Indices are trusted: callers
    check their ranges before building a pattern.
    """

    def __init__(self, n: int, rows, cols):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        self.n = n
        # Stable lexsort keeps the per-entry addend order identical for
        # (i, j) and (j, i), so symmetric inputs assemble symmetrically
        # down to the last bit.
        self.order = np.lexsort((cols, rows))
        r, c = rows[self.order], cols[self.order]
        first = np.ones(r.size, dtype=bool)
        first[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        # each distinct (row, col) is one entry; entry[t] is sorted term t's
        self.entry = np.cumsum(first, dtype=index_dtype(r.size)) - 1
        self.rows = r[first].astype(index_dtype(n))
        self.cols = c[first].astype(index_dtype(n))
        # the most terms one entry sums
        self.longest = int(np.diff(np.flatnonzero(np.append(first, True))).max(initial=0))

    def sum(self, values, kept=None) -> np.ndarray:
        """Each entry's sum of its kept terms' r-by-c block values, shape
        (entries, r, c).

        ``kept`` lists the sorted terms to sum, in ascending order, and
        ``values`` (shape (K, r, c)) holds one block per kept term; ``None``
        keeps every term.  An entry none of whose terms is kept sums to
        zero.  Each other block has the bytes of the ``np.add.reduceat``
        sum of its kept blocks in sorted order, the same sum a stable sort
        of the kept triplets alone would give, and ``reduceat`` along the
        term axis adds each block component exactly as it adds a 1-D run;
        only a sum that is zero may differ, in its sign.

        ``reduceat`` adds a run t0, t1, ..., tk as t0 + (((t1 + t2) + ...)
        + tk) while k < ``SEQUENTIAL_RUN``, and a CSR product adds each
        row left to right from +0.0, so while no entry has more than
        ``SEQUENTIAL_RUN`` terms one sparse product of 0/1 rows, each
        listing its entry's kept terms with the first moved last, gives
        those bytes at a fraction of the cost (a mesh entry has at most 4
        terms); a pattern with longer runs keeps ``reduceat``.
        """
        entry = self.entry if kept is None else self.entry.take(kept)
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or len(values) != entry.size:
            raise ValueError(
                f"values of shape {values.shape} for {entry.size} kept terms"
            )
        shape = (self.rows.size,) + values.shape[1:]
        first = np.ones(entry.size, dtype=bool)
        np.not_equal(entry[1:], entry[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        if self.longest > SEQUENTIAL_RUN:
            sums = np.zeros(shape)
            if entry.size:
                sums[entry.take(starts)] = np.add.reduceat(values, starts, axis=0)
            return sums
        terms = entry.size
        index = index_dtype(terms)
        # row i lists entry i's kept terms t0, t1, ..., tk as t1, ..., tk, t0
        columns = np.arange(1, terms + 1, dtype=index)
        if terms:
            columns[starts[1:] - 1] = starts[:-1]
            columns[-1] = starts[-1]
        indptr = np.zeros(shape[0] + 1, dtype=index)
        np.cumsum(np.bincount(entry, minlength=shape[0]), out=indptr[1:])
        # each array goes once it is read, so the product's peak holds no
        # index it no longer needs
        del first, starts, entry
        summation = sp.csr_matrix((np.ones(terms), columns, indptr), shape=(shape[0], terms))
        return (summation @ values.reshape(terms, shape[1] * shape[2])).reshape(shape)


class CsrLayout:
    """Where block sums go in a CSR matrix, fixed for a run.

    Slot s, in CSR order, holds the sum at flat index ``src[s]`` of the
    block sums :meth:`csr` takes, in column ``cols[s]``; the slots of row
    i run from ``slot_ptr[i]`` to ``slot_ptr[i + 1]``.  A caller works the
    layout out once from its own pattern; :meth:`csr` then costs one
    gather and one compaction per matrix.  ``src`` is held as intp, so
    the gather converts no index; ``cols`` and ``slot_ptr`` are the CSR
    arrays, in :func:`index_dtype` of their largest value.
    """

    def __init__(self, src: np.ndarray, cols: np.ndarray, slot_ptr: np.ndarray):
        self.src = src.astype(np.intp, copy=False)
        self.cols = cols
        self.slot_ptr = slot_ptr
        self.n = len(slot_ptr) - 1

    def csr(self, sums) -> sp.csr_matrix:
        """The CSR matrix of the block sums.  An exact-zero sum is not
        stored, so a row whose every sum is zero stays empty."""
        data = np.asarray(sums, dtype=float).reshape(-1).take(self.src)
        csr = sp.csr_matrix(
            (data, self.cols.copy(), self.slot_ptr.copy()), shape=(self.n, self.n)
        )
        csr.has_sorted_indices = True
        csr.eliminate_zeros()
        return csr

    def diagonal(self, sums) -> np.ndarray:
        """The diagonal of :meth:`csr` of the same block sums, gathered from
        them; 0 where the sum is zero and the matrix stores nothing."""
        return np.asarray(sums, dtype=float).reshape(-1).take(self._diagonal_src)

    @cached_property
    def _diagonal_src(self) -> np.ndarray:
        # every row of a free-DOF layout holds its own column
        rows = np.repeat(np.arange(self.n, dtype=self.cols.dtype), np.diff(self.slot_ptr))
        return self.src[self.cols == rows]


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
