"""Shared generators and small oracles for the test suite."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from topokry import SparseSymMatrix


def random_spd(rng: np.random.Generator, n: int, spread: float = 10.0):
    """Random symmetric positive definite matrix with eigenvalues in
    [1, spread], returned dense."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = rng.uniform(1.0, spread, size=n)
    a = (q * eigs) @ q.T
    return 0.5 * (a + a.T)


def random_singular_psd(rng: np.random.Generator, n: int, nullity: int):
    """Random symmetric PSD matrix with a planted null space.

    Returns (dense matrix, q_range, q_null) where the q blocks are the
    planted orthonormal bases.
    """
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eigs = np.concatenate([rng.uniform(0.5, 10.0, size=n - nullity), np.zeros(nullity)])
    a = (q * eigs) @ q.T
    return 0.5 * (a + a.T), q[:, : n - nullity], q[:, n - nullity :]


def sparse_from_dense(a) -> SparseSymMatrix:
    dense = np.asarray(a, dtype=float)
    return SparseSymMatrix.from_dense(0.5 * (dense + dense.T))


def random_sparse_symmetric(rng: np.random.Generator, n: int, density: float = 0.3):
    """Random symmetric sparse matrix (indefinite, full-rank not guaranteed)."""
    mask = rng.random((n, n)) < density
    vals = rng.standard_normal((n, n)) * mask
    dense = np.triu(vals)
    dense = dense + np.triu(dense, 1).T
    return SparseSymMatrix.from_dense(dense), dense


def triplet_sum_oracle(n: int, rows, cols, values) -> sp.csr_matrix:
    """Sum COO triplets by sorting them afresh: a stable lexsort by
    (row, col), np.add.reduceat over runs of equal positions, and scipy's
    COO-to-CSR conversion.  The reference for pre-sorted summation."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    values = np.asarray(values, dtype=float)
    if rows.size == 0:
        return sp.csr_matrix((n, n))
    order = np.lexsort((cols, rows))
    r, c, v = rows[order], cols[order], values[order]
    boundary = np.ones(r.size, dtype=bool)
    boundary[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(boundary)
    summed = np.add.reduceat(v, starts)
    return sp.csr_matrix((summed, (r[starts], c[starts])), shape=(n, n))


def assert_same_csr(got, expected) -> None:
    """Same index dtypes, same pattern and the same bytes of data."""
    assert got.indptr.dtype == expected.indptr.dtype
    assert got.indices.dtype == expected.indices.dtype
    np.testing.assert_array_equal(got.indptr, expected.indptr)
    np.testing.assert_array_equal(got.indices, expected.indices)
    assert got.data.tobytes() == expected.data.tobytes()


# 4x4 left-clamped configs that parse but whose loads cannot be applied,
# each with the message its ConfigError must match
_CLAMPED_4X4 = (
    "mesh.nx = 4\nmesh.ny = 4\n"
    "material.young_modulus = 1\nmaterial.poisson_ratio = 0.3\n"
    "supports.edges = left\n"
)
BAD_LOAD_CONFIGS = {
    "load-on-support": (
        _CLAMPED_4X4
        + "loads.0.x = 4\nloads.0.y = 2\nloads.0.fy = -1\n"
        + "loads.1.x = 0\nloads.1.y = 2\nloads.1.fx = 1\n",
        r"loads\[1\] acts on a supported node",
    ),
    "no-loads": (_CLAMPED_4X4, "load vector is zero"),
    "no-force": (
        _CLAMPED_4X4 + "loads.0.x = 4\nloads.0.y = 2\n",
        "load vector is zero",
    ),
    "cancelling-pair": (
        _CLAMPED_4X4
        + "loads.0.x = 4\nloads.0.y = 2\nloads.0.fy = 1\n"
        + "loads.1.x = 3.9\nloads.1.y = 2.1\nloads.1.fy = -1\n",
        "load vector is zero",
    ),
}
