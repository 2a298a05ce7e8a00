"""Shared generators and small oracles for the test suite."""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from topokry import SparseSymMatrix
from topokry.krylov import BREAKDOWN_TOLERANCE, jacobi_preconditioner


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


def element_dof_table(element_nodes) -> np.ndarray:
    """Each element's 8 DOFs (2k, 2k + 1 per corner node k) as int64."""
    nodes = np.asarray(element_nodes, dtype=np.int64)
    return np.stack([2 * nodes, 2 * nodes + 1], axis=-1).reshape(len(nodes), -1)


def textbook_solve(a: SparseSymMatrix, b, method: str, preconditioning: str,
                   max_iterations: int, rel_tolerance: float = 1e-8):
    """CG or CR from x0 = 0, transcribed in plain numpy expressions.

    The reference for :func:`topokry.solve`: new arrays each step
    (``x + alpha * p``, ``r - alpha * ap``, ``z + beta * p``), ``csr @ v``
    as the operator and ``np.linalg.norm`` for every residual norm.
    Jacobi CG is textbook PCG with z = d * r; Jacobi CR iterates on
    ``d * (csr @ v)``.  Returns (solution, residual history).
    """
    csr = a.csr
    b = np.asarray(b, dtype=float)
    d = jacobi_preconditioner(a) if preconditioning == "jacobi" else None
    # CG takes d as M on the residual, CR as a left scaling of the system
    m, left = (d, None) if method == "cg" else (None, d)
    if left is not None:
        b = left * b

    def op(v):
        return csr @ v if left is None else left * (csr @ v)

    def precondition(r):
        return r if m is None else m * r

    x = np.zeros(b.size)
    r = b - op(x)
    p = precondition(r)
    if method == "cr":
        ar = op(r)
        ap = ar
    b_norm = np.linalg.norm(b)
    history = [np.linalg.norm(r)]
    for _ in range(max_iterations):
        if history[-1] <= rel_tolerance * b_norm:
            break
        if method == "cg":
            ap = op(p)
            denom = p @ ap
        else:
            denom = ap @ ap
        if denom <= BREAKDOWN_TOLERANCE * (p @ p):
            break
        alpha = (r @ p if method == "cg" else r @ ap) / denom
        x = x + alpha * p
        r = r - alpha * ap
        history.append(np.linalg.norm(r))
        if method == "cg":
            z = precondition(r)
            beta = -(z @ ap) / denom
            p = z + beta * p
        else:
            ar = op(r)
            beta = -(ar @ ap) / denom
            p = r + beta * p
            ap = ar + beta * ap
    return x, history


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
