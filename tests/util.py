"""Shared generators and small oracles for the test suite."""
from __future__ import annotations

import hashlib
import warnings

import numpy as np
import scipy.sparse as sp

from topokry import BoundaryConditions, SparseSymMatrix, element_stiffness
from topokry.krylov import BREAKDOWN_TOLERANCE, jacobi_preconditioner
from topokry.linalg import as_vector
from topokry.optimizer import (
    BISECTION_TOLERANCE,
    MULTIPLIER_BRACKET,
    InfeasibleConstraintError,
)
from singular_lab import as_small_square

# LU pivots with |u_kk| <= PIVOT_TOLERANCE * max|a_ij| make a matrix singular
PIVOT_TOLERANCE = 1e-14


class SingularMatrixError(ValueError):
    """Raised when a direct solve meets a numerically singular matrix."""


def dense_solve(a, b) -> np.ndarray:
    """Solve A x = b by LU factorization with partial pivoting (LAPACK).

    Test oracle for regular systems; n is limited to 2000.  Raises
    :class:`SingularMatrixError` when a pivot of the factorization falls
    to ``PIVOT_TOLERANCE`` times the largest entry of A.
    """
    # imported on first call, so importing these helpers loads no scipy.linalg
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


def elements_adjacent_to_node(mesh, node: int) -> np.ndarray:
    """Indices of the up-to-four elements with the node as a corner."""
    return np.flatnonzero((mesh.element_nodes == node).any(axis=1))


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
    return SparseSymMatrix(sp.csr_matrix(0.5 * (dense + dense.T)))


def random_sparse_symmetric(rng: np.random.Generator, n: int, density: float = 0.3):
    """Random symmetric sparse matrix (indefinite, full-rank not guaranteed)."""
    mask = rng.random((n, n)) < density
    vals = rng.standard_normal((n, n)) * mask
    dense = np.triu(vals)
    dense = dense + np.triu(dense, 1).T
    return SparseSymMatrix(sp.csr_matrix(dense)), dense


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


def reduceat_sum_oracle(pattern, values, kept=None) -> np.ndarray:
    """What ``TripletPattern.sum`` returns, through ``np.add.reduceat``
    alone: each entry's kept blocks summed in sorted order, an entry with
    none of its terms kept zero."""
    entry = pattern.entry if kept is None else pattern.entry[kept]
    sums = np.zeros((pattern.rows.size,) + values.shape[1:])
    if entry.size:
        first = np.ones(entry.size, dtype=bool)
        first[1:] = entry[1:] != entry[:-1]
        starts = np.flatnonzero(first)
        sums[entry[starts]] = np.add.reduceat(values, starts, axis=0)
    return sums


def assert_same_sums(got, expected) -> None:
    """Same shape, the same bytes in every nonzero sum, and zero where the
    other is zero, of either sign."""
    assert got.shape == expected.shape
    np.testing.assert_array_equal(got == 0.0, expected == 0.0)
    nonzero = expected != 0.0
    assert got[nonzero].tobytes() == expected[nonzero].tobytes()


def unsupported(mesh) -> BoundaryConditions:
    """Boundary conditions that fix no DOF: ``assemble`` with them returns
    the full, singular stiffness matrix."""
    return BoundaryConditions(n_dofs=mesh.n_dofs)


def full_scatter_oracle(mesh, mat, rho):
    """Every active element's 64 DOF-pair triplets, sorted afresh and
    summed, stored zeros included: the full stiffness matrix.  Returns the
    triplets and the CSR matrix."""
    ke = element_stiffness(mat, mesh.elem_width, mesh.elem_height)
    scale = rho.values ** mat.penal
    active = np.flatnonzero(scale > 0.0)
    dofs = element_dof_table(mesh.element_nodes)[active]
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    values = (scale[active][:, None, None] * ke[None, :, :]).ravel()
    return (rows, cols, values), triplet_sum_oracle(mesh.n_dofs, rows, cols, values)


def assembly_oracle(mesh, mat, rho, bc) -> sp.csr_matrix:
    """The free-DOF stiffness the reference way: the full scatter
    (:func:`full_scatter_oracle`), the fixed rows and columns cut out by
    ``SparseSymMatrix.submatrix``, then the exact zeros eliminated."""
    full = SparseSymMatrix(full_scatter_oracle(mesh, mat, rho)[1], check=False)
    reduced = full.submatrix(bc.free_dofs()).csr.copy()
    reduced.eliminate_zeros()
    return reduced


def galerkin_oracle(a, levels) -> list:
    """Every level's Galerkin operator as scipy's sparse products
    ``pt @ (a @ p)``, down the hierarchy from the fine matrix a."""
    operators = []
    csr = a.csr
    for level in levels:
        csr = level.pt @ (csr @ level.p)
        operators.append(csr)
    return operators


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
                   max_iterations: int, rel_tolerance: float = 1e-8,
                   x0=None, observe=None):
    """CG or CR from x0 (default 0), transcribed in plain numpy expressions.

    The reference for :func:`topokry.solve`: new arrays each step
    (``x + alpha * p``, ``r - alpha * ap``, ``z + beta * p``), ``csr @ v``
    as the operator and ``np.linalg.norm`` for every residual norm.
    Jacobi CG is textbook PCG with z = d * r; Jacobi CR iterates on
    ``d * (csr @ v)``.  Returns (solution, residual history), and calls
    ``observe(state)``, if given, with each iterate k's state: the tuple
    (x_k, r_k, p_k), plus A p_k for CR.
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

    x = np.zeros(b.size) if x0 is None else np.array(x0, dtype=float)
    r = b - op(x)
    p = precondition(r)
    if method == "cr":
        ar = op(r)
        ap = ar
    b_norm = np.linalg.norm(b)
    history = [np.linalg.norm(r)]
    if observe is not None:
        observe((x, r, p) if method == "cg" else (x, r, p, ap))
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
        if observe is not None:
            observe((x, r, p) if method == "cg" else (x, r, p, ap))
    return x, history


def repeat_oracle(a: SparseSymMatrix, b, method: str, preconditioning: str,
                  max_iterations: int, x0=None):
    """Where the state of :func:`textbook_solve` first repeats, found by
    hashing every iterate's state: (k, period) for the first iterate k
    whose state equals, bit for bit, that of iterate k - period, or None
    if no state repeats up to the cap."""
    digests = []
    textbook_solve(
        a, b, method, preconditioning, max_iterations, x0=x0,
        observe=lambda state: digests.append(
            hashlib.sha256(b"".join(v.tobytes() for v in state)).digest()
        ),
    )
    first = {}
    for k, digest in enumerate(digests):
        if digest in first:
            return k, k - first[digest]
        first[digest] = k
    return None


def dense_operator(apply, n: int) -> np.ndarray:
    """The dense matrix of an operator ``apply(r, out)``, built one column
    at a time from the unit vectors."""
    dense = np.empty((n, n))
    unit = np.zeros(n)
    for j in range(n):
        unit[j] = 1.0
        dense[:, j] = apply(unit, np.empty(n))
        unit[j] = 0.0
    return dense


def sensitivity_oracle(mesh, mat, rho, x) -> np.ndarray:
    """-p * rho^(p-1) * x_e^T K x_e over every element, void ones included
    (their factor is 0), in plain numpy: the reference for
    :func:`topokry.sensitivity`."""
    ke = element_stiffness(mat, mesh.elem_width, mesh.elem_height)
    ue = np.asarray(x, dtype=float).reshape(-1, 2)[mesh.element_nodes].reshape(-1, 8)
    quad = np.maximum(np.einsum("ei,ij,ej->e", ue, ke, ue), 0.0)
    values = rho.values
    factor = np.where(values > 0.0, values ** (mat.penal - 1.0), 0.0)
    return -mat.penal * factor * quad


def update_oracle(values, sens, cfg, exponent: float, sign: float):
    """The OC (exponent 0.85, sign -1) or CONLIN (1/2, +1) update evaluated
    on every element at every bisection step, void ones included: the
    reference for :func:`topokry.oc_update` and :func:`topokry.conlin_update`.
    Returns (densities, multiplier)."""
    values = np.asarray(values, dtype=float)
    sens = np.asarray(sens, dtype=float)
    target = cfg.volume_fraction * values.size
    tol = BISECTION_TOLERANCE * target

    def candidate(mu):
        lower = np.maximum(0.0, values - cfg.move_limit)
        upper = np.minimum(1.0, values + cfg.move_limit)
        return np.clip((-sens / mu) ** exponent * values, lower, upper)

    lo, hi = MULTIPLIER_BRACKET
    maximal = candidate(lo)
    if maximal.sum() <= target:
        return maximal, sign * lo
    if candidate(hi).sum() > target:
        raise InfeasibleConstraintError("volume target unreachable")
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        vol = candidate(mid).sum()
        if vol > target:
            lo = mid
        else:
            hi = mid
            if target - vol <= tol:
                break
        if hi / lo < 1.0 + 1e-15:
            break
    return candidate(hi), sign * hi


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
