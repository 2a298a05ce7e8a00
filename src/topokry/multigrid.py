"""Geometric multigrid V-cycle: the SPD preconditioner of CG on the
reduced stiffness systems of the voxel mesh, singular ones included.

:func:`prolongations` builds the hierarchy once per run.  Each axis
coarsens from n to ceil(n/2) elements, coarse node j sitting at fine node
min(2j, n), with linear interpolation between coarse nodes, so odd sizes
keep coarsening.  The DOF prolongation kron(kron(Py, Px), I2) keeps the
free fine DOFs as rows and the free coarse DOFs as columns; a coarse DOF
is free iff the fine DOF at its node is.  Coarsening stops once a level
has at most ``COARSEST_DOFS`` free DOFs.

:func:`v_cycle` builds, per solve, the Galerkin operators P^T A P and the
coarsest one's pseudo-inverse, and returns ``precondition(r, out)``.  It
smooths with ``SMOOTHING_SWEEPS`` damped Jacobi sweeps (weight
``SMOOTHING_WEIGHT``, zero rows passed through as in
``krylov.jacobi_preconditioner``) before the coarse correction and as
many after, so the cycle is symmetric.  Its output is zeroed on A's zero
rows, so void DOFs keep their CG warm-start value; on the vectors CG
feeds it, which vanish there, the cycle stays symmetric.  A cycle
allocates nothing: its work vectors are allocated once per solve.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matmat, csr_matmat_maxnnz

from .fem import BoundaryConditions, Mesh
from .krylov import csr_operator, jacobi_preconditioner
from .linalg import SparseSymMatrix, pseudo_inverse

# a level with at most this many free DOFs is solved by its pseudo-inverse
COARSEST_DOFS = 100
SMOOTHING_WEIGHT = 0.6
# damped Jacobi sweeps before and, as many, after the coarse correction
SMOOTHING_SWEEPS = 2


def _interpolation(n: int) -> sp.csr_matrix:
    """(n + 1)-by-(ceil(n/2) + 1) linear interpolation along one axis."""
    nc = (n + 1) // 2
    fine = np.arange(n + 1)
    left = np.minimum(fine // 2, nc - 1)  # coarse node at fine node 2 * left
    weight = (fine - 2 * left) / (np.minimum(2 * left + 2, n) - 2 * left)
    return sp.csr_matrix(
        (
            np.column_stack([1.0 - weight, weight]).ravel(),
            (np.repeat(fine, 2), np.column_stack([left, left + 1]).ravel()),
        ),
        shape=(n + 1, nc + 1),
    )


def _prolongation(nx: int, ny: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """The DOF prolongation kron(kron(Py, Px), I2) of an nx-by-ny mesh onto
    it from its coarsening, and the fine node at each coarse node."""
    px, py = _interpolation(nx), _interpolation(ny)
    at_x = np.minimum(2 * np.arange(px.shape[1]), nx)
    at_y = np.minimum(2 * np.arange(py.shape[1]), ny)
    p = sp.kron(sp.kron(py, px), sp.identity(2), format="csr")
    p.eliminate_zeros()  # zero weights, and I2's zeros if kron went by blocks
    # nodes are numbered row-major from the bottom left, as fem numbers them
    return p, (at_y[:, None] * (nx + 1) + at_x).ravel()


def prolongations(mesh: Mesh, bc: BoundaryConditions) -> list[tuple]:
    """(P, P^T) of every coarsening, finest first, between free DOFs."""
    nx, ny = mesh.nx, mesh.ny
    free = np.zeros(mesh.n_dofs, dtype=bool)
    free[bc.free_dofs()] = True
    levels = []
    while np.count_nonzero(free) > COARSEST_DOFS and max(nx, ny) > 1:
        p, at = _prolongation(nx, ny)
        coarse_free = free.reshape(-1, 2)[at].ravel()
        p = p[np.flatnonzero(free)][:, np.flatnonzero(coarse_free)].tocsr()
        levels.append((p, p.T.tocsr()))
        nx, ny, free = (nx + 1) // 2, (ny + 1) // 2, coarse_free
    return levels


def _product(a: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    """``a @ b`` by the two kernels scipy's product runs, without its
    per-call dispatch, which is a third of a Galerkin product's time at
    truss size; ``tests/test_multigrid.py`` checks it against ``a @ b``."""
    dtype = np.result_type(a.indptr, a.indices, b.indptr, b.indices)
    index = [i.astype(dtype, copy=False) for i in (a.indptr, a.indices, b.indptr, b.indices)]
    n, m = a.shape[0], b.shape[1]
    nnz = csr_matmat_maxnnz(n, m, *index)
    if nnz > np.iinfo(dtype).max:
        dtype = np.int64
        index = [i.astype(dtype) for i in index]
    indptr, indices = np.empty(n + 1, dtype), np.empty(nnz, dtype)
    data = np.empty(nnz)
    csr_matmat(n, m, index[0], index[1], a.data, index[2], index[3], b.data,
               indptr, indices, data)
    return sp.csr_matrix((data, indices, indptr), shape=(n, m))


def _sweep(matvec, smoother, r, z, t) -> None:
    """One damped Jacobi sweep z += smoother * (r - A z), using t."""
    np.subtract(r, matvec(z, t), out=t)
    t *= smoother
    z += t


def _cycle(ops: list[tuple], pinv: np.ndarray, level: int, r, z) -> None:
    """Write the V-cycle from ``level`` down, applied to r, into z."""
    if level == len(ops):
        np.dot(pinv, r, out=z)
        return
    matvec, smoother, prolong, restrict, t, rc, zc = ops[level]
    np.multiply(smoother, r, out=z)  # the first sweep, from z = 0
    for _ in range(SMOOTHING_SWEEPS - 1):
        _sweep(matvec, smoother, r, z, t)
    np.subtract(r, matvec(z, t), out=t)
    _cycle(ops, pinv, level + 1, restrict(t, rc), zc)
    z += prolong(zc, t)
    for _ in range(SMOOTHING_SWEEPS):
        _sweep(matvec, smoother, r, z, t)


def v_cycle(a: SparseSymMatrix, levels: list[tuple]):
    """``precondition(r, out)``: one V-cycle for A over the hierarchy
    :func:`prolongations` built, written into ``out``, which it returns."""
    ops = []
    csr = a.csr
    for p, pt in levels:
        n, nc = p.shape
        ops.append((
            csr_operator(csr), SMOOTHING_WEIGHT * jacobi_preconditioner(csr),
            csr_operator(p), csr_operator(pt), np.empty(n), np.empty(nc), np.empty(nc),
        ))
        csr = _product(pt, _product(csr, p))
    pinv = pseudo_inverse(csr.toarray())
    zero = a.zero_rows()

    def precondition(r: np.ndarray, out: np.ndarray) -> np.ndarray:
        _cycle(ops, pinv, 0, r, out)
        out[zero] = 0.0
        return out

    return precondition
