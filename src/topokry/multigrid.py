"""Geometric multigrid V-cycle: the SPD preconditioner of CG on the
reduced stiffness systems of the voxel mesh, singular ones included.

:func:`prolongations` builds the hierarchy once per run.  Each axis
coarsens from n to ceil(n/2) elements, coarse node j sitting at fine node
min(2j, n), with linear interpolation between coarse nodes, so odd sizes
keep coarsening.  The DOF prolongation kron(kron(Py, Px), I2) keeps the
free fine DOFs as rows and the free coarse DOFs as columns; a coarse DOF
is free iff the fine DOF at its node is.  Coarsening stops once a level
has at most ``COARSEST_DOFS`` free DOFs.

:func:`v_cycle` builds, per solve, the Galerkin operators P^T (A P) with
scipy's sparse product and the coarsest one's pseudo-inverse, and returns
``precondition(r, out)``.  It smooths with one damped Jacobi sweep before
the coarse correction and one after (zero rows passed through as in
``krylov.jacobi_preconditioner``), so the cycle is symmetric and costs
two fine matvecs.  It is positive definite if 2 D / w - A is, which holds
for w * lambda_max(D^-1 A) < 2.  A = sum rho_e^p K_e and D is the sum of
their diagonals, so lambda_max(D^-1 A) <= lambda_max(diag(K)^-1 K) for
every design, support elimination and zero rows included;
:func:`smoothing_weight` caps w at 2 over that bound.  The bound is
proved for the finest level only: the coarse Galerkin levels are covered
by a test over designs and Poisson ratios, not by a proof.  The output
is zeroed on A's zero rows, so void DOFs keep their CG warm-start value;
on the vectors CG feeds it, which vanish there, the cycle stays
symmetric.  A cycle allocates nothing: its work vectors are allocated
once per solve.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fem import BoundaryConditions, Mesh
from .krylov import csr_operator, jacobi_preconditioner
from .linalg import SparseSymMatrix, pseudo_inverse

# a level with at most this many free DOFs is solved by its pseudo-inverse
COARSEST_DOFS = 100
# damped Jacobi weight, unless the element bound asks for less
SMOOTHING_WEIGHT = 0.6


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


def smoothing_weight(ke: np.ndarray) -> float:
    """The Jacobi weight: ``SMOOTHING_WEIGHT``, or less so that it stays
    within 2 / lambda_max(diag(K)^-1 K) of the element stiffness K, a bound
    on lambda_max(D^-1 A) of every design's A."""
    s = 1.0 / np.sqrt(np.diag(ke))
    bound = np.linalg.eigvalsh(ke * s[:, None] * s).max()
    return min(SMOOTHING_WEIGHT, 2.0 / float(bound))


def _cycle(ops: list[tuple], pinv: np.ndarray, level: int, r, z) -> None:
    """Write the V-cycle from ``level`` down, applied to r, into z."""
    if level == len(ops):
        np.dot(pinv, r, out=z)
        return
    matvec, smoother, prolong, restrict, t, rc, zc = ops[level]
    np.multiply(smoother, r, out=z)  # the pre-sweep, from z = 0
    np.subtract(r, matvec(z, t), out=t)
    _cycle(ops, pinv, level + 1, restrict(t, rc), zc)
    z += prolong(zc, t)
    # the post-sweep z += smoother * (r - A z)
    np.subtract(r, matvec(z, t), out=t)
    t *= smoother
    z += t


def v_cycle(a: SparseSymMatrix, levels: list[tuple], weight: float):
    """``precondition(r, out)``: one V-cycle for A over the hierarchy
    :func:`prolongations` built, smoothing with Jacobi weight ``weight``
    (:func:`smoothing_weight`), written into ``out``, which it returns."""
    ops = []
    csr = a.csr
    for p, pt in levels:
        n, nc = p.shape
        ops.append((
            csr_operator(csr), weight * jacobi_preconditioner(csr),
            csr_operator(p), csr_operator(pt), np.empty(n), np.empty(nc), np.empty(nc),
        ))
        csr = pt @ (csr @ p)
    pinv = pseudo_inverse(csr.toarray())
    zero = a.zero_rows()

    def precondition(r: np.ndarray, out: np.ndarray) -> np.ndarray:
        _cycle(ops, pinv, 0, r, out)
        out[zero] = 0.0
        return out

    return precondition
