"""Geometric multigrid V-cycle: the SPD preconditioner of CG on the
reduced stiffness systems of the voxel mesh, singular ones included.

:func:`hierarchy` builds the levels once per run.  Each axis coarsens
from n to ceil(n/2) elements, coarse node j sitting at fine node
min(2j, n), with linear interpolation between coarse nodes, so odd sizes
keep coarsening.  The DOF prolongation is scipy's CSR kron(Py, kron(Px,
I2)) of the two axis interpolations, whose zero weights are dropped, so
it stores none; each level keeps its free fine DOFs as rows and its free
coarse DOFs as columns, a coarse DOF being free iff the fine DOF at its
node is.  Coarsening stops once a level has at most ``COARSEST_DOFS``
free DOFs.

The Galerkin operator of level l is Q^T A Q, Q the product of the
prolongations down to it, and it is built from element blocks, not from
sparse products (Amir, Aage & Lazarov 2014).  A = sum_f rho_f^p K_f over
the fine elements f, so Q^T A Q = sum_f rho_f^p (C_f)^T K C_f scattered
onto the level's free DOFs, where the 8x8 C_f interpolates f's DOFs from
those of its level-l ancestor element c: every fine node of f lies in c,
so the bilinear interpolation reaches it from c's four nodes alone.  C_f
is the product, one level at a time, of the masked one-level steps
diag(m) W: W interpolates an element from its parent element, and m
zeroes the element's fixed DOFs, as the prolongations drop fixed rows
and columns at every level.  Without the masks a support that fixes a
node the coarse level does not keep would leak into the coarse operator.
C_f depends only on f's position in c and on those masks, so a level has
few distinct C_f; it keeps one C^T K C per distinct C_f.  Each solve
then takes one sparse product of the densities with those to sum every
coarse element's block, and sums the blocks by the rule of
:func:`fem.assemble`: :func:`fem.node_pair_sums` adds the blocks of each
node pair of the coarse mesh's stencil in ``np.add.reduceat``'s
association, and :meth:`fem.CsrLayout.matrix` of the coarse free DOFs
drops exact-zero sums, so a coarse DOF with no material around it keeps
an empty row.  The sums run in another order than the sparse products
P^T (A P), so the operators agree with those to rounding, not to the
bit.

:func:`v_cycle` builds, per solve, the Galerkin operators and the
coarsest one's pseudo-inverse, and returns ``precondition(r, out)``.  It
smooths with one damped Jacobi sweep before the coarse correction and one
after (zero rows passed through as in ``krylov.jacobi_preconditioner``),
so the cycle is symmetric and costs two fine matvecs.  It is positive
definite if 2 D / w - A is, which holds for w * lambda_max(D^-1 A) < 2.
A = sum rho_e^p K_e and D is the sum of their diagonals, so
lambda_max(D^-1 A) <= lambda_max(diag(K)^-1 K) for every design, support
elimination and zero rows included; :func:`smoothing_weight` caps w at 2
over that bound, and :func:`hierarchy` gives each level that weight of
the run's element stiffness.  The bound is proved for the finest level
only: the coarse Galerkin levels are covered by a test over designs and
Poisson ratios, not by a proof.  The output is zeroed on A's zero rows,
so void DOFs keep their CG warm-start value; on the vectors CG feeds it,
which vanish there, the cycle stays symmetric.  A cycle allocates
nothing: its work vectors are allocated once per solve.
"""
from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fem import (
    CORNERS, STENCIL, BoundaryConditions, Material, Mesh, element_stiffness,
    node_pair_sums, upper_blocks,
)
from .krylov import csr_operator, jacobi_preconditioner
from .linalg import SparseSymMatrix, pseudo_inverse

# a level with at most this many free DOFs is solved by its pseudo-inverse
COARSEST_DOFS = 100
# damped Jacobi weight, unless the element bound asks for less
SMOOTHING_WEIGHT = 0.6

# a child element's two nodes along one axis from its parent's two: the
# left half, the right half, or the whole parent (the last element of an
# odd axis, whose parent covers it alone)
_HALVES = np.array([
    [[1.0, 0.0], [0.5, 0.5]],
    [[0.5, 0.5], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, 1.0]],
])


def _interpolation(n: int) -> sp.csr_matrix:
    """Linear interpolation of the n + 1 nodes of an axis from the
    ceil(n/2) + 1 of its coarsening, in CSR without its zero weights."""
    nc = (n + 1) // 2
    fine = np.arange(n + 1)
    left = np.minimum(fine // 2, nc - 1)  # coarse node at fine node 2 * left
    weight = (fine - 2 * left) / (np.minimum(2 * left + 2, n) - 2 * left)
    p = sp.csr_matrix(
        (np.column_stack([1.0 - weight, weight]).ravel(),
         np.column_stack([left, left + 1]).ravel(), 2 * np.arange(n + 2)),
        shape=(n + 1, nc + 1),
    )
    p.eliminate_zeros()
    return p


def _prolongation(nx: int, ny: int) -> tuple[sp.csr_matrix, np.ndarray]:
    """The DOF prolongation kron(Py, kron(Px, I2)) of an nx-by-ny mesh onto
    it from its coarsening, without its zero weights, and the fine node at
    each coarse node."""
    px, py = _interpolation(nx), _interpolation(ny)
    # in CSR throughout: scipy takes a dense factor such as I2 as blocks of
    # a BSR matrix, whose zeros it stores
    p = sp.kron(py, sp.kron(px, sp.identity(2), format="csr"), format="csr")
    at_x = np.minimum(2 * np.arange(px.shape[1]), nx)
    at_y = np.minimum(2 * np.arange(py.shape[1]), ny)
    # nodes are numbered row-major from the bottom left, as fem numbers them
    return p, (at_y[:, None] * (nx + 1) + at_x).ravel()


def _position(n: int) -> np.ndarray:
    """Which of ``_HALVES`` each of n elements along an axis is of its
    parent in the coarsening."""
    position = np.arange(n) % 2
    if n % 2:
        position[-1] = 2
    return position


def _steps(mesh: Mesh, free: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The masked one-level steps diag(m) W of the mesh's elements: the
    distinct 8x8 matrices, and which one each element takes."""
    px, py = _position(mesh.nx), _position(mesh.ny)
    position = (px[None, :] + 3 * py[:, None]).ravel()
    mask = free.reshape(-1, 2).take(mesh.element_nodes, axis=0).reshape(-1, 8)
    code = position + 9 * (mask @ (1 << np.arange(8)))
    codes, which = np.unique(code, return_inverse=True)
    position, bits = codes % 9, codes // 9
    cx, cy = CORNERS.T
    hx = _HALVES[position % 3][:, cx][:, :, cx]
    hy = _HALVES[position // 3][:, cy][:, :, cy]
    # nodes, then the two DOFs of each node: kron(W_nodes, I2)
    w = ((hx * hy)[:, :, None, :, None] * np.eye(2)[:, None, :]).reshape(-1, 8, 8)
    m = (bits[:, None] >> np.arange(8)) & 1
    return m[:, :, None] * w, which


class Level:
    """One coarsening: the prolongation ``p`` from this level's free DOFs
    onto the finer level's (and ``pt``, its transpose), the Jacobi
    ``weight`` of the sweeps on the finer level, and what builds the
    level's Galerkin operator from the fine densities: the sparse
    (coarse element x composite) ``weights``, whose data each
    :meth:`galerkin` overwrites with the densities' rho^p, the composites'
    element ``blocks``, the entry of ``weights @ blocks`` that each
    component of the coarse nodes' stencil ``terms`` reads, which terms
    are ``on_mesh``, and the coarse free-DOF ``layout``."""

    def __init__(self, p, mesh: Mesh, free, types, kind, ancestor, ke, weight):
        self.p, self.pt = p, p.T.tocsr()
        self.weight = weight
        self.layout = mesh.free_layout(np.flatnonzero(~free))
        # C^T K C of each distinct composite, symmetric to the bit, as the
        # blocks of the upper corner pairs the stencil's terms take
        blocks = types.transpose(0, 2, 1) @ ke @ types
        blocks = 0.5 * (blocks + blocks.transpose(0, 2, 1))
        self.blocks = upper_blocks(blocks).reshape(len(types), -1)
        # the fine elements in ancestor order: row c of the sparse
        # (coarse element x composite) matrix holds c's descendants, and
        # each solve writes their rho^p into its data; its last row is
        # empty, the zero block of a term off the mesh
        self.fine = np.argsort(ancestor, kind="stable")
        indptr = np.zeros(mesh.n_elements + 2, dtype=np.int32)
        np.cumsum(np.bincount(ancestor, minlength=mesh.n_elements + 1), out=indptr[1:])
        self.weights = sp.csr_matrix(
            (np.zeros(self.fine.size), kind.take(self.fine).astype(np.int32), indptr),
            shape=(mesh.n_elements + 1, len(types)),
        )
        # component c of a node's term t is that of block m = STENCIL[t, 0]
        # of its element e, entry 40 e + 4 m + c of weights @ blocks
        block = 4 * STENCIL[:, :1, None] + np.arange(4)[:, None]
        self.terms = 40 * mesh.stencil[:, None, :] + block
        self.on_mesh = mesh.stencil < mesh.n_elements

    def galerkin(self, scale: np.ndarray) -> SparseSymMatrix:
        """The level's operator Q^T A Q for fine densities rho^p = scale,
        with the diagonal its layout gathers."""
        scale.take(self.fine, out=self.weights.data)
        term = (self.weights @ self.blocks).take(self.terms)
        sums = node_pair_sums(term, self.on_mesh, np.empty((5,) + term.shape[1:]))
        del term
        return self.layout.matrix(sums)


def hierarchy(mesh: Mesh, bc: BoundaryConditions, mat: Material) -> list[Level]:
    """Every coarsening of the mesh, finest first, between free DOFs, for
    the material's element stiffness ke, each with the Jacobi weight
    :func:`smoothing_weight` of ke."""
    if bc.n_dofs != mesh.n_dofs:
        raise ValueError("boundary conditions sized for a different mesh")
    nx, ny = mesh.nx, mesh.ny
    free = np.ones(mesh.n_dofs, dtype=bool)
    free[bc.fixed_dofs] = False
    fine_y, fine_x = np.divmod(np.arange(mesh.n_elements), nx)
    level_mesh = mesh
    # the composite C_f of every fine element f onto its ancestor on the
    # current level: its distinct values, and which one f takes
    types, kind = np.eye(8)[None], np.zeros(mesh.n_elements, dtype=np.int64)
    ke = element_stiffness(mat, mesh.elem_width, mesh.elem_height)
    weight = smoothing_weight(ke)
    levels = []
    while np.count_nonzero(free) > COARSEST_DOFS and max(nx, ny) > 1:
        p, at = _prolongation(nx, ny)
        coarse_free = free.reshape(-1, 2)[at].ravel()
        p = p[np.flatnonzero(free)][:, np.flatnonzero(coarse_free)].tocsr()
        steps, step = _steps(level_mesh, free)
        depth = len(levels)
        ancestor = (fine_y >> depth) * nx + (fine_x >> depth)
        pairs, kind = np.unique(kind * len(steps) + step.take(ancestor), return_inverse=True)
        types = types[pairs // len(steps)] @ steps[pairs % len(steps)]
        nx, ny, free = (nx + 1) // 2, (ny + 1) // 2, coarse_free
        level_mesh = Mesh(nx, ny, mesh.width, mesh.height)
        ancestor = (fine_y >> depth + 1) * nx + (fine_x >> depth + 1)
        levels.append(Level(p, level_mesh, free, types, kind, ancestor, ke, weight))
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


def v_cycle(a: SparseSymMatrix, scale: np.ndarray, levels: list[Level]):
    """``precondition(r, out)``: one V-cycle for A, assembled from fine
    densities rho^p = ``scale``, over the levels :func:`hierarchy` built,
    smoothing each with its ``Level.weight``, written into ``out``, which
    it returns.  With no level it applies the pseudo-inverse of A, which
    :func:`hierarchy` leaves only to a matrix within ``COARSEST_DOFS`` or
    to a one-element mesh.

    The coarsest operator goes unchecked to :func:`linalg.pseudo_inverse`:
    the Galerkin sums are finite and bit-symmetric by construction, as A
    is.  Each level's Jacobi diagonal comes with its matrix, gathered by
    its layout, and A's zero rows from :meth:`SparseSymMatrix.zero_rows`,
    worked out once per matrix."""
    ops = []
    matrix = a
    for level in levels:
        n, nc = level.p.shape
        ops.append((
            csr_operator(matrix.csr), level.weight * jacobi_preconditioner(matrix),
            csr_operator(level.p), csr_operator(level.pt),
            np.empty(n), np.empty(nc), np.empty(nc),
        ))
        matrix = level.galerkin(scale)
    pinv = pseudo_inverse(matrix.to_dense())
    zero = a.zero_rows()

    def precondition(r: np.ndarray, out: np.ndarray) -> np.ndarray:
        _cycle(ops, pinv, 0, r, out)
        out[zero] = 0.0
        return out

    return precondition
