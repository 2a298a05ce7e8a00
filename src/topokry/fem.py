"""Voxel finite-element model: uniform quad mesh, bilinear plane-strain
elements, density-scaled assembly, Dirichlet supports, and nodal loads.

Node numbering runs row-major from the bottom-left corner:
``node(ix, iy) = iy * (nx + 1) + ix``.  Each node carries two DOFs in the
order (ux, uy), so DOFs of node k are (2k, 2k + 1).  Element e = ey*nx + ex
connects its corner nodes counterclockwise from the lower left:
(LL, LR, UR, UL).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .linalg import (
    CsrLayout, SparseSymMatrix, TripletPattern, as_vector, index_dtype, is_integer,
)

# 2x2 Gauss points and weights on [-1, 1]
_GAUSS_2 = (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0))
# corner coordinates in the reference square, counterclockwise from (-1,-1)
_CORNERS = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))
# the corner pairs (i, j) of an element with node i <= node j: its nodes
# run LL < LR < UL < UR, so these are the node pairs of the stiffness
# matrix's upper block triangle, and UPPER_PAIRS[m] is block 4 i + j
UPPER_PAIRS = np.array([0, 1, 2, 3, 5, 6, 7, 10, 14, 15])
# node a = (ix, iy) pairs with the nodes b = (ix + dx, iy + dy) at these
# offsets (dx, dy), listed by ascending b: the last five are its upper
# pairs, and the first four mirror upper pairs 4..1 of b
_NEIGHBOURS = np.array([
    (-1, -1), (0, -1), (1, -1), (-1, 0), (0, 0), (1, 0), (-1, 1), (0, 1), (1, 1),
], dtype=np.int8)


@dataclass(frozen=True)
class Material:
    """Isotropic material with SIMP penalization exponent.

    ``thickness`` is the out-of-plane depth of the modeled slab; it scales
    every element stiffness linearly and nothing else.
    """

    young_modulus: float
    poisson_ratio: float
    penal: float = 3.0
    thickness: float = 1.0

    def __post_init__(self):
        if not self.young_modulus > 0:
            raise ValueError("young_modulus must be positive")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ValueError("poisson_ratio must lie in [0, 0.5)")
        if not self.penal >= 1.0:
            raise ValueError("penal must be >= 1")
        if not self.thickness > 0:
            raise ValueError("thickness must be positive")

    def constitutive(self) -> np.ndarray:
        """Plane-strain constitutive matrix C (3x3, Voigt order xx, yy, xy)."""
        e, nu = self.young_modulus, self.poisson_ratio
        f = e / ((1.0 + nu) * (1.0 - 2.0 * nu))
        return f * np.array(
            [
                [1.0 - nu, nu, 0.0],
                [nu, 1.0 - nu, 0.0],
                [0.0, 0.0, (1.0 - 2.0 * nu) / 2.0],
            ]
        )


class Mesh:
    """Uniform nx-by-ny quadrilateral mesh on a width-by-height rectangle."""

    def __init__(self, nx: int, ny: int, width: float, height: float):
        if not (is_integer(nx) and is_integer(ny) and nx >= 1 and ny >= 1):
            raise ValueError("mesh needs a whole number >= 1 of elements per axis")
        if not (width > 0 and height > 0):
            raise ValueError("domain dimensions must be positive")
        self.nx = int(nx)
        self.ny = int(ny)
        self.width = float(width)
        self.height = float(height)
        self.n_elements = self.nx * self.ny
        self.n_nodes = (self.nx + 1) * (self.ny + 1)
        self.n_dofs = 2 * self.n_nodes
        self.elem_width = self.width / self.nx
        self.elem_height = self.height / self.ny

        ex, ey = np.meshgrid(np.arange(self.nx), np.arange(self.ny))
        ex = ex.ravel()
        ey = ey.ravel()
        ll = ey * (self.nx + 1) + ex
        lr = ll + 1
        ul = ll + (self.nx + 1)
        ur = ul + 1
        self.element_nodes = np.column_stack([ll, lr, ur, ul])
        self._free_layouts: dict[bytes, CsrLayout] = {}

    def _neighbours(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each node's nine ``_NEIGHBOURS`` b (0 where b is off the mesh),
        which of them exist, and the pattern's entry number of each upper
        pair (a, b)."""
        # b takes the dtype of the DOF numbers 2 b + q free_layout forms;
        # bx and by are the (x, neighbour) and (y, neighbour) coordinates
        index = index_dtype(self.n_dofs)
        bx = np.arange(self.nx + 1, dtype=index)[:, None] + _NEIGHBOURS[:, 0]
        by = np.arange(self.ny + 1, dtype=index)[:, None] + _NEIGHBOURS[:, 1]
        exists = ((by >= 0) & (by <= self.ny))[:, None] & ((bx >= 0) & (bx <= self.nx))
        b = np.where(exists, ((self.nx + 1) * by)[:, None] + bx, 0).reshape(-1, 9)
        exists = exists.reshape(-1, 9)
        upper = np.cumsum(exists[:, 4:], dtype=index_dtype(5 * self.n_nodes))
        return b, exists, upper.reshape(-1, 5) - 1

    @cached_property
    def scatter_pattern(self) -> TripletPattern:
        """Sorted scatter pattern of the upper node pairs, built by the
        first :func:`assemble`.

        Input term ``10 * e + m`` puts the 2x2 block m of
        :func:`upper_blocks` of element e, corner pair 4 i + j =
        ``UPPER_PAIRS[m]``, at the node pair (element_nodes[e, i],
        element_nodes[e, j]), whose first node is never the larger; DOFs
        2k and 2k + 1 of node k are its block's row (or column) 0 and 1.
        The stable sort orders the terms by node pair, and within a pair by
        ascending element, as a stable sort of the 64 DOF-pair terms per
        element orders each DOF pair's, with 10 terms in place of 64: the
        lower pairs' blocks are the transposes of their mirrors'
        (:meth:`free_layout`).  It is built on first use and not in
        ``__init__``, so building a mesh stays cheap.
        """
        i, j = np.divmod(UPPER_PAIRS, 4)
        nodes = self.element_nodes
        return TripletPattern(self.n_nodes, nodes[:, i].ravel(), nodes[:, j].ravel())

    def free_layout(self, fixed_dofs: np.ndarray) -> CsrLayout:
        """The CSR layout of the symmetric matrix whose upper node pairs
        :attr:`scatter_pattern` sums, on the DOFs not in ``fixed_dofs``
        (sorted, unique); built on first use for each fixed set.

        A lower node pair (a, b), b < a, reads the sums of its mirror
        (b, a) transposed.  That is the block a sort of every element's 16
        node pairs would sum, bit for bit: ke is bit-symmetric and both
        pairs take the same elements' terms in the same order.
        """
        key = np.asarray(fixed_dofs, dtype=np.int64).tobytes()
        layout = self._free_layouts.get(key)
        if layout is not None:
            return layout
        free = np.ones(self.n_dofs, dtype=bool)
        free[fixed_dofs] = False
        b, exists, upper = self._neighbours()
        # slot (a, p, k, q) is row 2 a + p and column 2 b + q of a's
        # neighbour k, in CSR order; it exists where b does and both DOFs
        # are free.  The arrays are laid out (node, p, 2 k + q), so that
        # numpy's loops run 18 long rather than 2.
        column = np.repeat(2 * b, 2, axis=1)
        column[:, 1::2] += 1
        kept = (np.repeat(exists, 2, axis=1) & free.take(column))[:, None, :]
        kept = kept & free.reshape(-1, 2, 1)
        renumber = np.cumsum(free) - 1
        n_free = int(renumber[-1]) + 1
        counts = np.count_nonzero(kept, axis=2).ravel()[free]
        slot_ptr = np.zeros(n_free + 1, dtype=index_dtype(int(counts.sum())))
        np.cumsum(counts, out=slot_ptr[1:])
        column = renumber.astype(index_dtype(n_free)).take(column)
        cols = np.broadcast_to(column[:, None, :], kept.shape)[kept]
        del column
        # the entry each neighbour reads: its own upper pair, or the upper
        # pair of b that mirrors it, whose block it reads transposed
        lower = np.arange(9) < 4
        owner = np.where(lower, b, np.arange(self.n_nodes)[:, None])
        entry = upper[owner, np.where(lower, 4 - np.arange(9), np.arange(9) - 4)]
        del b, exists, upper, owner
        p = np.arange(2)[:, None, None]
        q = np.arange(2)
        component = np.where(lower[:, None], 2 * q + p, 2 * p + q).astype(np.int8)
        entry = 4 * entry.astype(index_dtype(4 * self.scatter_pattern.rows.size))
        src = (np.repeat(entry, 2, axis=1)[:, None, :] + component.reshape(2, 18))[kept]
        del kept
        layout = CsrLayout(src, cols, slot_ptr)
        self._free_layouts[key] = layout
        return layout

    def node_index(self, ix: int, iy: int) -> int:
        if not (0 <= ix <= self.nx and 0 <= iy <= self.ny):
            raise ValueError(f"node ({ix}, {iy}) outside mesh")
        return iy * (self.nx + 1) + ix

    def node_near(self, x: float, y: float) -> int:
        """Snap a domain coordinate to the nearest node, rounding half up."""
        if not (0.0 <= x <= self.width and 0.0 <= y <= self.height):
            raise ValueError(f"position ({x}, {y}) outside domain")
        ix = min(int(np.floor(x / self.elem_width + 0.5)), self.nx)
        iy = min(int(np.floor(y / self.elem_height + 0.5)), self.ny)
        return self.node_index(ix, iy)

    def node_dofs(self, node: int) -> tuple[int, int]:
        return 2 * node, 2 * node + 1

    def edge_dofs(self, edge: str) -> np.ndarray:
        """All DOFs on a named domain edge (left/right/top/bottom), sorted."""
        # grid[iy, ix] is node_index(ix, iy)
        grid = np.arange(self.n_nodes, dtype=np.int64).reshape(self.ny + 1, -1)
        edges = dict(left=grid[:, 0], right=grid[:, -1], bottom=grid[0], top=grid[-1])
        if edge not in edges:
            raise ValueError(f"unknown edge {edge!r}")
        nodes = edges[edge]
        return np.column_stack([2 * nodes, 2 * nodes + 1]).ravel()


@dataclass
class DensityField:
    """Per-element densities in [0, 1]."""

    values: np.ndarray

    def __post_init__(self):
        self.values = as_vector(self.values, name="densities")
        if self.values.size and (
            self.values.min() < 0.0 or self.values.max() > 1.0
        ):
            raise ValueError("densities must lie in [0, 1]")

    @classmethod
    def uniform(cls, n_elements: int, value: float) -> "DensityField":
        return cls(np.full(n_elements, float(value)))

    @property
    def n_elements(self) -> int:
        return self.values.size

    def volume(self) -> float:
        return float(self.values.sum())


@dataclass
class BoundaryConditions:
    """Fixed DOFs and nodal point loads for a mesh with n_dofs DOFs."""

    n_dofs: int
    fixed_dofs: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    point_loads: tuple[tuple[int, float], ...] = ()

    def __post_init__(self):
        fixed = np.unique(np.asarray(self.fixed_dofs, dtype=np.int64))
        if fixed.size and (fixed.min() < 0 or fixed.max() >= self.n_dofs):
            raise ValueError("fixed DOF index out of range")
        self.fixed_dofs = fixed
        loads = tuple((int(d), float(v)) for d, v in self.point_loads)
        for d, _ in loads:
            if not 0 <= d < self.n_dofs:
                raise ValueError(f"load DOF {d} out of range")
        loaded = set(d for d, _ in loads)
        if loaded & set(fixed.tolist()):
            raise ValueError("a DOF cannot be both fixed and loaded")
        self.point_loads = loads

    def free_dofs(self) -> np.ndarray:
        """Sorted int64 indices of the DOFs that are not fixed."""
        free = np.ones(self.n_dofs, dtype=bool)
        free[self.fixed_dofs] = False
        return np.flatnonzero(free)


def _shape_gradients(xi: float, eta: float, width: float, height: float):
    """dN/dx, dN/dy of the four bilinear shape functions at (xi, eta)."""
    dn_dxi = np.array([0.25 * cx * (1.0 + cy * eta) for cx, cy in _CORNERS])
    dn_deta = np.array([0.25 * cy * (1.0 + cx * xi) for cx, cy in _CORNERS])
    return dn_dxi * (2.0 / width), dn_deta * (2.0 / height)


def _strain_matrix(dn_dx: np.ndarray, dn_dy: np.ndarray) -> np.ndarray:
    b = np.zeros((3, 8))
    b[0, 0::2] = dn_dx
    b[1, 1::2] = dn_dy
    b[2, 0::2] = dn_dy
    b[2, 1::2] = dn_dx
    return b


@lru_cache(maxsize=8)
def element_stiffness(
    mat: Material, elem_width: float, elem_height: float
) -> np.ndarray:
    """8x8 stiffness of a bilinear rectangle in plane strain.

    Integrated with 2x2 Gauss quadrature of B^T C B times the material
    thickness; exact for this element.  The result is positive semidefinite
    with rank 5 (three rigid-body modes).  It is cached, so a run's
    assemblies and sensitivities share one read-only array.
    """
    if not (elem_width > 0 and elem_height > 0):
        raise ValueError("element dimensions must be positive")
    c = mat.constitutive()
    det_j = 0.25 * elem_width * elem_height
    ke = np.zeros((8, 8))
    for xi in _GAUSS_2:
        for eta in _GAUSS_2:
            dn_dx, dn_dy = _shape_gradients(xi, eta, elem_width, elem_height)
            b = _strain_matrix(dn_dx, dn_dy)
            ke += (b.T @ c @ b) * det_j
    ke = 0.5 * mat.thickness * (ke + ke.T)
    ke.flags.writeable = False
    return ke


def upper_blocks(k: np.ndarray) -> np.ndarray:
    """The 2x2 blocks ``k[2i:2i+2, 2j:2j+2]`` of the upper corner pairs
    4 i + j = ``UPPER_PAIRS[m]``, m = 0..9, of an 8x8 matrix, shape
    (10, 2, 2), or of each of a stack of them, shape (K, 10, 2, 2): the
    blocks the node pairs of :attr:`Mesh.scatter_pattern` take."""
    lead = k.shape[:-2]
    blocks = k.reshape(lead + (4, 2, 4, 2)).swapaxes(-3, -2)
    return blocks.reshape(lead + (16, 2, 2))[..., UPPER_PAIRS, :, :]


def assemble(
    mesh: Mesh, mat: Material, rho: DensityField, bc: BoundaryConditions
) -> SparseSymMatrix:
    """Stiffness A = sum_j rho_j^p * scatter(D_j) on the DOFs bc leaves free.

    Fixed DOFs are eliminated by row and column removal, so fixing
    everything gives a legal 0-dimensional matrix and fixing nothing gives
    the full, singular matrix under study.  Elements with rho = 0
    contribute no entries at all and exact-zero sums are not stored, so
    nodes surrounded by void elements produce genuinely empty rows: the
    matrix is returned singular, not regularized.

    The scatter terms of the upper node pairs are sorted once per mesh
    (:attr:`Mesh.scatter_pattern`, built on the first call), and the CSR
    layout of the free DOFs is worked out once per set of fixed DOFs
    (:meth:`Mesh.free_layout`).  Each call masks out the terms of void
    elements, reads each kept term's element e and corner pair m from its
    input index ``10 * e + m`` in the pattern's ``order``, gathers the
    :func:`upper_blocks` of ke and then scales them by rho_e^p, sums the
    blocks of each node pair in sorted order (one sparse product, in
    ``reduceat``'s association: :meth:`TripletPattern.sum`) and gathers the
    free DOFs' entries into CSR, the lower pairs' transposed from their
    mirrors.  Every gather runs through an intp index the pattern or the
    layout holds, so no call converts an index.  The result is
    bit-identical to sorting the active elements' 64 DOF-pair triplets
    afresh and then removing the fixed rows and columns and the exact
    zeros: every DOF entry (2a + p, 2b + q) is the same product
    rho_e^p * ke[i, j] per element, its terms come in the same ascending
    element order (a stable sort at either level), and the sum adds each
    block component exactly as ``reduceat`` adds the scalar run.  A sum
    that is zero may differ from ``reduceat``'s in its sign, and no zero
    is stored.  Dropping an exact zero changes no product A v:
    ``csr_matvec`` starts each row sum at +0.0, and adding +0.0 or -0.0 to
    a sum that is not -0.0 leaves it as it is.  Symmetry holds by
    construction and is not checked: ke is bit-symmetric, so the mirrored
    block of (b, a) is the sum over (b, a)'s own element terms in the same
    element order.
    """
    if rho.n_elements != mesh.n_elements:
        raise ValueError(
            f"density field has {rho.n_elements} entries, mesh has {mesh.n_elements}"
        )
    if bc.n_dofs != mesh.n_dofs:
        raise ValueError("boundary conditions sized for a different mesh")
    blocks = upper_blocks(element_stiffness(mat, mesh.elem_width, mesh.elem_height))
    scale = rho.values ** mat.penal
    pattern = mesh.scatter_pattern
    kept = np.flatnonzero(np.repeat(scale > 0.0, 10).take(pattern.order))
    element, local = np.divmod(pattern.order.take(kept), 10)
    # gathered, then scaled: scaling every element's blocks first gives the
    # same bits but a higher peak of memory
    values = blocks.take(local, axis=0)
    values *= scale.take(element)[:, None, None]
    # each array goes once it is read, so the peak is one stage's arrays
    del element, local
    sums = pattern.sum(values, kept)
    del values, kept
    layout = mesh.free_layout(bc.fixed_dofs)
    return SparseSymMatrix(layout.csr(sums), check=False, diagonal=layout.diagonal(sums))


def apply_dirichlet(
    b: np.ndarray, bc: BoundaryConditions
) -> tuple[np.ndarray, np.ndarray]:
    """The load on the free DOFs, and the map from those back to full DOF
    indices: the rows :func:`assemble` keeps, in its order."""
    b = as_vector(b, bc.n_dofs, "load")
    free = bc.free_dofs()
    return b[free], free


def build_load(mesh: Mesh, bc: BoundaryConditions) -> np.ndarray:
    """Full-DOF load vector; repeated loads on one DOF accumulate."""
    if bc.n_dofs != mesh.n_dofs:
        raise ValueError("boundary conditions sized for a different mesh")
    b = np.zeros(mesh.n_dofs)
    for dof, value in bc.point_loads:
        b[dof] += value
    return b


def scatter_solution(
    x_reduced: np.ndarray, dof_map: np.ndarray, n_dofs: int
) -> np.ndarray:
    """Expand a reduced solution to full DOFs, zero at eliminated entries."""
    x = np.zeros(n_dofs)
    x[dof_map] = x_reduced
    return x
