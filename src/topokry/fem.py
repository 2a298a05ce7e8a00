"""Voxel finite-element model: uniform quad mesh, bilinear plane-strain
elements, density-scaled assembly, Dirichlet supports, and nodal loads.

Node numbering runs row-major from the bottom-left corner:
``node(ix, iy) = iy * (nx + 1) + ix``.  Each node carries two DOFs in the
order (ux, uy), so DOFs of node k are (2k, 2k + 1).  Element e = ey*nx + ex
connects its corner nodes counterclockwise from the lower left:
(LL, LR, UR, UL), at the grid offsets :data:`CORNERS` from LL, which the
shape functions and ``multigrid`` read too.

Every stiffness operator, the fine one of :func:`assemble` and the coarse
Galerkin ones of ``multigrid``, is summed by one rule: each node's five
upper node pairs take the 2x2 element blocks of its ten
:attr:`Mesh.stencil` terms, :func:`node_pair_sums` adds each pair's kept
terms in ``np.add.reduceat``'s association, and a :class:`CsrLayout`
gathers the sums of the free DOFs into the :class:`SparseSymMatrix` and
stores no exact-zero sum, so void rows stay empty.  Index arrays take
:func:`index_dtype`, except those a build gathers through, which are
intp: ``ndarray.take`` converts any other index to intp first, a copy of
the whole index on every call.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.sparse as sp

from .linalg import SparseSymMatrix, as_vector, is_integer

# 2x2 Gauss points and weights on [-1, 1]
_GAUSS_2 = (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0))
# grid offsets (dx, dy) of an element's corners LL, LR, UR, UL from its
# lower-left node; 2 * CORNERS - 1 are their reference coordinates
CORNERS = np.array([(0, 0), (1, 0), (1, 1), (0, 1)])
# the corner pairs (i, j) of an element with node i <= node j: its nodes
# run LL < LR < UL < UR, so these are the node pairs of the stiffness
# matrix's upper block triangle, and UPPER_PAIRS[m] is block 4 i + j
UPPER_PAIRS = np.array([0, 1, 2, 3, 5, 6, 7, 10, 14, 15])
# node a = (ix, iy) takes as its term t block m = STENCIL[t, 0] of
# upper_blocks of the element at offset (dx, dy) = STENCIL[t, 1:] from it:
# the terms of its upper pairs with b = a + (0, 0) | (1, 0) | (-1, 1) |
# (0, 1) | (1, 1), each pair's by ascending element
STENCIL = np.array([
    (7, -1, -1), (9, 0, -1), (4, -1, 0), (0, 0, 0),
    (8, 0, -1), (1, 0, 0),
    (6, -1, 0),
    (5, -1, 0), (3, 0, 0),
    (2, 0, 0),
])
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
        if not 0 < self.young_modulus < np.inf:
            raise ValueError("young_modulus must be positive and finite")
        if not 0.0 <= self.poisson_ratio < 0.5:
            raise ValueError("poisson_ratio must lie in [0, 0.5)")
        if not 1.0 <= self.penal < np.inf:
            raise ValueError("penal must be >= 1 and finite")
        if not 0 < self.thickness < np.inf:
            raise ValueError("thickness must be positive and finite")

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


def index_dtype(largest: int) -> type:
    """The dtype of an index array whose values reach ``largest``: int32,
    which scipy prefers and which halves the bytes, when it holds it, and
    int64 otherwise."""
    return np.int32 if largest <= np.iinfo(np.int32).max else np.int64


class CsrLayout:
    """Where block sums go in a CSR matrix, fixed for a run.

    Slot s, in CSR order, holds the sum at flat index ``src[s]`` of the
    block sums :meth:`matrix` takes, in column ``cols[s]``; the slots of
    row i run from ``slot_ptr[i]`` to ``slot_ptr[i + 1]``.  A mesh works
    the layout out once per set of supports (:meth:`Mesh.free_layout`);
    :meth:`matrix` then costs one gather and one compaction per matrix.
    ``src`` is held as intp, so the gather converts no index; ``cols``
    and ``slot_ptr`` are the CSR arrays, in :func:`index_dtype` of their
    largest value.
    """

    def __init__(self, src: np.ndarray, cols: np.ndarray, slot_ptr: np.ndarray):
        self.src = src.astype(np.intp, copy=False)
        self.cols = cols
        self.slot_ptr = slot_ptr
        self.n = len(slot_ptr) - 1

    def matrix(self, sums) -> SparseSymMatrix:
        """The symmetric matrix of the block sums, with its diagonal
        gathered from them.  An exact-zero sum is not stored, so a row
        whose every sum is zero stays empty, and its diagonal reads 0.
        Symmetry holds by the layout's construction and is not checked."""
        sums = np.asarray(sums, dtype=float).reshape(-1)
        csr = sp.csr_matrix(
            (sums.take(self.src), self.cols.copy(), self.slot_ptr.copy()),
            shape=(self.n, self.n),
        )
        csr.has_sorted_indices = True
        csr.eliminate_zeros()
        return SparseSymMatrix(csr, check=False, diagonal=sums.take(self._diagonal_src))

    @cached_property
    def _diagonal_src(self) -> np.ndarray:
        # every row of a free-DOF layout holds its own column
        rows = np.repeat(np.arange(self.n, dtype=self.cols.dtype), np.diff(self.slot_ptr))
        return self.src[self.cols == rows]


class Mesh:
    """Uniform nx-by-ny quadrilateral mesh on a width-by-height rectangle."""

    def __init__(self, nx: int, ny: int, width: float, height: float):
        if not (is_integer(nx) and is_integer(ny) and nx >= 1 and ny >= 1):
            raise ValueError("mesh needs a whole number >= 1 of elements per axis")
        if not (0 < width < np.inf and 0 < height < np.inf):
            raise ValueError("domain dimensions must be positive and finite")
        self.nx = int(nx)
        self.ny = int(ny)
        self.width = float(width)
        self.height = float(height)
        self.n_elements = self.nx * self.ny
        self.n_nodes = (self.nx + 1) * (self.ny + 1)
        self.n_dofs = 2 * self.n_nodes
        self.elem_width = self.width / self.nx
        self.elem_height = self.height / self.ny

        ey, ex = np.divmod(np.arange(self.n_elements), self.nx)
        ll = ey * (self.nx + 1) + ex
        self.element_nodes = ll[:, None] + CORNERS @ [1, self.nx + 1]
        self._free_layouts: dict[bytes, CsrLayout] = {}

    def _at_offsets(self, offsets, nx: int, ny: int, dtype=np.intp):
        """For each node (ix, iy) and offset (dx, dy), the row-major index
        of (ix + dx, iy + dy) on an nx-by-ny grid, in ``dtype``, and
        whether it lies on the grid; both of shape (n_nodes, offsets)."""
        x = np.arange(self.nx + 1, dtype=dtype)[:, None] + offsets[:, 0]
        y = np.arange(self.ny + 1, dtype=dtype)[:, None] + offsets[:, 1]
        on = ((y >= 0) & (y < ny))[:, None] & ((x >= 0) & (x < nx))
        index = (nx * y)[:, None] + x
        return index.reshape(-1, len(offsets)), on.reshape(-1, len(offsets))

    @cached_property
    def stencil(self) -> np.ndarray:
        """The element of each node's ten ``STENCIL`` terms, shape
        (10, n_nodes), or ``n_elements`` where that element is off the
        mesh; intp, as the gathers through it want it.

        Node a's term t is block ``STENCIL[t, 0]`` of :func:`upper_blocks`
        of its element, at a node pair (a, b) with b >= a; DOFs 2k and
        2k + 1 of node k are its block's row (or column) 0 and 1.  A pair's
        terms come by ascending element, as a stable sort of the 64
        DOF-pair terms per element orders each DOF pair's, with 10 terms
        in place of 64: the lower pairs' blocks are the transposes of
        their mirrors' (:meth:`free_layout`).  It is built by the first
        :func:`assemble` and not in ``__init__``, so building a mesh stays
        cheap.
        """
        element, on = self._at_offsets(STENCIL[:, 1:], self.nx, self.ny)
        return np.ascontiguousarray(np.where(on, element, self.n_elements).T)

    def free_layout(self, fixed_dofs: np.ndarray) -> CsrLayout:
        """The CSR layout of the symmetric matrix of the upper node-pair
        sums of :func:`node_pair_sums`, on the DOFs not in ``fixed_dofs``
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
        # each node's nine neighbours b, 0 where b is off the mesh, in the
        # dtype of the DOF numbers 2 b + q formed from them
        b, exists = self._at_offsets(
            _NEIGHBOURS, self.nx + 1, self.ny + 1, index_dtype(self.n_dofs)
        )
        b = np.where(exists, b, 0)
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
        # the sum each neighbour k reads, of the sums laid out (pair,
        # component, node): its own upper pair k - 4, or the upper pair
        # 4 - k of b that mirrors it, whose block it reads transposed
        lower = np.arange(9) < 4
        owner = np.where(lower, b, np.arange(self.n_nodes)[:, None])
        index = index_dtype(20 * self.n_nodes)
        pair = (4 * self.n_nodes * np.abs(np.arange(9) - 4) + owner).astype(index)
        del b, exists, owner
        p = np.arange(2)[:, None, None]
        q = np.arange(2)
        component = np.where(lower[:, None], 2 * q + p, 2 * p + q) * self.n_nodes
        component = component.astype(index).reshape(2, 18)
        src = (np.repeat(pair, 2, axis=1)[:, None, :] + component)[kept]
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
        if not (is_integer(self.n_dofs) and self.n_dofs >= 0):
            raise ValueError("n_dofs must be a whole number >= 0")
        fixed = np.asarray(self.fixed_dofs)
        if fixed.size and not np.issubdtype(fixed.dtype, np.integer):
            raise ValueError("fixed DOF indices must be integers")
        fixed = np.unique(fixed.astype(np.int64))
        if fixed.size and (fixed.min() < 0 or fixed.max() >= self.n_dofs):
            raise ValueError("fixed DOF index out of range")
        self.fixed_dofs = fixed
        loads = []
        for d, v in self.point_loads:
            v = float(v)
            if not is_integer(d):
                raise ValueError(f"load DOF {d!r} must be an integer")
            if not 0 <= d < self.n_dofs:
                raise ValueError(f"load DOF {d} out of range")
            if not np.isfinite(v):
                raise ValueError(f"load {v} at DOF {d} must be finite")
            loads.append((int(d), v))
        loaded = set(d for d, _ in loads)
        if loaded & set(fixed.tolist()):
            raise ValueError("a DOF cannot be both fixed and loaded")
        self.point_loads = tuple(loads)

    def free_dofs(self) -> np.ndarray:
        """Sorted int64 indices of the DOFs that are not fixed."""
        free = np.ones(self.n_dofs, dtype=bool)
        free[self.fixed_dofs] = False
        return np.flatnonzero(free)


def _shape_gradients(xi: float, eta: float, width: float, height: float):
    """dN/dx, dN/dy of the four bilinear shape functions at (xi, eta)."""
    cx, cy = (2 * CORNERS - 1).T
    dn_dxi = 0.25 * cx * (1.0 + cy * eta)
    dn_deta = 0.25 * cy * (1.0 + cx * xi)
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
    blocks the terms of :attr:`Mesh.stencil` take."""
    lead = k.shape[:-2]
    blocks = k.reshape(lead + (4, 2, 4, 2)).swapaxes(-3, -2)
    return blocks.reshape(lead + (16, 2, 2))[..., UPPER_PAIRS, :, :]


def node_pair_sums(term: np.ndarray, kept: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each node's five upper node-pair sums of its ten :attr:`Mesh.stencil`
    terms, written into ``out``, shape (5, k, nodes), which it returns.

    ``term`` (shape (10, k, nodes)) holds the terms' values and ``kept``
    (shape (10, nodes)) which of them the sums keep; a term not kept must
    be zero, of either sign.  The nodes run last, so numpy's loops run
    over them and not over the k components.  A pair adds its kept terms
    in ``np.add.reduceat``'s association, t0 + ((t1 + t2) + t3) for t0 the
    first.  Adding a zero leaves a nonzero sum as it is, so the sum over
    all of a pair's terms is that, except in the (a, a) pair whose first
    kept term is its second: there it takes t1 + (t2 + t3).  Only a sum
    that is zero may differ from ``reduceat``'s, in its sign.
    """
    np.add(term[1], term[2], out=out[0])
    out[0] += term[3]
    out[0] += term[0]
    late = np.flatnonzero(~kept[0] & kept[1])
    out[0][:, late] = term[1][:, late] + (term[2][:, late] + term[3][:, late])
    np.add(term[4], term[5], out=out[1])
    out[2] = term[6]
    np.add(term[7], term[8], out=out[3])
    out[4] = term[9]
    return out


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

    The mesh's :attr:`Mesh.stencil` is built on the first call, and the
    CSR layout of the free DOFs once per set of fixed DOFs
    (:meth:`Mesh.free_layout`).  Each call scales the stencil's
    :func:`upper_blocks` of ke by rho_e^p, sums each node pair's solid
    terms (:func:`node_pair_sums`; a void term is a zero, and a node with
    no solid element keeps zero sums) and gathers the free DOFs' entries
    into CSR; no gather converts an index.  The result is bit-identical
    to sorting the active elements' 64 DOF-pair triplets afresh and then
    removing the fixed rows and columns and the exact zeros: every DOF
    entry (2a + p, 2b + q) is the same product rho_e^p * ke[i, j] per
    element, summed in the same ascending element order and in
    ``reduceat``'s association.  Dropping an exact zero changes no
    product A v: ``csr_matvec`` starts each row sum at +0.0, and adding
    +0.0 or -0.0 to a sum that is not -0.0 leaves it as it is.  Symmetry
    holds by construction and is not checked (:meth:`Mesh.free_layout`).
    """
    if rho.n_elements != mesh.n_elements:
        raise ValueError(
            f"density field has {rho.n_elements} entries, mesh has {mesh.n_elements}"
        )
    if bc.n_dofs != mesh.n_dofs:
        raise ValueError("boundary conditions sized for a different mesh")
    ke = element_stiffness(mat, mesh.elem_width, mesh.elem_height)
    blocks = upper_blocks(ke).reshape(10, 4, 1)[STENCIL[:, 0]]
    # each term's rho_e^p; a term off the mesh reads the appended zero
    scale = np.append(rho.values ** mat.penal, 0.0).take(mesh.stencil)
    term = scale[:, None, :] * blocks
    sums = node_pair_sums(term, scale > 0.0, np.empty((5, 4, mesh.n_nodes)))
    # each array goes once it is read, so the peak is one stage's arrays
    del scale, term
    return mesh.free_layout(bc.fixed_dofs).matrix(sums)


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
