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
from typing import NamedTuple

import numpy as np

from .linalg import SparseSymMatrix, TripletPattern, as_vector

# 2x2 Gauss points and weights on [-1, 1]
_GAUSS_2 = (-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0))
# corner coordinates in the reference square, counterclockwise from (-1,-1)
_CORNERS = ((-1.0, -1.0), (1.0, -1.0), (1.0, 1.0), (-1.0, 1.0))


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


class ScatterPattern(NamedTuple):
    """The 16 * n_elements node-pair scatter terms of a mesh, sorted.

    Sorted term t adds ``scale[element[t]] * blocks[local[t]]`` to the
    stored node-pair entry ``triplets.entry[t]``, where
    ``blocks[4 * i + j]`` is the 2x2 block ``ke[2i:2i+2, 2j:2j+2]``.
    """

    triplets: TripletPattern
    element: np.ndarray  # int32 element id of each sorted term
    local: np.ndarray  # uint8 index into the 16 2x2 blocks of ke of each sorted term


class Mesh:
    """Uniform nx-by-ny quadrilateral mesh on a width-by-height rectangle."""

    def __init__(self, nx: int, ny: int, width: float, height: float):
        if nx < 1 or ny < 1:
            raise ValueError("mesh needs at least one element per axis")
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

    @cached_property
    def scatter_pattern(self) -> ScatterPattern:
        """Sorted node-pair scatter pattern, built by the first :func:`assemble`.

        Input term ``16 * e + 4 * i + j`` puts the 2x2 block
        ``ke[2i:2i+2, 2j:2j+2]`` of element e at the node pair
        (element_nodes[e, i], element_nodes[e, j]); DOFs 2k and 2k + 1 of
        node k are its block's row (or column) 0 and 1.  The stable sort
        keeps each node pair's terms in ascending element order, as a sort
        of the 64 DOF-pair terms per element keeps each DOF pair's, with a
        quarter of the terms.  It is built on first use and not in
        ``__init__``, so building a mesh stays cheap.
        """
        nodes = self.element_nodes
        rows = np.repeat(nodes, 4, axis=1).ravel()
        cols = np.tile(nodes, (1, 4)).ravel()
        triplets, order = TripletPattern.sort(self.n_nodes, rows, cols)
        element, local = np.divmod(order, 16)
        return ScatterPattern(
            triplets, element.astype(np.int32), local.astype(np.uint8)
        )

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

    def elements_adjacent_to_node(self, node: int) -> np.ndarray:
        """Element indices of the up-to-four elements touching a node."""
        iy, ix = divmod(int(node), self.nx + 1)
        adjacent = []
        for ex in (ix - 1, ix):
            for ey in (iy - 1, iy):
                if 0 <= ex < self.nx and 0 <= ey < self.ny:
                    adjacent.append(ey * self.nx + ex)
        return np.asarray(sorted(adjacent), dtype=np.int64)


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


def assemble(mesh: Mesh, mat: Material, rho: DensityField) -> SparseSymMatrix:
    """Global stiffness A = sum_j rho_j^p * scatter(D_j) over all elements.

    Elements with rho = 0 contribute no entries at all, so nodes surrounded
    by void elements produce genuinely empty rows: the matrix is returned
    singular, not regularized.  Fixed DOFs are not removed here.

    The node-pair scatter terms are sorted once per mesh
    (:attr:`Mesh.scatter_pattern`, built on the first call).  Each call
    masks out the terms of void elements, forms every kept 2x2 block as
    rho_e^p * ke block, sums the blocks of each node pair in sorted order
    and expands the block matrix to CSR, stored zeros included.  The result
    is bit-identical to sorting the active elements' 64 DOF-pair triplets
    afresh: every DOF entry (2a + p, 2b + q) is the same product
    rho_e^p * ke[i, j] per element, its terms come in the same ascending
    element order (a stable sort at either level), and ``reduceat`` along
    the block axis adds each component exactly as the scalar sum does.
    Symmetry holds by construction and is not checked: ke is bit-symmetric,
    an element's mask drops a block and its mirror alike, and the stable
    sort adds the blocks of (a, b) and of (b, a) in the same element order.
    """
    if rho.n_elements != mesh.n_elements:
        raise ValueError(
            f"density field has {rho.n_elements} entries, mesh has {mesh.n_elements}"
        )
    ke = element_stiffness(mat, mesh.elem_width, mesh.elem_height)
    # blocks[4 * i + j] is ke[2i:2i+2, 2j:2j+2], the 2x2 block of node pair (i, j)
    blocks = ke.reshape(4, 2, 4, 2).transpose(0, 2, 1, 3).reshape(16, 2, 2)
    scale = rho.values ** mat.penal
    pattern = mesh.scatter_pattern
    kept = np.flatnonzero((scale > 0.0).take(pattern.element))
    values = blocks.take(pattern.local.take(kept), axis=0)
    values *= scale.take(pattern.element.take(kept))[:, None, None]
    return SparseSymMatrix(pattern.triplets.sum(values, kept), check=False)


def apply_dirichlet(
    a: SparseSymMatrix, b: np.ndarray, bc: BoundaryConditions
) -> tuple[SparseSymMatrix, np.ndarray, np.ndarray]:
    """Eliminate fixed DOFs by row/column removal.

    Returns the reduced matrix, reduced load vector, and the map from
    reduced indices back to full DOF indices.  Fixing everything yields a
    legal 0-dimensional system; fixing nothing returns the system unchanged
    (the singular case under study).
    """
    b = as_vector(b, a.dimension, "load")
    if bc.n_dofs != a.dimension:
        raise ValueError("boundary conditions sized for a different system")
    free = bc.free_dofs()
    return a.submatrix(free), b[free], free


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
