import tracemalloc

import numpy as np
import pytest

from topokry import (
    BoundaryConditions,
    DensityField,
    Material,
    Mesh,
    SolverConfig,
    SparseSymMatrix,
    apply_dirichlet,
    assemble,
    build_load,
    element_stiffness,
    scatter_solution,
    solve,
)
from topokry.multigrid import v_cycle
from topokry.problem import loads_problem_text
from util import assert_same_csr, element_dof_table, triplet_sum_oracle


def element_stiffness_oracle(mat, width, height, points=4):
    """Independent integration of B^T C B with higher-order Gauss-Legendre
    quadrature and its own shape-function derivative derivation."""
    e, nu = mat.young_modulus, mat.poisson_ratio
    c = (e / ((1 + nu) * (1 - 2 * nu))) * np.array(
        [[1 - nu, nu, 0], [nu, 1 - nu, 0], [0, 0, (1 - 2 * nu) / 2]]
    )
    gp, gw = np.polynomial.legendre.leggauss(points)
    corners = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    ke = np.zeros((8, 8))
    for xi, wx in zip(gp, gw):
        for eta, wy in zip(gp, gw):
            b = np.zeros((3, 8))
            for i, (cx, cy) in enumerate(corners):
                dndx = 0.25 * cx * (1 + cy * eta) * 2.0 / width
                dndy = 0.25 * cy * (1 + cx * xi) * 2.0 / height
                b[0, 2 * i] = dndx
                b[1, 2 * i + 1] = dndy
                b[2, 2 * i] = dndy
                b[2, 2 * i + 1] = dndx
            ke += wx * wy * (b.T @ c @ b) * (width * height / 4.0)
    return mat.thickness * ke


def assemble_oracle(mesh, mat, rho):
    """Assembly that sorts the active elements' triplets afresh on every
    call, kept as the reference.  Returns the triplets and the CSR matrix."""
    ke = element_stiffness(mat, mesh.elem_width, mesh.elem_height)
    scale = rho.values ** mat.penal
    active = np.flatnonzero(scale > 0.0)
    dofs = element_dof_table(mesh.element_nodes)[active]
    rows = np.repeat(dofs, 8, axis=1).ravel()
    cols = np.tile(dofs, (1, 8)).ravel()
    values = (scale[active][:, None, None] * ke[None, :, :]).ravel()
    csr = triplet_sum_oracle(mesh.n_dofs, rows, cols, values)
    return (rows, cols, values), csr


def density_cases(mesh, seed=0):
    """Uniform, full, all-void, checkerboard and ~40 % void random densities."""
    rng = np.random.default_rng(seed)
    ey, ex = np.divmod(np.arange(mesh.n_elements), mesh.nx)
    solid = rng.uniform(0.001, 1.0, mesh.n_elements)
    return {
        "uniform": np.full(mesh.n_elements, 0.375),
        "full": np.ones(mesh.n_elements),
        "void": np.zeros(mesh.n_elements),
        "checkerboard": np.where((ex + ey) % 2 == 0, solid, 0.0),
        "random": np.where(rng.random(mesh.n_elements) < 0.4, 0.0, solid),
    }


class TestMesh:
    def test_counts(self):
        mesh = Mesh(3, 2, 3.0, 2.0)
        assert mesh.n_elements == 6
        assert mesh.n_nodes == 12
        assert mesh.n_dofs == 24

    def test_connectivity_counterclockwise(self):
        mesh = Mesh(2, 2, 2.0, 2.0)
        # element 0 spans nodes (0,0)-(1,0)-(1,1)-(0,1): indices 0,1,4,3
        np.testing.assert_array_equal(mesh.element_nodes[0], [0, 1, 4, 3])
        assert all(len(set(row)) == 4 for row in mesh.element_nodes)

    def test_node_near_rounds_half_up(self):
        mesh = Mesh(4, 4, 4.0, 4.0)
        # 0.5 element widths snap upward
        assert mesh.node_near(0.5, 0.0) == mesh.node_index(1, 0)
        assert mesh.node_near(2.4, 2.6) == mesh.node_index(2, 3)

    def test_edge_dofs(self):
        mesh = Mesh(2, 1, 2.0, 1.0)
        left_nodes = {mesh.node_index(0, 0), mesh.node_index(0, 1)}
        expected = sorted(d for n in left_nodes for d in (2 * n, 2 * n + 1))
        np.testing.assert_array_equal(mesh.edge_dofs("left"), expected)

    def test_edge_dofs_all_edges_non_square(self):
        mesh = Mesh(3, 2, 3.0, 2.0)
        edges = {
            "left": [(0, iy) for iy in range(mesh.ny + 1)],
            "right": [(mesh.nx, iy) for iy in range(mesh.ny + 1)],
            "bottom": [(ix, 0) for ix in range(mesh.nx + 1)],
            "top": [(ix, mesh.ny) for ix in range(mesh.nx + 1)],
        }
        for edge, points in edges.items():
            nodes = [mesh.node_index(ix, iy) for ix, iy in points]
            expected = sorted(d for n in nodes for d in (2 * n, 2 * n + 1))
            got = mesh.edge_dofs(edge)
            assert got.dtype == np.int64, edge
            np.testing.assert_array_equal(got, expected, err_msg=edge)
        with pytest.raises(ValueError, match="unknown edge"):
            mesh.edge_dofs("front")

    def test_adjacent_elements(self):
        mesh = Mesh(3, 3, 3.0, 3.0)
        center = mesh.node_index(1, 1)
        np.testing.assert_array_equal(
            mesh.elements_adjacent_to_node(center), [0, 1, 3, 4]
        )
        corner = mesh.node_index(0, 0)
        np.testing.assert_array_equal(mesh.elements_adjacent_to_node(corner), [0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            Mesh(0, 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            Mesh(1, 1, -1.0, 1.0)


class TestDensityField:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            DensityField(np.array([0.5, 1.2]))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            DensityField(np.array([-0.1]))

    def test_volume(self):
        assert DensityField.uniform(4, 0.25).volume() == pytest.approx(1.0)


class TestBoundaryConditions:
    def test_fixed_and_loaded_disjoint(self):
        with pytest.raises(ValueError, match="both fixed and loaded"):
            BoundaryConditions(n_dofs=4, fixed_dofs=[1], point_loads=((1, -1.0),))

    def test_free_dofs_match_setdiff_reference(self):
        for fixed in ([], [0, 5, 3, 3], list(range(8))):
            bc = BoundaryConditions(n_dofs=8, fixed_dofs=fixed)
            free = bc.free_dofs()
            expected = np.setdiff1d(np.arange(8, dtype=np.int64), fixed)
            assert free.dtype == np.int64
            np.testing.assert_array_equal(free, expected)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="range"):
            BoundaryConditions(n_dofs=4, fixed_dofs=[4])
        with pytest.raises(ValueError, match="range"):
            BoundaryConditions(n_dofs=4, point_loads=((7, 1.0),))


class TestElementStiffness:
    mat = Material(1.0, 0.3, 3.0)

    def test_rigid_body_modes(self):
        ke = element_stiffness(self.mat, 1.0, 1.0)
        tx = np.array([1, 0, 1, 0, 1, 0, 1, 0], dtype=float)
        ty = np.array([0, 1, 0, 1, 0, 1, 0, 1], dtype=float)
        # in-plane rotation u = (-y, x) at corners (0,0),(w,0),(w,h),(0,h)
        rot = np.array([0, 0, 0, 1, -1, 1, -1, 0], dtype=float)
        scale = np.abs(ke).max()
        for mode in (tx, ty, rot):
            assert np.abs(ke @ mode).max() <= 1e-12 * scale

    def test_symmetry(self):
        ke = element_stiffness(self.mat, 2.0, 0.5)
        assert np.abs(ke - ke.T).max() <= 1e-12 * np.abs(ke).max()

    def test_rank_is_five(self):
        ke = element_stiffness(self.mat, 1.0, 1.0)
        eigs = np.linalg.eigvalsh(ke)
        assert np.sum(eigs > 1e-10 * eigs.max()) == 5

    def test_matches_higher_order_quadrature_oracle(self):
        ke = element_stiffness(self.mat, 1.0, 1.0)
        oracle = element_stiffness_oracle(self.mat, 1.0, 1.0, points=4)
        assert np.abs(ke - oracle).max() <= 1e-10 * np.abs(oracle).max()

    def test_oracle_on_rectangle_with_thickness(self):
        mat = Material(2.1e5, 0.3, 3.0, thickness=10.0)
        ke = element_stiffness(mat, 0.5, 0.25)
        oracle = element_stiffness_oracle(mat, 0.5, 0.25, points=5)
        assert np.abs(ke - oracle).max() <= 1e-10 * np.abs(oracle).max()

    def test_positive_semidefinite(self):
        ke = element_stiffness(self.mat, 1.0, 2.0)
        eigs = np.linalg.eigvalsh(ke)
        assert eigs.min() >= -1e-12 * eigs.max()


class TestAssemble:
    mat = Material(1.0, 0.3, 3.0)

    def test_all_zero_densities(self):
        mesh = Mesh(2, 2, 2.0, 2.0)
        a = assemble(mesh, self.mat, DensityField.uniform(4, 0.0))
        assert a.csr.nnz == 0
        assert a.dimension == mesh.n_dofs

    def test_single_element_identity_scaling(self):
        mesh = Mesh(1, 1, 1.0, 1.0)
        a = assemble(mesh, self.mat, DensityField.uniform(1, 1.0))
        ke = element_stiffness(self.mat, 1.0, 1.0)
        dofs = element_dof_table(mesh.element_nodes)[0]
        dense = a.to_dense()
        np.testing.assert_allclose(dense[np.ix_(dofs, dofs)], ke)

    def test_two_elements_against_dense_scatter_oracle(self):
        mesh = Mesh(2, 1, 2.0, 1.0)
        rho = DensityField(np.array([1.0, 1.0]))
        a = assemble(mesh, self.mat, rho).to_dense()
        ke = element_stiffness(self.mat, 1.0, 1.0)
        oracle = np.zeros((mesh.n_dofs, mesh.n_dofs))
        for dofs in element_dof_table(mesh.element_nodes):
            oracle[np.ix_(dofs, dofs)] += ke
        assert np.abs(a - oracle).max() <= 1e-12 * np.abs(oracle).max()

    def test_density_power_scaling(self):
        mesh = Mesh(1, 1, 1.0, 1.0)
        rho = DensityField(np.array([0.5]))
        a = assemble(mesh, self.mat, rho).to_dense()
        full = assemble(mesh, self.mat, DensityField.uniform(1, 1.0)).to_dense()
        np.testing.assert_allclose(a, 0.5**3 * full, rtol=1e-14)

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="density field"):
            assemble(Mesh(2, 2, 2.0, 2.0), self.mat, DensityField.uniform(3, 0.5))

    def test_positive_semidefinite_property(self):
        rng = np.random.default_rng(29)
        mesh = Mesh(3, 3, 3.0, 3.0)
        for _ in range(10):
            rho = DensityField(rng.uniform(0.0, 1.0, mesh.n_elements))
            a = assemble(mesh, self.mat, rho)
            dense = a.to_dense()
            scale = max(np.abs(dense).max(), 1e-30)
            for _ in range(5):
                v = rng.standard_normal(mesh.n_dofs)
                assert v @ (a.csr @ v) >= -1e-10 * (v @ v) * scale

    def test_monotone_in_density(self):
        rng = np.random.default_rng(31)
        mesh = Mesh(3, 2, 3.0, 2.0)
        lo = rng.uniform(0.0, 0.7, mesh.n_elements)
        hi = np.minimum(lo + rng.uniform(0.0, 0.3, mesh.n_elements), 1.0)
        a_lo = assemble(mesh, self.mat, DensityField(lo))
        a_hi = assemble(mesh, self.mat, DensityField(hi))
        scale = np.abs(a_hi.to_dense()).max()
        for _ in range(10):
            v = rng.standard_normal(mesh.n_dofs)
            assert v @ (a_hi.csr @ v) >= v @ (a_lo.csr @ v) - 1e-10 * (v @ v) * scale

    def test_void_node_rows_vanish(self):
        # void the right column of a 2x1 mesh: the two right-edge nodes
        # touch only the void element, so their DOF rows must be empty
        mesh = Mesh(2, 1, 2.0, 1.0)
        rho = DensityField(np.array([1.0, 0.0]))
        a = assemble(mesh, self.mat, rho)
        void_nodes = [mesh.node_index(2, 0), mesh.node_index(2, 1)]
        void_dofs = {d for n in void_nodes for d in (2 * n, 2 * n + 1)}
        assert void_dofs == set(a.zero_rows().tolist())

    def test_full_density_reduced_system_is_definite(self):
        mesh = Mesh(4, 4, 4.0, 4.0)
        a = assemble(mesh, self.mat, DensityField.uniform(mesh.n_elements, 1.0))
        bc = BoundaryConditions(
            n_dofs=mesh.n_dofs,
            fixed_dofs=mesh.edge_dofs("left"),
            point_loads=((2 * mesh.node_near(4.0, 2.0) + 1, -1.0),),
        )
        b = build_load(mesh, bc)
        a_red, b_red, _ = apply_dirichlet(a, b, bc)
        rep = solve(
            a_red, b_red, None, SolverConfig(rel_tolerance=1e-8, max_iterations=2000)
        )
        assert rep.status == "converged"
        assert rep.final_relative_residual <= 1e-8


class TestPatternAssembly:
    """assemble sums over the mesh's pre-sorted scatter pattern; its output
    must be the very matrix the sort-per-call reference builds."""

    mat = Material(2.1e5, 0.3, 3.0, 10.0)
    # nu = 0.25 rounds some entries of ke to exact zeros, which the matrix
    # must store like any other sum
    materials = [mat, Material(2.1e5, 0.25, 3.0, 10.0), Material(1.0, 0.25, 3.0)]
    # 7x3 elements on the 10x20 domain: a non-square mesh of 1.4x6.7 elements
    meshes = [(1, 1), (3, 2), (7, 3), (20, 40)]

    @pytest.mark.parametrize("nx,ny", meshes)
    def test_bit_identical_to_sorting_afresh(self, nx, ny):
        mesh = Mesh(nx, ny, 10.0, 20.0)
        for mat in self.materials:
            for values in density_cases(mesh).values():
                rho = DensityField(values)
                got = assemble(mesh, mat, rho).csr
                (rows, cols, vals), expected = assemble_oracle(mesh, mat, rho)
                assert_same_csr(got, expected)
                # the one-shot path over the same triplets gives the same bytes
                one_shot = SparseSymMatrix.from_triplets(
                    mesh.n_dofs, rows, cols, vals
                )
                assert_same_csr(one_shot.csr, expected)

    def test_exact_zero_sums_stay_stored(self):
        # ke of this material and mesh holds exact zeros (8 with OpenBLAS
        # on x86-64): their entries stay stored, as the scalar triplet sum
        # stores them
        mat = self.materials[1]
        mesh = Mesh(3, 2, 10.0, 20.0)
        assert np.any(element_stiffness(mat, 10.0 / 3, 10.0) == 0.0)
        rho = DensityField.uniform(mesh.n_elements, 1.0)
        got = assemble(mesh, mat, rho).csr
        assert np.count_nonzero(got.data == 0.0) > 0
        assert_same_csr(got, assemble_oracle(mesh, mat, rho)[1])

    @pytest.mark.parametrize("nx,ny", meshes)
    def test_void_nodes_have_empty_rows(self, nx, ny):
        mesh = Mesh(nx, ny, 10.0, 20.0)
        for name, values in density_cases(mesh, seed=1).items():
            a = assemble(mesh, self.mat, DensityField(values))
            void_nodes = [
                k for k in range(mesh.n_nodes)
                if np.all(values[mesh.elements_adjacent_to_node(k)] == 0.0)
            ]
            void_dofs = sorted(d for k in void_nodes for d in mesh.node_dofs(k))
            np.testing.assert_array_equal(a.zero_rows(), void_dofs, err_msg=name)

    @pytest.mark.parametrize("nx,ny", meshes)
    def test_bit_symmetric_without_a_check(self, nx, ny):
        mesh = Mesh(nx, ny, 10.0, 20.0)
        for name, values in density_cases(mesh, seed=2).items():
            csr = assemble(mesh, self.mat, DensityField(values)).csr
            assert (csr != csr.T).nnz == 0, name

    def test_pattern_built_on_first_assemble_not_with_the_mesh(self):
        spec = loads_problem_text(
            "mesh.nx = 4\nmesh.ny = 8\nmaterial.young_modulus = 1.0\n"
            "material.poisson_ratio = 0.3\nsupports.edges = left\n"
            "loads.0.x = 4\nloads.0.y = 4\nloads.0.fy = -1\n"
        )
        mesh = spec.build_mesh()
        assert "scatter_pattern" not in vars(mesh)
        rho = DensityField.uniform(mesh.n_elements, 0.5)
        assemble(mesh, spec.material, rho)
        pattern = vars(mesh)["scatter_pattern"]
        assemble(mesh, spec.material, rho)
        assert mesh.scatter_pattern is pattern

    @staticmethod
    def retained_bytes(pattern):
        held = [pattern.element, pattern.local, *vars(pattern.triplets).values()]
        return sum(a.nbytes for a in held if isinstance(a, np.ndarray))

    def test_retained_pattern_size_per_element(self):
        # the pattern keeps only what TripletPattern.sum and assemble read,
        # about 220 B per element over node pairs; the DOF-pair pattern
        # held about 1.0 KB and, with the int64 sort permutation, 1.5 KB
        mesh = Mesh(20, 40, 10.0, 20.0)
        size = self.retained_bytes(mesh.scatter_pattern)
        assert size <= 1100 * mesh.n_elements, f"{size / mesh.n_elements:.0f} B"

    def test_retained_node_pair_pattern_size_at_60x120(self):
        # 16 node-pair terms per element with int32 indices: about 220 B
        # per element; the 64 DOF-pair terms per element held about 1010 B
        mesh = Mesh(60, 120, 10.0, 20.0)
        size = self.retained_bytes(mesh.scatter_pattern)
        assert size <= 300 * mesh.n_elements, f"{size / mesh.n_elements:.0f} B"

    def test_peak_memory_of_the_pattern_build(self):
        # 60x120 elements: sorting the node pairs peaked at about 6 MB
        # here, sorting the DOF pairs at about 25 MB
        mesh = Mesh(60, 120, 10.0, 20.0)
        tracemalloc.start()
        try:
            mesh.scatter_pattern
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6, f"peak {peak / 1e6:.1f} MB"

    def test_peak_memory_of_a_uniform_assembly(self):
        # 60x120 elements, every one active: summing 2x2 blocks peaked at
        # about 10 MB here, summing scalar DOF-pair terms at about 20 MB
        mesh = Mesh(60, 120, 10.0, 20.0)
        rho = DensityField.uniform(mesh.n_elements, 0.375)
        mesh.scatter_pattern
        tracemalloc.start()
        try:
            assemble(mesh, self.mat, rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 15e6, f"peak {peak / 1e6:.1f} MB"

    def test_peak_memory_of_one_reduced_assembly(self):
        # 60x120 elements with 40 % void: sorting every element triplet
        # per call peaked at about 26 MB here, the pre-sorted DOF-pair
        # pattern at about 13 MB and the node-pair pattern at about 7 MB
        mesh = Mesh(60, 120, 10.0, 20.0)
        rho = DensityField(density_cases(mesh, seed=3)["random"])
        bc = BoundaryConditions(n_dofs=mesh.n_dofs, fixed_dofs=mesh.edge_dofs("left"))
        b = np.zeros(mesh.n_dofs)
        assemble(mesh, self.mat, rho)  # builds the mesh's pattern
        tracemalloc.start()
        try:
            apply_dirichlet(assemble(mesh, self.mat, rho), b, bc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6, f"peak {peak / 1e6:.1f} MB"


class TestApplyDirichlet:
    def test_index_deletion(self):
        a = np.array([[2.0, 1.0, 0.5], [1.0, 3.0, 1.5], [0.5, 1.5, 4.0]])
        from topokry import SparseSymMatrix

        bc = BoundaryConditions(n_dofs=3, fixed_dofs=[1])
        reduced, b_red, dof_map = apply_dirichlet(
            SparseSymMatrix.from_dense(a), np.array([1.0, 2.0, 3.0]), bc
        )
        np.testing.assert_array_equal(dof_map, [0, 2])
        np.testing.assert_allclose(reduced.to_dense(), a[np.ix_([0, 2], [0, 2])])
        np.testing.assert_array_equal(b_red, [1.0, 3.0])

    def test_fix_everything_gives_empty_system(self):
        from topokry import SparseSymMatrix

        bc = BoundaryConditions(n_dofs=2, fixed_dofs=[0, 1])
        reduced, b_red, dof_map = apply_dirichlet(
            SparseSymMatrix.identity(2), np.array([1.0, 2.0]), bc
        )
        assert reduced.dimension == 0
        assert b_red.size == 0
        assert dof_map.size == 0
        settings = [(m, pre) for m in ("cg", "cr") for pre in ("none", "jacobi")]
        for method, preconditioning in settings + [("cg", "mg")]:
            # with no coarsening the V-cycle is the pseudo-inverse itself
            precondition = v_cycle(reduced, []) if preconditioning == "mg" else None
            for record in (False, True):
                cfg = SolverConfig(
                    method=method,
                    preconditioning=preconditioning,
                    record_iterates=record,
                )
                rep = solve(reduced, b_red, None, cfg, precondition=precondition)
                assert rep.status == "converged"
                assert rep.iterations == 0
                assert rep.residual_history == [0.0]
                assert rep.solution.size == 0
                if record:
                    assert [v.size for v in rep.iterates] == [0]
                    assert [v.size for v in rep.residual_vectors] == [0]
                else:
                    assert rep.iterates is None and rep.residual_vectors is None

    def test_scattered_solution_satisfies_full_equilibrium(self):
        mesh = Mesh(3, 3, 3.0, 3.0)
        mat = Material(1.0, 0.3, 3.0)
        a = assemble(mesh, mat, DensityField.uniform(mesh.n_elements, 1.0))
        bc = BoundaryConditions(
            n_dofs=mesh.n_dofs,
            fixed_dofs=mesh.edge_dofs("bottom"),
            point_loads=((2 * mesh.node_near(3.0, 3.0), 1.0),),
        )
        b = build_load(mesh, bc)
        a_red, b_red, dof_map = apply_dirichlet(a, b, bc)
        rep = solve(
            a_red, b_red, None, SolverConfig(rel_tolerance=1e-12, max_iterations=5000)
        )
        x_full = scatter_solution(rep.solution, dof_map, mesh.n_dofs)
        residual = b - a.csr @ x_full
        free = bc.free_dofs()
        assert np.abs(residual[free]).max() <= 1e-10 * max(np.abs(b).max(), 1e-30)


class TestBuildLoad:
    def test_no_loads(self):
        mesh = Mesh(2, 2, 2.0, 2.0)
        bc = BoundaryConditions(n_dofs=mesh.n_dofs)
        np.testing.assert_array_equal(build_load(mesh, bc), np.zeros(mesh.n_dofs))

    def test_single_load(self):
        mesh = Mesh(2, 2, 2.0, 2.0)
        bc = BoundaryConditions(n_dofs=mesh.n_dofs, point_loads=((5, -100.0),))
        b = build_load(mesh, bc)
        assert b[5] == -100.0
        assert np.count_nonzero(b) == 1

    def test_loads_accumulate(self):
        mesh = Mesh(2, 2, 2.0, 2.0)
        bc = BoundaryConditions(
            n_dofs=mesh.n_dofs, point_loads=((3, 2.0), (3, 5.0))
        )
        assert build_load(mesh, bc)[3] == 7.0
