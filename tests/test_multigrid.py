import os
from dataclasses import replace

import numpy as np
import pytest

from topokry import (
    BoundaryConditions,
    DensityField,
    Material,
    Mesh,
    SolverConfig,
    apply_dirichlet,
    assemble,
    build_load,
    element_stiffness,
    optimize,
    solve,
)
from topokry.cli import run
from topokry.multigrid import (
    COARSEST_DOFS,
    SMOOTHING_WEIGHT,
    _prolongation,
    hierarchy,
    smoothing_weight,
    v_cycle,
)
from topokry.problem import load_problem, loads_problem_text
from singular_lab import pseudo_inverse, range_basis
from util import dense_operator, galerkin_oracle

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")
GOLDEN = os.path.join(HERE, "golden")


def left_clamped(mesh, load_node, fy=-1.0):
    return BoundaryConditions(
        n_dofs=mesh.n_dofs,
        fixed_dofs=mesh.edge_dofs("left"),
        point_loads=((2 * load_node + 1, fy),),
    )


ISLAND_MATERIAL = Material(1.0, 0.3, 3.0)


def mesh_cycle(mesh, mat, bc, rho, a_red):
    """The V-cycle ``optimize`` builds for A: its mesh's hierarchy and the
    densities' rho^p."""
    return v_cycle(a_red, rho.values ** mat.penal, hierarchy(mesh, bc, mat))


def island_system(rng):
    """A left-clamped 16x16 mesh: graded material left of a void band two
    elements wide, and right of it a material island in void, so A has
    zero rows and the island's three rigid modes in its null space."""
    mesh = Mesh(16, 16, 16.0, 16.0)
    ex, ey = np.meshgrid(np.arange(16), np.arange(16))
    ex, ey = ex.ravel(), ey.ravel()
    rho = np.where(ex < 8, rng.uniform(0.2, 1.0, mesh.n_elements), 0.0)
    rho[(ex >= 11) & (ex <= 14) & (ey >= 5) & (ey <= 10)] = 1.0
    bc = left_clamped(mesh, mesh.node_index(8, 8))
    rho = DensityField(rho)
    a_red = assemble(mesh, ISLAND_MATERIAL, rho, bc)
    b_red, _ = apply_dirichlet(build_load(mesh, bc), bc)
    return mesh, bc, rho, a_red, b_red


def uniform_truss_system(nx):
    spec = load_problem(os.path.join(CONFIGS, "two_bar_truss.cfg"))
    mesh = Mesh(nx, 2 * nx, spec.domain_width, spec.domain_height)
    bc = spec.build_boundary_conditions(mesh)
    rho = DensityField.uniform(mesh.n_elements, spec.optimizer.volume_fraction)
    a_red = assemble(mesh, spec.material, rho, bc)
    b_red, _ = apply_dirichlet(build_load(mesh, bc), bc)
    return mesh_cycle(mesh, spec.material, bc, rho, a_red), a_red, b_red


class TestProlongation:
    @pytest.mark.parametrize("nx,ny", [(1, 1), (3, 2), (15, 7), (20, 40)])
    def test_shape_and_partition_of_unity(self, nx, ny):
        p, at = _prolongation(nx, ny)
        ncx, ncy = (nx + 1) // 2, (ny + 1) // 2
        assert p.shape == (2 * (nx + 1) * (ny + 1), 2 * (ncx + 1) * (ncy + 1))
        np.testing.assert_allclose(np.asarray(p.sum(axis=1)).ravel(), 1.0, atol=1e-15)
        # no stored zeros, which would widen every Galerkin pattern
        assert np.all(p.data > 0.0)
        assert at.size == (ncx + 1) * (ncy + 1)
        # a coarse node's DOFs inject onto the fine node at its position
        dense = p.toarray()
        for j, node in enumerate(at):
            for k in range(2):
                assert dense[2 * node + k, 2 * j + k] == 1.0

    @pytest.mark.parametrize("nx,ny", [(3, 2), (15, 7), (20, 40)])
    def test_levels_cut_to_free_dofs(self, nx, ny):
        mesh = Mesh(nx, ny, float(nx), float(ny))
        bc = left_clamped(mesh, mesh.node_index(nx, ny // 2))
        levels = hierarchy(mesh, bc, ISLAND_MATERIAL)
        full, at = _prolongation(nx, ny)
        free = bc.free_dofs()
        if free.size <= COARSEST_DOFS:
            assert levels == []
            return
        p, pt = levels[0].p, levels[0].pt
        fixed_nodes = np.unique(bc.fixed_dofs // 2)
        coarse_free = np.flatnonzero(~np.isin(np.repeat(at, 2), fixed_nodes))
        assert p.shape == (free.size, coarse_free.size)
        assert (p != full[free][:, coarse_free]).nnz == 0
        assert (pt != p.T).nnz == 0
        shapes = [level.p.shape for level in levels]
        assert all(a[1] == b[0] for a, b in zip(shapes, shapes[1:]))
        assert shapes[-1][1] <= COARSEST_DOFS < shapes[-1][0]

    def test_odd_sizes_keep_coarsening(self):
        mesh = Mesh(15, 30, 15.0, 30.0)
        bc = left_clamped(mesh, mesh.node_index(15, 15))
        sizes = [level.p.shape[1] for level in hierarchy(mesh, bc, ISLAND_MATERIAL)]
        assert len(sizes) >= 2 and sizes[-1] <= COARSEST_DOFS


def point_supported_truss():
    """The shipped truss held by two point supports at the left edge, 0.5
    from its ends, instead of the clamped edge: supports at nodes that
    no coarse level keeps."""
    with open(os.path.join(CONFIGS, "two_bar_truss.cfg")) as handle:
        lines = handle.read().splitlines()
    lines = [line for line in lines if not line.startswith(("supports.edges", "solver."))]
    return loads_problem_text("\n".join(lines + ["supports.nodes = 0, 0.5; 0, 19.5"]))


def assert_galerkin_matches_the_product(mesh, mat, bc, rho):
    """Every level's block-built operator equals pt @ (a @ p) to 1e-12 of
    its largest entry, with the same zero rows."""
    a = assemble(mesh, mat, rho, bc)
    levels = hierarchy(mesh, bc, mat)
    assert levels
    scale = rho.values ** mat.penal
    for depth, (level, oracle) in enumerate(zip(levels, galerkin_oracle(a, levels))):
        got = level.galerkin(scale).csr
        assert np.count_nonzero(got.data == 0.0) == 0
        expected = oracle.toarray()
        scale_max = np.abs(expected).max()
        error = np.abs(got.toarray() - expected).max()
        assert error <= 1e-12 * scale_max, f"level {depth + 1}: {error / scale_max:.2e}"
        empty = np.flatnonzero(np.diff(got.indptr) == 0)
        np.testing.assert_array_equal(empty, np.flatnonzero(~expected.any(axis=1)))
        assert level.galerkin(scale).diagonal().tobytes() == got.diagonal().tobytes()


class TestGalerkin:
    def test_truss_over_a_jacobi_pcg_run(self):
        spec = load_problem(os.path.join(CONFIGS, "two_bar_truss.cfg"))
        history = optimize(spec)
        assert history.solver.preconditioning == "jacobi"
        mesh = spec.build_mesh()
        bc = spec.build_boundary_conditions(mesh)
        uniform = np.full(mesh.n_elements, spec.optimizer.volume_fraction)
        for values in [uniform] + history.densities[::5]:
            assert_galerkin_matches_the_product(mesh, spec.material, bc, DensityField(values))

    def test_partial_coarse_elements(self):
        # 7x13 elements: every level ends each axis with an element whose
        # parent covers it alone
        mesh = Mesh(7, 13, 7.0, 13.0)
        bc = left_clamped(mesh, mesh.node_index(7, 6))
        rng = np.random.default_rng(5)
        values = np.where(rng.random(mesh.n_elements) < 0.3, 0.0, rng.uniform(0.1, 1.0, mesh.n_elements))
        for rho in (DensityField.uniform(mesh.n_elements, 0.5), DensityField(values)):
            assert_galerkin_matches_the_product(mesh, ISLAND_MATERIAL, bc, rho)

    def test_point_supports_are_masked_on_every_level(self):
        # the supported nodes sit at odd fine positions: unmasked
        # composites would interpolate the fixed DOFs into the coarse
        # operators, about 8 % off on the first level
        spec = point_supported_truss()
        mesh = spec.build_mesh()
        bc = spec.build_boundary_conditions(mesh)
        assert bc.fixed_dofs.size == 4
        rho = DensityField.uniform(mesh.n_elements, spec.optimizer.volume_fraction)
        assert_galerkin_matches_the_product(mesh, spec.material, bc, rho)

    def test_floating_islands(self):
        rng = np.random.default_rng(7)
        mesh, bc, rho, a_red, _ = island_system(rng)
        assert a_red.zero_rows().size > 0
        assert_galerkin_matches_the_product(mesh, ISLAND_MATERIAL, bc, rho)


class TestVCycle:
    def test_symmetric_on_singular_fem_system(self):
        rng = np.random.default_rng(7)
        mesh, bc, rho, a_red, _ = island_system(rng)
        zero = a_red.zero_rows()
        assert zero.size > 0
        assert len(hierarchy(mesh, bc, ISLAND_MATERIAL)) >= 2
        precondition = mesh_cycle(mesh, ISLAND_MATERIAL, bc, rho, a_red)
        n = a_red.dimension
        dense = dense_operator(precondition, n)
        assert np.all(dense[zero] == 0.0)
        # CG residuals vanish on zero rows, so only the active block counts
        active = np.setdiff1d(np.arange(n), zero)
        block = dense[np.ix_(active, active)]
        assert np.abs(block - block.T).max() <= 1e-12 * np.abs(block).max()
        u = rng.standard_normal(active.size)
        assert u @ block @ u > 0.0

    def test_input_untouched(self):
        precondition, _, b_red = uniform_truss_system(10)
        b_before = b_red.copy()
        out = precondition(b_red, np.empty(b_red.size))
        assert b_red.tobytes() == b_before.tobytes()
        assert not np.shares_memory(out, b_red)

    @pytest.mark.parametrize("nu,weight", [
        (0.3, 0.6), (0.4, 0.467), (0.45, 0.4), (0.49, 0.347),
    ])
    def test_weight_from_the_element_bound(self, nu, weight):
        ke = element_stiffness(Material(2.1e5, nu, 3.0, 10.0), 0.5, 0.5)
        got = smoothing_weight(ke)
        assert got == pytest.approx(weight, abs=5e-4)
        assert got <= SMOOTHING_WEIGHT

    @pytest.mark.parametrize("nu", [0.3, 0.49])
    def test_every_level_carries_the_element_weight(self, nu):
        spec = point_supported_truss()
        mat = replace(spec.material, poisson_ratio=nu)
        mesh = spec.build_mesh()
        levels = hierarchy(mesh, spec.build_boundary_conditions(mesh), mat)
        assert len(levels) >= 2
        ke = element_stiffness(mat, mesh.elem_width, mesh.elem_height)
        assert all(level.weight == smoothing_weight(ke) for level in levels)

    def test_no_level_applies_the_pseudo_inverse(self):
        # 4x4 elements, left clamped: 40 free DOFs, too few to coarsen
        mesh = Mesh(4, 4, 4.0, 4.0)
        bc = left_clamped(mesh, mesh.node_index(4, 2))
        rho = DensityField(np.random.default_rng(3).uniform(0.0, 1.0, mesh.n_elements))
        assert hierarchy(mesh, bc, ISLAND_MATERIAL) == []
        a_red = assemble(mesh, ISLAND_MATERIAL, rho, bc)
        precondition = v_cycle(a_red, rho.values ** ISLAND_MATERIAL.penal, [])
        r = np.random.default_rng(4).standard_normal(a_red.dimension)
        got = precondition(r, np.empty(r.size))
        np.testing.assert_allclose(got, pseudo_inverse(a_red.to_dense()) @ r, rtol=1e-12)

    @pytest.mark.parametrize("nu", [0.3, 0.45, 0.49])
    def test_spd_over_a_jacobi_pcg_run(self, nu):
        # every level's Jacobi sweep must contract, or the cycle turns
        # indefinite: at nu = 0.49 a fixed weight of 0.6 is past 2 / 3.47
        spec = load_problem(os.path.join(CONFIGS, "two_bar_truss.cfg"))
        spec = replace(
            spec, nx=10, ny=20,
            material=replace(spec.material, poisson_ratio=nu),
        )
        history = optimize(spec)
        assert history.solver.preconditioning == "jacobi"
        mesh = spec.build_mesh()
        bc = spec.build_boundary_conditions(mesh)
        uniform = np.full(mesh.n_elements, spec.optimizer.volume_fraction)
        for values in [uniform] + history.densities[::3]:
            rho = DensityField(values)
            a_red = assemble(mesh, spec.material, rho, bc)
            n = a_red.dimension
            dense = dense_operator(mesh_cycle(mesh, spec.material, bc, rho, a_red), n)
            active = np.setdiff1d(np.arange(n), a_red.zero_rows())
            block = dense[np.ix_(active, active)]
            eig = np.linalg.eigvalsh(0.5 * (block + block.T))
            assert eig[0] / eig[-1] >= -1e-9


class TestMultigridCg:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_singular_system_against_pseudo_solve(self, seed):
        rng = np.random.default_rng(seed)
        mesh, bc, rho, a_red, b_red = island_system(rng)
        n = a_red.dimension
        assert n <= 2000
        x0 = rng.standard_normal(n)
        cfg = SolverConfig(preconditioning="mg", rel_tolerance=1e-10)
        precondition = mesh_cycle(mesh, ISLAND_MATERIAL, bc, rho, a_red)
        rep = solve(a_red, b_red, x0, cfg, precondition=precondition)
        assert rep.status == "converged"
        assert rep.true_relative_residual <= 1e-8
        dense = a_red.to_dense()
        oracle = pseudo_inverse(dense) @ b_red
        q_range = range_basis(dense).q_range
        err = np.linalg.norm(q_range.T @ (rep.solution - oracle))
        assert err <= 1e-7 * np.linalg.norm(oracle)
        zero = a_red.zero_rows()
        assert rep.solution[zero].tobytes() == x0[zero].tobytes()

    @pytest.mark.parametrize("nx", [20, 40, 60])
    def test_iterations_flat_over_mesh_ladder(self, nx):
        precondition, a_red, b_red = uniform_truss_system(nx)
        rep = solve(
            a_red, b_red, None, SolverConfig(preconditioning="mg"),
            precondition=precondition,
        )
        assert rep.status == "converged"
        assert rep.iterations <= 25
        assert rep.true_relative_residual <= 1e-8


@pytest.mark.parametrize("rule", ["oc", "conlin"])
def test_unset_preconditioning_gives_the_golden_truss(tmp_path, rule):
    spec = load_problem(os.path.join(CONFIGS, "two_bar_truss.cfg"))
    spec = replace(
        spec,
        solver=replace(spec.solver, preconditioning=None),
        optimizer=replace(spec.optimizer, update_rule=rule),
    )
    assert run(spec, tmp_path) == 0
    name = f"PCG-{rule.upper()}"
    with open(os.path.join(GOLDEN, name, "density.pgm"), "rb") as handle:
        assert (tmp_path / "density.pgm").read_bytes() == handle.read()
    summary = (tmp_path / "summary.txt").read_text()
    assert "preconditioning: mg\n" in summary
    assert f"method: {name}\n" in summary
    with open(os.path.join(GOLDEN, name, "history.csv")) as handle:
        golden = float(handle.read().splitlines()[-1].split(",")[2])
    final = float((tmp_path / "history.csv").read_text().splitlines()[-1].split(",")[2])
    assert final == pytest.approx(golden, rel=1e-6)
