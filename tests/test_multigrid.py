import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from topokry import (
    BoundaryConditions,
    DensityField,
    Material,
    Mesh,
    SolverConfig,
    apply_dirichlet,
    assemble,
    build_load,
    pseudo_solve,
    range_basis,
    solve,
)
from topokry.cli import run
from topokry.multigrid import (
    COARSEST_DOFS,
    _product,
    _prolongation,
    prolongations,
    v_cycle,
)
from topokry.problem import load_problem

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")
GOLDEN = os.path.join(HERE, "golden")


def left_clamped(mesh, load_node, fy=-1.0):
    return BoundaryConditions(
        n_dofs=mesh.n_dofs,
        fixed_dofs=mesh.edge_dofs("left"),
        point_loads=((2 * load_node + 1, fy),),
    )


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
    a = assemble(mesh, Material(1.0, 0.3, 3.0), DensityField(rho))
    a_red, b_red, _ = apply_dirichlet(a, build_load(mesh, bc), bc)
    return mesh, bc, a_red, b_red


def uniform_truss_system(nx):
    spec = load_problem(os.path.join(CONFIGS, "two_bar_truss.cfg"))
    mesh = Mesh(nx, 2 * nx, spec.domain_width, spec.domain_height)
    bc = spec.build_boundary_conditions(mesh)
    rho = DensityField.uniform(mesh.n_elements, spec.optimizer.volume_fraction)
    a_red, b_red, _ = apply_dirichlet(
        assemble(mesh, spec.material, rho), build_load(mesh, bc), bc
    )
    return mesh, bc, a_red, b_red


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
        levels = prolongations(mesh, bc)
        full, at = _prolongation(nx, ny)
        free = bc.free_dofs()
        if free.size <= COARSEST_DOFS:
            assert levels == []
            return
        p, pt = levels[0]
        fixed_nodes = np.unique(bc.fixed_dofs // 2)
        coarse_free = np.flatnonzero(~np.isin(np.repeat(at, 2), fixed_nodes))
        assert p.shape == (free.size, coarse_free.size)
        assert (p != full[free][:, coarse_free]).nnz == 0
        assert (pt != p.T).nnz == 0
        shapes = [q.shape for q, _ in levels]
        assert all(a[1] == b[0] for a, b in zip(shapes, shapes[1:]))
        assert shapes[-1][1] <= COARSEST_DOFS < shapes[-1][0]

    def test_odd_sizes_keep_coarsening(self):
        mesh = Mesh(15, 30, 15.0, 30.0)
        bc = left_clamped(mesh, mesh.node_index(15, 15))
        sizes = [p.shape[1] for p, _ in prolongations(mesh, bc)]
        assert len(sizes) >= 2 and sizes[-1] <= COARSEST_DOFS


class TestProduct:
    """``_product`` runs scipy's private ``csr_matmat`` kernels; these checks
    fail if a scipy release removes them or changes what they compute."""

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_bit_identical_to_csr_matmul(self, index_dtype):
        rng = np.random.default_rng(5)
        for n, k, m in ((1, 1, 1), (7, 5, 3), (60, 40, 90)):
            a, b = (
                sp.csr_matrix(rng.standard_normal(shape) * (rng.random(shape) < 0.3))
                for shape in ((n, k), (k, m))
            )
            a.indices, a.indptr = a.indices.astype(index_dtype), a.indptr.astype(index_dtype)
            got, expected = _product(a, b), a @ b
            assert got.shape == expected.shape
            np.testing.assert_array_equal(got.indptr, expected.indptr)
            np.testing.assert_array_equal(got.indices, expected.indices)
            assert got.data.tobytes() == expected.data.tobytes()

    def test_empty(self):
        a, b = sp.csr_matrix((0, 3)), sp.csr_matrix((3, 2))
        assert _product(a, b).shape == (0, 2)
        assert _product(b.T.tocsr(), b).nnz == 0


class TestVCycle:
    def test_symmetric_on_singular_fem_system(self):
        rng = np.random.default_rng(7)
        mesh, bc, a_red, _ = island_system(rng)
        assert a_red.zero_rows().size > 0
        levels = prolongations(mesh, bc)
        assert len(levels) >= 2
        precondition = v_cycle(a_red, levels)
        n = a_red.dimension
        u, v = rng.standard_normal(n), rng.standard_normal(n)
        # CG residuals vanish on zero rows; so do these
        u[a_red.zero_rows()] = v[a_red.zero_rows()] = 0.0
        bu = precondition(u, np.empty(n)).copy()
        bv = precondition(v, np.empty(n))
        scale = np.linalg.norm(u) * np.linalg.norm(bv)
        assert abs(u @ bv - v @ bu) <= 1e-12 * scale
        assert u @ bu > 0.0
        assert np.all(bv[a_red.zero_rows()] == 0.0)

    def test_input_untouched(self):
        mesh, bc, a_red, b_red = uniform_truss_system(10)
        b_before = b_red.copy()
        out = v_cycle(a_red, prolongations(mesh, bc))(b_red, np.empty(b_red.size))
        assert b_red.tobytes() == b_before.tobytes()
        assert not np.shares_memory(out, b_red)


class TestMultigridCg:
    @pytest.mark.parametrize("seed", [11, 12])
    def test_singular_system_against_pseudo_solve(self, seed):
        rng = np.random.default_rng(seed)
        mesh, bc, a_red, b_red = island_system(rng)
        n = a_red.dimension
        assert n <= 2000
        x0 = rng.standard_normal(n)
        cfg = SolverConfig(preconditioning="mg", rel_tolerance=1e-10)
        rep = solve(a_red, b_red, x0, cfg, precondition=v_cycle(a_red, prolongations(mesh, bc)))
        assert rep.status == "converged"
        assert rep.true_relative_residual <= 1e-8
        dense = a_red.to_dense()
        oracle = pseudo_solve(dense, b_red)
        q_range = range_basis(dense).q_range
        err = np.linalg.norm(q_range.T @ (rep.solution - oracle))
        assert err <= 1e-7 * np.linalg.norm(oracle)
        zero = a_red.zero_rows()
        assert rep.solution[zero].tobytes() == x0[zero].tobytes()

    @pytest.mark.parametrize("nx", [20, 40, 60])
    def test_iterations_flat_over_mesh_ladder(self, nx):
        mesh, bc, a_red, b_red = uniform_truss_system(nx)
        rep = solve(
            a_red, b_red, None, SolverConfig(preconditioning="mg"),
            precondition=v_cycle(a_red, prolongations(mesh, bc)),
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
