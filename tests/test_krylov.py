import numpy as np
import pytest
import scipy.sparse as sp
from dataclasses import replace

from topokry import (
    DensityField,
    NumericalFailure,
    SolverConfig,
    SparseSymMatrix,
    jacobi_preconditioner,
    solve,
)
from topokry.krylov import REPEAT_LAG, csr_operator
from singular_lab import pseudo_inverse, trajectory
from util import (
    dense_solve,
    random_singular_psd,
    random_spd,
    repeat_oracle,
    sparse_from_dense,
    textbook_solve,
)


def plain(method, **kw):
    return SolverConfig(method=method, preconditioning="none", **kw)


class TestJacobiPreconditioner:
    def test_reciprocal_diagonal(self):
        d = jacobi_preconditioner(SparseSymMatrix(sp.diags([2.0, 4.0], format="csr")))
        np.testing.assert_allclose(d, [0.5, 0.25])

    def test_zero_diagonal_falls_back_to_one(self):
        d = jacobi_preconditioner(SparseSymMatrix(sp.diags([1.0, 0.0], format="csr")))
        np.testing.assert_allclose(d, [1.0, 1.0])

    def test_negative_diagonal_raises(self):
        with pytest.raises(ValueError, match="PSD"):
            jacobi_preconditioner(SparseSymMatrix(sp.diags([1.0, -2.0], format="csr")))

    def test_preconditioning_pays_off_on_truss_system(self):
        # mid-run two-bar-truss stiffness: strong density contrast plus
        # exact zero rows
        import os

        from topokry import apply_dirichlet, assemble, build_load, optimize
        from topokry.problem import load_problem

        here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = load_problem(os.path.join(here, "configs", "two_bar_truss.cfg"))
        spec = replace(spec, optimizer=replace(spec.optimizer, max_outer_iterations=6))
        mesh = spec.build_mesh()
        bc = spec.build_boundary_conditions(mesh)
        rho = DensityField(optimize(spec).densities[-1])
        a_red = assemble(mesh, spec.material, rho, bc)
        b_red, _ = apply_dirichlet(build_load(mesh, bc), bc)
        base = dict(method="cg", rel_tolerance=1e-8, max_iterations=3000)
        unpre = solve(a_red, b_red, None, SolverConfig(preconditioning="none", **base))
        pre = solve(a_red, b_red, None, SolverConfig(preconditioning="jacobi", **base))
        assert pre.status == "converged"
        assert pre.iterations <= unpre.iterations


class TestCgSolve:
    def test_identity_one_iteration(self):
        b = np.array([3.0, -1.0, 2.0])
        rep = solve(SparseSymMatrix(sp.identity(3, format="csr")), b, None, plain("cg"))
        assert rep.status == "converged"
        assert rep.iterations == 1
        np.testing.assert_allclose(rep.solution, b, atol=1e-14)

    def test_diagonal_exact_termination(self):
        a = SparseSymMatrix(sp.diags([1.0, 2.0, 3.0], format="csr"))
        rep = solve(a, [1.0, 2.0, 3.0], None, plain("cg"))
        assert rep.status == "converged"
        assert rep.iterations <= 3
        np.testing.assert_allclose(rep.solution, [1.0, 1.0, 1.0], atol=1e-10)

    def test_singular_consistent_matches_pseudo_solve(self):
        a = SparseSymMatrix(sp.diags([1.0, 2.0, 0.0], format="csr"))
        rep = solve(a, [3.0, 4.0, 0.0], None, plain("cg", rel_tolerance=1e-12))
        assert rep.status == "converged"
        oracle = pseudo_inverse(np.diag([1.0, 2.0, 0.0])) @ [3.0, 4.0, 0.0]
        np.testing.assert_allclose(rep.solution, oracle, atol=1e-10)
        np.testing.assert_allclose(rep.solution, [3.0, 2.0, 0.0], atol=1e-10)

    def test_random_spd_matches_dense_solve(self):
        rng = np.random.default_rng(37)
        dense = random_spd(rng, 50)
        b = rng.standard_normal(50)
        rep = solve(
            sparse_from_dense(dense), b, None, plain("cg", max_iterations=500)
        )
        oracle = dense_solve(dense, b)
        assert rep.status == "converged"
        err = np.linalg.norm(rep.solution - oracle) / np.linalg.norm(oracle)
        assert err <= 1e-8

    def test_warm_start_at_solution(self):
        a = SparseSymMatrix(sp.diags([1.0, 2.0], format="csr"))
        rep = solve(a, [1.0, 2.0], [1.0, 1.0], plain("cg"))
        assert rep.status == "converged"
        assert rep.iterations == 0

    def test_zero_rhs(self):
        rep = solve(SparseSymMatrix(sp.identity(3, format="csr")), np.zeros(3), None, plain("cg"))
        assert rep.status == "converged"
        assert rep.iterations == 0
        assert rep.final_relative_residual == 0.0

    def test_report_invariants(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(2, 20))
            dense = random_spd(rng, n)
            b = rng.standard_normal(n)
            cfg = plain("cg", rel_tolerance=1e-9, max_iterations=int(rng.integers(1, 3 * n)))
            rep = solve(sparse_from_dense(dense), b, None, cfg)
            assert len(rep.residual_history) == rep.iterations + 1
            if rep.status == "converged":
                assert rep.final_relative_residual <= cfg.rel_tolerance


class TestCrSolve:
    def test_identity_one_iteration(self):
        b = np.array([1.0, 2.0])
        rep = solve(SparseSymMatrix(sp.identity(2, format="csr")), b, None, plain("cr"))
        assert rep.status == "converged"
        assert rep.iterations == 1
        np.testing.assert_allclose(rep.solution, b, atol=1e-14)

    def test_inconsistent_rhs_stagnates_at_least_squares(self):
        # A = diag(1,0), b = (1,1): alpha_0 = 1, then A p_1 = 0 and the
        # iteration stagnates; the returned iterate solves the range-space
        # subsystem (range projection (1, 0)) and the true residual is the
        # null component of b
        a = SparseSymMatrix(sp.diags([1.0, 0.0], format="csr"))
        rep = solve(a, [1.0, 1.0], None, plain("cr"))
        assert rep.status == "stagnated_least_squares"
        assert rep.solution[0] == pytest.approx(1.0, abs=1e-14)
        assert rep.residual_history[-1] == pytest.approx(1.0, abs=1e-14)

    def test_singular_consistent_matches_pseudo_solve(self):
        rng = np.random.default_rng(43)
        dense, q1, _ = random_singular_psd(rng, 30, 5)
        b = dense @ rng.standard_normal(30)
        rep = solve(
            sparse_from_dense(dense), b, None,
            plain("cr", rel_tolerance=1e-10, max_iterations=300),
        )
        assert rep.status == "converged"
        oracle = pseudo_inverse(dense) @ b
        err = np.linalg.norm(rep.solution - oracle) / np.linalg.norm(oracle)
        assert err <= 1e-8

    def test_residual_monotone_on_psd(self):
        rng = np.random.default_rng(47)
        for k in range(15):
            n = int(rng.integers(3, 25))
            if k % 2:
                dense = random_spd(rng, n)
            else:
                dense, _, _ = random_singular_psd(rng, n, int(rng.integers(1, n // 2 + 1)))
            b = rng.standard_normal(n)
            rep = solve(
                sparse_from_dense(dense), b, None,
                plain("cr", max_iterations=4 * n),
            )
            h = rep.residual_history
            b_norm = np.linalg.norm(b)
            assert all(h[i + 1] <= h[i] + 1e-12 * b_norm for i in range(len(h) - 1))

    def test_non_finite_raises_numerical_failure(self):
        a = SparseSymMatrix(sp.diags([1e200, 1e200], format="csr"))
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalFailure) as excinfo:
                solve(a, [1.0, 1.0], None, plain("cr"))
        assert excinfo.value.iteration == 0


class TestPreconditionedSolves:
    def badly_scaled_spd(self, rng, n):
        dense = random_spd(rng, n)
        scale = 10.0 ** rng.uniform(-3, 3, n)
        return (scale[:, None] * dense) * scale[None, :]

    def test_cg_jacobi_matches_dense_solve(self):
        rng = np.random.default_rng(67)
        dense = self.badly_scaled_spd(rng, 30)
        b = rng.standard_normal(30)
        rep = solve(
            sparse_from_dense(dense), b, None,
            SolverConfig(method="cg", preconditioning="jacobi",
                         rel_tolerance=1e-12, max_iterations=2000),
        )
        assert rep.status == "converged"
        oracle = dense_solve(dense, b)
        assert np.linalg.norm(rep.solution - oracle) <= 1e-6 * np.linalg.norm(oracle)

    def test_cr_jacobi_matches_dense_solve_on_stiffness_system(self):
        # the left-applied preconditioner iterates on a nonsymmetric
        # operator; on stiffness-like systems (comparable diagonal entries)
        # it must still land on the right solution
        from topokry import (
            BoundaryConditions,
            Material,
            Mesh,
            apply_dirichlet,
            assemble,
            build_load,
        )

        mesh = Mesh(6, 12, 5.0, 10.0)
        bc = BoundaryConditions(
            n_dofs=mesh.n_dofs,
            fixed_dofs=mesh.edge_dofs("left"),
            point_loads=((2 * mesh.node_near(5.0, 5.0) + 1, -105.0),),
        )
        a_red = assemble(mesh, Material(2.1e5, 0.3, 3.0), DensityField.uniform(72, 0.375), bc)
        b_red, _ = apply_dirichlet(build_load(mesh, bc), bc)
        rep = solve(
            a_red, b_red, None,
            SolverConfig(method="cr", preconditioning="jacobi",
                         rel_tolerance=1e-10, max_iterations=5000),
        )
        assert rep.status == "converged"
        oracle = dense_solve(a_red.to_dense(), b_red)
        assert np.linalg.norm(rep.solution - oracle) <= 1e-6 * np.linalg.norm(oracle)

    def test_cr_jacobi_consistent_singular(self):
        # zero-stiffness DOFs pass through the preconditioner unscaled and
        # stay untouched by the iteration
        rng = np.random.default_rng(73)
        dense, q1, _ = random_singular_psd(rng, 20, 4)
        b = dense @ rng.standard_normal(20)
        rep = solve(
            sparse_from_dense(dense), b, None,
            SolverConfig(method="cr", preconditioning="jacobi",
                         rel_tolerance=1e-10, max_iterations=2000),
        )
        assert rep.status == "converged"
        oracle = pseudo_inverse(dense) @ b
        err = np.linalg.norm(q1.T @ (rep.solution - oracle))
        assert err <= 1e-6 * np.linalg.norm(oracle)
        # the true residual is small even though the iteration monitored
        # the preconditioned one
        true_res = np.linalg.norm(dense @ rep.solution - b)
        assert true_res <= 1e-6 * np.linalg.norm(b)


class TestErrorMonotonicity:
    def test_cg_a_norm_error_non_increasing(self):
        # on SPD systems the energy-norm error of every CG step decreases
        rng = np.random.default_rng(53)
        for _ in range(15):
            n = int(rng.integers(3, 30))
            dense = random_spd(rng, n)
            b = rng.standard_normal(n)
            x_star = dense_solve(dense, b)
            cfg = plain("cg", max_iterations=2 * n)
            errs = [
                np.sqrt((xk - x_star) @ (dense @ (xk - x_star)))
                for xk in trajectory(sparse_from_dense(dense), b, cfg).iterates
            ]
            slack = 1e-12 * max(errs[0], 1.0)
            assert all(errs[i + 1] <= errs[i] + slack for i in range(len(errs) - 1))


class TestSingularBehavior:
    def test_cg_consistent_singular_property(self):
        rng = np.random.default_rng(59)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            nullity = int(rng.integers(1, max(2, n // 4)))
            dense, q1, q2 = random_singular_psd(rng, n, nullity)
            b = dense @ rng.standard_normal(n)
            rep = solve(
                sparse_from_dense(dense), b, None, plain("cg", max_iterations=n)
            )
            assert rep.status == "converged"
            oracle = pseudo_inverse(dense) @ b
            proj_err = np.linalg.norm(q1.T @ (rep.solution - oracle))
            assert proj_err <= 1e-7 * max(np.linalg.norm(oracle), 1e-30)

    def test_iterates_confined_to_range(self):
        # x0 = 0 and b in R(A) keep every iterate inside R(A)
        rng = np.random.default_rng(61)
        for method in ("cg", "cr"):
            for _ in range(8):
                n = int(rng.integers(5, 30))
                dense, q1, q2 = random_singular_psd(rng, n, int(rng.integers(1, n // 3 + 1)))
                b = dense @ rng.standard_normal(n)
                cfg = plain(method, max_iterations=2 * n)
                for xk in trajectory(sparse_from_dense(dense), b, cfg).iterates:
                    norm = np.linalg.norm(xk)
                    if norm > 0:
                        assert np.linalg.norm(q2.T @ xk) <= 1e-10 * norm


class TestCsrOperator:
    """``csr_operator`` wraps scipy's private ``csr_matvec``; these checks
    fail if a scipy release removes it or changes what it computes."""

    def random_csr(self, rng, n, index_dtype):
        dense = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.3)
        dense[::3] = 0.0  # empty rows
        csr = sp.csr_matrix(dense)
        csr.indices = csr.indices.astype(index_dtype)
        csr.indptr = csr.indptr.astype(index_dtype)
        return csr

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("left_scaled", [False, True])
    def test_bit_identical_to_csr_matmul(self, index_dtype, left_scaled):
        rng = np.random.default_rng(83)
        for n in (1, 7, 40, 300):
            csr = self.random_csr(rng, n, index_dtype)
            assert csr.indices.dtype == index_dtype
            assert np.diff(csr.indptr).min() == 0
            v = rng.standard_normal(n)
            d = rng.uniform(0.1, 3.0, size=n) if left_scaled else None
            expected = d * (csr @ v) if left_scaled else csr @ v
            out = np.full(n, np.nan)  # stale contents must not leak in
            assert csr_operator(csr, d)(v, out) is out
            assert out.tobytes() == expected.tobytes()

    def test_length_mismatch_rejected(self):
        # the kernel itself would read or write past the end of the array
        matvec = csr_operator(sp.identity(4, format="csr"))
        for v, out in ((np.ones(3), np.zeros(4)), (np.ones(4), np.zeros(3))):
            with pytest.raises(ValueError, match="4x4"):
                matvec(v, out)

    def test_empty_system(self):
        csr = sp.csr_matrix((0, 0))
        for left in (None, np.zeros(0)):
            out = csr_operator(csr, left)(np.zeros(0), np.zeros(0))
            assert out.shape == (0,)


def void_column_system():
    """Reduced system of a left-clamped 4x3 mesh whose right column is void:
    void elements leave zero rows, so it is singular."""
    from topokry import (
        BoundaryConditions,
        Material,
        Mesh,
        apply_dirichlet,
        assemble,
        build_load,
    )

    mesh = Mesh(4, 3, 4.0, 3.0)
    bc = BoundaryConditions(
        n_dofs=mesh.n_dofs,
        fixed_dofs=mesh.edge_dofs("left"),
        point_loads=((2 * mesh.node_index(2, 1) + 1, -1.0),),
    )
    rho = np.ones(mesh.n_elements)
    rho[[3, 7, 11]] = 0.0  # right column void
    a_red = assemble(mesh, Material(1.0, 0.3, 3.0), DensityField(rho), bc)
    b_red, _ = apply_dirichlet(build_load(mesh, bc), bc)
    assert a_red.zero_rows().size > 0
    return a_red, b_red


class TestInPlaceSafety:
    SETTINGS = [
        (method, pre) for method in ("cg", "cr") for pre in ("none", "jacobi")
    ]

    @pytest.mark.parametrize("method,pre", SETTINGS)
    def test_inputs_untouched_and_not_aliased(self, method, pre):
        rng = np.random.default_rng(97)
        a = sparse_from_dense(random_spd(rng, 15))
        b = rng.standard_normal(15)
        x0 = rng.standard_normal(15)
        b_before, x0_before = b.copy(), x0.copy()
        cfg = SolverConfig(method=method, preconditioning=pre, max_iterations=200)
        rep = solve(a, b, x0, cfg)
        assert rep.iterations > 0
        assert b.tobytes() == b_before.tobytes()
        assert x0.tobytes() == x0_before.tobytes()
        assert not np.shares_memory(rep.solution, b)
        assert not np.shares_memory(rep.solution, x0)

    @pytest.mark.parametrize("method,pre", SETTINGS)
    def test_history_is_exact_norm_of_recorded_residuals(self, method, pre):
        a_red, b_red = void_column_system()
        cfg = SolverConfig(method=method, preconditioning=pre)
        traj = trajectory(a_red, b_red, cfg)
        rep = traj.report
        assert rep.iterations > 0
        assert len(traj.residuals) == len(rep.residual_history)
        for h, r in zip(rep.residual_history, traj.residuals):
            assert h == np.linalg.norm(r)


def assert_textbook_trajectory(a, b, cfg):
    """The solve, and each iterate and residual ``trajectory`` reads of it,
    are byte for byte those of the textbook run; returns the trajectory."""
    states = []
    x, history = textbook_solve(
        a, b, cfg.method, cfg.preconditioning, cfg.max_iterations,
        observe=lambda state: states.append(state[:2]),
    )
    traj = trajectory(a, b, cfg)
    rep = traj.report
    assert rep.iterations == len(history) - 1
    assert rep.solution.tobytes() == x.tobytes()
    assert np.array(rep.residual_history).tobytes() == np.array(history).tobytes()
    assert len(traj.iterates) == len(traj.residuals) == len(states) == len(history)
    for got_x, got_r, (want_x, want_r) in zip(traj.iterates, traj.residuals, states):
        assert got_x.tobytes() == want_x.tobytes()
        assert got_r.tobytes() == want_r.tobytes()
    return traj


class TestTextbookRecurrences:
    @pytest.mark.parametrize("method,pre", TestInPlaceSafety.SETTINGS)
    def test_bit_identical_to_plain_expressions(self, method, pre):
        # the in-place loop must round exactly as the textbook expressions,
        # at every iterate
        a_red, b_red = void_column_system()
        cfg = SolverConfig(method=method, preconditioning=pre, max_iterations=40)
        assert assert_textbook_trajectory(a_red, b_red, cfg).report.iterations > 0


class TestPreconditionHook:
    def test_identity_operator_is_byte_identical_to_none(self):
        # z = M r gets its own vector under a preconditioner; with M = I the
        # recurrence must round exactly as the unpreconditioned one
        a_red, b_red = void_column_system()

        def copy(r, out):
            np.copyto(out, r)
            return out

        plain_rep = solve(a_red, b_red, None, plain("cg", max_iterations=40))
        rep = solve(
            a_red, b_red, None,
            SolverConfig(preconditioning="mg", max_iterations=40), precondition=copy,
        )
        assert rep.iterations == plain_rep.iterations > 0
        assert rep.solution.tobytes() == plain_rep.solution.tobytes()
        assert (
            np.array(rep.residual_history).tobytes()
            == np.array(plain_rep.residual_history).tobytes()
        )

    def test_jacobi_cg_is_the_hook_with_diagonal_operator(self):
        # one PCG recurrence: Jacobi CG is the mg path with M = diag(d)
        a_red, b_red = void_column_system()
        d = jacobi_preconditioner(a_red)

        def diagonal(r, out):
            return np.multiply(d, r, out=out)

        jacobi = solve(a_red, b_red, None, SolverConfig(preconditioning="jacobi"))
        hook = solve(
            a_red, b_red, None, SolverConfig(preconditioning="mg"),
            precondition=diagonal,
        )
        assert jacobi.status == hook.status == "converged"
        assert jacobi.iterations == hook.iterations > 0
        assert jacobi.solution.tobytes() == hook.solution.tobytes()
        assert (
            np.array(jacobi.residual_history).tobytes()
            == np.array(hook.residual_history).tobytes()
        )

    def test_operator_goes_with_mg_only(self):
        a = SparseSymMatrix(sp.identity(3, format="csr"))
        b = np.ones(3)
        with pytest.raises(ValueError, match="precondition"):
            solve(a, b, None, SolverConfig(preconditioning="mg"))
        for pre in ("none", "jacobi"):
            with pytest.raises(ValueError, match="precondition"):
                solve(a, b, None, SolverConfig(preconditioning=pre),
                      precondition=lambda r, out: out)
        with pytest.raises(ValueError, match="precondition"):
            solve(a, b, None, plain("cr"), precondition=lambda r, out: out)

    def test_mg_is_for_cg_only(self):
        with pytest.raises(ValueError, match="cg"):
            SolverConfig(method="cr", preconditioning="mg")

    def test_unset_preconditioning_is_not_solved(self):
        with pytest.raises(ValueError, match="unset"):
            solve(SparseSymMatrix(sp.identity(2, format="csr")), np.ones(2), None,
                  SolverConfig(preconditioning=None))


class TestTrueResidual:
    @pytest.mark.parametrize("method,pre", TestInPlaceSafety.SETTINGS)
    @pytest.mark.parametrize("max_iterations", [3, 200])
    def test_matches_recomputed_norm_on_input_system(self, method, pre, max_iterations):
        rng = np.random.default_rng(41)
        dense, _, _ = random_singular_psd(rng, 12, 3)
        dense[:, 0] = dense[0, :] = 0.0  # a void DOF's empty row
        a = sparse_from_dense(dense)
        b = dense @ rng.standard_normal(12)
        cfg = SolverConfig(
            method=method, preconditioning=pre, max_iterations=max_iterations
        )
        rep = solve(a, b, None, cfg)
        expected = np.linalg.norm(b - a.csr @ rep.solution) / np.linalg.norm(b)
        assert rep.true_relative_residual == pytest.approx(expected, rel=1e-12)
        if max_iterations == 200:
            assert rep.true_relative_residual < 1e-6

    @pytest.mark.parametrize("method,pre", TestInPlaceSafety.SETTINGS)
    def test_zero_load(self, method, pre):
        a = sparse_from_dense(random_spd(np.random.default_rng(3), 5))
        cfg = SolverConfig(method=method, preconditioning=pre)
        assert solve(a, np.zeros(5), None, cfg).true_relative_residual == 0.0


class TestConfigValidation:
    def test_bad_method(self):
        with pytest.raises(ValueError):
            SolverConfig(method="gmres")

    def test_bad_tolerance(self):
        with pytest.raises(ValueError):
            SolverConfig(rel_tolerance=0.0)

    @pytest.mark.parametrize("tolerance", [np.inf, np.nan])
    def test_non_finite_tolerance(self, tolerance):
        # an infinite tolerance would report convergence after 0 iterations
        with pytest.raises(ValueError, match="rel_tolerance must be positive and finite"):
            SolverConfig(rel_tolerance=tolerance)

    # True set a cap of 1
    @pytest.mark.parametrize("cap", [3.5, 3.0, "3", True])
    def test_non_integer_cap(self, cap):
        with pytest.raises(ValueError, match="max_iterations must be an integer"):
            SolverConfig(max_iterations=cap)

    def test_numpy_integer_cap(self):
        assert SolverConfig(max_iterations=np.int64(3)).max_iterations == 3

    def test_bad_preconditioning(self):
        with pytest.raises(ValueError, match="preconditioning"):
            SolverConfig(preconditioning="ilu")


@pytest.fixture(scope="module")
def truss_designs():
    """The shipped truss (Jacobi PCG, OC): its mesh, material, supports
    and the uniform start followed by every fourth design of its run."""
    import os

    from topokry import optimize
    from topokry.problem import load_problem

    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = load_problem(os.path.join(here, "configs", "two_bar_truss.cfg"))
    history = optimize(spec)
    mesh = spec.build_mesh()
    uniform = np.full(mesh.n_elements, spec.optimizer.volume_fraction)
    designs = [uniform] + history.densities[::4]
    return mesh, spec.material, spec.build_boundary_conditions(mesh), designs


class TestStoredZerosChangeNothing:
    """The assembled matrix stores no exact-zero sum.  ``csr_matvec``
    starts each row sum at +0.0 and adding +0.0 or -0.0 to a sum that is
    not -0.0 leaves it as it is, so with or without the zeros every
    product, and every solve built on the products, is the same bytes."""

    @staticmethod
    def both(mesh, mat, bc, values):
        """The free-DOF matrix with the full scatter's stored zeros, and
        the one ``assemble`` returns."""
        from topokry import assemble
        from util import full_scatter_oracle

        rho = DensityField(values)
        full = SparseSymMatrix(full_scatter_oracle(mesh, mat, rho)[1], check=False)
        return full.submatrix(bc.free_dofs()), assemble(mesh, mat, rho, bc)

    def test_products_are_the_same_bytes(self, truss_designs):
        mesh, mat, bc, designs = truss_designs
        rng = np.random.default_rng(41)
        exact_zeros = 0
        for values in designs:
            stored, assembled = self.both(mesh, mat, bc, values)
            assert np.count_nonzero(assembled.csr.data == 0.0) == 0
            n = stored.dimension
            # a rigid translation in x: most rows sum to zero, many exactly
            shift = np.tile([1.0, 0.0], n // 2)
            for v in (rng.standard_normal(n), shift, -shift):
                got = csr_operator(assembled.csr)(v, np.empty(n))
                expected = csr_operator(stored.csr)(v, np.empty(n))
                assert got.tobytes() == expected.tobytes()
                exact_zeros += np.count_nonzero(got == 0.0)
        assert np.count_nonzero(self.both(mesh, mat, bc, designs[0])[0].csr.data == 0.0)
        assert exact_zeros > 0

    @pytest.mark.parametrize("method", ["cg", "cr"])
    def test_jacobi_solves_are_the_same_bytes(self, truss_designs, method):
        from topokry import apply_dirichlet, build_load

        mesh, mat, bc, designs = truss_designs
        b_red, _ = apply_dirichlet(build_load(mesh, bc), bc)
        cfg = SolverConfig(method=method, preconditioning="jacobi", max_iterations=mesh.n_nodes)
        for values in designs[:3]:
            stored, assembled = self.both(mesh, mat, bc, values)
            got = solve(assembled, b_red, None, cfg)
            expected = solve(stored, b_red, None, cfg)
            assert got.solution.tobytes() == expected.solution.tobytes()
            assert got.residual_history == expected.residual_history
            assert (got.status, got.iterations) == (expected.status, expected.iterations)
            assert got.true_relative_residual == expected.true_relative_residual


def shipped_cr_truss(update_rule, **optimizer):
    """The shipped truss config, solved by left-Jacobi CR, under
    ``update_rule`` and any other ``optimizer`` settings given."""
    import os

    from topokry.problem import load_problem

    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = load_problem(os.path.join(here, "configs", "two_bar_truss.cfg"))
    return replace(
        spec, solver=replace(spec.solver, method="cr"),
        optimizer=replace(spec.optimizer, update_rule=update_rule, **optimizer),
    )


def left_jacobi_cr_system(nx, ny, update_rule, updates):
    """The shipped truss on an nx x ny mesh after ``updates`` density
    updates of its left-Jacobi CR run: the reduced matrix, the load and
    the run's Krylov cap, the mesh's node count."""
    from topokry import apply_dirichlet, assemble, build_load, optimize

    spec = replace(
        shipped_cr_truss(update_rule, max_outer_iterations=updates), nx=nx, ny=ny
    )
    mesh = spec.build_mesh()
    bc = spec.build_boundary_conditions(mesh)
    rho = DensityField(optimize(spec).densities[-1])
    b_red, _ = apply_dirichlet(build_load(mesh, bc), bc)
    return assemble(mesh, spec.material, rho, bc), b_red, mesh.n_nodes


@pytest.fixture
def snapshots(monkeypatch):
    """Records each read of a solve's state: a snapshot or a comparison."""
    from topokry import krylov

    calls = []
    bits = krylov._bits

    def counted(vectors):
        calls.append(len(vectors))
        return bits(vectors)

    monkeypatch.setattr(krylov, "_bits", counted)
    return calls


@pytest.fixture(scope="module")
def capped_cr_truss_solves():
    """Every capped solve of the shipped truss's PCR-OC and PCR-CONLIN
    runs, as (matrix, load, warm start, cap, report)."""
    import topokry.optimizer
    from topokry import optimize

    solves = []

    def recording_solve(a, b, x0, cfg, precondition=None):
        rep = solve(a, b, x0, cfg, precondition=precondition)
        if rep.status == "max_iterations":
            solves.append((a, b, x0, cfg.max_iterations, rep))
        return rep

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(topokry.optimizer, "solve", recording_solve)
        for rule in ("oc", "conlin"):
            optimize(shipped_cr_truss(rule))
    return solves


def assert_full_run(rep, a, b, cap, x0=None):
    """``rep`` is, byte for byte, the textbook left-Jacobi CR run to the cap."""
    x, history = textbook_solve(a, b, "cr", "jacobi", cap, x0=x0)
    assert (rep.status, rep.iterations) == ("max_iterations", cap)
    assert rep.solution.tobytes() == x.tobytes()
    assert np.array(rep.residual_history).tobytes() == np.array(history).tobytes()


class TestRepeatingState:
    """A capped left-Jacobi CR solve whose state falls into an exact cycle
    stops running it, and reports byte for byte what the full run does."""

    @pytest.mark.parametrize("extra", [0, 1, 2, 3])
    def test_skipped_solve_is_the_full_run(self, extra):
        # the 20x40 PCR-OC design after its first update repeats with
        # period 2 from iteration 78 and is caught at 85; the cap's phase
        # in the period of 4 varies
        a_red, b_red, cap = left_jacobi_cr_system(20, 40, "oc", 1)
        cap += extra
        cfg = SolverConfig(method="cr", preconditioning="jacobi", max_iterations=cap)
        rep = solve(a_red, b_red, None, cfg)
        assert rep.repeated_at is not None and cap - rep.repeated_at > 700
        assert_full_run(rep, a_red, b_red, cap)

    def test_cycle_under_constant_residual_is_caught(self):
        # the 8x16 PCR-OC design after its first update keeps ||r||
        # constant for its last 132 iterations, and its state repeats with
        # period 2 from iteration 103
        a_red, b_red, cap = left_jacobi_cr_system(8, 16, "oc", 1)
        cfg = SolverConfig(method="cr", preconditioning="jacobi", max_iterations=cap)
        rep = solve(a_red, b_red, None, cfg)
        assert repeat_oracle(a_red, b_red, "cr", "jacobi", cap) == (103, 2)
        assert (rep.repeated_at, cap) == (108, 153)
        assert_full_run(rep, a_red, b_red, cap)

    def test_trajectory_is_the_full_run(self):
        # the 8x16 PCR-CONLIN design after its fifth update: the solve and
        # the capped solves past its repeat skip iterations, and every
        # iterate and residual is still the textbook run's
        a_red, b_red, cap = left_jacobi_cr_system(8, 16, "conlin", 5)
        cfg = SolverConfig(method="cr", preconditioning="jacobi", max_iterations=cap)
        rep = assert_textbook_trajectory(a_red, b_red, cfg).report
        assert rep.repeated_at is not None and rep.repeated_at < cap - 8
        assert rep.iterations == cap

    def test_constant_residual_that_moves_on_is_run_in_full(self, snapshots):
        # the 8x16 PCR-OC design after its seventh update keeps ||r||
        # constant for its last 93 iterations while no state repeats:
        # snapshots are taken and miss, and nothing is skipped
        a_red, b_red, cap = left_jacobi_cr_system(8, 16, "oc", 7)
        cfg = SolverConfig(method="cr", preconditioning="jacobi", max_iterations=cap)
        rep = solve(a_red, b_red, None, cfg)
        assert rep.residual_history[-90:] == [rep.residual_history[-1]] * 90
        assert repeat_oracle(a_red, b_red, "cr", "jacobi", cap) is None
        assert rep.repeated_at is None
        assert_full_run(rep, a_red, b_red, cap)
        # a snapshot and its comparison each read the state once, and a
        # snapshot is compared REPEAT_LAG iterations after it is taken
        assert 2 <= len(snapshots) <= 2 * cap / REPEAT_LAG

    def test_every_exact_cycle_on_the_truss_is_caught(self, capped_cr_truss_solves):
        # a solve whose state repeats runs to the cap (every check on the
        # repeating states passed the first time), so the capped solves
        # are all the candidates
        caught = 0
        for a, b, x0, cap, rep in capped_cr_truss_solves:
            found = repeat_oracle(a, b, "cr", "jacobi", cap, x0=x0)
            if found is None or REPEAT_LAG % found[1]:
                assert rep.repeated_at is None
                continue
            first, _ = found
            assert first <= rep.repeated_at <= first + 2 * REPEAT_LAG
            caught += 1
            if first > 700:  # the late cycles, first repeating at 790 and 796
                assert_full_run(rep, a, b, cap, x0=x0)
        assert (caught, len(capped_cr_truss_solves)) == (18, 29)

    @pytest.mark.parametrize("method,pre", TestInPlaceSafety.SETTINGS)
    def test_converging_solve_takes_no_snapshot(self, snapshots, method, pre):
        rng = np.random.default_rng(5)
        a = sparse_from_dense(random_spd(rng, 40))
        cfg = SolverConfig(method=method, preconditioning=pre)
        rep = solve(a, rng.standard_normal(40), None, cfg)
        assert rep.status == "converged" and rep.iterations > 4
        assert rep.repeated_at is None
        assert snapshots == []

    def test_converging_truss_solves_take_no_snapshot(self, snapshots, truss_designs):
        from topokry import apply_dirichlet, assemble, build_load

        mesh, mat, bc, designs = truss_designs
        b_red, _ = apply_dirichlet(build_load(mesh, bc), bc)
        cfg = SolverConfig(preconditioning="jacobi", max_iterations=mesh.n_nodes)
        for values in designs:
            rep = solve(assemble(mesh, mat, DensityField(values), bc), b_red, None, cfg)
            assert rep.status == "converged"
        assert snapshots == []
