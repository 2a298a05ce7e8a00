import numpy as np
import pytest
import scipy.sparse as sp
from dataclasses import replace

from topokry import (
    DensityField,
    NumericalFailure,
    SolverConfig,
    SparseSymMatrix,
    dense_solve,
    jacobi_preconditioner,
    pseudo_solve,
    solve,
)
from topokry.krylov import csr_operator
from util import random_singular_psd, random_spd, sparse_from_dense, textbook_solve


def plain(method, **kw):
    return SolverConfig(method=method, preconditioning="none", **kw)


class TestJacobiPreconditioner:
    def test_reciprocal_diagonal(self):
        d = jacobi_preconditioner(SparseSymMatrix.from_diagonal([2.0, 4.0]))
        np.testing.assert_allclose(d, [0.5, 0.25])

    def test_zero_diagonal_falls_back_to_one(self):
        d = jacobi_preconditioner(SparseSymMatrix.from_diagonal([1.0, 0.0]))
        np.testing.assert_allclose(d, [1.0, 1.0])

    def test_negative_diagonal_raises(self):
        with pytest.raises(ValueError, match="PSD"):
            jacobi_preconditioner(SparseSymMatrix.from_diagonal([1.0, -2.0]))

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
        a = assemble(mesh, spec.material, rho)
        a_red, b_red, _ = apply_dirichlet(a, build_load(mesh, bc), bc)
        base = dict(method="cg", rel_tolerance=1e-8, max_iterations=3000)
        unpre = solve(a_red, b_red, None, SolverConfig(preconditioning="none", **base))
        pre = solve(a_red, b_red, None, SolverConfig(preconditioning="jacobi", **base))
        assert pre.status == "converged"
        assert pre.iterations <= unpre.iterations


class TestCgSolve:
    def test_identity_one_iteration(self):
        b = np.array([3.0, -1.0, 2.0])
        rep = solve(SparseSymMatrix.identity(3), b, None, plain("cg"))
        assert rep.status == "converged"
        assert rep.iterations == 1
        np.testing.assert_allclose(rep.solution, b, atol=1e-14)

    def test_diagonal_exact_termination(self):
        a = SparseSymMatrix.from_diagonal([1.0, 2.0, 3.0])
        rep = solve(a, [1.0, 2.0, 3.0], None, plain("cg"))
        assert rep.status == "converged"
        assert rep.iterations <= 3
        np.testing.assert_allclose(rep.solution, [1.0, 1.0, 1.0], atol=1e-10)

    def test_singular_consistent_matches_pseudo_solve(self):
        a = SparseSymMatrix.from_diagonal([1.0, 2.0, 0.0])
        rep = solve(a, [3.0, 4.0, 0.0], None, plain("cg", rel_tolerance=1e-12))
        assert rep.status == "converged"
        oracle = pseudo_solve(np.diag([1.0, 2.0, 0.0]), [3.0, 4.0, 0.0])
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
        a = SparseSymMatrix.from_diagonal([1.0, 2.0])
        rep = solve(a, [1.0, 2.0], [1.0, 1.0], plain("cg"))
        assert rep.status == "converged"
        assert rep.iterations == 0

    def test_zero_rhs(self):
        rep = solve(SparseSymMatrix.identity(3), np.zeros(3), None, plain("cg"))
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
        rep = solve(SparseSymMatrix.identity(2), b, None, plain("cr"))
        assert rep.status == "converged"
        assert rep.iterations == 1
        np.testing.assert_allclose(rep.solution, b, atol=1e-14)

    def test_inconsistent_rhs_stagnates_at_least_squares(self):
        # A = diag(1,0), b = (1,1): alpha_0 = 1, then A p_1 = 0 and the
        # iteration stagnates; the returned iterate solves the range-space
        # subsystem (range projection (1, 0)) and the true residual is the
        # null component of b
        a = SparseSymMatrix.from_diagonal([1.0, 0.0])
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
        oracle = pseudo_solve(dense, b)
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
        a = SparseSymMatrix.from_diagonal([1e200, 1e200])
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
        a = assemble(mesh, Material(2.1e5, 0.3, 3.0), DensityField.uniform(72, 0.375))
        a_red, b_red, _ = apply_dirichlet(a, build_load(mesh, bc), bc)
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
        oracle = pseudo_solve(dense, b)
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
            cfg = plain("cg", max_iterations=2 * n, record_iterates=True)
            rep = solve(sparse_from_dense(dense), b, None, cfg)
            errs = [
                np.sqrt((xk - x_star) @ (dense @ (xk - x_star)))
                for xk in rep.iterates
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
            oracle = pseudo_solve(dense, b)
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
                cfg = plain(method, max_iterations=2 * n, record_iterates=True)
                rep = solve(sparse_from_dense(dense), b, None, cfg)
                for xk in rep.iterates:
                    norm = np.linalg.norm(xk)
                    if norm > 0:
                        assert np.linalg.norm(q2.T @ xk) <= 1e-10 * norm

    def test_record_size_limit(self):
        a = SparseSymMatrix.identity(2001)
        with pytest.raises(ValueError, match="2000"):
            solve(a, np.ones(2001), None, plain("cg", record_iterates=True))


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
    a = assemble(mesh, Material(1.0, 0.3, 3.0), DensityField(rho))
    a_red, b_red, _ = apply_dirichlet(a, build_load(mesh, bc), bc)
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
        cfg = SolverConfig(method=method, preconditioning=pre, record_iterates=True)
        rep = solve(a_red, b_red, None, cfg)
        assert rep.iterations > 0
        assert len(rep.residual_vectors) == len(rep.residual_history)
        for h, r in zip(rep.residual_history, rep.residual_vectors):
            assert h == np.linalg.norm(r)


class TestTextbookRecurrences:
    @pytest.mark.parametrize("method,pre", TestInPlaceSafety.SETTINGS)
    def test_bit_identical_to_plain_expressions(self, method, pre):
        # the in-place loop must round exactly as the textbook expressions
        a_red, b_red = void_column_system()
        cfg = SolverConfig(method=method, preconditioning=pre, max_iterations=40)
        rep = solve(a_red, b_red, None, cfg)
        x, history = textbook_solve(a_red, b_red, method, pre, 40)
        assert rep.iterations == len(history) - 1 > 0
        assert rep.solution.tobytes() == x.tobytes()
        assert np.array(rep.residual_history).tobytes() == np.array(history).tobytes()


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
        a = SparseSymMatrix.identity(3)
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
            solve(SparseSymMatrix.identity(2), np.ones(2), None,
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

    def test_bad_preconditioning(self):
        with pytest.raises(ValueError, match="preconditioning"):
            SolverConfig(preconditioning="ilu")
