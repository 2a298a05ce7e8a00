import numpy as np
import pytest
import scipy.sparse as sp

from topokry import (
    DensityField,
    Material,
    Mesh,
    SolverConfig,
    SparseSymMatrix,
    assemble,
    solve,
)
from singular_lab import (
    DecompositionError,
    cr_bound_check,
    decompose_history,
    range_basis,
    standard_form,
    trajectory,
)
from util import random_singular_psd, random_spd, sparse_from_dense


def subspace_angle(u, v):
    """Largest principal angle between the column spans of u and v,
    measured through its sine for accuracy near zero."""
    qu, _ = np.linalg.qr(u)
    qv, _ = np.linalg.qr(v)
    residual = qv - qu @ (qu.T @ qv)
    return np.arcsin(np.clip(np.linalg.svd(residual, compute_uv=False).max(), 0.0, 1.0))


class TestRangeBasis:
    def test_diag_with_null(self):
        dec = range_basis(np.diag([1.0, 0.0]))
        assert dec.rank == 1
        np.testing.assert_allclose(np.abs(dec.q_range[:, 0]), [1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(dec.a11, [[1.0]], atol=1e-14)

    def test_full_rank(self):
        rng = np.random.default_rng(3)
        dense = random_spd(rng, 6)
        dec = range_basis(dense)
        assert dec.rank == 6
        assert dec.q_null.shape == (6, 0)
        tilde = standard_form(dense, dec)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(tilde)),
            np.sort(np.linalg.eigvalsh(dense)),
            rtol=1e-10, atol=1e-12,
        )

    def test_planted_rank_recovered(self):
        rng = np.random.default_rng(5)
        dense, q1, q2 = random_singular_psd(rng, 10, 3)
        dec = range_basis(dense)
        assert dec.rank == 7
        assert subspace_angle(dec.q_range, q1) <= 1e-8
        assert subspace_angle(dec.q_null, q2) <= 1e-8

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            range_basis(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_accepts_sparse(self):
        dec = range_basis(SparseSymMatrix(sp.diags([2.0, 0.0, 1.0], format="csr")))
        assert dec.rank == 2

    def test_large_sparse_refused_before_densifying(self):
        import tracemalloc

        a = SparseSymMatrix(sp.identity(3000, format="csr"))  # dense would be 72 MB
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="2000"):
                range_basis(a)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5e6

    def test_orthogonality_and_block_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(4, 16))
            nullity = int(rng.integers(1, n // 2 + 1))
            dense, _, _ = random_singular_psd(rng, n, nullity)
            dec = range_basis(dense)
            q = np.hstack([dec.q_range, dec.q_null])
            np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-12)
            scale = np.linalg.norm(dense)
            # Q1' A Q2 vanishes for symmetric A (range and null orthogonal)
            assert np.linalg.norm(dec.q_range.T @ dense @ dec.q_null) <= 1e-10 * scale
            # the regular block really is regular
            sv = np.linalg.svd(dec.a11, compute_uv=False)
            assert sv.min() >= 1e-10 * np.linalg.norm(dense, 2)
            # projector idempotence
            proj = dec.q_range @ dec.q_range.T
            assert np.linalg.norm(proj @ proj - proj) <= 1e-12 * max(1.0, np.linalg.norm(proj))


class TestStandardForm:
    def test_diagonal_sorted_zero_block(self):
        dense = np.diag([0.0, 3.0, 0.0, 1.0])
        dec = range_basis(dense)
        tilde = standard_form(dense, dec)
        np.testing.assert_allclose(tilde[2:, :], 0.0, atol=1e-12)
        np.testing.assert_allclose(tilde[:, 2:], 0.0, atol=1e-12)
        np.testing.assert_allclose(np.sort(np.diag(tilde)[:2]), [1.0, 3.0])

    def test_inconsistent_decomposition_raises(self):
        dec = range_basis(np.diag([1.0, 0.0]))
        other = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(DecompositionError):
            standard_form(other, dec)

    def test_fem_void_nodes_set_trailing_block(self):
        # 3x1 strip, left edge fixed, right element void: the two
        # right-edge nodes touch only void, so the reduced system's null
        # space is exactly their four DOFs
        mesh = Mesh(3, 1, 3.0, 1.0)
        mat = Material(1.0, 0.3, 3.0)
        rho = DensityField(np.array([1.0, 1.0, 0.0]))
        from topokry import BoundaryConditions

        bc = BoundaryConditions(n_dofs=mesh.n_dofs, fixed_dofs=mesh.edge_dofs("left"))
        a_red = assemble(mesh, mat, rho, bc)
        dec = range_basis(a_red)
        tilde = standard_form(a_red, dec)
        n_void_nodes = 2
        assert a_red.dimension - dec.rank == 2 * n_void_nodes
        trailing = tilde[dec.rank :, dec.rank :]
        assert np.abs(trailing).max() <= 1e-12


class TestDecomposeHistory:
    def test_consistent_rhs_has_no_null_residual(self):
        rng = np.random.default_rng(11)
        dense, q1, _ = random_singular_psd(rng, 15, 4)
        b = dense @ rng.standard_normal(15)
        cfg = SolverConfig(method="cr", preconditioning="none", max_iterations=60)
        traj = trajectory(sparse_from_dense(dense), b, cfg)
        traces = decompose_history(traj.residuals, range_basis(dense))
        assert traces.residual_null.max() <= 1e-10 * max(np.linalg.norm(b), 1e-30)

    def test_cr_null_residual_constant_for_inconsistent_rhs(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(6, 25))
            nullity = int(rng.integers(1, n // 3 + 1))
            dense, _, q2 = random_singular_psd(rng, n, nullity)
            b = dense @ rng.standard_normal(n) + q2 @ rng.standard_normal(nullity)
            cfg = SolverConfig(method="cr", preconditioning="none", max_iterations=3 * n)
            traj = trajectory(sparse_from_dense(dense), b, cfg)
            dec = range_basis(dense)
            traces = decompose_history(traj.residuals, dec)
            b_null_vec = dec.q_null.T @ b
            np.testing.assert_allclose(
                traces.residual_null, np.linalg.norm(b_null_vec), atol=1e-10
            )
            # the null component is the same vector at every iteration, not
            # merely the same norm
            for rk in traj.residuals:
                assert np.linalg.norm(dec.q_null.T @ rk - b_null_vec) <= 1e-10
            # range residual can only go down
            rp = traces.residual_range
            slack = 1e-12 * np.linalg.norm(b)
            assert all(rp[i + 1] <= rp[i] + slack for i in range(len(rp) - 1))

    def test_cg_range_residual_can_increase_for_inconsistent_rhs(self):
        # frozen witness: with a null component in b, CG's range residual
        # is not monotone (the alpha coefficient is polluted by the
        # null-space parts)
        rng = np.random.default_rng(0)
        n, nullity = 12, 3
        dense, _, q2 = random_singular_psd(rng, n, nullity)
        b = dense @ rng.standard_normal(n) + q2 @ rng.standard_normal(nullity)
        cfg = SolverConfig(method="cg", preconditioning="none", max_iterations=3 * n)
        traj = trajectory(sparse_from_dense(dense), b, cfg)
        traces = decompose_history(traj.residuals, range_basis(dense))
        rp = traces.residual_range
        assert any(
            rp[k + 1] > rp[k] * (1 + 1e-10) + 1e-14 for k in range(len(rp) - 1)
        )


class TestCrBoundCheck:
    def test_identity_bound_zero(self):
        rep = solve(
            SparseSymMatrix(sp.identity(4, format="csr")), np.ones(4), None,
            SolverConfig(method="cr", preconditioning="none"),
        )
        assert cr_bound_check(np.eye(4), rep.residual_history)

    def test_diag_1_2_bound(self):
        # bound = 1 - lambda_min(M)^2 / lambda_max(A^T A) = 1 - 1/4
        dense = np.diag([1.0, 2.0])
        rng = np.random.default_rng(17)
        b = rng.standard_normal(2)
        rep = solve(
            sparse_from_dense(dense), b, None,
            SolverConfig(method="cr", preconditioning="none"),
        )
        assert cr_bound_check(dense, rep.residual_history)
        # directly check the oracle-computed bound value on the ratios
        bound = 0.75
        h = rep.residual_history
        for prev, nxt in zip(h, h[1:]):
            if prev > 0:
                assert (nxt / prev) ** 2 <= bound + 1e-10

    def test_random_spd_bound_holds(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            dense = random_spd(rng, 15)
            b = rng.standard_normal(15)
            rep = solve(
                sparse_from_dense(dense), b, None,
                SolverConfig(method="cr", preconditioning="none", max_iterations=100),
            )
            assert cr_bound_check(dense, rep.residual_history)

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="positive definite"):
            cr_bound_check(np.diag([1.0, -1.0]), [1.0, 0.5])

    def test_violating_history_detected(self):
        assert not cr_bound_check(np.diag([1.0, 2.0]), [1.0, 0.999])
