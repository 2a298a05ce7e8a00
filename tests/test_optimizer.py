import os
from dataclasses import replace

import numpy as np
import pytest

import topokry.optimizer
from topokry import (
    DensityField,
    InfeasibleConstraintError,
    LoadOutsideRangeError,
    Material,
    Mesh,
    OptimizerConfig,
    ProblemSpec,
    SolverConfig,
    apply_dirichlet,
    assemble,
    build_load,
    compliance,
    conlin_update,
    element_stiffness,
    oc_update,
    optimize,
    scatter_solution,
    sensitivity,
    solve,
    threshold,
)
from util import (
    dense_solve,
    element_dof_table,
    elements_adjacent_to_node,
    sensitivity_oracle,
    unsupported,
    update_oracle,
)
from topokry.optimizer import (
    CONVERGED,
    CYCLE_TOLERANCE,
    CYCLING,
    MAX_ITERATIONS,
    _clamped_candidate,
    _cycle_period,
)
from topokry.problem import PointLoad, load_problem, loads_problem_text

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIGS = os.path.join(ROOT, "configs")


def cantilever_spec(nx, ny, frac, rule="oc", method="cg", **opt_kw):
    return ProblemSpec(
        domain_width=float(nx),
        domain_height=float(ny),
        nx=nx,
        ny=ny,
        material=Material(1.0, 0.3, 3.0),
        support_edges=("left",),
        loads=(PointLoad(float(nx), ny / 2.0, 0.0, -1.0),),
        solver=SolverConfig(method=method, preconditioning="jacobi"),
        optimizer=OptimizerConfig(volume_fraction=frac, update_rule=rule, **opt_kw),
    )


class TestCompliance:
    def test_zero_displacement(self):
        assert compliance(np.zeros(4), np.ones(4)) == 0.0

    def test_inner_product(self):
        assert compliance([3.0, 0.0], [2.0, 0.0]) == pytest.approx(3.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            compliance(np.zeros(3), np.zeros(4))


class TestSensitivity:
    mesh = Mesh(2, 2, 2.0, 2.0)
    mat = Material(1.0, 0.3, 3.0)

    def test_zero_displacement(self):
        rho = DensityField.uniform(4, 0.5)
        np.testing.assert_array_equal(
            sensitivity(self.mesh, self.mat, rho, np.zeros(self.mesh.n_dofs)),
            np.zeros(4),
        )

    def test_single_element_formula(self):
        mesh = Mesh(1, 1, 1.0, 1.0)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(mesh.n_dofs)
        ke = element_stiffness(self.mat, 1.0, 1.0)
        ue = x[element_dof_table(mesh.element_nodes)[0]]
        expected = -3.0 * ue @ ke @ ue
        got = sensitivity(mesh, self.mat, DensityField.uniform(1, 1.0), x)[0]
        assert got == pytest.approx(expected, rel=1e-12)

    def test_zero_density_gives_zero(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(self.mesh.n_dofs)
        rho = DensityField(np.array([0.0, 0.5, 0.0, 1.0]))
        sens = sensitivity(self.mesh, self.mat, rho, x)
        assert sens[0] == 0.0 and sens[2] == 0.0
        assert sens[1] < 0.0 and sens[3] < 0.0

    def test_always_nonpositive(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho = DensityField(rng.uniform(0.0, 1.0, 4))
            x = rng.standard_normal(self.mesh.n_dofs)
            assert sensitivity(self.mesh, self.mat, rho, x).max() <= 0.0

    def test_matches_finite_difference_oracle(self):
        # central differences of the stiffness quadratic form at fixed
        # displacement, routed through full reassembly
        mesh = Mesh(3, 3, 3.0, 3.0)
        mat = Material(1.0, 0.3, 3.0)
        rng = np.random.default_rng(11)
        free = unsupported(mesh)
        h = 1e-6
        checked = 0
        for _ in range(12):
            values = rng.uniform(0.2, 0.999, mesh.n_elements)
            x = rng.standard_normal(mesh.n_dofs)
            sens = sensitivity(mesh, mat, DensityField(values), x)
            scale = np.abs(sens).max()
            for j in range(mesh.n_elements):
                up, dn = values.copy(), values.copy()
                up[j] += h
                dn[j] -= h
                g_up = -x @ (assemble(mesh, mat, DensityField(up), free).csr @ x)
                g_dn = -x @ (assemble(mesh, mat, DensityField(dn), free).csr @ x)
                fd = (g_up - g_dn) / (2.0 * h)
                assert abs(fd - sens[j]) <= 1e-5 * max(abs(sens[j]), 1e-8 * scale)
                checked += 1
        assert checked >= 100


class TestOcUpdate:
    cfg = OptimizerConfig(volume_fraction=0.5, move_limit=0.5)

    def test_scalar_formula(self):
        # rho' = (C/lambda)^eta * rho at lambda = -1, no clamping active;
        # frozen oracle value 0.5 * 2^0.85
        # the move-limit box of 0.5 +- 0.5 is [0, 1]
        got = _clamped_candidate(
            np.array([0.5]), np.array([-2.0]), 1.0, 0.85, 0.0, 1.0
        )
        assert got[0] == pytest.approx(0.9012504626108302, rel=1e-12)

    def test_zero_density_is_fixed_point(self):
        rho = DensityField(np.array([0.0, 0.6]))
        new, lam = oc_update(rho, np.array([-5.0, -1.0]), self.cfg)
        assert new.values[0] == 0.0
        assert lam < 0.0

    def test_uniform_preserves_uniformity_and_volume(self):
        n = 8
        cfg = OptimizerConfig(volume_fraction=0.5, move_limit=0.3)
        rho = DensityField.uniform(n, 0.5)
        sens = np.full(n, -2.0)
        new, lam = oc_update(rho, sens, cfg)
        assert np.ptp(new.values) <= 1e-12
        assert new.volume() == pytest.approx(0.5 * n, rel=1e-7)
        assert new.volume() <= 0.5 * n * (1 + 1e-9)

    def test_positive_sensitivity_rejected(self):
        with pytest.raises(ValueError, match="<= 0"):
            oc_update(DensityField(np.array([0.5])), np.array([0.1]), self.cfg)

    def test_infeasible_budget_raises(self):
        cfg = OptimizerConfig(volume_fraction=0.1, move_limit=0.01)
        rho = DensityField.uniform(4, 1.0)
        with pytest.raises(InfeasibleConstraintError):
            oc_update(rho, np.full(4, -1.0), cfg)


class TestConlinUpdate:
    cfg = OptimizerConfig(volume_fraction=0.6, update_rule="conlin", move_limit=0.5)

    def test_perfect_square_formula(self):
        got = _clamped_candidate(np.array([0.3]), np.array([-4.0]), 1.0, 0.5, 0.0, 1.0)
        assert got[0] == pytest.approx(0.6, rel=1e-14)

    def test_zero_density_is_fixed_point(self):
        rho = DensityField(np.array([0.0, 0.4]))
        new, lam = conlin_update(rho, np.array([-3.0, -2.0]), self.cfg)
        assert new.values[0] == 0.0
        assert lam > 0.0

    def test_doubling_multiplier_shrinks_volume(self):
        # (s/2mu)^0.5 = (s/mu)^0.5 / sqrt(2): paired evaluations
        rng = np.random.default_rng(13)
        values = rng.uniform(0.3, 0.7, 12)
        sens = -rng.uniform(0.5, 2.0, 12)
        lo = _clamped_candidate(values, sens, 1.0, 0.5, 0.0, 1.0)
        hi = _clamped_candidate(values, sens, 2.0, 0.5, 0.0, 1.0)
        unclamped = (lo > 0) & (lo < 1.0)
        assert unclamped.any()
        np.testing.assert_allclose(
            hi[unclamped], lo[unclamped] / np.sqrt(2.0), rtol=1e-12
        )
        assert hi.sum() < lo.sum()


class TestVoidElementsSkipped:
    """sensitivity and the updates work on solid elements only and match
    the formulas evaluated over every element byte for byte."""

    mesh = Mesh(20, 40, 10.0, 20.0)

    def designs(self, seed):
        rng = np.random.default_rng(seed)
        n = self.mesh.n_elements
        for void_share in (0.0, 0.3, 0.9, 1.0):
            values = rng.uniform(0.001, 1.0, n)
            values[rng.random(n) < void_share] = 0.0
            values[rng.random(n) < 0.1] = 1.0
            yield values, rng.standard_normal(self.mesh.n_dofs)

    @pytest.mark.parametrize("penal", [1.0, 2.5, 3.0])
    def test_sensitivity_matches_oracle(self, penal):
        mat = Material(2.1e5, 0.3, penal, 10.0)
        for values, x in self.designs(int(10 * penal)):
            rho = DensityField(values)
            got = sensitivity(self.mesh, mat, rho, x)
            expected = sensitivity_oracle(self.mesh, mat, rho, x)
            assert got.tobytes() == expected.tobytes()
            assert np.all(np.signbit(got[values == 0.0]))

    @pytest.mark.parametrize("rule", ["oc", "conlin"])
    @pytest.mark.parametrize("fraction,move", [
        (0.375, 1.0), (0.375, 0.2), (0.3, 0.05), (1.0, 0.2),
    ])
    def test_update_matches_oracle(self, rule, fraction, move):
        update, exponent, sign = {
            "oc": (oc_update, 0.85, -1.0), "conlin": (conlin_update, 0.5, 1.0),
        }[rule]
        cfg = OptimizerConfig(volume_fraction=fraction, update_rule=rule, move_limit=move)
        mat = Material(2.1e5, 0.3, 3.0, 10.0)
        branches = set()
        for values, x in self.designs(7):
            rho = DensityField(values)
            sens = sensitivity(self.mesh, mat, rho, x)
            try:
                expected, lam_expected = update_oracle(values, sens, cfg, exponent, sign)
            except InfeasibleConstraintError:
                with pytest.raises(InfeasibleConstraintError):
                    update(rho, sens, cfg)
                branches.add("infeasible")
                continue
            new, lam = update(rho, sens, cfg)
            assert new.values.tobytes() == expected.tobytes()
            assert lam == lam_expected
            branches.add("slack" if abs(lam) == 1e-12 else "bisection")
        expected_branches = {
            (0.375, 1.0): {"bisection", "slack"},
            (0.375, 0.2): {"bisection", "slack"},
            (0.3, 0.05): {"infeasible", "slack"},
            (1.0, 0.2): {"slack"},
        }[fraction, move]
        assert branches == expected_branches


class TestThreshold:
    def test_strict_boundary(self):
        rho = DensityField(np.array([0.5, 1e-4, 1e-3]))
        out = threshold(rho, 1e-3)
        np.testing.assert_array_equal(out.values, [0.5, 0.0, 1e-3])

    def test_zero_cutoff_is_identity(self):
        rho = DensityField(np.array([0.0, 0.3, 1.0]))
        np.testing.assert_array_equal(threshold(rho, 0.0).values, rho.values)

    def test_all_below_cutoff_composes_with_assemble(self):
        mesh = Mesh(2, 1, 2.0, 1.0)
        rho = threshold(DensityField(np.array([1e-4, 5e-4])), 1e-3)
        a = assemble(mesh, Material(1.0, 0.3, 3.0), rho, unsupported(mesh))
        assert a.csr.nnz == 0

    def test_bad_cutoff(self):
        with pytest.raises(ValueError):
            threshold(DensityField(np.array([0.5])), 1.0)


class TestOptimize:
    def test_slack_constraint_keeps_full_density(self):
        spec = cantilever_spec(3, 3, 1.0, max_outer_iterations=3)
        hist = optimize(spec)
        np.testing.assert_array_equal(hist.densities[-1], np.ones(9))
        # compliance must equal the direct dense solve on the same system
        mesh = spec.build_mesh()
        bc = spec.build_boundary_conditions(mesh)
        a_red = assemble(mesh, spec.material, DensityField.uniform(9, 1.0), bc)
        b = build_load(mesh, bc)
        b_red, dof_map = apply_dirichlet(b, bc)
        x = scatter_solution(dense_solve(a_red.to_dense(), b_red), dof_map, mesh.n_dofs)
        assert hist.compliance[-1] == pytest.approx(compliance(x, b), rel=1e-7)

    def test_load_without_adjacent_material_raises(self):
        # at volume fraction 0.02 the truss's loaded node loses its last
        # adjacent material at outer iteration 3
        spec = load_problem(os.path.join(CONFIGS, "two_bar_truss.cfg"))
        spec = replace(spec, optimizer=replace(spec.optimizer, volume_fraction=0.02))
        with pytest.raises(
            LoadOutsideRangeError,
            match="^outer iteration 3: the load at node 440 has no adjacent material$",
        ):
            optimize(spec)

    @pytest.mark.parametrize("rule", ["oc", "conlin"])
    def test_desk_problem_feasible_and_settling(self, rule):
        spec = cantilever_spec(4, 4, 0.5, rule=rule, max_outer_iterations=30)
        hist = optimize(spec)
        target = 0.5 * 16
        assert hist.volume[-1] <= target + 1e-6
        assert all(v <= target * (1 + 1e-9) for v in hist.volume)
        tail = hist.compliance[-10:]
        assert all(tail[i + 1] <= 1.01 * tail[i] for i in range(len(tail) - 1))

    @pytest.mark.parametrize("rule", ["oc", "conlin"])
    def test_zero_density_persistence(self, rule):
        spec = cantilever_spec(4, 4, 0.4, rule=rule, max_outer_iterations=25)
        hist = optimize(spec)
        dead = np.zeros(16, dtype=bool)
        for snapshot in hist.densities:
            now_zero = snapshot == 0.0
            assert np.all(now_zero[dead]), "a zeroed density came back to life"
            dead = now_zero
        assert dead.any(), "run produced no exact zeros; persistence untested"

    def test_load_adjacent_material_survives(self):
        # at every recorded iteration some element next to the loaded node
        # keeps meaningful density
        spec = cantilever_spec(5, 5, 0.4, max_outer_iterations=30)
        hist = optimize(spec)
        mesh = spec.build_mesh()
        loaded = mesh.node_near(5.0, 2.5)
        adjacent = elements_adjacent_to_node(mesh, loaded)
        cutoff = spec.optimizer.threshold_cutoff
        for snapshot in hist.densities:
            assert snapshot[adjacent].max() > cutoff

    def test_truss_compliance_matches_spmv_recomputation(self):
        # at the converged two-bar-truss state, (1/2) x.b from the load
        # inner product agrees with (1/2) x.Ax recomputed through the CSR product
        spec = load_problem(os.path.join(CONFIGS, "two_bar_truss.cfg"))
        hist = optimize(spec)
        mesh = spec.build_mesh()
        bc = spec.build_boundary_conditions(mesh)
        rho = DensityField(hist.densities[-1])
        a_red = assemble(mesh, spec.material, rho, bc)
        b = build_load(mesh, bc)
        b_red, dof_map = apply_dirichlet(b, bc)
        rep = solve(
            a_red, b_red, None,
            SolverConfig(rel_tolerance=1e-12, max_iterations=5000,
                         preconditioning="jacobi"),
        )
        x = scatter_solution(rep.solution, dof_map, mesh.n_dofs)
        c_direct = compliance(x, b)
        a = assemble(mesh, spec.material, rho, unsupported(mesh))
        c_recomputed = 0.5 * float(x @ (a.csr @ x))
        assert c_recomputed == pytest.approx(c_direct, rel=1e-8)

    def test_history_bookkeeping(self):
        spec = cantilever_spec(3, 3, 0.5, max_outer_iterations=12)
        hist = optimize(spec)
        n = hist.outer_iterations
        assert n >= 1
        for series in (
            hist.compliance,
            hist.lagrange_multiplier,
            hist.inner_iterations,
            hist.solver_status,
            hist.volume,
            hist.densities,
        ):
            assert len(series) == n
        cum = hist.cumulative_inner_iterations()
        assert all(cum[i + 1] >= cum[i] for i in range(len(cum) - 1))
        assert hist.status in (CONVERGED, MAX_ITERATIONS)
        assert all(d.min() >= 0.0 and d.max() <= 1.0 for d in hist.densities)


class TestReuse:
    """An outer iteration whose design equals the previous one bit for bit
    solves with the previous matrix and V-cycle; every other one assembles
    its own."""

    @staticmethod
    def counted_run(monkeypatch, spec):
        calls = []

        def counting_assemble(*args):
            calls.append(args)
            return assemble(*args)

        monkeypatch.setattr(topokry.optimizer, "assemble", counting_assemble)
        return optimize(spec), len(calls)

    def test_fine_truss_assembles_all_but_the_repeated_design(self, monkeypatch):
        # the 60x120 truss on the default multigrid CG: its last design
        # repeats the one before, so 20 solves take 19 assemblies
        text = (
            "domain.width = 10\ndomain.height = 20\nmesh.nx = 60\nmesh.ny = 120\n"
            "material.young_modulus = 2.1e5\nmaterial.poisson_ratio = 0.3\n"
            "material.penal = 3\nmaterial.thickness = 10\nsupports.edges = left\n"
            "loads.0.x = 10\nloads.0.y = 10\nloads.0.fy = -105\n"
            "optimizer.volume_fraction = 0.375\noptimizer.move_limit = 1.0\n"
        )
        history, assemblies = self.counted_run(monkeypatch, loads_problem_text(text))
        assert history.solver.preconditioning == "mg"
        assert history.outer_iterations == 20
        assert assemblies == 19
        assert np.array_equal(history.densities[-2], history.densities[-3])
        # the reused solve starts from its own solution and takes no step
        assert history.inner_iterations[-1] == 0

    def test_a_design_that_changes_every_iteration_is_assembled_every_time(
        self, monkeypatch
    ):
        # smoke_2x2 closes a period-2 cycle: no design repeats its
        # predecessor, so every outer iteration assembles
        spec = load_problem(os.path.join(CONFIGS, "smoke_2x2.cfg"))
        history, assemblies = self.counted_run(monkeypatch, spec)
        designs = history.densities
        assert not any(np.array_equal(a, b) for a, b in zip(designs, designs[1:]))
        assert assemblies == history.outer_iterations == 30


class TestCyclePeriod:
    """A run capped at its outer-iteration limit reports a closing limit
    cycle of period 2 to 4; a frozen design or a short run does not."""

    @staticmethod
    def designs(pattern, n_elements=5, seed=0):
        rng = np.random.default_rng(seed)
        states = {label: rng.random(n_elements) for label in sorted(set(pattern))}
        return [states[label].copy() for label in pattern]

    @pytest.mark.parametrize("pattern,period", [
        ("xabcabcabc", 3),
        ("abcdabcdabcd", 4),
        ("abcdeabcdeabcde", 0),  # period 5 is not looked for
        ("abaaaa", 0),  # frozen: p = 1
        ("ababa", 0),  # 5 designs: fewer than 3p = 6
        ("ababab", 2),
        ("aa", 0),
        ("cbabab", 0),  # 3 of the last 2p = 4 match the design p = 2 earlier
    ])
    def test_smallest_period_over_the_last_designs(self, pattern, period):
        assert _cycle_period(self.designs(pattern)) == period

    def test_tolerance_per_density(self):
        designs = self.designs("ababab")
        designs[-1][0] += 0.9 * CYCLE_TOLERANCE
        assert _cycle_period(designs) == 2
        designs[-1][0] += 0.2 * CYCLE_TOLERANCE
        assert _cycle_period(designs) == 0

    @pytest.mark.parametrize("preconditioning", ["mg", "jacobi"])
    def test_truss_at_two_percent_volume_cycles_under_conlin(self, preconditioning):
        # from outer iteration 13 on the design flips between two layouts,
        # each step moving a density by 0.85, until the cap of 100
        spec = load_problem(os.path.join(CONFIGS, "two_bar_truss.cfg"))
        spec = replace(
            spec,
            optimizer=replace(spec.optimizer, volume_fraction=0.02, update_rule="conlin"),
            solver=replace(spec.solver, method="cg", preconditioning=preconditioning),
        )
        hist = optimize(spec)
        assert (hist.status, hist.cycle_period, hist.outer_iterations) == (
            CYCLING, 2, spec.optimizer.max_outer_iterations
        )


class TestSolverCap:
    """An unset solver.max_iterations is the node count of the mesh the
    run builds, resolved by optimize and never stored in the spec."""

    def caps_passed_to_solve(self, monkeypatch, spec):
        caps = []
        original = topokry.optimizer.solve

        def recording(a, b, x0, cfg, **kwargs):
            caps.append(cfg.max_iterations)
            return original(a, b, x0, cfg, **kwargs)

        monkeypatch.setattr(topokry.optimizer, "solve", recording)
        optimize(spec)
        return caps

    def truss(self, **solver_kw):
        spec = load_problem(os.path.join(CONFIGS, "two_bar_truss.cfg"))
        return replace(
            spec,
            nx=10,
            ny=20,
            solver=replace(spec.solver, **solver_kw),
            optimizer=replace(spec.optimizer, max_outer_iterations=3),
        )

    def test_replaced_mesh_gets_its_own_node_count(self, monkeypatch):
        caps = self.caps_passed_to_solve(monkeypatch, self.truss())
        assert caps and set(caps) == {11 * 21}

    def test_set_cap_is_passed_through(self, monkeypatch):
        caps = self.caps_passed_to_solve(monkeypatch, self.truss(max_iterations=77))
        assert caps and set(caps) == {77}


class TestSolverResolution:
    """An unset solver.preconditioning is mg for CG and jacobi for CR; the
    history records the settings every solve of the run used."""

    @pytest.mark.parametrize(
        "method,given,resolved",
        [("cg", None, "mg"), ("cr", None, "jacobi"), ("cg", "jacobi", "jacobi"),
         ("cg", "none", "none")],
    )
    def test_history_names_the_resolved_solver(self, method, given, resolved):
        spec = cantilever_spec(6, 4, 0.5, max_outer_iterations=3)
        spec = replace(
            spec, solver=replace(spec.solver, method=method, preconditioning=given)
        )
        hist = optimize(spec)
        assert hist.solver == replace(
            spec.solver, preconditioning=resolved, max_iterations=7 * 5
        )
        assert spec.solver.preconditioning == given


def test_element_stiffness_computed_once_per_run():
    # assemble and sensitivity share one cached, read-only ke
    from topokry.fem import element_stiffness

    element_stiffness.cache_clear()
    hist = optimize(cantilever_spec(4, 3, 0.5, max_outer_iterations=5))
    info = element_stiffness.cache_info()
    assert info.misses == 1
    assert info.hits == 2 * hist.outer_iterations - 1
    ke = element_stiffness(Material(1.0, 0.3, 3.0), 1.0, 1.0)
    with pytest.raises(ValueError, match="read-only"):
        ke[0, 0] = 0.0


@pytest.mark.parametrize("cap", [2.5, 2.0])
def test_outer_cap_must_be_an_integer(cap):
    with pytest.raises(ValueError, match="max_outer_iterations must be an integer"):
        OptimizerConfig(volume_fraction=0.5, max_outer_iterations=cap)
