"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
happen; without -s they still appear in captured output on failure.
"""
import os
from dataclasses import replace

import numpy as np
import pytest

from topokry import (
    DensityField,
    SolverConfig,
    assemble,
    optimize,
    sensitivity,
    solve,
)
import topokry.cli as cli
import topokry.optimizer
from topokry.cli import run
from topokry.fem import Material, Mesh
from topokry.optimizer import CONVERGED, CYCLING, MAX_ITERATIONS, MULTIPLIER_BRACKET
from topokry.problem import load_problem
from singular_lab import (
    cr_bound_check,
    decompose_history,
    pseudo_inverse,
    range_basis,
    trajectory,
)
from util import (
    dense_solve,
    elements_adjacent_to_node,
    random_singular_psd,
    random_spd,
    sparse_from_dense,
    unsupported,
)

TESTS = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(os.path.dirname(TESTS), "configs")
CONFIG = os.path.join(CONFIGS, "two_bar_truss.cfg")
# density.pgm and history.csv of cli.run on the shipped configs, one
# directory per run; an intended output change re-baselines them.
GOLDEN = os.path.join(TESTS, "golden")
COMBOS = [("cg", "oc"), ("cg", "conlin"), ("cr", "oc"), ("cr", "conlin")]
ENERGY_WINDOW = (0.013, 0.024)
# solves stopped at the iteration cap in each run on the shipped config
CAPPED_SOLVES = {
    ("cg", "oc"): 0, ("cg", "conlin"): 0, ("cr", "oc"): 12, ("cr", "conlin"): 17,
}
# capped solves whose state repeats bit for bit, with the iterations up to
# the cap copied rather than run
REPEATING_SOLVES = {
    ("cg", "oc"): 0, ("cg", "conlin"): 0, ("cr", "oc"): 8, ("cr", "conlin"): 10,
}
# a 4x4 mesh with a load and no supports
UNSUPPORTED_4X4 = (
    "mesh.nx = 4\nmesh.ny = 4\n"
    "material.young_modulus = 1\nmaterial.poisson_ratio = 0.3\n"
    "loads.0.x = 4\nloads.0.y = 2\nloads.0.fy = -1\n"
)
# assemblies in each run on the shipped config: one per outer iteration
# but the last, whose design repeats the one before it bit for bit
ASSEMBLIES = {
    ("cg", "oc"): 18, ("cg", "conlin"): 25, ("cr", "oc"): 14, ("cr", "conlin"): 22,
}


def check(criterion, label, ok, detail=""):
    print(f"[acceptance] criterion {criterion:2d} ({label}): "
          f"{'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {criterion} ({label}): {detail}"


def combo_name(method, rule):
    return f"P{method.upper()}-{rule.upper()}"


def read_pgm(path):
    with open(path) as handle:
        tokens = handle.read().split()
    w, h = int(tokens[1]), int(tokens[2])
    return np.array(tokens[4:], dtype=int).reshape(h, w)


def read_summary(path):
    fields = {}
    with open(path) as handle:
        for line in handle:
            key, value = line.split(":", 1)
            fields[key.strip()] = value.strip()
    return fields


def branch_angle_degrees(pixels):
    """Internal angle between the two material branches of a layout.

    Splits the material pixels at the mid-height load line, fits the
    principal axis of each branch, orients both toward the loaded edge, and
    measures the angle between them.
    """
    ny, nx = pixels.shape
    ys, xs = np.nonzero(pixels < 128)
    x_center = xs + 0.5
    y_center = ny - ys - 0.5
    mid = ny / 2.0
    directions = []
    for mask in (y_center > mid, y_center < mid):
        assert mask.sum() > 3, "a material branch is missing"
        coords = np.column_stack([x_center[mask], y_center[mask]])
        coords = coords - coords.mean(axis=0)
        _, vecs = np.linalg.eigh(coords.T @ coords)
        axis = vecs[:, -1]
        if axis[0] < 0:
            axis = -axis
        directions.append(axis)
    cosine = np.clip(directions[0] @ directions[1], -1.0, 1.0)
    return float(np.degrees(np.arccos(cosine)))


@pytest.fixture(scope="module")
def truss_outputs(tmp_path_factory):
    """cli.run for all four method combinations on the shipped config."""
    base = load_problem(CONFIG)
    outputs = {}
    histories = []
    assemblies = []

    def recording_optimize(spec):
        histories.append(optimize(spec))
        return histories[-1]

    def counting_assemble(*args):
        assemblies.append(args)
        return assemble(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "optimize", recording_optimize)
        patch.setattr(topokry.optimizer, "assemble", counting_assemble)
        for method, rule in COMBOS:
            spec = replace(
                base,
                solver=replace(base.solver, method=method),
                optimizer=replace(base.optimizer, update_rule=rule),
            )
            out_dir = tmp_path_factory.mktemp(f"{method}_{rule}")
            assemblies.clear()
            code = run(spec, out_dir)
            outputs[(method, rule)] = {
                "dir": out_dir,
                "exit": code,
                "assemblies": len(assemblies),
                "history": histories[-1],
                "summary": read_summary(out_dir / "summary.txt"),
                "pixels": read_pgm(out_dir / "density.pgm"),
            }
    return outputs


@pytest.fixture(scope="module")
def canonical_history():
    """Full optimize() history of the canonical PCG-OC run."""
    spec = load_problem(CONFIG)
    return spec, optimize(spec)


def test_criterion_1_two_bar_truss_reproduction(truss_outputs):
    details = []
    ok = True
    for combo, data in truss_outputs.items():
        energy = float(data["summary"]["final_compliance"])
        angle = branch_angle_degrees(data["pixels"])
        in_window = ENERGY_WINDOW[0] <= energy <= ENERGY_WINDOW[1]
        angle_ok = abs(angle - 90.0) <= 10.0
        ok = ok and in_window and angle_ok and data["exit"] == 0
        details.append(f"{combo_name(*combo)}: C={energy:.6g}, angle={angle:.1f}deg")
    check(1, "two-bar truss reproduction", ok, "; ".join(details))


def test_criterion_2_conlin_energy_not_worse_than_oc(truss_outputs):
    details = []
    ok = True
    for method in ("cg", "cr"):
        e_oc = float(truss_outputs[(method, "oc")]["summary"]["final_compliance"])
        e_conlin = float(
            truss_outputs[(method, "conlin")]["summary"]["final_compliance"]
        )
        ok = ok and e_conlin <= e_oc
        details.append(f"{method.upper()}: CONLIN {e_conlin:.6g} vs OC {e_oc:.6g}")
    check(2, "CONLIN energy <= OC energy", ok, "; ".join(details))


def test_criterion_3_pcg_cheaper_than_pcr(truss_outputs):
    details = []
    ok = True
    for rule in ("oc", "conlin"):
        n_cg = int(truss_outputs[("cg", rule)]["summary"]["total_inner_iters"])
        n_cr = int(truss_outputs[("cr", rule)]["summary"]["total_inner_iters"])
        ok = ok and n_cg <= n_cr
        details.append(f"{rule.upper()}: PCG {n_cg} vs PCR {n_cr}")
    check(3, "PCG inner iterations <= PCR", ok, "; ".join(details))


def test_summary_counts_capped_solves(truss_outputs):
    for combo, data in truss_outputs.items():
        capped = data["history"].solver_status.count("max_iterations")
        reported = int(data["summary"]["capped_solves"])
        assert reported == capped == CAPPED_SOLVES[combo], combo_name(*combo)


def test_summary_counts_stagnated_solves(truss_outputs, tmp_path):
    for combo, data in truss_outputs.items():
        stagnated = data["history"].solver_status.count("stagnated_least_squares")
        reported = int(data["summary"]["stagnated_solves"])
        assert reported == stagnated, combo_name(*combo)
    # with no supports the load is outside the range of the stiffness, so
    # every solve stagnates at a least-squares solution, and the run exits
    # 0 at its cap of 100 outer iterations
    config = tmp_path / "unsupported.cfg"
    config.write_text(UNSUPPORTED_4X4)
    assert run(load_problem(config), tmp_path / "out") == 0
    summary = read_summary(tmp_path / "out" / "summary.txt")
    assert summary["outer_iters"] == summary["stagnated_solves"] == "100"
    assert float(summary["max_true_rel_residual"]) > 0.1


def test_summary_counts_repeating_solves(truss_outputs):
    for combo, data in truss_outputs.items():
        history = data["history"]
        repeating = sum(history.solver_repeated)
        reported = int(data["summary"]["repeating_solves"])
        assert reported == repeating == REPEATING_SOLVES[combo], combo_name(*combo)
        # a solve caught repeating can only end at the cap
        for repeated, status in zip(history.solver_repeated, history.solver_status):
            assert status == "max_iterations" or not repeated


def test_unchanged_design_is_not_assembled_again(truss_outputs):
    # each run ends on a design equal to the one before it bit for bit; its
    # last solve reuses that design's matrix and V-cycle, and the goldens
    # hold all the same
    for combo, data in truss_outputs.items():
        history = data["history"]
        assert np.array_equal(history.densities[-2], history.densities[-3])
        assert data["assemblies"] == ASSEMBLIES[combo], combo_name(*combo)
        assert data["assemblies"] == history.outer_iterations - 1


def test_summary_counts_slack_updates(truss_outputs, tmp_path):
    # every truss run ends frozen: its last three updates leave the volume
    # constraint slack, with the multiplier pinned at the bracket edge
    for combo, data in truss_outputs.items():
        history = data["history"]
        pinned = [
            k + 1
            for k, lam in enumerate(history.lagrange_multiplier)
            if abs(lam) == MULTIPLIER_BRACKET[0]
        ]
        last = history.outer_iterations
        assert pinned == [last - 2, last - 1, last], combo_name(*combo)
        assert data["summary"]["slack_updates"] == "3", combo_name(*combo)
    assert run(load_problem(os.path.join(CONFIGS, "smoke_2x2.cfg")), tmp_path) == 0
    assert read_summary(tmp_path / "summary.txt")["slack_updates"] == "0"


def test_summary_reports_how_the_run_ended(truss_outputs, tmp_path):
    for combo, data in truss_outputs.items():
        assert data["history"].status == CONVERGED, combo_name(*combo)
        assert data["summary"]["status"] == CONVERGED, combo_name(*combo)
        assert data["summary"]["cycle_period"] == "0", combo_name(*combo)
    # runs cut at the outer-iteration cap exit 0 too, and say so: the
    # smoke run alternates between two designs until its cap of 30
    assert run(load_problem(os.path.join(CONFIGS, "smoke_2x2.cfg")), tmp_path) == 0
    summary = read_summary(tmp_path / "summary.txt")
    assert (summary["status"], summary["cycle_period"], summary["outer_iters"]) == (
        CYCLING, "2", "30"
    )
    # two designs are too few to tell a cycle
    base = load_problem(CONFIG)
    capped = replace(base, optimizer=replace(base.optimizer, max_outer_iterations=2))
    assert run(capped, tmp_path) == 0
    summary = read_summary(tmp_path / "summary.txt")
    assert (summary["status"], summary["cycle_period"], summary["outer_iters"]) == (
        MAX_ITERATIONS, "0", "2"
    )


def test_summary_reports_true_residual(truss_outputs):
    # PCG converges on the shipped truss to the tolerance, judged on the
    # system as given; PCR's capped solves stop far from its solution
    tolerance = load_problem(CONFIG).solver.rel_tolerance
    for (method, rule), data in truss_outputs.items():
        residuals = data["history"].true_relative_residual
        name = combo_name(method, rule)
        assert len(residuals) == data["history"].outer_iterations, name
        worst = max(residuals)
        assert float(data["summary"]["max_true_rel_residual"]) == pytest.approx(
            worst, rel=1e-3
        ), name
        if method == "cg":
            assert worst <= tolerance, name
        else:
            assert worst > 1e-2, name


def test_criterion_4_singular_solve_correctness():
    rng = np.random.default_rng(101)
    worst = 0.0
    count = 0
    ok = True
    for _ in range(50):
        n = int(rng.integers(20, 101))
        nullity = int(rng.integers(1, 11))
        dense, q1, _ = random_singular_psd(rng, n, nullity)
        b = dense @ rng.standard_normal(n)
        a = sparse_from_dense(dense)
        oracle = pseudo_inverse(dense) @ b
        oracle_norm = np.linalg.norm(oracle)
        for method in ("cg", "cr"):
            cfg = SolverConfig(
                method=method, rel_tolerance=1e-8,
                max_iterations=n, preconditioning="none",
            )
            rep = solve(a, b, None, cfg)
            err = np.linalg.norm(q1.T @ (rep.solution - oracle)) / oracle_norm
            worst = max(worst, err)
            ok = ok and rep.status == "converged" and err <= 1e-7
            count += 1
    check(4, "singular consistent solves", ok,
          f"{count} solves, worst range-projection error {worst:.2e}")


def test_criterion_5_cr_least_squares_traces():
    rng = np.random.default_rng(103)
    ok = True
    worst_drift = 0.0
    for _ in range(50):
        n = int(rng.integers(10, 80))
        nullity = int(rng.integers(1, min(11, n // 2)))
        dense, _, q2 = random_singular_psd(rng, n, nullity)
        b = dense @ rng.standard_normal(n) + q2 @ rng.standard_normal(nullity)
        cfg = SolverConfig(
            method="cr", rel_tolerance=1e-8, max_iterations=3 * n,
            preconditioning="none",
        )
        traj = trajectory(sparse_from_dense(dense), b, cfg)
        dec = range_basis(dense)
        traces = decompose_history(traj.residuals, dec)
        b_null = np.linalg.norm(dec.q_null.T @ b)
        drift = np.abs(traces.residual_null - b_null).max()
        worst_drift = max(worst_drift, drift)
        slack = 1e-12 * np.linalg.norm(b)
        rp = traces.residual_range
        monotone = all(rp[i + 1] <= rp[i] + slack for i in range(len(rp) - 1))
        ok = ok and monotone and drift <= 1e-10
    check(5, "CR least-squares traces", ok,
          f"50 systems, worst null-trace drift {worst_drift:.2e}")


def test_criterion_6_cg_energy_error_monotone():
    rng = np.random.default_rng(107)
    ok = True
    for _ in range(50):
        n = int(rng.integers(5, 50))
        dense = random_spd(rng, n)
        b = rng.standard_normal(n)
        x_star = dense_solve(dense, b)
        cfg = SolverConfig(method="cg", max_iterations=2 * n, preconditioning="none")
        errs = [
            float(np.sqrt((xk - x_star) @ (dense @ (xk - x_star))))
            for xk in trajectory(sparse_from_dense(dense), b, cfg).iterates
        ]
        slack = 1e-12 * max(errs[0], 1.0)
        ok = ok and all(errs[i + 1] <= errs[i] + slack for i in range(len(errs) - 1))
    check(6, "CG energy-norm error monotone", ok, "50 SPD systems")


def test_criterion_7_cr_contraction_bound():
    rng = np.random.default_rng(109)
    ok = True
    for _ in range(20):
        dense = random_spd(rng, 15)
        b = rng.standard_normal(15)
        rep = solve(
            sparse_from_dense(dense), b, None,
            SolverConfig(method="cr", preconditioning="none", max_iterations=100),
        )
        ok = ok and cr_bound_check(dense, rep.residual_history)
    check(7, "CR contraction bound", ok, "20 SPD systems")


def test_criterion_8_sensitivity_gradient_check():
    mesh = Mesh(3, 3, 3.0, 3.0)
    mat = Material(1.0, 0.3, 3.0)
    rng = np.random.default_rng(113)
    free = unsupported(mesh)
    h = 1e-6
    worst = 0.0
    samples = 0
    ok = True
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
            rel = abs(fd - sens[j]) / max(abs(sens[j]), 1e-8 * scale)
            worst = max(worst, rel)
            ok = ok and rel <= 1e-5
            samples += 1
    check(8, "sensitivity gradient check", ok,
          f"{samples} samples, worst relative error {worst:.2e}")


def test_criterion_9_load_adjacent_material_every_iteration(canonical_history):
    spec, history = canonical_history
    mesh = spec.build_mesh()
    load = spec.loads[0]
    adjacent = elements_adjacent_to_node(mesh, mesh.node_near(load.x, load.y))
    ok = all(snapshot[adjacent].max() > 1e-3 for snapshot in history.densities)
    check(9, "load keeps adjacent material", ok,
          f"{history.outer_iterations} iterations checked")


def test_criterion_10_singularity_exercised(canonical_history, truss_outputs):
    spec, history = canonical_history
    mesh = spec.build_mesh()
    a_full = assemble(
        mesh, spec.material, DensityField(history.densities[-1]), unsupported(mesh)
    )
    zero = set(a_full.zero_rows().tolist())
    void_nodes = [n for n in range(mesh.n_nodes) if 2 * n in zero and 2 * n + 1 in zero]
    exits = [data["exit"] for data in truss_outputs.values()]
    ok = len(void_nodes) > 0 and all(code == 0 for code in exits)
    check(10, "singularity exercised, exit 0", ok,
          f"{len(void_nodes)} fully-void nodes, exits {exits}")


def assert_matches_golden(out_dir, name):
    for filename in ("density.pgm", "history.csv"):
        with open(os.path.join(GOLDEN, name, filename), "rb") as handle:
            expected = handle.read()
        actual = (out_dir / filename).read_bytes()
        assert actual == expected, f"{name}/{filename} differs from the golden copy"


@pytest.mark.parametrize("combo", COMBOS, ids=lambda combo: combo_name(*combo))
def test_golden_truss_outputs(truss_outputs, combo):
    assert_matches_golden(truss_outputs[combo]["dir"], combo_name(*combo))


def test_golden_smoke_outputs(tmp_path):
    assert run(load_problem(os.path.join(CONFIGS, "smoke_2x2.cfg")), tmp_path) == 0
    assert_matches_golden(tmp_path, "smoke_2x2")
