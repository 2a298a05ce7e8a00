import os
import time

import numpy as np
import pytest

from topokry import Mesh, OptimizationHistory
from topokry.cli import export_density_pgm, export_history_csv, main, run
from topokry.problem import load_problem, loads_problem_text

from util import BAD_LOAD_CONFIGS

HERE = os.path.dirname(os.path.abspath(__file__))
CONFIGS = os.path.join(os.path.dirname(HERE), "configs")

SMALL_TRUSS = """
domain.width = 5
domain.height = 10
mesh.nx = 6
mesh.ny = 12
material.young_modulus = 2.1e5
material.poisson_ratio = 0.3
supports.edges = left
loads.0.x = 5
loads.0.y = 5
loads.0.fy = -105
optimizer.volume_fraction = 0.4
optimizer.max_outer_iterations = 25
"""


def read_pgm(path):
    with open(path) as handle:
        tokens = handle.read().split()
    assert tokens[0] == "P2"
    w, h, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    assert maxval == 255
    pixels = np.array(tokens[4:], dtype=int).reshape(h, w)
    return pixels


class TestExportDensityPgm:
    mesh = Mesh(2, 2, 2.0, 2.0)

    def test_full_material_is_black(self, tmp_path):
        path = tmp_path / "d.pgm"
        export_density_pgm(np.ones(4), self.mesh, path)
        assert read_pgm(path).max() == 0

    def test_void_is_white(self, tmp_path):
        path = tmp_path / "d.pgm"
        export_density_pgm(np.zeros(4), self.mesh, path)
        assert read_pgm(path).min() == 255

    def test_half_density_rounds_half_up(self, tmp_path):
        path = tmp_path / "d.pgm"
        export_density_pgm(np.full(4, 0.5), self.mesh, path)
        assert np.all(read_pgm(path) == 128)

    def test_row_order_top_first(self, tmp_path):
        mesh = Mesh(1, 2, 1.0, 2.0)
        path = tmp_path / "d.pgm"
        # element 0 is the bottom row, element 1 the top
        export_density_pgm(np.array([1.0, 0.0]), mesh, path)
        pixels = read_pgm(path)
        assert pixels[0, 0] == 255  # top of the domain, void
        assert pixels[1, 0] == 0  # bottom, material

    def test_out_of_range_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            export_density_pgm(np.array([0.5, 1.5, 0.0, 0.0]), self.mesh, tmp_path / "d.pgm")


class TestExportHistoryCsv:
    def make_history(self, n):
        hist = OptimizationHistory()
        for i in range(n):
            hist.compliance.append(1.0 / (i + 1))
            hist.lagrange_multiplier.append(-0.5 * (i + 1))
            hist.inner_iterations.append(10 + i)
            hist.solver_status.append("converged")
            hist.volume.append(8.0)
            hist.densities.append(np.full(4, 0.5))
        return hist

    def test_single_iteration_two_lines(self, tmp_path):
        path = tmp_path / "h.csv"
        export_history_csv(self.make_history(1), path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == "outer_iter,cumulative_inner_iters,compliance,lagrange_multiplier,volume"

    def test_cumulative_inner_nondecreasing(self, tmp_path):
        path = tmp_path / "h.csv"
        export_history_csv(self.make_history(5), path)
        rows = [line.split(",") for line in path.read_text().strip().splitlines()[1:]]
        cumulative = [int(r[1]) for r in rows]
        assert cumulative == sorted(cumulative)
        assert cumulative[0] == 10 and cumulative[-1] == 10 + 11 + 12 + 13 + 14

    def test_significant_digits(self, tmp_path):
        path = tmp_path / "h.csv"
        hist = self.make_history(1)
        hist.compliance[0] = 1.0 / 3.0
        export_history_csv(hist, path)
        row = path.read_text().strip().splitlines()[1].split(",")
        assert float(row[2]) == pytest.approx(1.0 / 3.0, rel=1e-12)
        mantissa = row[2].split("e")[0].replace(".", "").lstrip("-")
        assert len(mantissa) >= 12

    def test_empty_history_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            export_history_csv(OptimizationHistory(), tmp_path / "h.csv")


class TestRun:
    def test_smoke_config_fast_and_complete(self, tmp_path):
        spec = load_problem(os.path.join(CONFIGS, "smoke_2x2.cfg"))
        out = tmp_path / "out"
        start = time.perf_counter()
        code = run(spec, out)
        elapsed = time.perf_counter() - start
        assert code == 0
        assert elapsed < 1.0
        for name in ("density.pgm", "history.csv", "summary.txt"):
            assert (out / name).exists()
        summary = (out / "summary.txt").read_text()
        assert "method: PCG-OC\npreconditioning: mg\n" in summary
        assert "total_inner_iters:" in summary
        assert "final_compliance:" in summary

    def test_unwritable_out_dir_leaves_nothing(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("i am a file, not a directory")
        spec = load_problem(os.path.join(CONFIGS, "smoke_2x2.cfg"))
        code = run(spec, blocker)
        assert code == 3
        assert blocker.read_text() == "i am a file, not a directory"

    def test_numerical_failure_exit_code(self, tmp_path):
        # unpreconditioned CR on an absurdly scaled system overflows
        spec = loads_problem_text(
            SMALL_TRUSS.replace("2.1e5", "1e200")
            + "solver.method = cr\nsolver.preconditioning = none\n"
        )
        with np.errstate(over="ignore"):
            code = run(spec, tmp_path / "out")
        assert code == 2
        assert not (tmp_path / "out" / "density.pgm").exists()

    @pytest.mark.parametrize("solver, outer", [("cg", 3), ("cr", 5)])
    def test_load_without_material_exit_code(self, tmp_path, capsys, solver, outer):
        # at volume fraction 0.02 both elements at the load of the shipped
        # truss go void, so the load leaves the range of the stiffness
        with open(os.path.join(CONFIGS, "two_bar_truss.cfg")) as handle:
            text = handle.read()
        cfg = tmp_path / "thin.cfg"
        cfg.write_text(text.replace("volume_fraction = 0.375", "volume_fraction = 0.02"))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out", str(out), "--solver", solver]) == 4
        assert capsys.readouterr().err == (
            f"load outside the range: outer iteration {outer}: "
            "the load at node 440 has no adjacent material\n"
        )
        assert not out.exists()

    def test_deterministic_outputs(self, tmp_path):
        spec = loads_problem_text(SMALL_TRUSS)
        run(spec, tmp_path / "a")
        run(spec, tmp_path / "b")
        for name in ("density.pgm", "history.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_compliance_history_steep_then_plateau(self, tmp_path):
        # the exported compliance column drops hard early and settles late,
        # the shape of the reference convergence histories
        spec = loads_problem_text(SMALL_TRUSS)
        out = tmp_path / "out"
        assert run(spec, out) == 0
        rows = (out / "history.csv").read_text().strip().splitlines()[1:]
        c = np.array([float(r.split(",")[2]) for r in rows])
        assert len(c) >= 10
        assert c[0] / c[-1] >= 2.0
        total_drop = np.log(c[0] / c[-1])
        first_half_drop = np.log(c[0] / c[len(c) // 2])
        assert first_half_drop >= 0.8 * total_drop
        tail = c[-3:]
        assert all(
            abs(tail[i + 1] - tail[i]) <= 0.05 * tail[i] for i in range(len(tail) - 1)
        )


class TestMain:
    def test_usage_error(self, capsys):
        assert main([]) == 1
        assert main(["run"]) == 1
        assert main(["frobnicate", "x"]) == 1

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["run", str(tmp_path / "nope.cfg"), "--out", str(tmp_path / "o")]) == 3

    def test_invalid_config_is_usage_error(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("mesh.nx = 2\n")
        assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        "line", ["loads.0.fx = nan", "material.penal = inf", "supports.nodes = a,b"]
    )
    def test_bad_value_is_config_error_without_traceback(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SMALL_TRUSS + line + "\n")
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: line ")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_cr_flag_against_mg_config_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "mg.cfg"
        cfg.write_text(SMALL_TRUSS + "solver.preconditioning = mg\n")
        out = tmp_path / "o"
        assert main(["run", str(cfg), "--out", str(out), "--solver", "cr"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "mg" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("name", list(BAD_LOAD_CONFIGS))
    def test_unusable_loads_are_config_errors(self, tmp_path, capsys, name):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(BAD_LOAD_CONFIGS[name][0])
        assert main(["run", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_no_output_dir(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(SMALL_TRUSS)
        assert main(["run", str(cfg)]) == 1

    def test_flag_overrides(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(SMALL_TRUSS)
        out = tmp_path / "out"
        code = main(["run", str(cfg), "--out", str(out), "--solver", "cr", "--update", "conlin"])
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "method: PCR-CONLIN\npreconditioning: jacobi\n" in summary

    def test_output_dir_from_config(self, tmp_path):
        out = tmp_path / "from_config"
        cfg = tmp_path / "ok.cfg"
        cfg.write_text(SMALL_TRUSS + f"output.directory = {out}\n")
        assert main(["run", str(cfg)]) == 0
        assert (out / "summary.txt").exists()
