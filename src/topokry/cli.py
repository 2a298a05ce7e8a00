"""Command-line front end: run an optimization from a config file and write
density.pgm, history.csv, and summary.txt into an output directory.

Exit codes: 0 success, 1 usage/config error, 2 numerical failure, 3 I/O
failure, 4 a load outside the range of the stiffness (a loaded node with
no adjacent material, or a load with a net force or moment on a mesh with
no supports).  Exit code 0 covers a run that converged and one
that stopped at optimizer.max_outer_iterations; the ``status`` line of
summary.txt tells them apart: ``converged``, ``max_iterations``, or
``cycling`` when the last designs repeat with the period on the
``cycle_period`` line (0 for a run that did not cycle).
"""
from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import replace

import numpy as np

from .fem import Mesh
from .krylov import MAX_ITERATIONS, STAGNATED, NumericalFailure, SolverConfig
from .optimizer import (
    MULTIPLIER_BRACKET,
    InfeasibleConstraintError,
    LoadOutsideRangeError,
    OptimizationHistory,
    optimize,
)
from .problem import ConfigError, ProblemSpec, load_problem


def export_density_pgm(rho, mesh: Mesh, path) -> None:
    """Write densities as a plain-text PGM (P2), material rendered dark.

    One pixel per element, width nx by height ny, top row of the domain
    first; pixel = round-half-up(255 * (1 - rho)).
    """
    values = np.asarray(rho, dtype=float).reshape(mesh.ny, mesh.nx)
    if values.min() < 0.0 or values.max() > 1.0:
        raise ValueError("densities must lie in [0, 1]")
    pixels = np.floor(255.0 * (1.0 - values) + 0.5).astype(int)
    lines = ["P2", f"{mesh.nx} {mesh.ny}", "255"]
    for row in range(mesh.ny - 1, -1, -1):
        lines.append(" ".join(str(p) for p in pixels[row]))
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def export_history_csv(history: OptimizationHistory, path) -> None:
    """Write the per-iteration history with 13 significant digits."""
    if history.outer_iterations == 0:
        raise ValueError("history is empty")
    cumulative = history.cumulative_inner_iterations()
    lines = ["outer_iter,cumulative_inner_iters,compliance,lagrange_multiplier,volume"]
    for i in range(history.outer_iterations):
        lines.append(
            f"{i + 1},{cumulative[i]},{history.compliance[i]:.12e},"
            f"{history.lagrange_multiplier[i]:.12e},{history.volume[i]:.12e}"
        )
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def _method_name(solver: SolverConfig, update_rule: str) -> str:
    """PCG-OC and the like, from the solver settings a run resolved."""
    prefix = "" if solver.preconditioning == "none" else "P"
    return f"{prefix}{solver.method.upper()}-{update_rule.upper()}"


def _write_summary(
    spec: ProblemSpec, history: OptimizationHistory, wall_seconds: float, path
) -> None:
    # updates whose multiplier pinned at the bracket edge: the volume
    # constraint was slack
    slack = sum(
        abs(lam) == MULTIPLIER_BRACKET[0] for lam in history.lagrange_multiplier
    )
    lines = [
        f"method: {_method_name(history.solver, spec.optimizer.update_rule)}",
        f"preconditioning: {history.solver.preconditioning}",
        f"status: {history.status}",
        f"cycle_period: {history.cycle_period}",
        f"outer_iters: {history.outer_iterations}",
        f"total_inner_iters: {history.total_inner_iterations}",
        f"capped_solves: {history.solver_status.count(MAX_ITERATIONS)}",
        f"stagnated_solves: {history.solver_status.count(STAGNATED)}",
        f"repeating_solves: {sum(history.solver_repeated)}",
        f"max_true_rel_residual: {max(history.true_relative_residual):.3e}",
        f"slack_updates: {slack}",
        f"final_compliance: {history.compliance[-1]:.12e}",
        f"final_volume: {history.volume[-1]:.12e}",
        f"wall_seconds: {wall_seconds:.3f}",
    ]
    with open(path, "w", encoding="ascii") as handle:
        handle.write("\n".join(lines) + "\n")


def run(spec: ProblemSpec, out_dir) -> int:
    """Optimize and write density.pgm, history.csv, summary.txt.

    Returns the process exit code; on an I/O failure no partial output
    files are left behind.
    """
    try:
        start = time.perf_counter()
        history = optimize(spec)
        wall = time.perf_counter() - start
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (NumericalFailure, InfeasibleConstraintError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except LoadOutsideRangeError as exc:
        print(f"load outside the range: {exc}", file=sys.stderr)
        return 4
    mesh = spec.build_mesh()
    written = []
    try:
        os.makedirs(out_dir, exist_ok=True)
        for name, writer in (
            ("density.pgm", lambda p: export_density_pgm(history.densities[-1], mesh, p)),
            ("history.csv", lambda p: export_history_csv(history, p)),
            ("summary.txt", lambda p: _write_summary(spec, history, wall, p)),
        ):
            path = os.path.join(out_dir, name)
            writer(path)
            written.append(path)
    except OSError as exc:
        for path in written:
            try:
                os.remove(path)
            except OSError:
                pass
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="topokry", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    runner = sub.add_parser("run", help="run an optimization from a config file")
    runner.add_argument("config", help="path to the problem configuration")
    runner.add_argument("--out", help="output directory (overrides the config)")
    runner.add_argument("--solver", choices=["cg", "cr"], help="override solver.method")
    runner.add_argument(
        "--update", choices=["oc", "conlin"], help="override optimizer.update_rule"
    )
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except ConfigError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1

    try:
        spec = load_problem(args.config)
        if args.solver:
            spec = replace(spec, solver=replace(spec.solver, method=args.solver))
        if args.update:
            spec = replace(
                spec, optimizer=replace(spec.optimizer, update_rule=args.update)
            )
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a ConfigError, or a flag the config rules out
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    out_dir = args.out or spec.output_dir
    if not out_dir:
        print("usage error: no output directory (use --out)", file=sys.stderr)
        return 1
    return run(spec, out_dir)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
