"""The benchmark's design workloads and the checks every finished design
must pass.

Every workload uses the two-bar-truss geometry of
``configs/two_bar_truss.cfg``: a 10 x 20 mm domain clamped along its left
edge and loaded by a single 105 N point force at the middle of its free
right edge.  The config text is generated here and handed to
``topokry.cli`` as a file; nothing else of the repository is read.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

# Final compliances (N mm) at commit b31813d with one BLAS thread, and the
# relative tolerance each is checked to.  A reordered floating-point sum
# changes stiffness entries in their last bits; perturbing the Poisson
# ratio by 1e-15 to 3e-12 relative does the same.  Over 15 such probes of
# the truss and 3 of each finer mesh the final compliance moved by at most
# 5e-6 relative for the PCG designs, 1.1e-3 for PCR-OC and 3.5e-2 for
# PCR-CONLIN, whose capped solves make its path depend on rounding (its
# outer iterations ranged from 17 to 41).
# The tolerances sit above those spreads; the PCG ones still tell apart the
# four truss designs, which differ from each other by 1.4 % to 7.5 %.
PCG_RTOL = 1e-3
TRUSS_REFERENCE = {
    ("cg", "oc"): (1.658439535e-2, PCG_RTOL),
    ("cg", "conlin"): (1.586318269e-2, PCG_RTOL),
    ("cr", "oc"): (1.710206498e-2, 5e-3),
    ("cr", "conlin"): (1.681715065e-2, 5e-2),
}
FINE_REFERENCE = 1.811094816e-2
DRAFT_REFERENCE = 1.860919524e-2

OUTPUT_FILES = ("density.pgm", "history.csv", "summary.txt")


@dataclass(frozen=True)
class Design:
    """One optimization run: config text plus the CLI overrides."""

    label: str
    config: str
    solver: str = "cg"
    update: str = "oc"
    reference: float | None = None
    rtol: float = PCG_RTOL

    def cli_args(self, config_path: str, out_dir: str) -> list[str]:
        return [
            "run", config_path, "--out", out_dir,
            "--solver", self.solver, "--update", self.update,
        ]


def truss_config(nx: int, ny: int, load_fy: float = -105.0, extra: str = "") -> str:
    """The shipped two-bar-truss config at a given mesh and load sign."""
    return (
        "domain.width = 10\n"
        "domain.height = 20\n"
        f"mesh.nx = {nx}\n"
        f"mesh.ny = {ny}\n"
        "material.young_modulus = 2.1e5\n"
        "material.poisson_ratio = 0.3\n"
        "material.penal = 3\n"
        "material.thickness = 10\n"
        "supports.edges = left\n"
        "loads.0.x = 10\n"
        "loads.0.y = 10\n"
        f"loads.0.fy = {load_fy!r}\n"
        "optimizer.volume_fraction = 0.375\n"
        "optimizer.move_limit = 1.0\n"
        + extra
    )


def load_sign(seed: int) -> float:
    """The seed's load direction: -1 (down, as shipped) for even seeds.

    An upward load is the mirror image of the downward one about
    mid-height, so every seed asks for the same amount of work.
    """
    return -1.0 if seed % 2 == 0 else 1.0


def truss_paper(seed: int) -> list[Design]:
    """The paper's experiment: the shipped 20 x 40 truss, four methods."""
    del seed  # the fixed paper benchmark
    config = truss_config(20, 40)
    return [
        Design(f"P{solver.upper()}-{update.upper()}", config, solver, update, ref, rtol)
        for (solver, update), (ref, rtol) in TRUSS_REFERENCE.items()
    ]


def fine_pcg(seed: int) -> list[Design]:
    """60 x 120 elements, PCG-OC at the paper tolerance of 1e-8."""
    config = truss_config(60, 120, 105.0 * load_sign(seed))
    return [Design("PCG-OC", config, reference=FINE_REFERENCE)]


def draft_pcg(seed: int) -> list[Design]:
    """80 x 160 elements, PCG-OC with inexact solves (tolerance 1e-4)."""
    config = truss_config(
        80, 160, 105.0 * load_sign(seed), "solver.rel_tolerance = 0.0001\n"
    )
    return [Design("PCG-OC", config, reference=DRAFT_REFERENCE)]


def smoke(seed: int) -> list[Design]:
    """The shipped smoke_2x2 problem; used by the self-test only."""
    config = (
        "mesh.nx = 2\nmesh.ny = 2\n"
        "material.young_modulus = 1.0\nmaterial.poisson_ratio = 0.3\n"
        "supports.edges = left\n"
        "loads.0.x = 2\nloads.0.y = 1\n"
        f"loads.0.fy = {load_sign(seed)!r}\n"
        "optimizer.volume_fraction = 0.5\noptimizer.max_outer_iterations = 30\n"
    )
    return [Design("PCG-OC", config)]


WORKLOADS = {
    "truss-paper": truss_paper,
    "fine-pcg": fine_pcg,
    "draft-pcg": draft_pcg,
}


def check_design(design: Design, spec, history, exit_code: int, out_dir: str) -> list[str]:
    """Return the reasons a finished design fails, empty when it passes."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    for name in OUTPUT_FILES:
        path = os.path.join(out_dir, name)
        if not os.path.isfile(path) or os.path.getsize(path) == 0:
            problems.append(f"{name} missing or empty")
    if history is None or history.outer_iterations == 0:
        problems.append("no optimization history")
        return problems

    budget = spec.optimizer.volume_fraction * spec.nx * spec.ny
    volume = history.volume[-1]
    if not 0.0 < volume <= budget * (1.0 + 1e-12):
        problems.append(f"final volume {volume!r} outside (0, {budget!r}]")
    rho = np.asarray(history.densities[-1])
    cutoff = spec.optimizer.threshold_cutoff
    if rho.size != spec.nx * spec.ny or rho.min() < 0.0 or rho.max() > 1.0:
        problems.append("final densities outside [0, 1] or of the wrong size")
    grey = int(np.count_nonzero((rho > 0.0) & (rho < cutoff)))
    if grey:
        problems.append(f"{grey} densities strictly between 0 and {cutoff!r}")

    energy = history.compliance[-1]
    if not (math.isfinite(energy) and energy > 0.0):
        problems.append(f"final compliance {energy!r} not finite and positive")
    elif design.reference is not None and not math.isclose(
        energy, design.reference, rel_tol=design.rtol
    ):
        problems.append(
            f"final compliance {energy:.6e} differs from reference "
            f"{design.reference:.6e} by more than {design.rtol:g} relative"
        )
    return problems
