"""Outer topology-optimization loop: compliance objective, density
sensitivities, OC and CONLIN multiplicative updates with a bisected volume
multiplier, thresholding of near-void densities, and convergence control.

Both update rules share the same shape: a candidate density
``rho' = (|sens| / |lambda|)^eta * rho`` clamped to the move-limit box
intersected with [0, 1], with eta = ``OC_EXPONENT`` = 0.85 for OC
(lambda < 0) and eta = 1/2 for CONLIN (lambda > 0).  The multiplier
magnitude is found by bisection in log space so that the updated volume
meets the budget from the feasible side, to a relative
``BISECTION_TOLERANCE`` = 1e-8; if even the maximal move keeps the volume
under budget the constraint is slack and the multiplier pins at its
bracket edge.  The loop stops once the Lagrangian changes by less than
``LAGRANGIAN_TOLERANCE`` = 1e-10.

Densities below the threshold cutoff are forced to exactly zero.  Zero
stays zero under the multiplicative rules, elements lose their stiffness
entirely, and the equilibrium system is left singular on purpose: the
Krylov solvers handle it without any density floor.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .fem import (
    DensityField,
    Material,
    Mesh,
    apply_dirichlet,
    assemble,
    build_load,
    element_stiffness,
    scatter_solution,
)
from .krylov import SolverConfig, solve
from .multigrid import prolongations, v_cycle

if TYPE_CHECKING:  # pragma: no cover
    from .problem import ProblemSpec

MULTIPLIER_BRACKET = (1e-12, 1e12)
# OC update exponent eta
OC_EXPONENT = 0.85
# bisection stops once the volume is under budget by at most this share of it
BISECTION_TOLERANCE = 1e-8
# absolute Lagrangian change between outer iterations that counts as converged
LAGRANGIAN_TOLERANCE = 1e-10


class InfeasibleConstraintError(RuntimeError):
    """The volume constraint cannot be met inside the multiplier bracket."""


class LoadOutsideRangeError(RuntimeError):
    """A load acts on a free DOF whose stiffness row is empty, so the
    equilibrium system has no solution."""


@dataclass
class OptimizerConfig:
    """Settings for the density-update loop."""

    volume_fraction: float
    update_rule: str = "oc"
    threshold_cutoff: float = 1e-3
    max_outer_iterations: int = 100
    move_limit: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.volume_fraction <= 1.0:
            raise ValueError("volume_fraction must lie in (0, 1]")
        if self.update_rule not in ("oc", "conlin"):
            raise ValueError(f"unknown update rule {self.update_rule!r}")
        if not 0.0 <= self.threshold_cutoff < 1.0:
            raise ValueError("threshold_cutoff must lie in [0, 1)")
        if self.max_outer_iterations < 1:
            raise ValueError("max_outer_iterations must be >= 1")
        if not self.move_limit > 0:
            raise ValueError("move_limit must be positive")


@dataclass
class OptimizationHistory:
    """Per-outer-iteration record of an optimization run, and the solver
    settings it resolved (``solver``: cap and preconditioning set)."""

    compliance: list[float] = field(default_factory=list)
    lagrange_multiplier: list[float] = field(default_factory=list)
    inner_iterations: list[int] = field(default_factory=list)
    solver_status: list[str] = field(default_factory=list)
    true_relative_residual: list[float] = field(default_factory=list)
    volume: list[float] = field(default_factory=list)
    densities: list[np.ndarray] = field(default_factory=list)
    status: str = "max_iterations"
    solver: SolverConfig | None = None

    @property
    def outer_iterations(self) -> int:
        return len(self.compliance)

    @property
    def total_inner_iterations(self) -> int:
        return int(sum(self.inner_iterations))

    def cumulative_inner_iterations(self) -> list[int]:
        return list(np.cumsum(self.inner_iterations, dtype=np.int64))


def compliance(x, b) -> float:
    """Strain energy (1/2) x.b, which equals (1/2) x^T A x at equilibrium."""
    x = np.asarray(x, dtype=float)
    b = np.asarray(b, dtype=float)
    if x.shape != b.shape:
        raise ValueError("displacement and load vectors differ in shape")
    return 0.5 * float(x @ b)


def sensitivity(mesh: Mesh, mat: Material, rho: DensityField, x) -> np.ndarray:
    """Compliance derivative per element: -p * rho^(p-1) * x_e^T D x_e.

    Evaluated through the unpenalized element stiffness so zero-density
    elements get exactly zero without any division; always <= 0.
    """
    x = np.asarray(x, dtype=float)
    if x.size != mesh.n_dofs:
        raise ValueError("displacement vector must cover all DOFs")
    if rho.n_elements != mesh.n_elements:
        raise ValueError("density field does not match the mesh")
    ke = element_stiffness(mat, mesh.elem_width, mesh.elem_height)
    # each element's 8 DOFs: (2k, 2k + 1) of each of its corner nodes k
    ue = x.reshape(-1, 2)[mesh.element_nodes].reshape(-1, 8)
    quad = np.einsum("ei,ij,ej->e", ue, ke, ue)
    # the element form is PSD; negative values are roundoff
    quad = np.maximum(quad, 0.0)
    values = rho.values
    # penal >= 1, so the power is finite for every density in [0, 1]
    factor = np.where(values > 0.0, values ** (mat.penal - 1.0), 0.0)
    return -mat.penal * factor * quad


def threshold(rho: DensityField, cutoff: float) -> DensityField:
    """Force densities strictly below the cutoff to exactly zero."""
    if not 0.0 <= cutoff < 1.0:
        raise ValueError("cutoff must lie in [0, 1)")
    return DensityField(np.where(rho.values < cutoff, 0.0, rho.values))


def _clamped_candidate(
    values: np.ndarray, sens: np.ndarray, mu: float, exponent: float, move: float
) -> np.ndarray:
    """Raw multiplicative update at multiplier magnitude mu, box-clamped."""
    base = -sens / mu
    factor = base**exponent
    lower = np.maximum(0.0, values - move)
    upper = np.minimum(1.0, values + move)
    return np.clip(factor * values, lower, upper)


def _update(
    rho: DensityField, sens, cfg: OptimizerConfig, exponent: float, sign: float
) -> tuple[DensityField, float]:
    sens = np.asarray(sens, dtype=float)
    if sens.shape != rho.values.shape:
        raise ValueError("sensitivity shape does not match densities")
    if sens.size and sens.max() > 0.0:
        raise ValueError("sensitivities must be <= 0")
    target = cfg.volume_fraction * rho.n_elements
    tol = BISECTION_TOLERANCE * target

    def candidate(mu: float) -> np.ndarray:
        return _clamped_candidate(rho.values, sens, mu, exponent, cfg.move_limit)

    lo, hi = MULTIPLIER_BRACKET
    maximal = candidate(lo)
    if maximal.sum() <= target:
        # constraint slack: even the maximal move stays inside the budget
        return DensityField(maximal), sign * lo
    if candidate(hi).sum() > target:
        raise InfeasibleConstraintError(
            "volume target unreachable inside the multiplier bracket"
        )
    # volume decreases monotonically in mu; bisect in log space and accept
    # from the feasible (under-budget) side so the constraint is never
    # overshot; hi is always the feasible end
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        vol = candidate(mid).sum()
        if vol > target:
            lo = mid
        else:
            hi = mid
            if target - vol <= tol:
                break
        if hi / lo < 1.0 + 1e-15:
            break
    return DensityField(candidate(hi)), sign * hi


def oc_update(
    rho: DensityField, sens, cfg: OptimizerConfig
) -> tuple[DensityField, float]:
    """Optimality-criteria update rho' = (sens/lambda)^eta * rho, lambda < 0."""
    return _update(rho, sens, cfg, OC_EXPONENT, sign=-1.0)


def conlin_update(
    rho: DensityField, sens, cfg: OptimizerConfig
) -> tuple[DensityField, float]:
    """Convex-linearization update rho' = (-sens/lambda)^(1/2) * rho, lambda > 0."""
    return _update(rho, sens, cfg, 0.5, sign=1.0)


def optimize(spec: "ProblemSpec") -> OptimizationHistory:
    """Run the full optimization loop for a problem specification.

    Per outer iteration: assemble the SIMP-scaled stiffness, eliminate
    supports, solve equilibrium with the configured Krylov method, evaluate
    compliance and sensitivities, update densities, and threshold.  Stops
    when the Lagrangian change drops below tolerance or the iteration cap is
    reached.  Stagnating or iteration-capped solves (expected for singular
    or ill-conditioned states) are recorded and the loop continues; genuine
    numerical failures propagate.  A load on a node with no adjacent
    material raises :class:`LoadOutsideRangeError` before the solve: b has
    left the range of A, so the system has no solution.  An unset
    ``solver.max_iterations`` takes the paper's cap, one Krylov iteration
    per mesh node, and an unset ``solver.preconditioning`` is ``"mg"`` for
    CG and ``"jacobi"`` for CR; the history records the resolved settings.
    Under ``"mg"`` the multigrid hierarchy is built once per run and each
    solve gets a V-cycle of its own matrix.

    Each solve warm-starts from the previous displacement field, so
    successive solves keep refining the same equilibrium as the design
    settles.  Degrees of freedom that fall inside fully-void regions keep
    the value they last had; they carry no load and zero-density elements
    have zero sensitivity, so those stale entries influence nothing.
    """
    mesh = spec.build_mesh()
    bc = spec.build_boundary_conditions(mesh)
    mat = spec.material
    opt = spec.optimizer
    solver = spec.solver
    if solver.max_iterations is None:
        solver = replace(solver, max_iterations=mesh.n_nodes)
    if solver.preconditioning is None:
        pre = "mg" if solver.method == "cg" else "jacobi"
        solver = replace(solver, preconditioning=pre)
    levels = prolongations(mesh, bc) if solver.preconditioning == "mg" else None

    rho = DensityField.uniform(mesh.n_elements, opt.volume_fraction)
    target = opt.volume_fraction * mesh.n_elements
    b_full = build_load(mesh, bc)
    update_rule = oc_update if opt.update_rule == "oc" else conlin_update

    history = OptimizationHistory(solver=solver)
    lagrangian_prev = None
    x_full = np.zeros(mesh.n_dofs)
    for outer in range(1, opt.max_outer_iterations + 1):
        a_red, b_red, dof_map = apply_dirichlet(
            assemble(mesh, mat, rho), b_full, bc
        )
        empty = a_red.zero_rows()
        loaded = empty[b_red.take(empty) != 0.0]
        if loaded.size:
            raise LoadOutsideRangeError(
                f"outer iteration {outer}: the load at node "
                f"{dof_map[loaded[0]] // 2} has no adjacent material"
            )
        precondition = None if levels is None else v_cycle(a_red, levels)
        report = solve(
            a_red, b_red, x_full[dof_map], solver, precondition=precondition
        )
        # no matrix (nor the V-cycle holding A's coarse operators) outlives
        # its solve, so the next assembly's peak memory is not stacked on it
        del a_red, precondition
        x_full = scatter_solution(report.solution, dof_map, mesh.n_dofs)

        c = compliance(x_full, b_full)
        sens = sensitivity(mesh, mat, rho, x_full)
        rho_new, lam = update_rule(rho, sens, opt)
        rho_new = threshold(rho_new, opt.threshold_cutoff)

        history.compliance.append(c)
        history.lagrange_multiplier.append(lam)
        history.inner_iterations.append(report.iterations)
        history.solver_status.append(report.status)
        history.true_relative_residual.append(report.true_relative_residual)
        history.volume.append(rho_new.volume())
        history.densities.append(rho_new.values.copy())

        lagrangian = c + lam * (history.volume[-1] - target)
        if (
            lagrangian_prev is not None
            and abs(lagrangian - lagrangian_prev) < LAGRANGIAN_TOLERANCE
        ):
            history.status = "converged"
            break
        lagrangian_prev = lagrangian
        rho = rho_new
    return history
