"""Topology optimization with Krylov solvers built for the singular
stiffness matrices that zero-density elements create."""

from .fem import (
    BoundaryConditions,
    DensityField,
    Material,
    Mesh,
    apply_dirichlet,
    assemble,
    build_load,
    element_stiffness,
    scatter_solution,
)
from .krylov import (
    NumericalFailure,
    SolveReport,
    SolverConfig,
    jacobi_preconditioner,
    solve,
)
from .linalg import SparseSymMatrix
from .optimizer import (
    InfeasibleConstraintError,
    LoadOutsideRangeError,
    OptimizationHistory,
    OptimizerConfig,
    compliance,
    conlin_update,
    oc_update,
    optimize,
    sensitivity,
    threshold,
)
from .problem import ConfigError, PointLoad, ProblemSpec, dump_problem, load_problem

__all__ = [
    "BoundaryConditions",
    "ConfigError",
    "DensityField",
    "InfeasibleConstraintError",
    "LoadOutsideRangeError",
    "Material",
    "Mesh",
    "NumericalFailure",
    "OptimizationHistory",
    "OptimizerConfig",
    "PointLoad",
    "ProblemSpec",
    "SolveReport",
    "SolverConfig",
    "SparseSymMatrix",
    "apply_dirichlet",
    "assemble",
    "build_load",
    "compliance",
    "conlin_update",
    "dump_problem",
    "element_stiffness",
    "jacobi_preconditioner",
    "load_problem",
    "oc_update",
    "optimize",
    "scatter_solution",
    "sensitivity",
    "solve",
    "threshold",
]
