"""Range/null decomposition instrumentation for singular symmetric systems.

Builds orthonormal bases of the range and its orthogonal complement from the
symmetric eigendecomposition, transforms matrices to the block "standard
form" with a regular leading block and a zero trailing block, projects
residual histories onto the two subspaces, and checks the Conjugate
Residual contraction bound, within ``CR_BOUND_SLACK`` = 1e-10.  The range
comes from the eigendecomposition and ``linalg.RANK_TOLERANCE`` cut that
``linalg.pseudo_inverse`` takes too.

It also holds the checked dense tools the tests use as oracles:
:func:`as_small_square` and :func:`check_symmetric` validate a dense
matrix, and :func:`pseudo_inverse` checks its input before handing it to
``linalg.pseudo_inverse``, which checks nothing.  Test-scale machinery:
dense, n <= ``DENSE_SIZE_LIMIT`` = 2000.  :func:`trajectory` reads every
iterate and residual of a real solve, one capped solve per iteration.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from topokry import linalg
from topokry.krylov import SolveReport, SolverConfig, jacobi_preconditioner, solve
from topokry.linalg import SparseSymMatrix

DENSE_SIZE_LIMIT = 2000
# allowance on the squared residual ratio in ``cr_bound_check``
CR_BOUND_SLACK = 1e-10


def as_small_square(a, name: str = "matrix") -> np.ndarray:
    """Validate a finite square 2-D float64 array within the dense size
    limit; a :class:`SparseSymMatrix` is made dense once its size passes."""
    sparse = isinstance(a, SparseSymMatrix)
    shape = (a.dimension,) * 2 if sparse else np.shape(a)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{name} must be a square 2-D array, got shape {shape}")
    if shape[0] > DENSE_SIZE_LIMIT:
        raise ValueError(
            f"{name} is {shape[0]}x{shape[0]}; dense work is limited to "
            f"n <= {DENSE_SIZE_LIMIT}"
        )
    m = a.to_dense() if sparse else np.asarray(a, dtype=float)
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    return m


def check_symmetric(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Return a square array, raising unless it is symmetric to within
    1e-12 of its largest entry."""
    if m.size:
        scale = np.abs(m).max()
        if np.abs(m - m.T).max() > 1e-12 * max(scale, 1e-300):
            raise ValueError(f"{name} must be symmetric")
    return m


def _rank_cut(a, name: str):
    """The symmetric eigendecomposition of a, cut at ``RANK_TOLERANCE``.

    ``a`` is a :class:`SparseSymMatrix` or a dense array, checked to be
    finite, square, symmetric and within the dense size limit.  Returns
    the dense matrix and ``linalg._eigen_cut`` of it.
    """
    a = check_symmetric(as_small_square(a, name), name)
    return (a,) + linalg._eigen_cut(a)


def pseudo_inverse(a) -> np.ndarray:
    """``linalg.pseudo_inverse`` of a, checked as :func:`_rank_cut` checks
    it; n is limited to 2000."""
    return linalg.pseudo_inverse(check_symmetric(as_small_square(a, "a"), "a"))


@dataclass
class Trajectory:
    """Every iterate x_k and recursive residual r_k of one solve, for k
    from 0 to ``report.iterations``, and the solve's report."""

    report: SolveReport
    iterates: list[np.ndarray]
    residuals: list[np.ndarray]


def trajectory(a: SparseSymMatrix, b, cfg: SolverConfig, x0=None) -> Trajectory:
    """The iterates and residuals of ``solve(a, b, x0, cfg)``.

    Iterate k is the solution and residual of the same solve capped at k
    iterations; k = 0 is x0 with rhs - A x0 on the system iterated, which
    under left-Jacobi CR is d * b - d * (A x0).  A solve is deterministic
    and one whose state repeats reports the full run to its cap, so these
    are bit for bit the vectors the loop holds at iteration k.  A run of K
    iterations costs K solves and K^2 / 2 iterations: test scale only.
    """
    full = solve(a, b, x0, cfg)
    x = np.zeros(a.dimension) if x0 is None else np.array(x0, dtype=float)
    rhs, ax = np.asarray(b, dtype=float), a.csr @ x
    if cfg.method == "cr" and cfg.preconditioning == "jacobi":
        d = jacobi_preconditioner(a)
        rhs, ax = d * rhs, d * ax
    reports = [
        solve(a, b, x0, replace(cfg, max_iterations=k))
        for k in range(1, full.iterations)
    ]
    reports += [full] if full.iterations else []
    assert [rep.iterations for rep in reports] == list(range(1, full.iterations + 1))
    return Trajectory(
        full,
        [x] + [rep.solution for rep in reports],
        [rhs - ax] + [rep.residual for rep in reports],
    )


class DecompositionError(RuntimeError):
    """The computed decomposition is inconsistent with the matrix."""


@dataclass
class RangeDecomposition:
    """Orthonormal range/null bases of a symmetric matrix.

    ``q_range`` is n-by-r, ``q_null`` is n-by-(n-r) and together they form an
    orthogonal matrix; ``a11 = q_range.T @ A @ q_range`` is the regular block.
    """

    rank: int
    q_range: np.ndarray
    q_null: np.ndarray
    a11: np.ndarray


@dataclass
class ComponentTraces:
    """Per-iteration norms of the range/null components of r_k."""

    residual_range: np.ndarray
    residual_null: np.ndarray


def range_basis(a) -> RangeDecomposition:
    """Split R^n into the range of a symmetric matrix and its complement.

    Eigenvectors with |lambda| > RANK_TOLERANCE * |lambda|_max span the
    range; the rest span the null space (equal to the orthogonal complement
    for symmetric input).
    """
    dense, w, v, keep = _rank_cut(a, "matrix")
    magnitude = np.abs(w)
    # descending magnitude inside each block keeps the layout predictable
    range_order = np.flatnonzero(keep)[np.argsort(-magnitude[keep])]
    null_order = np.flatnonzero(~keep)
    q1 = v[:, range_order]
    q2 = v[:, null_order]
    a11 = q1.T @ dense @ q1
    return RangeDecomposition(int(keep.sum()), q1, q2, a11)


def standard_form(a, dec: RangeDecomposition) -> np.ndarray:
    """Orthogonal transform Q^T A Q exposing the regular/zero block split.

    Raises :class:`DecompositionError` if the off-diagonal or trailing
    blocks fail to vanish, i.e. the decomposition does not belong to A.
    """
    dense = check_symmetric(as_small_square(a), "matrix")
    q = np.hstack([dec.q_range, dec.q_null])
    if q.shape != dense.shape:
        raise ValueError("decomposition size does not match the matrix")
    tilde = q.T @ dense @ q
    r = dec.rank
    scale = np.linalg.norm(dense)
    tol = 1e-10 * max(scale, 1e-300)
    off_upper = np.linalg.norm(tilde[:r, r:])
    off_lower = np.linalg.norm(tilde[r:, :r])
    trailing = np.linalg.norm(tilde[r:, r:])
    if max(off_upper, off_lower, trailing) > tol:
        raise DecompositionError(
            "block structure violated: off/trailing block norms "
            f"({off_upper:.2e}, {off_lower:.2e}, {trailing:.2e}) exceed {tol:.2e}"
        )
    return tilde


def decompose_history(residuals, dec: RangeDecomposition) -> ComponentTraces:
    """Project a residual history, the vectors r_k, onto the range and null
    subspaces."""
    if any(v.size != dec.q_range.shape[0] for v in residuals):
        raise ValueError("residual vectors do not match the decomposition size")
    return ComponentTraces(
        np.array([np.linalg.norm(dec.q_range.T @ v) for v in residuals]),
        np.array([np.linalg.norm(dec.q_null.T @ v) for v in residuals]),
    )


def cr_bound_check(a, residual_history) -> bool:
    """Check the CR contraction bound on a recorded residual history.

    For every consecutive pair the squared residual ratio must satisfy
    ||r_{k+1}||^2 / ||r_k||^2 <= 1 - lambda_min(M)^2 / lambda_max(A^T A)
    within ``CR_BOUND_SLACK``, where M is the symmetric part of A.
    Requires M positive definite.
    """
    dense = as_small_square(a, "a")
    sym = 0.5 * (dense + dense.T)
    eigs_m = np.linalg.eigvalsh(sym)
    if eigs_m.min() <= 0.0:
        raise ValueError("symmetric part must be positive definite")
    lam_min = eigs_m.min()
    lam_max_ata = np.linalg.eigvalsh(dense.T @ dense).max()
    bound = 1.0 - lam_min**2 / lam_max_ata
    history = [float(h) for h in residual_history]
    for prev, nxt in zip(history, history[1:]):
        if prev == 0.0:
            continue
        if (nxt / prev) ** 2 > bound + CR_BOUND_SLACK:
            return False
    return True
