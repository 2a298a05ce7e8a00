"""Range/null decomposition instrumentation for singular symmetric systems.

Builds orthonormal bases of the range and its orthogonal complement from the
symmetric eigendecomposition, transforms matrices to the block "standard
form" with a regular leading block and a zero trailing block, projects
recorded residual histories onto the two subspaces, and checks the Conjugate
Residual contraction bound, within ``CR_BOUND_SLACK`` = 1e-10.  The range
comes from the eigendecomposition and ``linalg.RANK_TOLERANCE`` cut that
``linalg.pseudo_inverse`` takes too.  Test-scale machinery: dense,
n <= 2000.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from topokry.krylov import SolveReport
from topokry.linalg import _rank_cut, as_small_square, check_symmetric

# allowance on the squared residual ratio in ``cr_bound_check``
CR_BOUND_SLACK = 1e-10


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


def decompose_history(report: SolveReport, dec: RangeDecomposition) -> ComponentTraces:
    """Project a recorded residual history onto the range and null subspaces."""
    vectors = report.residual_vectors
    if vectors is None:
        raise ValueError("solver was not run with iterate recording enabled")
    if any(v.size != dec.q_range.shape[0] for v in vectors):
        raise ValueError("recorded vectors do not match the decomposition size")
    return ComponentTraces(
        np.array([np.linalg.norm(dec.q_range.T @ v) for v in vectors]),
        np.array([np.linalg.norm(dec.q_null.T @ v) for v in vectors]),
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
