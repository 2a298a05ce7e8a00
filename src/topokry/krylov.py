"""Conjugate Gradient and Conjugate Residual solves of symmetric positive
semidefinite systems, engineered to run without breakdown when zero-density
elements make the stiffness matrix singular.

One function, ``solve(a, b, x0, cfg, precondition)``, runs both;
``cfg.method`` picks the recurrences and ``cfg.preconditioning`` the
preconditioner::

    rep = solve(a, b)                                  # CG, x0 = 0
    rep = solve(a, b, None, SolverConfig(method="cr", preconditioning="jacobi"))
    rep = solve(a, b, None, SolverConfig(preconditioning="mg"), precondition=m)

The two methods are one recurrence that pairs A p_k with different
vectors (w_k, z_k): (p_k, s_k) for CG and (A p_k, A r_k) for CR, where
s_k = M r_k under a CG preconditioner M and s_k = r_k otherwise::

    alpha_k = (r_k, w_k) / (w_k, A p_k)
    beta_k  = -(z_{k+1}, A p_k) / (w_k, A p_k)

with x_{k+1} = x_k + alpha_k p_k, r_{k+1} = r_k - alpha_k A p_k and
p_{k+1} = s_{k+1} + beta_k p_k, stopping when ||r_k|| <= eps * ||b||.
CG spends its matvec on A p_k; CR spends it on A r_{k+1} and recurs
A p_{k+1} = A r_{k+1} + beta_k A p_k.
Collapse of the alpha denominator, to at most ``BREAKDOWN_TOLERANCE`` =
1e-14 times ||p_k||^2, does not raise: the solver returns the current
iterate with status ``stagnated_least_squares``, which on a consistent
subsystem is the useful range-space solution.

Preconditioned CG runs on the system as given, with an SPD operator M,
``precondition(r, out)``, so r_k is the unscaled residual and the stop
is judged on it.  Under ``"mg"`` the caller hands M in (in ``optimize``,
a multigrid V-cycle); under ``"jacobi"`` it is M = D^-1, the diagonal
from :func:`jacobi_preconditioner`.  PCG converges on a consistent
singular system for any SPD M (Kaasschieter 1988), but its iterates leave
range(A).  Their null components change nothing the optimizer reads: A
maps them to zero, b is orthogonal to them, and on each element with
material they are a rigid mode.  Without M, s_k aliases r_k, so the
other solves pay no operation for the hook.

CR takes Jacobi preconditioning from the left instead and iterates on
M^-1 A x = M^-1 b, a nonsymmetric operator, trading CR's residual
optimality for plain applicability.  The CR contraction bound needs a
definite symmetric part; on singular A the symmetric part of M^-1 A is
at best semidefinite, and the bound does not apply.  The cost shows on
the shipped two-bar truss: left-Jacobi CR stops 12 of the 15 solves of
an OC run at the iteration cap, with a largest true relative residual of
0.114, and 17 of 23 under CONLIN, with 0.126, and the final compliances
are 3.1 % and 6.0 % above those of Jacobi CG.  Its reported residual
history belongs to the system actually iterated, M^-1 A x = M^-1 b.

An iteration allocates no arrays.  The work vectors are allocated once per
solve and updated in place, and the report hands the final x and r back
as they are, without a copy.  The operator is a callable
``matvec(v, out)``: it writes A v into ``out`` and returns ``out``, where
``v`` and ``out`` are distinct contiguous float64 vectors of length n and
``out``'s prior contents are ignored.  :func:`csr_operator` builds it from
a matrix's CSR arrays with scipy's ``csr_matvec`` kernel.  The arithmetic
is the same, operation for operation, as the plain expressions
``x + alpha * p``, ``r + beta * p``, ``np.linalg.norm(r)`` and ``csr @ v``,
so results are bit-identical to them:

- ``np.multiply(p, alpha, out=tmp); x += tmp`` rounds each product and
  then each sum once, exactly as ``x + alpha * p`` does; ``p *= beta;
  p += r`` is ``r + beta * p`` with the commutative final addition, and
  CR's ``A p`` recurs the same way;
- ``ndarray.dot`` runs the same BLAS ``ddot`` that ``@`` runs on two 1-D
  float64 arrays, and ``math.sqrt(r.dot(r))`` is exactly what
  ``np.linalg.norm`` computes for one;
- ``csr @ v`` zero-fills its result and runs the same ``csr_matvec``
  kernel into it, and the left-Jacobi operator scales that result in place
  by ``d``, which is the product ``d * (A v)``.

A capped solve can fall into a cycle: under left-Jacobi CR on the
shipped truss, 18 of the 29 capped solves reach a state that repeats
exactly, with period 2 or 4 and alpha = 0.0 on the repeating steps.  The
state is every vector the next step reads: x, r and p, plus A p for CR
and s for preconditioned CG.  One step is a deterministic function of
it: the same buffers, the same ``csr_matvec`` and ``ddot`` calls, and a
``precondition`` that must be a pure function of r.  So once the state
equals, byte for byte, the one ``REPEAT_LAG`` = 4 iterations earlier,
every later state is one already seen, and every check already passed
on it.  The loop then runs only the (cap - k) mod 4 steps that land on
the cap's phase and copies the repeating residual norms for the rest.
The report, with ``repeated_at`` = k, is byte for byte the one the full
run gives; on the truss this skips 8 508 of the 27 605 CR iterations.  A
snapshot of the state is taken only when ||r|| and alpha both equal
their values 4 iterations back, as on every cycle whose period divides
4, and is compared 4 iterations on.  With
one snapshot pending at a time, a solve reads its state at most twice
per 4 iterations, and a state that first recurs at iteration j is
caught by iteration j + 8 if that is within the cap.

``csr_matvec`` is a private scipy API; ``tests/test_krylov.py`` checks it
bit for bit against ``csr @ v``, so a scipy release that changes it fails
there.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec

from .linalg import SparseSymMatrix, as_vector, is_integer

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
STAGNATED = "stagnated_least_squares"

# Relative cut for a numerically zero quantity, used twice: the iteration
# stagnates when the alpha denominator falls to or below it times ||p||^2
# (``_iterate``), and a diagonal entry at or below it times the largest one
# counts as a zero row for the Jacobi scaling (``jacobi_preconditioner``).
BREAKDOWN_TOLERANCE = 1e-14
# a solve's state is compared with the one this many iterations earlier,
# which catches cycles of period 1, 2 and 4
REPEAT_LAG = 4


class NumericalFailure(RuntimeError):
    """A solver met a non-finite value; carries the iteration index."""

    def __init__(self, message: str, iteration: int):
        super().__init__(f"{message} (iteration {iteration})")
        self.iteration = iteration


@dataclass
class SolverConfig:
    """Krylov solver settings.

    ``max_iterations = None`` falls back to the system dimension;
    ``optimize`` resolves it to the mesh node count instead.
    ``preconditioning`` is ``"none"``, ``"jacobi"`` or, for CG only,
    ``"mg"``, which applies the SPD operator handed to :func:`solve`;
    ``None`` leaves it unset for ``optimize`` to resolve, to ``"mg"`` for
    CG and ``"jacobi"`` for CR.
    """

    method: str = "cg"
    rel_tolerance: float = 1e-8
    max_iterations: int | None = None
    preconditioning: str | None = "none"

    def __post_init__(self):
        if self.method not in ("cg", "cr"):
            raise ValueError(f"unknown method {self.method!r}")
        if not 0 < self.rel_tolerance < math.inf:
            raise ValueError("rel_tolerance must be positive and finite")
        if self.max_iterations is not None and not (
            is_integer(self.max_iterations) and self.max_iterations >= 1
        ):
            raise ValueError("max_iterations must be an integer >= 1")
        if self.preconditioning not in (None, "none", "jacobi", "mg"):
            raise ValueError(f"unknown preconditioning {self.preconditioning!r}")
        if self.preconditioning == "mg" and self.method != "cg":
            raise ValueError("preconditioning 'mg' needs method 'cg'")


@dataclass
class SolveReport:
    """Outcome of a Krylov solve.

    ``residual_history`` has ``iterations + 1`` entries (it includes the
    initial residual norm).  ``residual`` is the final recursive residual
    r_k, whose norm is the last entry of the history and, over ||b||,
    ``final_relative_residual``.  The residuals belong to the system as
    given, except that under left-Jacobi CR they are those of
    M^-1 A x = M^-1 b.
    ``true_relative_residual`` is ||b - A x|| / ||b|| on the system as
    given, whatever was iterated.  ``repeated_at`` is the iteration at
    which the solver state equalled, bit for bit, the one ``REPEAT_LAG``
    iterations earlier, after which the iterations up to the cap were
    copied rather than run; ``None`` if no repeat was found.
    """

    solution: np.ndarray
    residual: np.ndarray
    status: str
    iterations: int
    residual_history: list[float]
    final_relative_residual: float
    true_relative_residual: float = math.nan
    repeated_at: int | None = None


def jacobi_preconditioner(a: SparseSymMatrix | sp.csr_matrix) -> np.ndarray:
    """Reciprocal diagonal of A with pass-through for zero rows.

    d_i = 1 / A(i,i) where the diagonal exceeds ``BREAKDOWN_TOLERANCE``
    times the largest one, and d_i = 1 where it does not, so zero-stiffness
    DOFs are left unscaled; every entry is positive.  A negative diagonal
    entry violates positive semidefiniteness and raises.
    """
    diag = a.diagonal()
    if diag.size and diag.min() < 0.0:
        raise ValueError("negative diagonal entry: matrix is not PSD")
    scale = diag.max() if diag.size else 0.0
    d = np.ones_like(diag)
    meaningful = diag > BREAKDOWN_TOLERANCE * scale
    d[meaningful] = 1.0 / diag[meaningful]
    return d


def csr_operator(csr: sp.csr_matrix, left: np.ndarray | None = None):
    """Return ``matvec(v, out)`` writing ``csr @ v`` (times ``left``, if
    given) into ``out`` and returning it; ``out`` must not alias ``v``."""
    rows, cols = csr.shape
    indptr, indices, data = csr.indptr, csr.indices, csr.data

    def matvec(v: np.ndarray, out: np.ndarray) -> np.ndarray:
        # csr_matvec checks no lengths: a short vector would be overrun
        if v.shape != (cols,) or out.shape != (rows,):
            raise ValueError(
                f"operator is {rows}x{cols}, got v {v.shape} and out {out.shape}"
            )
        out.fill(0.0)  # csr_matvec accumulates into out
        csr_matvec(rows, cols, indptr, indices, data, v, out)
        if left is not None:
            out *= left
        return out

    return matvec


def _relative(res: float, b_norm: float) -> float:
    """res / ||b||, reading a zero b as 0 when res is 0 and inf otherwise."""
    if b_norm > 0.0:
        return res / b_norm
    return 0.0 if res == 0.0 else np.inf


def _bits(vectors) -> bytes:
    """The vectors' bytes, end to end: equal exactly when they are equal
    bit for bit, signed zeros included."""
    return b"".join(v.tobytes() for v in vectors)


def _iterate(
    matvec, n: int, b, x0, cfg: SolverConfig, precondition=None
) -> SolveReport:
    """Run the CG/CR recurrences against a ``matvec(v, out)`` operator;
    CG applies ``precondition(r, out)``, if given, to each residual."""
    max_iter = cfg.max_iterations if cfg.max_iterations is not None else n
    is_cr = cfg.method == "cr"

    # work vectors, allocated once per solve and updated in place below
    x = x0.copy()
    tmp = np.empty(n)
    r = b - matvec(x, tmp)
    # what p recurs on: M r for preconditioned CG, otherwise r itself
    s = r if precondition is None else precondition(r, np.empty(n))
    p = s.copy()
    if is_cr:
        ar = matvec(r, np.empty(n))
        ap = ar.copy()
    else:
        ap = np.empty(n)
    # what A p is paired with; aliases, so they follow the in-place updates
    w, z = (ap, ar) if is_cr else (p, s)
    b_norm = float(np.linalg.norm(b))
    history = [math.sqrt(r.dot(r))]

    def report(status: str, k: int) -> SolveReport:
        return SolveReport(
            solution=x,
            residual=r,
            status=status,
            iterations=k,
            residual_history=history,
            final_relative_residual=_relative(history[-1], b_norm),
            repeated_at=repeated_at,
        )

    # every vector the next step reads: CG writes A p_k, CR A r_{k+1} and
    # both tmp before reading them
    state = [x, r, p]
    if is_cr:
        state.append(ap)
    elif s is not r:
        state.append(s)
    snapshot = None  # the state's bytes, to compare at iteration compare_at
    compare_at = 0
    alphas = []
    repeated_at = None

    k = 0
    while k < max_iter:
        if history[-1] <= cfg.rel_tolerance * b_norm:
            return report(CONVERGED, k)
        if not is_cr:
            matvec(p, ap)
        denom = float(w.dot(ap))
        p_sq = float(p.dot(p))
        if not math.isfinite(denom):
            raise NumericalFailure("non-finite denominator", k)
        if denom <= BREAKDOWN_TOLERANCE * p_sq:
            return report(STAGNATED, k)
        alpha = float(r.dot(w)) / denom
        alphas.append(alpha)
        x += np.multiply(p, alpha, out=tmp)
        r -= np.multiply(ap, alpha, out=tmp)
        res = math.sqrt(r.dot(r))
        if not math.isfinite(res):
            raise NumericalFailure("non-finite residual", k)
        history.append(res)
        if is_cr:
            matvec(r, ar)
        elif precondition is not None:
            precondition(r, s)
        beta = -float(z.dot(ap)) / denom
        p *= beta
        p += s
        if is_cr:
            ap *= beta
            ap += ar
        k += 1
        if snapshot is None:
            j = k - REPEAT_LAG  # snapshot if ||r|| and alpha equal theirs at j
            if 0 < j and k + REPEAT_LAG <= max_iter and res == history[j]:
                if alpha == alphas[j - 1]:
                    snapshot, compare_at = _bits(state), k + REPEAT_LAG
        elif k == compare_at:
            if _bits(state) == snapshot:
                # every later state is one already seen: copy whole
                # periods, then run the few steps that remain
                repeated_at = k
                periods = (max_iter - k) // REPEAT_LAG
                history += history[-REPEAT_LAG:] * periods
                k += periods * REPEAT_LAG
            snapshot = None

    status = CONVERGED if history[-1] <= cfg.rel_tolerance * b_norm else MAX_ITERATIONS
    return report(status, max_iter)


def solve(
    a: SparseSymMatrix, b, x0=None, cfg: SolverConfig | None = None,
    precondition=None,
) -> SolveReport:
    """Solve A x = b for symmetric PSD A with CG or CR, per ``cfg.method``.

    With the default x0 = 0, a consistent right-hand side (b in the range
    of A) keeps every CG iterate in the range of A, which is what makes the
    method safe on singular stiffness matrices.  For inconsistent b the CR
    range-space residual still decreases monotonically while the null-space
    residual stays at its initial value, so CR stagnates at a least-squares
    solution of the consistent subsystem and reports
    ``stagnated_least_squares``.  A 0-dimensional system converges in 0
    iterations.  The report's ``true_relative_residual`` costs one more
    matvec, with A itself.  ``precondition(r, out)`` is the caller's M, a
    pure function of r, required by "mg" and refused otherwise; "jacobi"
    builds its own.
    """
    cfg = SolverConfig() if cfg is None else cfg
    if cfg.preconditioning is None:
        raise ValueError("preconditioning is unset")
    if (cfg.preconditioning == "mg") != (precondition is not None):
        raise ValueError("a precondition operator goes with 'mg', and only with it")
    n = a.dimension
    b = as_vector(b, n, "b")
    x0 = np.zeros(n) if x0 is None else as_vector(x0, n, "x0")

    operator, rhs = csr_operator(a.csr), b
    if cfg.preconditioning == "jacobi":
        d = jacobi_preconditioner(a)
        if cfg.method == "cg":
            precondition = functools.partial(np.multiply, d)  # M = D^-1
        else:
            # CR: left application, iterate on the nonsymmetric M^-1 A
            operator, rhs = csr_operator(a.csr, d), d * b
    rep = _iterate(operator, n, rhs, x0, cfg, precondition)
    rep.true_relative_residual = _relative(
        float(np.linalg.norm(b - a.csr @ rep.solution)), float(np.linalg.norm(b))
    )
    return rep
