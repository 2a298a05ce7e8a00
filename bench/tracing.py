"""Span tracing of topokry's layers, installed from outside the package.

A :class:`Tracer` replaces the functions and methods in :func:`targets`
with wrappers that record one span per call (name, start, end, parent)
and puts the originals back when its ``with`` block ends.  Spans stay in
memory until the run ends; :func:`layer_metrics` turns the spans of one
repetition into per-layer totals.  Work the tracer itself does after a
call (the true residual of a solve) is recorded as a ``trace.bookkeeping``
span, so it counts as tracing overhead and not as any layer's time.
"""
from __future__ import annotations

import functools
import math
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

BOOKKEEPING = "trace.bookkeeping"
EXPORTERS = ("export_density_pgm", "export_history_csv", "_write_summary")


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = math.nan
    attrs: dict = field(default_factory=dict)


def _solve_facts(args, report) -> dict:
    """Outcome of one solve, checked against the unpreconditioned system."""
    a, b = args[0], np.asarray(args[1], dtype=float)
    residual = float(np.linalg.norm(b - a.csr @ report.solution))
    b_norm = float(np.linalg.norm(b))
    return {
        "iterations": report.iterations,
        "status": report.status,
        "true_rel_residual": residual / b_norm if b_norm > 0.0 else residual,
        "void_rows": int(a.zero_rows().size),
    }


def targets(topokry) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, after-call hook) for every traced call.

    The optimizer's collaborators are wrapped where ``topokry.optimizer``
    looks them up at call time; ``optimize`` and the exporters where
    ``topokry.cli`` does.
    """
    import topokry.cli as cli
    import topokry.krylov as krylov
    import topokry.optimizer as optimizer
    from topokry.linalg import SparseSymMatrix
    from topokry.problem import ProblemSpec

    found = [
        (cli, "optimize", "optimize", None),
        (cli, "load_problem", "load_problem", None),
        (ProblemSpec, "build_mesh", "build_mesh", None),
        (ProblemSpec, "build_boundary_conditions", "build_boundary_conditions", None),
        (optimizer, "solve", "solve", _solve_facts),
        (krylov, "jacobi_preconditioner", "jacobi_preconditioner", None),
        (SparseSymMatrix, "from_triplets", "from_triplets", None),
        (SparseSymMatrix, "__init__", "sym_init", None),
        (SparseSymMatrix, "submatrix", "submatrix", None),
        (SparseSymMatrix, "scaled", "scaled", None),
    ]
    for name in (
        "assemble", "apply_dirichlet", "sensitivity", "oc_update",
        "conlin_update", "threshold", "compliance", "scatter_solution",
    ):
        found.append((optimizer, name, name, None))
    for name in EXPORTERS:
        found.append((cli, name, name.lstrip("_"), None))
    return found


class Tracer:
    """Records spans of the traced calls while inside a ``with`` block."""

    def __init__(self, topokry):
        self.spans: list[Span] = []
        self._targets = targets(topokry)
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name, after in self._targets:
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__, after))
                else:
                    wrapped = self._wrap(name, original, after)
                setattr(owner, attr, wrapped)
                self._originals.append((owner, attr, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        self._stack.clear()

    def _open(self, name: str) -> Span:
        span = Span(name, self._stack[-1] if self._stack else -1, time.perf_counter())
        self.spans.append(span)
        return span

    def _wrap(self, name: str, fn, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            self._stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if after is not None:
                book = self._open(BOOKKEEPING)
                span.attrs = after(args, result)
                book.end = time.perf_counter()
            return result

        return traced


def self_times(spans: list[Span], offset: int = 0) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    ``spans`` is a slice of a tracer's spans starting at index ``offset``;
    parents outside the slice are ignored.
    """
    covered: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent >= offset:
            covered[span.parent - offset].append((span.start, span.end))
    result = []
    for i, span in enumerate(spans):
        union, reach = 0.0, span.start
        for start, end in sorted(covered.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                union += end - start
                reach = end
        result.append(span.end - span.start - union)
    return result


def layer_metrics(spans: list[Span], offset: int = 0) -> dict[str, float]:
    """Per-layer totals of one repetition's spans (see bench/README.md)."""
    total: dict[str, float] = defaultdict(float)
    count: dict[str, int] = defaultdict(int)
    for span in spans:
        total[span.name] += span.end - span.start
        count[span.name] += 1
    own = self_times(spans, offset)

    # the optimize spans and everything beneath them
    in_optimize = [False] * len(spans)
    for i, span in enumerate(spans):
        parent = span.parent - offset
        in_optimize[i] = span.name == "optimize" or (
            0 <= parent < i and in_optimize[parent]
        )
    optimize_s = total["optimize"]
    gap = optimize_s - sum(t for t, inside in zip(own, in_optimize) if inside)

    # solves that returned; one that raised has no facts and fails its design
    finished = [s for s in spans if s.name == "solve" and s.attrs]
    solves = [s.attrs for s in finished]
    # void rows at the last solve of each design (keyed by its optimize
    # span), the smallest over the designs
    last_void = {s.parent: s.attrs["void_rows"] for s in finished}
    inner = sum(s["iterations"] for s in solves)
    capped = sum(s["status"] == "max_iterations" for s in solves)
    solve_s = total["solve"]
    return {
        "problem.load_s": total["load_problem"],
        "problem.build_s": total["build_mesh"] + total["build_boundary_conditions"],
        "fem.assemble_s": total["assemble"],
        "fem.dirichlet_s": total["apply_dirichlet"],
        "fem.void_rows": min(last_void.values(), default=0),
        "linalg.from_triplets_s": total["from_triplets"],
        "linalg.sym_init_s": total["sym_init"],
        "linalg.submatrix_s": total["submatrix"],
        "linalg.scaled_s": total["scaled"],
        "krylov.solve_s": solve_s,
        "krylov.solves": len(solves),
        "krylov.inner_iters": inner,
        "krylov.iter_us": 1e6 * solve_s / inner if inner else 0.0,
        "krylov.precond_s": total["jacobi_preconditioner"] + total["scaled"],
        "krylov.capped": capped,
        "krylov.capped_share": capped / len(solves) if solves else 0.0,
        "krylov.stagnated": sum(
            s["status"] == "stagnated_least_squares" for s in solves
        ),
        "krylov.true_rel_residual_max": max(
            (s["true_rel_residual"] for s in solves), default=0.0
        ),
        "optimizer.outer_iters": count["oc_update"] + count["conlin_update"],
        "optimizer.sensitivity_s": total["sensitivity"],
        "optimizer.update_s": total["oc_update"] + total["conlin_update"],
        "optimizer.glue_s": total["threshold"]
        + total["compliance"]
        + total["scatter_solution"],
        "optimizer.self_s": sum(
            t for t, s in zip(own, spans) if s.name == "optimize"
        ),
        "cli.export_s": sum(total[name.lstrip("_")] for name in EXPORTERS),
        "trace.bookkeeping_s": total[BOOKKEEPING],
        "trace.selftime_gap_s": gap,
    }
