"""Run a workload's designs through ``topokry.cli`` and measure them.

Import this only after :func:`checkout.prepare` has run.  The load is a
closed loop: this one process runs one design at a time, on one thread,
and starts the next design when the previous one has written its output.
"""
from __future__ import annotations

import glob
import hashlib
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy

import checkout
from tracing import Tracer, layer_metrics
from workloads import Design, check_design, smoke

topokry = checkout.import_topokry()
import topokry.cli as cli  # noqa: E402

# fewest set-up samples in an untraced run
SETUP_SAMPLES = 15


@dataclass
class Rep:
    """One pass over a workload's designs."""

    wall_s: float
    compliance: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    layers: dict[str, float] | None = None


class DesignRunner:
    """Writes each design's config once, then runs the designs on demand."""

    def __init__(self, designs: list[Design], workdir: str):
        self.designs = designs
        self.jobs = []
        for i, design in enumerate(designs):
            config_path = os.path.join(workdir, f"design-{i}.cfg")
            with open(config_path, "w", encoding="utf-8") as handle:
                handle.write(design.config)
            self.jobs.append((design, config_path, os.path.join(workdir, f"out-{i}")))

    def run(self) -> Rep:
        """Run every design once.  Wall time runs from the first optimize
        call to the return of the last CLI call, after its output is written."""
        original = cli.optimize
        calls = []  # [start time, spec, history] per optimize call

        def capture(spec):
            entry = [time.perf_counter(), spec, None]
            calls.append(entry)
            entry[2] = original(spec)
            return entry[2]

        rep = Rep(wall_s=0.0)
        cli.optimize = capture
        try:
            begin = time.perf_counter()
            for design, config_path, out_dir in self.jobs:
                before = len(calls)
                rep.attempted += 1
                try:
                    code = cli.main(design.cli_args(config_path, out_dir))
                except Exception:  # a raising design is a failed design
                    rep.failures.append(f"{design.label}: {traceback.format_exc(limit=-1)}")
                    continue
                spec, history = calls[-1][1:] if len(calls) > before else (None, None)
                problems = check_design(design, spec, history, code, out_dir)
                if problems:
                    rep.failures.append(f"{design.label}: {'; '.join(problems)}")
                if history is not None and history.outer_iterations:
                    rep.compliance.append(history.compliance[-1])
            end = time.perf_counter()
        finally:
            cli.optimize = original
        rep.wall_s = end - (calls[0][0] if calls else begin)
        return rep


def measure(runner: DesignRunner, seconds: float, trace: bool):
    """Repeat the designs for ``seconds``.

    Untraced, this also times set-up in fresh processes: one sample after
    every pass, so that a slow spell of the CPU moves few of them, and then
    more until there are SETUP_SAMPLES.  Traced, it alternates an untraced
    and a traced pass.  Returns (untraced passes, traced passes, set-up
    samples).
    """
    config_path = runner.jobs[0][1]
    if not trace:
        setup_seconds(config_path)  # unrecorded: compiles the bytecode once
    warm_up()
    plain, traced, setup = [], [], []
    tracer = Tracer(topokry) if trace else None
    deadline = time.perf_counter() + seconds
    while not plain or time.perf_counter() < deadline:
        plain.append(runner.run())
        if tracer is None:
            setup.append(setup_seconds(config_path))
        else:
            first = len(tracer.spans)
            with tracer:
                rep = runner.run()
            rep.layers = layer_metrics(tracer.spans[first:], first)
            traced.append(rep)
    while tracer is None and len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds(config_path))
    return plain, traced, setup


def warm_up() -> None:
    """Load scipy's lazily imported parts before any pass is timed."""
    topokry.optimize(topokry.problem.loads_problem_text(smoke(0)[0].config))


def setup_seconds(config_path: str) -> float:
    """Cold set-up time of one fresh process (see setup_probe.py)."""
    command = [sys.executable, os.path.join(checkout.BENCH_DIR, "setup_probe.py"), config_path]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def machine_facts(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _openblas_version() -> str | None:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return None


def _commit() -> str | None:
    """The git commit of the checkout, when it is a git repository."""
    if not os.path.isdir(os.path.join(checkout.ROOT, ".git")):
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=checkout.ROOT,
            capture_output=True, text=True, timeout=30,
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over the package sources, which names the code measured
    when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(checkout.SRC, "topokry", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()
