"""Self-test of the benchmark at smoke_2x2 size; finishes in seconds.

    python3 bench/selftest.py

Covers the generators (one seed, one config text), the design checks (an
injected grey density, an over-budget volume, a wrong compliance and a
non-zero exit code each count as a failure) and the traced run (spans
are recorded and every wrapper is removed afterwards).  Exits non-zero
on the first check that does not hold.
"""
from __future__ import annotations

import math
import os
import shutil
import sys
import tempfile
from dataclasses import replace

import checkout

checkout.prepare()

import harness  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, layer_metrics, targets  # noqa: E402

topokry = harness.topokry


def expect(condition: bool, message: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {message}")


def test_generators() -> None:
    for name, generate in list(workloads.WORKLOADS.items()) + [("smoke", workloads.smoke)]:
        for seed in (0, 1, 12345):
            first, again = generate(seed), generate(seed)
            expect(first == again, f"{name} seed {seed} gives different designs")
            for design in first:
                topokry.problem.loads_problem_text(design.config)
    down = workloads.fine_pcg(0)[0].config
    up = workloads.fine_pcg(1)[0].config
    expect(down.replace("fy = -105.0", "fy = 105.0") == up, "odd seed must only flip the load")
    expect(workloads.truss_paper(0) == workloads.truss_paper(3), "truss-paper ignores the seed")


def test_checks(workdir: str) -> None:
    runner = harness.DesignRunner(workloads.smoke(0), workdir)
    rep = runner.run()
    expect(rep.attempted == 1 and not rep.failures, f"clean smoke design failed: {rep.failures}")

    # an injected grey density, end to end through the CLI
    optimizer = topokry.optimizer
    original = optimizer.threshold

    def leaky_threshold(rho, cutoff):
        out = original(rho, cutoff)
        out.values[0] = 0.5 * cutoff
        return out

    optimizer.threshold = leaky_threshold
    try:
        rep = runner.run()
    finally:
        optimizer.threshold = original
    expect(len(rep.failures) == 1 and "strictly between" in rep.failures[0],
           f"grey density not caught: {rep.failures}")

    # the same history run through each failing case of check_design
    design = runner.designs[0]
    spec = topokry.problem.loads_problem_text(design.config)
    out_dir = runner.jobs[0][2]

    def fresh():
        return topokry.optimize(spec)

    expect(not workloads.check_design(design, spec, fresh(), 0, out_dir), "clean check failed")
    expect(workloads.check_design(design, spec, fresh(), 2, out_dir), "exit code 2 not caught")
    history = fresh()
    history.volume[-1] = 1.01 * spec.optimizer.volume_fraction * spec.nx * spec.ny
    expect(workloads.check_design(design, spec, history, 0, out_dir), "volume over budget not caught")
    history = fresh()
    history.compliance[-1] = math.nan
    expect(workloads.check_design(design, spec, history, 0, out_dir), "NaN compliance not caught")
    history = fresh()
    wrong = replace(design, reference=history.compliance[-1] * (1.0 + 10 * design.rtol))
    expect(workloads.check_design(wrong, spec, history, 0, out_dir), "wrong compliance not caught")
    right = replace(design, reference=history.compliance[-1])
    expect(not workloads.check_design(right, spec, history, 0, out_dir), "right compliance rejected")


def test_tracing(workdir: str) -> None:
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets(topokry)]
    runner = harness.DesignRunner(workloads.smoke(0), workdir)
    tracer = Tracer(topokry)
    with tracer:
        rep = runner.run()
    expect(not rep.failures, f"traced smoke design failed: {rep.failures}")
    for owner, attr, original in originals:
        expect(vars(owner)[attr] is original, f"{attr} not restored after tracing")
    layers = layer_metrics(tracer.spans)
    expect(layers["optimizer.outer_iters"] == layers["krylov.solves"] > 0,
           "one solve per outer iteration expected")
    expect(abs(layers["trace.selftime_gap_s"]) < 1e-9, "self times do not add up to optimize")
    expect(layers["krylov.true_rel_residual_max"] < 1e-6, "smoke solves must converge")

    try:
        with tracer:
            raise KeyError("boom")
    except KeyError:
        pass
    for owner, attr, original in originals:
        expect(vars(owner)[attr] is original, f"{attr} not restored after an exception")


def main() -> int:
    scratch = os.path.join(checkout.ROOT, ".bench_run")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=scratch)
    try:
        test_generators()
        test_checks(workdir)
        test_tracing(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
