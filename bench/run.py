"""Benchmark entry point: run one topokry design workload and report it.

    python3 bench/run.py --workload truss-paper --seed 0 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 50 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
traced run.  ``--workload all`` runs every workload in its own process and
prints their metrics side by side.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import checkout

WORKLOAD_NAMES = ("truss-paper", "fine-pcg", "draft-pcg")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


UNITS = {"_s": "s", "_us": "us", "_share": "ratio", "_max": "ratio"}


def layer_unit(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def end_to_end(plain, setup, peak_rss_mb: float) -> dict:
    # each pass's mean over the workload's designs; 0 only when no design
    # finished, and then the run is not correct anyway
    compliance = [sum(p.compliance) / len(p.compliance) for p in plain if p.compliance]
    return {
        "wall_s": metric(min(p.wall_s for p in plain), "s"),
        "setup_s": metric(statistics.median(setup), "s"),
        "peak_rss_mb": metric(peak_rss_mb, "MB"),
        "compliance": metric(statistics.median(compliance or [0.0]), "N.mm"),
    }


def per_layer(plain, traced) -> dict:
    metrics = {
        name: metric(statistics.median(p.layers[name] for p in traced), layer_unit(name))
        for name in traced[0].layers
    }
    traced_wall = min(p.wall_s for p in traced)
    untraced_wall = min(p.wall_s for p in plain)
    metrics["trace.wall_s"] = metric(traced_wall, "s")
    metrics["trace.untraced_wall_s"] = metric(untraced_wall, "s")
    metrics["trace.overhead_s"] = metric(traced_wall - untraced_wall, "s")
    return metrics


def run_workload(args) -> dict:
    import harness
    import workloads

    designs = workloads.WORKLOADS[args.workload](args.seed)
    workdir = os.path.join(checkout.ROOT, ".bench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        print(json.dumps({"machine": harness.machine_facts(args.seed)}), flush=True)
        runner = harness.DesignRunner(designs, workdir)
        plain, traced, setup = harness.measure(runner, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    for failure in failures[:10]:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = not failures
    walls = [p.wall_s for p in plain]
    print(
        f"{args.workload}: {len(plain)} untraced passes of {len(designs)} design(s), "
        f"wall_s {' '.join(f'{w:.3f}' for w in walls)} (median {statistics.median(walls):.4f}); "
        f"failed_share {len(failures)}/{attempted} = {len(failures) / attempted:g}"
    )
    if args.trace:
        metrics = per_layer(plain, traced)
        # self times of the spans beneath each optimize span must add up to
        # it; a check, not a metric, since it reads 0 when it holds
        metrics.pop("trace.selftime_gap_s")
        gap = max(abs(p.layers["trace.selftime_gap_s"]) for p in traced)
        print(f"self-time gap under optimize: {gap:.3g} s")
        if gap > abs(metrics["trace.overhead_s"]["value"]) + 1e-6:
            print(f"FAILED self times miss the optimize spans by {gap:.3g} s", file=sys.stderr)
            correct = False
    else:
        metrics = end_to_end(plain, setup, harness.peak_rss_mb())
        print(f"setup_s samples: {' '.join(f'{t:.4f}' for t in setup)}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Run each workload in a fresh process and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", repr(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            sys.exit(f"bench: workload {name} exited with {done.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric_name, entry in result["metrics"].items():
            merged["metrics"][f"{name}.{metric_name}"] = entry
        merged["metrics"][f"{name}.failed_share"] = metric(
            result["failed"] / result["attempted"], "ratio"
        )
    print("\nworkload      metric                          value  unit")
    for key, entry in merged["metrics"].items():
        workload, metric_name = key.split(".", 1)
        print(f"{workload:<13} {metric_name:<28} {entry['value']:>10.6g}  {entry['unit']}")
    return merged


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("bench: --seconds must be positive")
    checkout.prepare()
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
