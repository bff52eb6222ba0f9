"""Benchmark of the onemax_runtime package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload chain-large --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): ``chain-large`` (large exact profiles and the
inequality suite, in process), ``montecarlo`` (two simulation calls, in
process) and ``cli-mixed`` (eleven cold CLI requests, each in a fresh
interpreter). The run starts full passes of the workload until ``--seconds``
have passed and reports medians over the passes.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs untraced and traced passes of the workload in turn and then the layer
suite, prints the per-layer metrics and the tracing overhead, and writes the
spans to ``perfbench/traces/``. Every line before the last is for people; the last
line is one JSON object: {"correct", "attempted", "failed", "metrics"}.

``correct`` is false when an operation returned an output outside its
reference tolerance; ``failed`` also counts operations that raised or exited
nonzero. The load comes from this one process, one operation at a time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "onemax_runtime"
TRACE_DIR = Path(__file__).resolve().parent / "traces"
SETUP_REPEATS = 5
OVERHEAD_PAIRS = 2


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("chain-large", "montecarlo", "cli-mixed"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def provenance(seed: int) -> dict:
    """Where a result came from: machine, interpreter, libraries, source and seed."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}, check=False,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"

    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "source_sha256": digest.hexdigest()[:16],
        "seed": seed,
    }


def measure_setup(run_child) -> list[float]:
    """Wall times of fresh `import onemax_runtime` interpreters, after one warm-up."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        proc = run_child(["-c", "import onemax_runtime"])
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"import onemax_runtime failed: {proc.stderr.strip()}")
        if i:
            times.append(elapsed)
    return times


def timed_passes(workload, run_pass, seconds: float) -> tuple[list[float], list[list]]:
    """Full passes, started until `seconds` have passed; at least one."""
    walls, passes = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        wall, ops = run_pass(workload)
        walls.append(wall)
        passes.append(ops)
    return walls, passes


def summarize_ops(passes: list[list]) -> tuple[int, int, bool]:
    ops = [op for p in passes for op in p]
    for op in ops:
        if op.failed:
            print(f"failed {op.name}: {op.error or op.wrong}")
    return len(ops), sum(op.failed for op in ops), not any(op.wrong for op in ops)


def print_metric(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"metric {name} = {value!r} {unit}" + (f"  ({note})" if note else ""))


def print_result(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """The last line of output: the result object with the JSON metrics."""
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": entry[0], "unit": entry[1]} for name, entry in metrics.items()},
    }))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package source at {PACKAGE}", file=sys.stderr)
        return 2
    os.environ.pop("ONEMAX_RUNTIME_THREADS", None)
    sys.path.insert(0, str(SRC))
    import onemax_runtime

    if Path(onemax_runtime.__file__).resolve().parent != PACKAGE.resolve():
        print(f"perfbench: imported {onemax_runtime.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    import workloads

    print("provenance " + json.dumps(provenance(args.seed)))
    workload = workloads.WORKLOADS[args.workload](args.seed)
    print(f"workload {workload.name}: {len(workload.calls)} operations per pass")

    if args.trace:
        return traced_run(workload, workloads, args)

    setup = measure_setup(workloads.run_child)
    walls, passes = timed_passes(workload, workloads.run_pass, args.seconds)
    usage = resource.RUSAGE_CHILDREN if workload.runs_in_children else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(usage).ru_maxrss / 1024.0
    attempted, failed, correct = summarize_ops(passes)

    print("setup samples " + " ".join(f"{t:.4f}" for t in setup))
    print("pass walls " + " ".join(f"{t:.4f}" for t in walls))
    metrics = {
        "setup_s": (statistics.median(setup), "s", f"median of {len(setup)} fresh imports"),
        "wall_s": (statistics.median(walls), "s", f"median of {len(walls)} passes"),
        "peak_rss_mb": (peak_rss_mb, "MB",
                        "largest child" if workload.runs_in_children else "this process"),
    }
    shown = {
        **metrics,
        "error_rate": (failed / attempted, "ratio", f"{failed} of {attempted} operations"),
        **workload.metrics(passes),
    }
    for name, entry in shown.items():
        print_metric(name, *entry)
    print_result(correct, attempted, failed, metrics)
    return 0


def traced_run(workload, workloads, args) -> int:
    """Untraced and traced passes in turn, then the layer suite, all traced."""
    import layers

    tracer = layers.Tracer()
    untraced, traced, passes = [], [], []
    for _ in range(OVERHEAD_PAIRS):
        wall, ops = workloads.run_pass(workload)
        untraced.append(wall)
        passes.append(ops)
        wall, ops = workloads.run_pass(workload, tracer.span)
        traced.append(wall)
        passes.append(ops)
    with tracer.span("suite"):
        metrics = layers.layer_suite(tracer, args.seed)
    for layer, seconds in tracer.self_times().items():
        metrics[f"trace.self_s.{layer}"] = (seconds, "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    path = TRACE_DIR / f"{workload.name}-seed{args.seed}.json"
    tracer.write(path)

    attempted, failed, correct = summarize_ops(passes)
    print("untraced pass walls " + " ".join(f"{t:.4f}" for t in untraced))
    print("traced pass walls " + " ".join(f"{t:.4f}" for t in traced))
    print(f"{len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    for name, entry in metrics.items():
        print_metric(name, *entry)
    print_result(correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
