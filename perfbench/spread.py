"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads chain-large montecarlo cli-mixed \
        --seeds 1 2 3 4 5 6 7 8 9 10 --seconds 20 [--trace 1]

For every workload and metric it prints the median of the per-seed values and
the distance between their first and third quartiles (as
``statistics.quantiles(values, n=4)`` gives them) as a share of the median,
next to the metric's bound from BENCHMARK.json. It also checks that every
seed produced the same metric set and a correct result, and exits 1 if not.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", required=True)
    p.add_argument("--seeds", nargs="+", type=int, required=True)
    p.add_argument("--seconds", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    ok = True
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            res = one_run(workload, seed, seconds, args.trace)
            results.append(res)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
                              if k in ("setup_s", "wall_s", "peak_rss_mb"))
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} {values}", flush=True)
        names = [sorted(r["metrics"]) for r in results]
        if any(n != names[0] for n in names):
            print(f"{workload}: metric sets differ between seeds")
            ok = False
        if not all(r["correct"] for r in results):
            print(f"{workload}: a run reported an incorrect output")
            ok = False
        for name in names[0]:
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f"{(q3 - q1) / med:.4f}" if med else "n/a"
            else:
                spread = "n/a"
            bound = bounds.get(name)
            print(f"{workload} {name}: median {med:.6g} spread {spread}"
                  + (f" bound {bound} (keep below {bound / 3:.4f})" if bound else ""))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
