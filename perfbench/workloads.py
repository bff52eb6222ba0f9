"""The three benchmark workloads: their operations, reference checks and metrics.

A workload is a fixed list of operations. A pass runs them in order, one at a
time (a closed loop with one client), and the operations are checked against
reference values only after the pass, outside the timed section. A failed
operation is counted, never fatal: it raised, exited nonzero, or produced an
output outside its reference tolerance.

The library is imported from the checkout's ``src`` directory; cold CLI
requests run in fresh interpreters with the same source on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import onemax_runtime as om

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# `python -m onemax_runtime.cli` exits 0 with no output (cli.py has no
# __main__ guard and the package has no __main__.py), and the console script
# is not necessarily installed, so requests call main() explicitly.
CLI_CODE = "import sys; from onemax_runtime.cli import main; sys.exit(main(sys.argv[1:]))"
REQUEST_TIMEOUT_S = 120.0

FLOAT_REL_TOL = 1e-12
STORED_REL_TOL = 1e-11
SIM_SE_TOL = 4.0


def child_env() -> dict[str, str]:
    """Environment for child interpreters: checkout source first, no thread override."""
    env = dict(os.environ)
    env.pop("ONEMAX_RUNTIME_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_child(argv: list[str], timeout: float = REQUEST_TIMEOUT_S) -> subprocess.CompletedProcess:
    """Run one child interpreter to completion and return its captured output."""
    return subprocess.run(
        [sys.executable, *argv],
        env=child_env(),
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=timeout,
        check=False,
    )


@dataclass
class Op:
    """One operation of a pass: what ran, how long it took, and how it ended."""

    name: str
    seconds: float
    value: object = None  # the output, dropped once checked
    error: str | None = None
    wrong: str | None = None
    work: int = 0  # simulated steps, for rates

    @property
    def failed(self) -> bool:
        return self.error is not None or self.wrong is not None


@dataclass(frozen=True)
class Call:
    """One operation of a workload: its name, the traced span name and the call."""

    name: str
    span: str
    fn: Callable[[], object]


class RequestFailed(RuntimeError):
    """A cold CLI request exited nonzero."""


def run_pass(workload, span=None) -> tuple[float, list[Op]]:
    """Run every operation of one pass in order; return (wall seconds, ops).

    ``span`` is a tracer's span factory for a traced pass, None for a timed
    pass. Outputs are checked after the pass so that checking is not timed.
    """
    ops = []
    start = time.perf_counter()
    with span("pass." + workload.name) if span else contextlib.nullcontext():
        for call in workload.calls:
            with span(call.span, new_request=True) if span else contextlib.nullcontext():
                t0 = time.perf_counter()
                value, error = None, None
                try:
                    value = call.fn()
                except Exception as exc:  # a failed operation is data, not an abort
                    error = f"{type(exc).__name__}: {exc}"
                ops.append(Op(call.name, time.perf_counter() - t0, value, error))
    wall = time.perf_counter() - start
    for op in ops:
        if op.error is None:
            try:
                op.wrong = workload.check(op)
            except Exception as exc:  # a malformed output is a wrong output
                op.wrong = f"check raised {type(exc).__name__}: {exc}"
        op.value = None
    return wall, ops


def relative_error(got: float, ref: float) -> float:
    if got == ref:
        return 0.0
    return abs(got - ref) / max(abs(got), abs(ref))


def uniform_start_runtime(n: int) -> float:
    """E_unif(n) = sum_k Bin(n, 1/2)(k) g(k), from the exact float profile."""
    g = om.runtime_profile(n).g
    return math.fsum(math.comb(n, k) * g[k] for k in range(n + 1)) / 2.0**n


def fixed_start_runtime(n: int, k: int) -> float:
    return om.runtime_profile(n, up_to=k).g[k]


def check_sim(mean: float, std_error: float, exact: float) -> str | None:
    """The Monte Carlo rule: the mean lies within 4 standard errors of the exact value."""
    if abs(mean - exact) > SIM_SE_TOL * std_error:
        return f"mean {mean} is {abs(mean - exact) / std_error:.2f} standard errors from {exact}"
    return None


def median_over_passes(passes: list[list[Op]], fn: Callable[[dict[str, Op]], float]) -> float:
    return statistics.median(fn({op.name: op for op in ops}) for ops in passes)


class ChainLarge:
    """One large exact problem: two float profiles and the 19-check suite."""

    name = "chain-large"
    runs_in_children = False
    profiles = ((2048, 1024), (4096, 2048))
    bounds_n = 1024
    # g(n/2) and q(n/2) from the float path; an independent double-precision
    # recurrence on log-space kernel rows agrees with them to 5e-14 relative.
    stored_half = {
        2048: (38582.714927800764, 38591.325114059764),
        4096: (84871.85264361463, 84881.40257188526),
    }
    checks_expected = 19

    def __init__(self, seed: int):  # the inputs are fixed; the seed is unused
        self.closed = {
            n: [float(om.closed_form_g(n, k)) for k in (1, 2, 3)] for n, _ in self.profiles
        }
        self.calls = [
            Call(f"runtime_profile.{n}", "hitting.runtime_profile",
                 lambda n=n, k=k: om.runtime_profile(n, up_to=k))
            for n, k in self.profiles
        ] + [
            Call(f"verify_inequalities.{self.bounds_n}", "bounds.verify_inequalities",
                 lambda: om.verify_inequalities(self.bounds_n, "float")),
        ]

    def check(self, op: Op) -> str | None:
        if op.name.startswith("verify_inequalities"):
            passed = sum(rec.passed is True for rec in op.value.checks)
            if passed != self.checks_expected or len(op.value.checks) != self.checks_expected:
                return f"{passed} of {len(op.value.checks)} checks passed"
            return None
        prof = op.value
        n = prof.n
        half = dict(self.profiles)[n]
        for k, exact in zip((1, 2, 3), self.closed[n]):
            if relative_error(prof.g[k], exact) > FLOAT_REL_TOL:
                return f"g({k}) = {prof.g[k]!r} differs from the closed form {exact!r}"
        g_ref, q_ref = self.stored_half[n]
        g, q = prof.g[half], prof.q[half]
        if relative_error(g, g_ref) > STORED_REL_TOL or relative_error(q, q_ref) > STORED_REL_TOL:
            return f"g, q at n/2 = {g!r}, {q!r}; stored {g_ref!r}, {q_ref!r}"
        logn = math.log(n)
        if not q - om.CORRIDOR_C1 * logn <= g <= q - om.CORRIDOR_C2 * logn:
            return f"g(n/2) = {g!r} outside the corridor"
        return None

    def metrics(self, passes: list[list[Op]]) -> dict[str, tuple[float, str, str]]:
        states = sum(k + 1 for _, k in self.profiles)
        names = [f"runtime_profile.{n}" for n, _ in self.profiles]
        note = f"median of {len(passes)} passes"
        return {
            "g_half_s": (median_over_passes(passes, lambda o: o[names[1]].seconds), "s", note),
            "exact_states_per_s": (
                median_over_passes(passes, lambda o: states / sum(o[x].seconds for x in names)),
                "1/s",
                note,
            ),
            "bounds_s": (
                median_over_passes(passes, lambda o: o[f"verify_inequalities.{self.bounds_n}"].seconds),
                "s",
                note,
            ),
        }


def sim_configs(seed: int) -> dict[str, om.SimConfig]:
    """The montecarlo workload's two experiments, with the library's default engine first."""
    return {
        "default": om.SimConfig(n=200, start="uniform", replicates=16384, seed=seed),
        "bitstring": om.SimConfig(
            n=50, start=25, replicates=8192, seed=seed + 1, engine="bitstring"
        ),
    }


class MonteCarlo:
    """Simulation only: the default engine from a uniform start, then bitstring."""

    name = "montecarlo"
    runs_in_children = False

    def __init__(self, seed: int):
        self.configs = {f"run.{label}": cfg for label, cfg in sim_configs(seed).items()}
        self.exact = {
            "run.default": uniform_start_runtime(200),
            "run.bitstring": fixed_start_runtime(50, 25),
        }
        self.calls = [
            Call(name, "simulate.run", lambda cfg=cfg: om.run(cfg))
            for name, cfg in self.configs.items()
        ]

    def check(self, op: Op) -> str | None:
        stats, samples = op.value
        op.work = int(samples.sum())
        if stats.samples != self.configs[op.name].replicates:
            return f"{stats.samples} samples, expected {self.configs[op.name].replicates}"
        return check_sim(stats.mean, stats.std_error, self.exact[op.name])

    def metrics(self, passes: list[list[Op]]) -> dict[str, tuple[float, str, str]]:
        def rate(name: str) -> float:
            return median_over_passes(passes, lambda o: o[name].work / o[name].seconds)

        note = f"median of {len(passes)} passes"
        return {
            "sim_steps_per_s": (rate("run.default"), "1/s", note),
            "bitstring_steps_per_s": (rate("run.bitstring"), "1/s", note),
        }


@dataclass(frozen=True)
class Request:
    """One CLI request; a ``sim`` request names the (n, start) whose exact mean it estimates."""

    slug: str
    argv: tuple[str, ...]
    estimates: tuple[int, int | str] | None = None

    @property
    def subcommand(self) -> str:
        return self.argv[0]


def cli_requests(seed: int) -> list[Request]:
    s = str(seed)
    return [
        Request("runtime_512", ("runtime", "512")),
        Request("runtime_64_rational", ("runtime", "64", "--backend", "rational")),
        Request("runtime_64_start64_rational",
                ("runtime", "64", "--start", "64", "--backend", "rational")),
        Request("bounds_128", ("bounds", "128")),
        Request("bounds_48_rational", ("bounds", "48", "--backend", "rational")),
        Request("drift_64_rational", ("drift", "64", "--backend", "rational")),
        Request("asym_128_256", ("asym", "128", "256")),
        Request("figures_1_32_64", ("figures", "--which", "1", "--n-range", "32:64")),
        Request("figures_2_50_120", ("figures", "--which", "2", "--n-range", "50:120")),
        Request("sim_100_uniform", ("sim", "--n", "100", "--reps", "4096", "--seed", s),
                estimates=(100, "uniform")),
        Request("sim_40_fixed20_bitstring",
                ("sim", "--n", "40", "--start", "fixed:20", "--reps", "2048", "--seed", s,
                 "--engine", "bitstring"),
                estimates=(40, 20)),
    ]


def cold_request(argv: tuple[str, ...]) -> str:
    proc = run_child(["-c", CLI_CODE, *argv])
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        raise RequestFailed(f"exit {proc.returncode}: {last[0]}")
    return proc.stdout


def same_cell(got: str, ref: str) -> bool:
    """Rationals and integers exactly, floats to 1e-12 relative, text exactly."""
    if got == ref:
        return True
    if "/" in ref:
        try:
            return Fraction(got) == Fraction(ref)
        except (ValueError, ZeroDivisionError):
            return False
    try:
        return relative_error(float(got), float(ref)) <= FLOAT_REL_TOL
    except ValueError:
        return False


def same_json(got, ref) -> bool:
    if isinstance(ref, dict):
        return isinstance(got, dict) and got.keys() == ref.keys() and all(
            same_json(got[k], ref[k]) for k in ref
        )
    if isinstance(ref, list):
        return isinstance(got, list) and len(got) == len(ref) and all(
            same_json(a, b) for a, b in zip(got, ref)
        )
    if isinstance(ref, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        return relative_error(float(got), ref) <= FLOAT_REL_TOL
    return type(got) is type(ref) and got == ref


def compare_output(got: str, ref: str) -> str | None:
    """Describe the first difference between an output and its reference, or None."""
    if ref.lstrip().startswith(("{", "[")):
        return None if same_json(json.loads(got), json.loads(ref)) else "JSON differs"
    got_rows = list(csv.reader(got.splitlines()))
    ref_rows = list(csv.reader(ref.splitlines()))
    if len(got_rows) != len(ref_rows):
        return f"{len(got_rows)} rows, reference has {len(ref_rows)}"
    for i, (a, b) in enumerate(zip(got_rows, ref_rows)):
        if len(a) != len(b) or not all(same_cell(x, y) for x, y in zip(a, b)):
            return f"row {i} differs: {a[:4]} vs {b[:4]}"
    return None


class CliMixed:
    """Eleven cold CLI requests, each in a fresh interpreter, one at a time."""

    name = "cli-mixed"
    runs_in_children = True

    def __init__(self, seed: int):
        self.requests = {r.slug: r for r in cli_requests(seed)}
        self.references = {
            slug: (REFERENCE_DIR / f"{slug}.out").read_text()
            for slug, r in self.requests.items() if r.estimates is None
        }
        self.exact = {}
        for slug, r in self.requests.items():
            if r.estimates is not None:
                n, start = r.estimates
                self.exact[slug] = (
                    uniform_start_runtime(n) if start == "uniform" else fixed_start_runtime(n, start)
                )
        self.calls = [
            Call(slug, "cli.request", lambda argv=r.argv: cold_request(argv))
            for slug, r in self.requests.items()
        ]

    def check(self, op: Op) -> str | None:
        req = self.requests[op.name]
        if req.estimates is None:
            return compare_output(op.value, self.references[op.name])
        out = json.loads(op.value)
        argv = dict(zip(req.argv[1::2], req.argv[2::2]))
        expected = {
            "n": int(argv["--n"]),
            "start": argv.get("--start", "uniform"),
            "seed": int(argv["--seed"]),
            "samples": int(argv["--reps"]),
        }
        for key, value in expected.items():
            if out[key] != value:
                return f"{key} = {out[key]!r}, expected {value!r}"
        if "--engine" in argv and out["engine"] != argv["--engine"]:
            return f"engine = {out['engine']!r}, expected {argv['--engine']!r}"
        return check_sim(out["mean"], out["std_error"], self.exact[op.name])

    def metrics(self, passes: list[list[Op]]) -> dict[str, tuple[float, str, str]]:
        latencies = sorted(op.seconds for ops in passes for op in ops)
        n = len(latencies)  # at least the 11 requests of one pass
        # The highest percentile with at least ten samples beyond it is the
        # (n - 10)-th smallest latency.
        tail = n - 11
        return {
            "request_p50_s": (statistics.median(latencies), "s", f"median of {n} requests"),
            "request_tail_s": (latencies[tail], "s", f"p{100.0 * (tail + 1) / n:.1f} of {n} requests"),
        }


WORKLOADS = {w.name: w for w in (ChainLarge, MonteCarlo, CliMixed)}
