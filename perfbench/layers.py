"""Traced run: spans around the benchmark's calls into each package module.

The layers are the package modules. Each is measured from outside, by timing
this file's own calls into the module's public functions; nothing inside the
package is instrumented. Spans (name, start, end, parent, request id) are
kept in memory and written out as JSON when the run ends.

The layer suite is the same for every workload, so every traced run reports
the same metric set.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import statistics
import time
from pathlib import Path

import onemax_runtime as om
from onemax_runtime.asymptotics import constant_c0
from onemax_runtime.cli import main as cli_main

from workloads import RequestFailed, cli_requests, cold_request, run_child, sim_configs

LAYERS = ("import", "drift", "hitting", "bounds", "asymptotics", "simulate", "cli")
IMPORTTIME_REPEATS = 3


class Tracer:
    """In-memory spans of one single-threaded run."""

    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []
        self._requests = 0

    @contextlib.contextmanager
    def span(self, name: str, new_request: bool = False):
        """Time a block; a span starts a new request or joins its parent's."""
        parent = self._open[-1] if self._open else None
        if new_request:
            self._requests += 1
            request = self._requests
        else:
            request = self.spans[parent]["request"] if parent is not None else None
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": parent, "request": request}
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child[rec["parent"]] += rec["end"] - rec["start"]
        out = dict.fromkeys(LAYERS, 0.0)
        for rec, covered in zip(self.spans, child):
            layer = rec["name"].split(".", 1)[0]
            if layer in out:
                out[layer] += rec["end"] - rec["start"] - covered
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.spans, indent=1) + "\n")


_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import costs in seconds from ``python -X importtime`` output.

    ``scipy_s`` and ``numpy_s`` are the cumulative times of the outermost
    scipy and numpy imports (a numpy import nested under scipy counts in both).
    """
    nodes = []  # (depth, name, self_us, cumulative_us), children before parents
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            nodes.append((len(m.group(3)) // 2, m.group(4), int(m.group(1)), int(m.group(2))))
    # Walk in reverse so every node is seen after its ancestors.
    stack: list[str] = []
    outer = {"scipy": 0, "numpy": 0}
    total = own = 0
    for depth, name, self_us, cum_us in reversed(nodes):
        del stack[depth:]
        top = name.split(".", 1)[0]
        if top in outer and not any(a.split(".", 1)[0] == top for a in stack):
            outer[top] += cum_us
        if name == "onemax_runtime":
            total = cum_us
        if top == "onemax_runtime":
            own += self_us
        stack.append(name)
    return {
        "import.total_s": total / 1e6,
        "import.scipy_s": outer["scipy"] / 1e6,
        "import.numpy_s": outer["numpy"] / 1e6,
        "import.onemax_runtime_self_s": own / 1e6,
    }


def layer_suite(tracer: Tracer, seed: int) -> dict[str, tuple[float, str]]:
    """Time each layer's public functions at fixed sizes; return per-layer metrics."""
    m: dict[str, tuple[float, str]] = {}

    def timed(name: str, fn):
        with tracer.span(name, new_request=True) as rec:
            value = fn()
        return value, rec["end"] - rec["start"]

    # import / backends
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc, _ = timed("import.importtime",
                        lambda: run_child(["-X", "importtime", "-c", "import onemax_runtime"]))
        runs.append(parse_importtime(proc.stderr))
    for key in runs[0]:
        m[key] = (statistics.median(r[key] for r in runs), "s")

    # drift
    kernel, t = timed("drift.build_kernel", lambda: om.build_kernel(4096, max_state=2048))
    m["drift.build_kernel_s"] = (t, "s")
    m["drift.kernel_bytes"] = (8 * sum(len(r) for r in kernel.rows), "bytes")
    _, t = timed("drift.drift", lambda: [om.drift(4096, k) for k in range(2049)])
    m["drift.drift_column_s"] = (t, "s")
    _, t_table = timed("drift.build_drift_table", lambda: om.build_drift_table(1024))
    m["drift.build_drift_table_s"] = (t_table, "s")
    _, t = timed("drift.build_kernel", lambda: om.build_kernel(64, "rational"))
    m["drift.rational_kernel_s"] = (t, "s")

    # hitting
    table, _ = timed("drift.build_drift_table", lambda: om.build_drift_table(4096))
    _, t = timed("hitting.hitting_profile", lambda: om.hitting_profile(kernel, table))
    m["hitting.hitting_profile_s"] = (t, "s")
    del kernel, table
    for n in (2048, 4096):
        _, t = timed("hitting.runtime_profile", lambda n=n: om.runtime_profile(n, up_to=n // 2))
        m[f"hitting.runtime_profile_s.{n}"] = (t, "s")
    _, t = timed("hitting.runtime_profile", lambda: om.runtime_profile(64, "rational"))
    m["hitting.rational_profile_s"] = (t, "s")

    # bounds: self time excludes the kernel and table builds it makes itself
    _, t_kernel = timed("drift.build_kernel", lambda: om.build_kernel(1024))
    report, t = timed("bounds.verify_inequalities", lambda: om.verify_inequalities(1024, "float"))
    m["bounds.verify_inequalities_s"] = (t, "s")
    m["bounds.self_s"] = (t - t_kernel - t_table, "s")
    m["bounds.checks_passed"] = (sum(rec.passed is True for rec in report.checks), "count")
    _, t = timed("bounds.verify_inequalities", lambda: om.verify_inequalities(48, "rational"))
    m["bounds.verify_rational_s"] = (t, "s")

    # asymptotics
    constant_c0.cache_clear()
    _, t = timed("asymptotics.constant_c0", constant_c0)
    m["asymptotics.constant_c0_s"] = (t, "s")
    _, t = timed("asymptotics.figure1_rows", lambda: om.figure1_rows(32, 64))
    m["asymptotics.figure1_rows_s"] = (t, "s")
    _, t = timed("asymptotics.figure2_rows", lambda: om.figure2_rows(50, 120))
    m["asymptotics.figure2_rows_s"] = (t, "s")

    # simulate: the montecarlo workload's two calls
    for label, cfg in sim_configs(seed).items():
        (stats, samples), t = timed("simulate.run", lambda cfg=cfg: om.run(cfg))
        # Each chunk runs one vectorized step round per step of its slowest replicate.
        chunks = [samples[i:i + om.CHUNK_SIZE] for i in range(0, samples.size, om.CHUNK_SIZE)]
        rounds = sum(int(c.max()) for c in chunks)
        lanes = sum(int(c.max()) * c.size for c in chunks)
        steps = int(samples.sum())
        m[f"simulate.run_s.{label}"] = (t, "s")
        m[f"simulate.steps.{label}"] = (steps, "count")
        m[f"simulate.loop_iterations.{label}"] = (rounds, "count")
        m[f"simulate.lane_utilization.{label}"] = (steps / lanes if lanes else 1.0, "ratio")
        m[f"simulate.truncated.{label}"] = (stats.truncated, "count")

    # cli: every cli-mixed request in process, then cold
    inprocess: dict[str, float] = {}
    overhead = []
    for req in cli_requests(seed):
        def call(argv=list(req.argv)):
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                return cli_main(argv)

        _, t_in = timed("cli.main", call)
        inprocess[req.subcommand] = inprocess.get(req.subcommand, 0.0) + t_in
        _, t_cold = timed("cli.request", lambda argv=req.argv: _cold_or_none(argv))
        overhead.append(t_cold - t_in)
    for sub, t in inprocess.items():
        m[f"cli.main_inprocess_s.{sub}"] = (t, "s")
    m["cli.process_overhead_s"] = (statistics.median(overhead), "s")
    return m


def _cold_or_none(argv) -> str | None:
    """A cold request for timing only; its exit status is checked in the timed run."""
    try:
        return cold_request(argv)
    except RequestFailed:
        return None
