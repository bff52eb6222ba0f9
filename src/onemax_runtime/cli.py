"""Command-line interface.

Six subcommands cover the library end to end:

* ``drift``    exact drift table of one problem size,
* ``runtime``  exact expected runtime from one start, with the corridor,
* ``bounds``   the full inequality verification report,
* ``asym``     expansion values and closed-form runtime estimates,
* ``figures``  the two standard diagnostic grids as flat tables,
* ``sim``      Monte Carlo runs on the zero count: one accepted jump
               (default) or one step that flips a zero bit at a time.

Tables go to stdout (or ``--out``) as CSV or JSON; diagnostics go to stderr.
Exit status: 0 on success, 2 on usage or domain errors (including the rational
cap and the memory limit), 1 on numeric failures and any other internal fault.
Output for a fixed command line is byte-identical across runs. Rational values render as "p/q" in CSV and as
{"num": p, "den": q} objects in JSON; floats render with ``--precision``
significant digits (default 15; negative values are usage errors).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
from dataclasses import astuple, fields
from fractions import Fraction

from .asymptotics import (
    _check_eps,
    _expansion_grid,
    figure1_rows,
    figure2_rows,
    runtime_estimate,
)
from .backends import BACKENDS, FLOAT, DomainError, NumericError, check_memory, check_n
from .bounds import CheckRecord, verify_inequalities
from .drift import build_drift_table
from .hitting import CORRIDOR_C1, CORRIDOR_C2, runtime_profile
from .simulate import ENGINE_JUMP, ENGINES, UNIFORM_START, SimConfig, run

__all__ = ["main"]


@contextlib.contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's limit on int-to-str digits while output renders.

    Exact values near the rational cap have numerators and denominators with
    more than the default 4300 digits. The limit guards the parsing of
    untrusted text, which rendering is not, so it is restored afterwards.
    """
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:  # interpreters before the limit existed
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


# Most cells are floats, so both formatters test for a float first: an
# isinstance test against Fraction goes through abc.__instancecheck__.
def _fmt_cell(value, precision: int) -> str:
    if isinstance(value, float):
        return format(value, f".{precision}g")
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _json_value(value, precision: int):
    if isinstance(value, float):
        return float(format(value, f".{precision}g"))
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    return value


# Characters of CSV text rendered before they are written out, a pipe's
# default capacity: a table of any length holds about this much text at
# once, while a reader of the output still gets few, large writes (one write
# per line grew the heap of a process reading the output through a pipe).
_CSV_CHUNK = 65536


def _csv_chunks(columns, rows, precision: int):
    """The CSV text of the header ``columns`` and the rows, in chunks of
    whole lines, each written out once it reaches ``_CSV_CHUNK``
    characters."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt_cell(v, precision) for v in row])
        if buf.tell() >= _CSV_CHUNK:
            yield buf.getvalue()
            buf.seek(0)
            buf.truncate()
    yield buf.getvalue()


def _json_chunks(columns, rows, precision: int):
    """The text of ``json.dumps`` of the rows as objects, with indent 2 and
    a final newline, one row at a time: no row is held as an object or as
    text after it is written."""
    sep = "["
    for row in rows:
        obj = {c: _json_value(v, precision) for c, v in zip(columns, row)}
        yield sep + "\n  " + json.dumps(obj, indent=2).replace("\n", "\n  ")
        sep = ","
    yield "[]\n" if sep == "[" else "\n]\n"


@_unlimited_int_digits()
def _emit_table(columns, rows, args) -> None:
    if args.format == "json":
        chunks = _json_chunks(columns, rows, args.precision)
    else:
        chunks = _csv_chunks(columns, rows, args.precision)
    _write_out(chunks, args.out)


@_unlimited_int_digits()
def _emit_object(obj, args) -> None:
    _write_out((json.dumps(obj, indent=2) + "\n",), args.out)


# Peak bytes a table cell takes from the first row built to the rendered
# text. Both formats write the rows out as they are rendered, so only the
# rows are held: tracemalloc measured 30.2-33.8 bytes a cell in csv and
# 29.9-33.9 in json over whole ``asym 20000``, ``asym 80000`` and
# ``figures --which 1`` requests (``--n-range 200:260`` and ``400:460``).
_CELL_BYTES = 40


def _check_table(nrows: int, columns, args) -> None:
    """Refuse a table of ``nrows`` rows that would exceed ``MEMORY_LIMIT``
    as rows, before any row is made."""
    nbytes = nrows * len(columns) * _CELL_BYTES
    check_memory(nbytes, f"a table of {nrows} rows")


def _write_out(chunks, out: str | None) -> None:
    """Write the strings of ``chunks`` in turn to stdout, or to the file
    ``out``."""
    if out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(out, "w") as fh:
            fh.writelines(chunks)


def _cmd_drift(args) -> None:
    table = build_drift_table(args.n, args.backend)
    n = args.n
    # A generator: each row is made as it is written out, none is held.
    rows = (
        (k, table.delta[k], table.delta_star[k], k / (math.e * n), k / n) for k in range(n + 1)
    )
    _emit_table(("k", "delta", "delta_star", "lower_bound", "upper_bound"), rows, args)


def _cmd_runtime(args) -> None:
    n = args.n
    start = args.start if args.start is not None else n // 2
    prof = runtime_profile(n, args.backend, up_to=start)
    g = prof.g[start]
    q = prof.q[start]
    logn = math.log(n)
    lo = float(q) - CORRIDOR_C1 * logn
    hi = float(q) - CORRIDOR_C2 * logn
    in_corridor = lo <= float(g) <= hi
    rows = [(n, start, g, q, lo, hi, in_corridor)]
    _emit_table(
        (
            "n",
            "k",
            "g_exact",
            "q_sum",
            "q_minus_c1_logn",
            "q_minus_c2_logn",
            "in_corridor",
        ),
        rows,
        args,
    )


def _cmd_bounds(args) -> None:
    report = verify_inequalities(args.n, args.backend)
    if args.format == "csv":
        columns = ["pass" if f.name == "passed" else f.name for f in fields(CheckRecord)]
        _emit_table(columns, [astuple(rec) for rec in report.checks], args)
        return
    obj = {
        "n": report.n,
        "backend": report.backend,
        "eta_star_max": _json_value(float(report.eta_star_max), args.precision),
        "eta_star_min": _json_value(float(report.eta_star_min), args.precision),
        "checks": [
            {
                "check_id": rec.check_id,
                "range": [rec.k_lo, rec.k_hi],
                "direction": rec.direction,
                "bound": _json_value(rec.bound, args.precision),
                "observed": _json_value(rec.observed, args.precision),
                "pass": rec.passed,
                "applicable": rec.applicable,
            }
            for rec in report.checks
        ],
    }
    _emit_object(obj, args)


def _cmd_asym(args) -> None:
    try:
        eps = Fraction(args.eps)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"eps must be a rational number, got {args.eps!r}") from None
    _check_eps(eps)
    columns = ("n", "k", "alpha", "delta_star_exact", "approx", "abs_err", "q_asym", "et_asym")
    k_his = []
    for n in args.n:
        k_hi = math.floor((1 - eps) * check_n(n))
        if k_hi < 1:
            raise DomainError(f"eps = {eps} leaves no valid state for n = {n}")
        k_his.append(k_hi)
    _check_table(sum(k_his), columns, args)
    rows = []
    for n, k_hi in zip(args.n, k_his):
        est = runtime_estimate(n)
        for k, exact, ev in _expansion_grid(n, k_hi):
            approx = ev.approx[args.order]
            rows.append(
                (
                    n,
                    k,
                    ev.alpha,
                    exact,
                    approx,
                    abs(exact - approx),
                    est.q_asym,
                    est.et_asym,
                )
            )
    _emit_table(columns, rows, args)


def _parse_range(spec: str) -> tuple[int, int]:
    parts = spec.split(":")
    if len(parts) != 2:
        raise DomainError(f"size range must look like LO:HI, got {spec!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise DomainError(f"size range must look like LO:HI, got {spec!r}") from None
    if lo < 2 or hi < lo:
        raise DomainError(f"size range {spec!r} must satisfy 2 <= LO <= HI")
    return lo, hi


def _cmd_figures(args) -> None:
    lo, hi = _parse_range(args.n_range)
    if args.which == 1:
        columns = (
            "n",
            "k",
            "alpha",
            "delta_star_exact",
            "approx0",
            "approx1",
            "approx2",
            "err0",
            "err1",
            "err2",
            "inv_err0",
            "inv_err1",
            "inv_err2",
        )
        _check_table((lo + hi) * (hi - lo + 1) // 2, columns, args)
        rows = figure1_rows(lo, hi)
    else:
        rows = figure2_rows(lo, hi)
        columns = ("n", "q_exact", "g_exact", "diff", "diff_minus_half_e_log")
    _emit_table(columns, rows, args)


def _parse_start(spec: str):
    if spec == UNIFORM_START:
        return UNIFORM_START
    if spec.startswith("fixed:"):
        try:
            return int(spec.split(":", 1)[1])
        except ValueError:
            pass
    raise DomainError(f"start must be 'uniform' or 'fixed:K', got {spec!r}")


def _cmd_sim(args) -> None:
    config = SimConfig(
        n=args.n,
        start=_parse_start(args.start),
        replicates=args.reps,
        seed=args.seed,
        engine=args.engine,
        max_iters=args.max_iters,
    )
    stats, samples = run(config)
    if args.samples_out is not None:
        rows = enumerate(samples.tolist())
        _write_out(_csv_chunks(("replicate", "iterations"), rows, args.precision), args.samples_out)
    obj = {
        "n": config.n,
        "start": args.start,
        "engine": config.engine,
        "samples": stats.samples,
        "mean": _json_value(stats.mean, args.precision),
        "std_error": _json_value(stats.std_error, args.precision),
        "min": stats.min,
        "max": stats.max,
        "truncated": stats.truncated,
        "seed": config.seed,
    }
    _emit_object(obj, args)


def _precision(text: str) -> int:
    """A ``--precision`` value: a nonnegative integer."""
    try:
        digits = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if digits < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {digits}")
    return digits


def _add_output_options(sp, default_format: str, formats=("csv", "json")) -> None:
    sp.add_argument("--out", metavar="PATH", default=None, help="write to PATH instead of stdout")
    sp.add_argument(
        "--format", choices=formats, default=default_format,
        help=f"output format (default {default_format})",
    )
    sp.add_argument(
        "--precision", type=_precision, default=15, metavar="N",
        help="significant digits for float rendering (default 15)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="onemax-runtime",
        description="Expected optimization time of the (1+1) EA on OneMax: "
        "exact values, proved bounds, asymptotics and simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("drift", help="drift table for one problem size")
    p.add_argument("n", type=int)
    p.add_argument("--backend", choices=BACKENDS, default=FLOAT)
    _add_output_options(p, "csv")
    p.set_defaults(handler=_cmd_drift)

    p = sub.add_parser("runtime", help="exact expected runtime from one start")
    p.add_argument("n", type=int)
    p.add_argument(
        "--start", type=int, default=None, metavar="K",
        help="start state in zero bits (default: floor(n/2))",
    )
    p.add_argument("--backend", choices=BACKENDS, default=FLOAT)
    _add_output_options(p, "csv")
    p.set_defaults(handler=_cmd_runtime)

    p = sub.add_parser("bounds", help="verify the inequality suite at one n")
    p.add_argument("n", type=int)
    p.add_argument("--backend", choices=BACKENDS, default=FLOAT)
    _add_output_options(p, "json")
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("asym", help="expansion values and runtime estimates")
    p.add_argument("n", type=int, nargs="+")
    p.add_argument("--order", type=int, choices=(0, 1, 2), default=2)
    p.add_argument(
        "--eps", default="1/8", metavar="RATIONAL",
        help="validity threshold: expansion applies for k <= (1-eps) n (default 1/8)",
    )
    _add_output_options(p, "csv")
    p.set_defaults(handler=_cmd_asym)

    p = sub.add_parser("figures", help="diagnostic grids as flat tables")
    p.add_argument("--which", type=int, choices=(1, 2), required=True)
    p.add_argument("--n-range", required=True, metavar="LO:HI")
    _add_output_options(p, "csv")
    p.set_defaults(handler=_cmd_figures)

    p = sub.add_parser("sim", help="Monte Carlo runs of the algorithm")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--start", default=UNIFORM_START, metavar="fixed:K|uniform")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--engine", choices=ENGINES, default=ENGINE_JUMP)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument(
        "--samples-out", metavar="PATH", default=None,
        help="also write per-replicate hitting times as CSV to PATH",
    )
    _add_output_options(p, "json", formats=("json",))
    p.set_defaults(handler=_cmd_sim)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.handler(args)
    except NumericError as exc:
        print(f"onemax-runtime: numeric error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"onemax-runtime: error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"onemax-runtime: internal error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"onemax-runtime: i/o error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
