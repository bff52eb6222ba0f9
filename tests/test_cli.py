"""Command-line contract: schemas, rendering, exit codes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from onemax_runtime import backends
from onemax_runtime import cli as cli_mod
from onemax_runtime import (
    build_drift_table,
    expansion_delta_star,
    runtime_estimate,
    runtime_profile,
)
from onemax_runtime.backends import CapacityError, NumericError
from onemax_runtime.cli import main
from conftest import traced_peak

ROOT = Path(__file__).resolve().parent.parent

DRIFT2_RATIONAL = """\
k,delta,delta_star,lower_bound,upper_bound
0,0,0,0,0
1,1/4,1/2,0.183939720585721,0.5
2,1,13/8,0.367879441171442,1
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_drift_rational_exact_rendering(capsys):
    code, out, err = run_cli(capsys, "drift", "2", "--backend", "rational")
    assert code == 0
    assert out == DRIFT2_RATIONAL
    assert err == ""


def test_drift_row_count_and_monotonicity(capsys):
    code, out, _ = run_cli(capsys, "drift", "100")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "k,delta,delta_star,lower_bound,upper_bound"
    assert len(lines) == 102
    deltas = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b > a for a, b in zip(deltas, deltas[1:]))


def test_drift_usage_error_small_n(capsys):
    code, out, err = run_cli(capsys, "drift", "1")
    assert code == 2
    assert out == ""
    assert "n must be at least 2" in err


def test_drift_command_peaks_under_200_bytes_a_state():
    """``drift N`` drops the band (168 bytes a state) once the drift column
    is summed, before the table's tuples are built, and writes its rows as
    they are made: its traced peak stays under 200 bytes a state. Holding
    the band while the tuples were built, and every row until the write,
    peaked at about 258."""
    n = 100_000
    code, peak = traced_peak(main, ["drift", str(n), "--out", os.devnull])
    assert code == 0
    assert peak < 200 * n


def test_runtime_known_exact_value(capsys):
    code, out, _ = run_cli(capsys, "runtime", "3", "--start", "3", "--backend", "rational")
    assert code == 0
    header, row = out.strip().split("\n")
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["g_exact"] == "189/22"
    assert cells["q_sum"] == "511/52"


def test_runtime_corridor_column(capsys):
    code, out, _ = run_cli(capsys, "runtime", "4", "--start", "2")
    assert code == 0
    assert out.strip().split("\n")[1].endswith("true")


def test_runtime_from_optimum(capsys):
    code, out, _ = run_cli(capsys, "runtime", "2", "--start", "0", "--backend", "rational")
    assert code == 0
    row = out.strip().split("\n")[1].split(",")
    assert row[2] == "0"
    code, out, _ = run_cli(
        capsys, "runtime", "2", "--start", "0", "--backend", "rational", "--format", "json"
    )
    assert code == 0
    (record,) = json.loads(out)
    assert record["g_exact"] == {"num": 0, "den": 1}
    assert record["q_sum"] == {"num": 0, "den": 1}


def test_runtime_default_start_is_half(capsys):
    _, out_default, _ = run_cli(capsys, "runtime", "20")
    _, out_half, _ = run_cli(capsys, "runtime", "20", "--start", "10")
    assert out_default == out_half


def test_runtime_json_rational_objects(capsys):
    code, out, _ = run_cli(
        capsys, "runtime", "3", "--start", "3", "--backend", "rational", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["g_exact"] == {"num": 189, "den": 22}
    assert payload[0]["in_corridor"] is True


def test_bounds_json_report(capsys):
    code, out, _ = run_cli(capsys, "bounds", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 8
    assert payload["backend"] == "float"
    checks = {c["check_id"]: c for c in payload["checks"]}
    assert len(checks) == 19
    assert all(c["pass"] for c in checks.values())
    assert checks["eta-upper"]["range"] == [1, 4]


def test_bounds_small_n_not_applicable(capsys):
    code, out, _ = run_cli(capsys, "bounds", "2")
    assert code == 0
    checks = {c["check_id"]: c for c in json.loads(out)["checks"]}
    assert checks["corridor-lower"]["pass"] is None
    assert checks["corridor-lower"]["applicable"] is False
    assert checks["delta-diff-lower"]["pass"] is True


def test_bounds_csv_format(capsys):
    code, out, _ = run_cli(capsys, "bounds", "8", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "check_id,k_lo,k_hi,direction,bound,observed,pass,applicable"
    assert len(lines) == 20


@pytest.mark.parametrize("backend", ["float", "rational"])
@pytest.mark.parametrize("n", ["2", "8"])
def test_bounds_csv_and_json_carry_the_same_checks(capsys, n, backend):
    _, out, _ = run_cli(capsys, "bounds", n, "--backend", backend)
    checks = json.loads(out)["checks"]
    _, out, _ = run_cli(capsys, "bounds", n, "--backend", backend, "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    flags = {"true": True, "false": False, "": None}
    assert len(rows) == len(checks) == 19
    for row, check in zip(rows, checks):
        assert row["check_id"] == check["check_id"]
        assert [int(row["k_lo"]), int(row["k_hi"])] == check["range"]
        assert row["direction"] == check["direction"]
        assert float(row["bound"]) == check["bound"]
        assert (float(row["observed"]) if row["observed"] else None) == check["observed"]
        assert flags[row["pass"]] is check["pass"]
        assert flags[row["applicable"]] is check["applicable"]


def test_asym_schema_and_gate(capsys):
    code, out, _ = run_cli(capsys, "asym", "16", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,k,alpha,delta_star_exact,approx,abs_err,q_asym,et_asym"
    assert len(lines) == 1 + 14 + 7
    code, _, err = run_cli(capsys, "asym", "3", "--eps", "99/100")
    assert code == 2
    assert "no valid state" in err


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("eps", ["1/8", "1/3"])
def test_asym_rows_match_the_per_state_expansion(order, eps, monkeypatch):
    """Each row's approximation is ``expansion_delta_star`` at its state, and
    its exact value is that state's entry of the drift module's column."""
    seen = []
    monkeypatch.setattr(cli_mod, "_emit_table", lambda columns, rows, args: seen.extend(rows))
    assert main(["asym", "8", "16", "50", "--order", str(order), "--eps", eps]) == 0
    expected = []
    for n in (8, 16, 50):
        est = runtime_estimate(n)
        k_hi = math.floor((1 - F(eps)) * n)
        column = build_drift_table(n).delta_star[1 : k_hi + 1]
        for k, exact in enumerate(column, start=1):
            approx = expansion_delta_star(n, k, order=order, eps=F(eps))
            row = (n, k, k / n, exact, approx, abs(exact - approx), est.q_asym, est.et_asym)
            expected.append(row)
    assert seen == expected


@pytest.mark.parametrize("eps", ["-20000", "2", "1", "0"])
def test_asym_rejects_eps_outside_the_unit_interval_before_any_work(capsys, eps):
    (code, out, err), peak = traced_peak(run_cli, capsys, "asym", "50", f"--eps={eps}")
    assert code == 2
    assert out == ""
    assert "outside (0, 1)" in err
    assert peak < 2**20


def test_figures_first_grid(capsys):
    code, out, _ = run_cli(capsys, "figures", "--which", "1", "--n-range", "2:5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0].startswith("n,k,alpha,delta_star_exact,approx0")
    assert lines[0].endswith("inv_err0,inv_err1,inv_err2")
    assert len(lines) == 1 + 2 + 3 + 4 + 5


def test_figures_second_grid(capsys):
    code, out, _ = run_cli(capsys, "figures", "--which", "2", "--n-range", "10:12")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,q_exact,g_exact,diff,diff_minus_half_e_log"
    assert len(lines) == 4


def test_figures_bad_range(capsys):
    code, _, err = run_cli(capsys, "figures", "--which", "2", "--n-range", "12")
    assert code == 2
    assert "LO:HI" in err


def test_sim_json_contract(capsys):
    code, out, _ = run_cli(
        capsys, "sim", "--n", "8", "--start", "fixed:4", "--reps", "2000", "--seed", "3"
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "n", "start", "engine", "samples", "mean", "std_error",
        "min", "max", "truncated", "seed",
    ]
    assert payload["samples"] == 2000
    assert payload["truncated"] == 0
    assert payload["start"] == "fixed:4"


def test_sim_rerun_is_byte_identical(capsys):
    argv = ("sim", "--n", "12", "--start", "uniform", "--reps", "5000", "--seed", "21")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_sim_default_engine_is_jump(capsys):
    argv = ("sim", "--n", "20", "--start", "fixed:10", "--reps", "3000", "--seed", "4")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    default = json.loads(out)
    assert default["engine"] == "jump"
    _, explicit, _ = run_cli(capsys, *argv, "--engine", "jump")
    assert explicit == out
    code, out, _ = run_cli(capsys, *argv, "--engine", "bitstring")
    assert code == 0
    bits = json.loads(out)
    assert bits["engine"] == "bitstring"
    assert bits["samples"] == 3000
    assert abs(default["mean"] - bits["mean"]) <= 5 * math.hypot(
        default["std_error"], bits["std_error"]
    )


def test_sim_engines_are_bitstring_and_jump(capsys):
    argv = ("sim", "--n", "20", "--start", "fixed:10", "--reps", "30", "--seed", "4")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--engine", "statechain"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'bitstring', 'jump'" in captured.err


def test_sim_samples_out(tmp_path, capsys):
    path = tmp_path / "samples.csv"
    code, _, _ = run_cli(
        capsys, "sim", "--n", "8", "--start", "fixed:4", "--reps", "50",
        "--seed", "9", "--samples-out", str(path),
    )
    assert code == 0
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "replicate,iterations"
    assert len(lines) == 51
    assert all(int(line.split(",")[1]) >= 1 for line in lines[1:])


def test_sim_bad_start(capsys):
    code, _, err = run_cli(
        capsys, "sim", "--n", "8", "--start", "half", "--reps", "10", "--seed", "1"
    )
    assert code == 2
    assert "fixed:K" in err


def test_sim_budget_past_int64_is_usage_error(capsys):
    """Samples are int64, so a budget of 2**63 or more is refused, not
    overflowed."""
    argv = ("sim", "--n", "10", "--reps", "10", "--seed", "0", "--max-iters", str(10**30))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "max_iters" in err


def test_sim_writes_json_only(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sim", "--n", "20", "--reps", "10", "--seed", "1", "--format", "csv"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--format" in captured.err


@pytest.mark.parametrize("start", ["65", "-1"])
def test_runtime_start_outside_the_states_is_usage_error(capsys, start):
    code, out, err = run_cli(capsys, "runtime", "64", "--start", start)
    assert code == 2
    assert out == ""
    assert "outside [0, 64]" in err


def test_out_file_matches_stdout(tmp_path, capsys):
    _, stdout_text, _ = run_cli(capsys, "drift", "6")
    path = tmp_path / "table.csv"
    code, out, _ = run_cli(capsys, "drift", "6", "--out", str(path))
    assert code == 0
    assert out == ""
    assert path.read_text() == stdout_text


def test_precision_flag(capsys):
    _, out, _ = run_cli(capsys, "drift", "5", "--precision", "3")
    cell = out.strip().split("\n")[2].split(",")[1]
    assert len(cell.replace(".", "").replace("-", "").lstrip("0")) <= 3


@pytest.mark.parametrize(
    "argv",
    [
        ("runtime", "8"),
        ("bounds", "8"),
        ("sim", "--n", "10", "--reps", "4", "--seed", "0"),
    ],
)
def test_negative_precision_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--precision", "-1"])
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert "--precision" in captured.err


def test_rational_capacity_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "drift", "65", "--backend", "rational")
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("runtime", "1000000000"),
        ("sim", "--n", "1000000000", "--reps", "10", "--seed", "0"),
        ("drift", "1000000000"),
        ("sim", "--n", "10", "--reps", str(10**15), "--seed", "0"),
        ("bounds", "9000000"),
        ("bounds", "20000000"),
        ("asym", "1000000000"),
        ("figures", "--which", "1", "--n-range", "2:1000000"),
    ],
)
def test_huge_requests_exit_2_before_allocating(capsys, argv):
    """Above the memory limit a request fails as a usage error, at once: the
    peak of traced allocations (numpy's included) stays under 1 MB."""
    (code, out, err), peak = traced_peak(run_cli, capsys, *argv)
    assert code == 2
    assert out == ""
    assert "GiB limit" in err
    assert peak < 2**20


@pytest.mark.parametrize(
    "argv, call, states, band_columns",
    [
        (("drift", "100000"), lambda: build_drift_table(10**5), 10**5 + 1, 21),
        (("runtime", "100000"), lambda: runtime_profile(10**5, up_to=5 * 10**4), 5 * 10**4 + 1, 17),
    ],
    ids=["drift", "runtime"],
)
def test_drift_and_runtime_count_the_columns_beside_the_band(
    monkeypatch, capsys, argv, call, states, band_columns
):
    """A limit that admits the band with half a column more, but not the
    columns the table or the profile holds beside it, refuses the request
    before the band is built."""
    monkeypatch.setattr(backends, "MEMORY_LIMIT", states * (band_columns * 8 + 4))

    def refused():
        with pytest.raises(CapacityError, match="GiB limit"):
            call()

    assert traced_peak(refused)[1] < 2**20
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert "GiB limit" in err


@pytest.mark.parametrize(
    "argv, rows, columns",
    [
        (("asym", "64", "40"), 56 + 35, 8),
        (("figures", "--which", "1", "--n-range", "3:6"), 3 + 4 + 5 + 6, 13),
    ],
)
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_table_check_counts_the_rows_it_emits(monkeypatch, capsys, argv, rows, columns, fmt):
    """A limit of exactly the checked bytes of the table admits it, one byte
    less refuses it."""
    nbytes = rows * columns * cli_mod._CELL_BYTES
    monkeypatch.setattr(backends, "MEMORY_LIMIT", nbytes)
    code, out, _ = run_cli(capsys, *argv, "--format", fmt)
    assert code == 0
    emitted = len(json.loads(out)) if fmt == "json" else out.count("\n") - 1
    assert emitted == rows
    monkeypatch.setattr(backends, "MEMORY_LIMIT", nbytes - 1)
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    assert (code, out) == (2, "")
    assert "GiB limit" in err


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [(1, 0.5, None, True)],
        [(1, 0.1 + 0.2, F(1, 3), False), (2, -1e300, F(-7, 2), None), (3, 2.0, 7, True)],
    ],
    ids=["empty", "one", "three"],
)
def test_json_table_is_written_row_by_row_as_json_dumps_would(capsys, rows):
    args = cli_mod._build_parser().parse_args(["runtime", "8", "--format", "json"])
    columns = ("k", "x", "exact", "ok")
    cli_mod._emit_table(columns, rows, args)
    payload = [
        {c: cli_mod._json_value(v, args.precision) for c, v in zip(columns, row)} for row in rows
    ]
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


@pytest.mark.parametrize("chunk", [1, 40, 65536])
@pytest.mark.parametrize("nrows", [0, 1, 9])
def test_csv_table_is_written_in_chunks_of_whole_lines(monkeypatch, capsys, nrows, chunk):
    """The chunks join to the text one csv.writer gives for the whole table;
    each but the last ends a line and holds at least ``_CSV_CHUNK``
    characters."""
    monkeypatch.setattr(cli_mod, "_CSV_CHUNK", chunk)
    args = cli_mod._build_parser().parse_args(["runtime", "8"])
    columns = ("k", "x", "exact", "ok")
    rows = [
        (k, k / 7 - 1e300 * (k == 3), F(k, 3), None if k == 2 else k % 2 == 0)
        for k in range(nrows)
    ]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([cli_mod._fmt_cell(v, args.precision) for v in row] for row in rows)
    chunks = list(cli_mod._csv_chunks(columns, rows, args.precision))
    assert "".join(chunks) == buf.getvalue()
    assert all(len(c) >= chunk and c.endswith("\n") for c in chunks[:-1])
    cli_mod._emit_table(columns, rows, args)
    assert capsys.readouterr().out == buf.getvalue()


def test_numeric_error_exit_code(monkeypatch, capsys):
    import onemax_runtime.cli as cli_mod

    def boom(n, backend):
        raise NumericError("synthetic failure")

    monkeypatch.setattr(cli_mod, "verify_inequalities", boom)
    code, _, err = run_cli(capsys, "bounds", "8")
    assert code == 1
    assert "numeric error" in err


def test_internal_value_error_exits_1(monkeypatch, capsys):
    import onemax_runtime.cli as cli_mod

    def boom(n, backend):
        raise ValueError("synthetic internal fault")

    monkeypatch.setattr(cli_mod, "verify_inequalities", boom)
    code, _, err = run_cli(capsys, "bounds", "8")
    assert code == 1
    assert "synthetic internal fault" in err


RATIONAL_REFERENCES = {
    "runtime_64_rational": ("runtime", "64", "--backend", "rational"),
    "runtime_64_start64_rational": ("runtime", "64", "--start", "64", "--backend", "rational"),
    "bounds_48_rational": ("bounds", "48", "--backend", "rational"),
    "drift_64_rational": ("drift", "64", "--backend", "rational"),
}


@pytest.mark.parametrize("name", RATIONAL_REFERENCES)
def test_exact_values_beyond_the_int_digit_limit(capsys, name):
    """The stored exact outputs, byte for byte. Denominators of g at n = 64
    from the full start exceed 4300 digits."""
    reference = ROOT / "perfbench" / "reference" / f"{name}.out"
    argv = RATIONAL_REFERENCES[name]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert out == reference.read_text()


def _run_python(*args):
    """A fresh interpreter with this checkout's source first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, *args],
        env=env, capture_output=True, text=True, timeout=120, check=False,
    )


def test_python_dash_m_runs_the_cli():
    proc = _run_python("-m", "onemax_runtime", "runtime", "16")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().split("\n")
    assert lines[0] == "n,k,g_exact,q_sum,q_minus_c1_logn,q_minus_c2_logn,in_corridor"
    assert lines[1].startswith("16,8,")


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_package_import_does_not_load_scipy():
    """scipy is a test-only dependency: neither the import nor C0 loads it."""
    proc = _run_python(
        "-c",
        "import sys; import onemax_runtime as om; print('scipy' in sys.modules); "
        "om.constant_c0(); print('scipy' in sys.modules)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_package_import_does_not_load_numpy_polynomial():
    """The Gauss-Legendre nodes of C0 are the only use of numpy.polynomial,
    so it is imported there, not with the package."""
    proc = _run_python(
        "-c",
        "import sys; import onemax_runtime as om; "
        "print('numpy.polynomial' in sys.modules); "
        "om.constant_c0(); print('numpy.polynomial' in sys.modules)",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True"]


def test_cli_import_loads_no_test_only_dependency():
    """scipy, mpmath and sympy are installed for the tests only; the CLI's
    cold start pays for none of them."""
    proc = _run_python(
        "-c",
        "import sys; import onemax_runtime.cli; "
        "print([m for m in ('scipy', 'mpmath', 'sympy') if m in sys.modules])",
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
