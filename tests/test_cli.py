"""Command-line contract: schemas, rendering, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from onemax_runtime.backends import NumericError
from onemax_runtime.cli import main

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


def test_asym_schema_and_gate(capsys):
    code, out, _ = run_cli(capsys, "asym", "16", "8")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,k,alpha,delta_star_exact,approx,abs_err,q_asym,et_asym"
    assert len(lines) == 1 + 14 + 7
    code, _, err = run_cli(capsys, "asym", "3", "--eps", "99/100")
    assert code == 2
    assert "no valid state" in err


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


def test_figures_bad_thread_count(capsys):
    code, out, err = run_cli(
        capsys, "figures", "--which", "2", "--n-range", "4:5", "--threads", "0"
    )
    assert code == 2
    assert out == ""
    assert "threads must be positive" in err


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
    _, threaded, _ = run_cli(capsys, *argv, "--threads", "4")
    assert first == threaded


def test_sim_default_engine_is_jump(capsys):
    argv = ("sim", "--n", "20", "--start", "fixed:10", "--reps", "3000", "--seed", "4")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    default = json.loads(out)
    assert default["engine"] == "jump"
    _, explicit, _ = run_cli(capsys, *argv, "--engine", "jump")
    assert explicit == out
    code, out, _ = run_cli(capsys, *argv, "--engine", "statechain")
    assert code == 0
    chain = json.loads(out)
    assert chain["engine"] == "statechain"
    assert chain["samples"] == 3000
    assert abs(default["mean"] - chain["mean"]) <= 5 * math.hypot(
        default["std_error"], chain["std_error"]
    )


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


def test_rational_capacity_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "drift", "65", "--backend", "rational")
    assert code == 2
    assert "cap" in err


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
