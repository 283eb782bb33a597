import json
import subprocess
import sys

import numpy as np
import pytest

from rtfalsify.cli import main
from rtfalsify.monitor import compile_table
from rtfalsify.sim import Trace, write_trace_csv


def run_cli(*argv):
    return main(list(argv))


@pytest.fixture()
def sc_path(tmp_path, sc_table):
    from rtfalsify.table import format_table

    path = tmp_path / "sc.rt"
    path.write_text(format_table(sc_table))
    return str(path)


def test_check_valid_table(sc_path, capsys):
    assert run_cli("check", sc_path) == 0
    assert "3 requirements" in capsys.readouterr().out


def test_check_bundled_name():
    assert run_cli("check", "omm-rt0") == 0
    assert run_cli("check", "omm-rt1.rt") == 0


def test_check_validation_failure(tmp_path, capsys):
    path = tmp_path / "bad.rt"
    path.write_text("table T\ninputs x\nreq 1\n  post x > 0\n  action x = 1\n")
    assert run_cli("check", str(path)) == 1
    assert "UnknownSignal" in capsys.readouterr().err


def test_check_missing_init_exit_code(tmp_path, capsys):
    path = tmp_path / "noinit.rt"
    path.write_text("table T\ninputs x\nreq 1\n  post x - prev(x) < 1\n")
    assert run_cli("check", str(path)) == 1
    assert "MissingInitialValue" in capsys.readouterr().err


def test_check_syntax_failure(tmp_path, capsys):
    path = tmp_path / "syn.rt"
    path.write_text("table T\ninputs x\nreq 1\n  post x >>> 1\n")
    assert run_cli("check", str(path)) == 2
    assert "line 4" in capsys.readouterr().err


def test_check_missing_file_is_runtime_error(capsys):
    assert run_cli("check", "/definitely/not/there.rt") == 3


def test_check_invalid_utf8_is_syntax_error(tmp_path):
    path = tmp_path / "binary.rt"
    path.write_bytes(b"table T\xff\xfe\x00 garbage")
    assert run_cli("check", str(path)) == 2


def test_check_deeply_nested_table_is_syntax_error(tmp_path, capsys):
    path = tmp_path / "deep.rt"
    path.write_text("table T\ninputs x\nreq 1\n  post " + "(" * 400 + "x > 0" + ")" * 400 + "\n")
    assert run_cli("check", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("syntax error: line 4") and err.count("\n") == 1


def test_monitor_nan_degree_is_runtime_error(tmp_path, capsys):
    table_path = tmp_path / "nan.rt"
    table_path.write_text("table T\ninputs x\nreq 1\n  post x * 1e308 * 10 - x * 1e308 * 10 > 0\n")
    trace_path = tmp_path / "trace.csv"
    write_trace_csv(Trace(dt=1.0, samples={"x": np.ones(3)}), str(trace_path))
    assert run_cli("monitor", str(table_path), str(trace_path), "--out", str(tmp_path)) == 3
    assert "requirement 1" in capsys.readouterr().err


def test_monitor_shifted_trace_is_runtime_error(tmp_path, sc_path, capsys):
    trace_path = tmp_path / "shifted.csv"
    trace_path.write_text("t,F_s,T_s,P_s\n5.0,4.0,80.0,87.25\n5.5,4.0,80.0,87.25\n")
    assert run_cli("monitor", sc_path, str(trace_path), "--out", str(tmp_path)) == 3
    assert "start at 0" in capsys.readouterr().err


def test_monitor_reports_violation(tmp_path, sc_path, capsys):
    n = 40
    p_s = np.full(n, 87.25)
    p_s[31:34] = 88.0
    trace = Trace(
        dt=1.0,
        samples={"F_s": np.full(n, 5.0), "T_s": np.full(n, 80.0), "P_s": p_s},
    )
    trace_path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(trace_path))
    out_dir = tmp_path / "mon"
    assert run_cli("monitor", sc_path, str(trace_path), "--out", str(out_dir)) == 0
    printed = capsys.readouterr().out
    assert printed.startswith("fitness -")
    degrees = (out_dir / "degrees.csv").read_text().splitlines()
    assert degrees[0] == "t,ff_1,ff_2,ff_3,ff_total_running"
    assert len(degrees) == n + 1


def test_monitor_vacuous_table_prints_inf(tmp_path, capsys):
    table_path = tmp_path / "empty.rt"
    table_path.write_text("table E\ninputs x\n")
    trace_path = tmp_path / "trace.csv"
    write_trace_csv(Trace(dt=1.0, samples={"x": np.zeros(4)}), str(trace_path))
    assert run_cli("monitor", str(table_path), str(trace_path), "--out", str(tmp_path)) == 0
    assert "fitness +inf" in capsys.readouterr().out


def test_monitor_repeated_column_is_runtime_error(tmp_path, capsys):
    table_path = tmp_path / "pos.rt"
    table_path.write_text("table T\ninputs x\nreq 1\n  post x > 0\n")
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("t,x,x\n0.0,1.0,-6.0\n1.0,1.0,-6.0\n")
    assert run_cli("monitor", str(table_path), str(trace_path), "--out", str(tmp_path)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "repeated column 'x'" in captured.err


def test_monitor_missing_column_fails(tmp_path, sc_path):
    trace_path = tmp_path / "trace.csv"
    write_trace_csv(Trace(dt=1.0, samples={"F_s": np.zeros(4)}), str(trace_path))
    assert run_cli("monitor", sc_path, str(trace_path), "--out", str(tmp_path)) == 3


def test_falsify_tc_exit_and_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(
        "falsify",
        "--model", "omm-v1",
        "--table", "omm-rt0",
        "--algo", "ur",
        "--budget", "1500",
        "--seed", "1",
        "--out", str(out),
    )
    assert code == 0
    payload = json.loads((out / "result.json").read_text())
    assert payload["verdict"] == "TC"
    assert payload["best_fitness"] < 0
    assert payload["violated_requirements"] == [2]
    assert payload["config"]["model"] == "omm-v1"
    assert len(payload["fitness_history"]) == payload["iterations"]
    assert (out / "testcase_trace.csv").exists()
    assert (out / "testcase_degrees.csv").exists()


def test_falsify_nff_exit(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        "falsify",
        "--model", "omm-v0",
        "--table", "omm-rt1",
        "--budget", "50",
        "--seed", "3",
        "--out", str(out),
    )
    assert code == 10
    payload = json.loads((out / "result.json").read_text())
    assert payload["verdict"] == "NFF"
    assert not (out / "testcase_trace.csv").exists()


def assert_one_usage_line(err: str) -> str:
    """The usage error's single line: no usage block before it."""
    assert err.startswith("usage error: ") and err.count("\n") == 1
    return err


def test_falsify_budget_zero_is_usage_error(capsys):
    assert run_cli("falsify", "--model", "omm-v0", "--table", "omm-rt0", "--budget", "0") == 2
    assert ">= 1" in assert_one_usage_line(capsys.readouterr().err)


@pytest.mark.parametrize(
    "option, value",
    [
        ("--input", "u1:-inf:inf"),
        ("--input", "u1:nan:1"),
        ("--input", "u1:-1e308:1e308"),  # finite bounds, but the range overflows
        ("--horizon", "inf"),
        ("--horizon", "nan"),
        ("--dt", "inf"),
        ("--dt", "nan"),
    ],
)
def test_falsify_non_finite_argument_is_usage_error(tmp_path, capsys, option, value):
    out = tmp_path / "run"
    code = run_cli(
        "falsify", "--model", "omm-v1", "--table", "omm-rt0", "--budget", "5",
        "--out", str(out), option, value,
    )
    assert code == 2
    assert "finite" in assert_one_usage_line(capsys.readouterr().err)
    assert not out.exists()  # rejected before any search or output file


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--budget", "1e3", "argument --budget: expected a whole number, got '1e3'"),
        ("--runs", "two", "argument --runs: expected a whole number, got 'two'"),
        ("--dt", "abc", "argument --dt: expected a number, got 'abc'"),
    ],
)
def test_falsify_malformed_number_is_usage_error(capsys, option, value, message):
    assert run_cli("falsify", "--model", "omm-v1", "--table", "omm-rt0", option, value) == 2
    assert assert_one_usage_line(capsys.readouterr().err) == f"usage error: {message}\n"


def test_falsify_negative_seed_is_usage_error(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(
        "falsify", "--model", "omm-v1", "--table", "omm-rt0", "--budget", "5",
        "--seed", "-1", "--out", str(out),
    )
    assert code == 2
    assert assert_one_usage_line(capsys.readouterr().err).startswith("usage error: argument --seed: ")
    assert not out.exists()


def test_falsify_unknown_model_is_usage_error(capsys):
    assert run_cli("falsify", "--model", "nope", "--table", "omm-rt0") == 2
    assert "'nope'" in assert_one_usage_line(capsys.readouterr().err)


def test_help_still_prints_the_usage_block(capsys):
    assert run_cli("falsify", "--help") == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: rtfalsify falsify") and "--budget" in out


def test_falsify_multi_run_summary(tmp_path):
    out = tmp_path / "runs"
    code = run_cli(
        "falsify",
        "--model", "omm-v1",
        "--table", "omm-rt1",
        "--budget", "10",
        "--seed", "5",
        "--runs", "3",
        "--out", str(out),
    )
    assert code == 10  # the relaxed threshold cannot be violated
    summary = json.loads((out / "summary.json").read_text())
    assert [r["seed"] for r in summary["runs"]] == [5, 6, 7]
    assert summary["tc_count"] == 0
    for i in range(1, 4):
        assert (out / f"result_{i}.json").exists()


def test_falsify_input_override(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        "falsify",
        "--model", "omm-v1",
        "--table", "omm-rt0",
        "--budget", "5",
        "--seed", "0",
        "--input", "u1:-1:1",
        "--input", "u2:0.5:1:0",
        "--out", str(out),
    )
    assert code == 10  # cross gain capped at 0.01 of u1 in [-1, 1] cannot push y2 negative
    payload = json.loads((out / "result.json").read_text())
    names = list(payload["best_parameters"])
    assert names == ["u1_level0", "u1_level1", "u1_switch1", "u2_level0"]
    inputs = {spec["name"]: spec for spec in payload["config"]["inputs"]}
    assert inputs["u1"]["lower"] == -1.0
    assert inputs["u2"]["discontinuities"] == 0


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "rtfalsify.cli", "check", "sc"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "table 'SC'" in proc.stdout
