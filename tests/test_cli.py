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


@pytest.mark.parametrize(
    "cell, message",
    [
        ("(x > 1 | x >) & x > 3", "line 4, column 20: unexpected ')'"),
        ("x > 1e400", "line 4, column 12: number must be finite, got '1e400'"),
    ],
    ids=["misplaced-paren", "infinite-literal"],
)
def test_check_expression_error_is_one_located_line(tmp_path, capsys, cell, message):
    path = tmp_path / "cell.rt"
    path.write_text(f"table T\ninputs x\nreq 1\n  post {cell}\n")
    assert run_cli("check", str(path)) == 2
    assert capsys.readouterr().err == f"syntax error: {message}\n"


def test_check_malformed_init_number_is_one_located_line(tmp_path, capsys):
    path = tmp_path / "init.rt"
    path.write_text("table T\ninputs x\noutputs y\ninit y = 1_000\nreq 1\n  action y = x\n")
    assert run_cli("check", str(path)) == 2
    assert capsys.readouterr().err == "syntax error: line 4, column 10: invalid number '1_000'\n"


def test_check_missing_file_is_runtime_error(capsys):
    assert run_cli("check", "/definitely/not/there.rt") == 3


def test_every_layer_error_is_a_run_error():
    # the CLI maps RunError to exit 3 without knowing each layer's error class
    from rtfalsify import expr, monitor, search, sim

    for error in (expr.EvalError, sim.SimError, monitor.MonitorError, search.SearchError):
        assert issubclass(error, expr.RunError)


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


@pytest.mark.parametrize(
    "data, message",
    [
        (b"t,x\n0.0,1.0\n1.0," + b"1" * 200_000 + b"\n", ":3: field larger than field limit"),
        (b"t,x\n" + b"0.0,1.0\n" * 4000 + b"1.0,\xff\n", ": not valid UTF-8"),
        (b't,x\n0.0,"1.0\n"\n1.0,2.0,3.0\n', ":4: expected 2 columns"),
        (b"", ": empty file"),
        (b"t\n0.0\n1.0\n", ": no signal columns"),
        (b"t,x\n0,1\ninf,2\n", ": time column holds a non-finite value"),
        (b"t,x\n0,1\n-inf,2\n", ": time column holds a non-finite value"),
        (b"t,x\n0,1\nnan,2\n", ": time column holds a non-finite value"),
        (b"t,x\n-1.5e308,1\n1.5e308,2\n", ": time column is not uniformly spaced"),
        (b"t,x\n0,1\n1.5e308,2\n-1.5e308,3\n", ": time column is not uniformly spaced"),
    ],
    ids=[
        "oversized-field",
        "not-utf8",
        "ragged-row-after-a-quoted-newline",
        "empty-file",
        "no-signal-columns",
        "inf-time",
        "minus-inf-time",
        "nan-time",
        "overflowing-first-step",
        "overflowing-later-step",
    ],
)
def test_monitor_unreadable_trace_is_one_runtime_error_line(tmp_path, capsys, data, message):
    table_path = tmp_path / "pos.rt"
    table_path.write_text("table T\ninputs x\nreq 1\n  post x > 0\n")
    trace_path = tmp_path / "trace.csv"
    trace_path.write_bytes(data)
    assert run_cli("monitor", str(table_path), str(trace_path), "--out", str(tmp_path)) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {trace_path}{message}")
    assert captured.err.count("\n") == 1


def test_monitor_writes_the_degree_csv(tmp_path, capsys):
    table_path = tmp_path / "signs.rt"
    table_path.write_text(
        "table T\ninputs x, g\nreq 1\n  pre g > 0\n  post x > 0\nreq 2\n  pre g > 0\n  post g < 2\n"
    )
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("t,x,g\n0,5,-1\n1,-0.0,1\n2,-inf,1\n3,inf,1.5\n")
    out_dir = tmp_path / "mon"
    assert run_cli("monitor", str(table_path), str(trace_path), "--out", str(out_dir)) == 0
    assert capsys.readouterr().out.startswith("fitness -inf\n")
    assert (out_dir / "degrees.csv").read_bytes() == (
        b"t,ff_1,ff_2,ff_total_running\r\n"
        b"0.0,inf,inf,inf\r\n"
        b"1.0,-5e-324,1.0,-5e-324\r\n"
        b"2.0,-inf,1.0,-inf\r\n"
        b"3.0,inf,0.5,-inf\r\n"
    )


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


def test_falsify_test_case_replays_to_the_same_degrees(tmp_path, capsys):
    # 5,001 rows, so both files cross a write block
    out = tmp_path / "run"
    args = ("--model", "plant-demo", "--table", "sc", "--budget", "20", "--seed", "0")
    assert run_cli("falsify", *args, "--horizon", "50", "--out", str(out)) == 0
    assert json.loads((out / "result.json").read_text())["iterations"] == 6
    replay = tmp_path / "replay"
    assert run_cli("monitor", "sc", str(out / "testcase_trace.csv"), "--out", str(replay)) == 0
    degrees = (out / "testcase_degrees.csv").read_bytes()
    assert degrees.count(b"\n") == 5_002
    assert (replay / "degrees.csv").read_bytes() == degrees


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


@pytest.fixture()
def no_search(monkeypatch):
    from rtfalsify import search

    def refuse(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(search, "falsify", refuse)


def test_falsify_model_table_mismatch_fails_before_search(tmp_path, capsys, no_search):
    out = tmp_path / "run"
    code = run_cli(
        "falsify", "--model", "plant-demo", "--table", "omm-rt0", "--budget", "3",
        "--out", str(out),
    )
    assert code == 3
    assert capsys.readouterr().err == "error: trace is missing table inputs: u1, u2, y1, y2\n"
    assert not out.exists()


def test_falsify_out_that_is_a_file_fails_before_search(tmp_path, no_search):
    out = tmp_path / "run"
    out.write_text("")
    assert run_cli("falsify", "--model", "omm-v1", "--table", "omm-rt0", "--out", str(out)) == 3


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
    "sizes, message",
    [
        # horizon / dt overflows to inf
        (("--horizon", "1e300", "--dt", "1e-300"), "horizon / dt is not finite"),
        # a finite sample count past what numpy can allocate
        (("--dt", "1e-300"), "horizon 10.0 / dt 1e-300 gives 1e+301 samples, too many"),
        # one sample makes a test-case trace that monitor cannot read back
        (("--horizon", "0.1"), "horizon 0.1 / dt 0.5 gives 1 sample, "),
    ],
    ids=["non-finite-count", "too-many-samples", "one-sample"],
)
def test_falsify_unusable_sample_count_is_usage_error(tmp_path, capsys, sizes, message):
    out = tmp_path / "run"
    code = run_cli(
        "falsify", "--model", "omm-v1", "--table", "omm-rt0", "--budget", "5",
        "--out", str(out), *sizes,
    )
    assert code == 2
    assert assert_one_usage_line(capsys.readouterr().err).startswith(
        f"usage error: --horizon/--dt: {message}"
    )
    assert not out.exists()  # rejected before any search or output file


@pytest.mark.parametrize("k", [22, 10**20])
def test_falsify_more_switches_than_samples_is_usage_error(tmp_path, capsys, monkeypatch, k):
    from rtfalsify import search

    def no_box(*args):
        raise AssertionError("the parameter box was built")

    # a K of 10**20 would build 2K+1 parameters; fail at the first one instead of hanging
    monkeypatch.setattr(search, "Parameter", no_box)
    out = tmp_path / "run"
    code = run_cli(
        "falsify", "--model", "omm-v1", "--table", "omm-rt0", "--budget", "5",
        "--out", str(out), "--input", f"u1:-1:1:{k}",
    )
    assert code == 2
    assert assert_one_usage_line(capsys.readouterr().err) == (
        f"usage error: --input 'u1': K={k} exceeds the trace's 21 samples\n"
    )
    assert not out.exists()  # rejected before any search or output file


def test_falsify_accepts_one_switch_per_sample(tmp_path):
    code = run_cli(
        "falsify", "--model", "omm-v1", "--table", "omm-rt0", "--budget", "5",
        "--out", str(tmp_path), "--input", "u1:-1:1:21",
    )
    assert code in (0, 10)
    result = json.loads((tmp_path / "result.json").read_text())
    assert "u1_switch21" in result["best_parameters"]


def test_falsify_sample_count_out_of_memory_is_usage_error(tmp_path, capsys, monkeypatch):
    # 10 / 1e-9 samples would take 75 GiB; the allocation is faked, never made
    arange = np.arange

    def refuse_large(n, *args, **kwargs):
        if isinstance(n, int) and n > 10**9:
            raise MemoryError(f"Unable to allocate array with shape ({n},)")
        return arange(n, *args, **kwargs)

    monkeypatch.setattr(np, "arange", refuse_large)
    out = tmp_path / "run"
    code = run_cli(
        "falsify", "--model", "omm-v1", "--table", "omm-rt0", "--budget", "5",
        "--out", str(out), "--dt", "1e-9",
    )
    assert code == 2
    assert assert_one_usage_line(capsys.readouterr().err) == (
        "usage error: --horizon/--dt: horizon 10.0 / dt 1e-09 gives 1e+10 samples,"
        " too many for an array\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--budget", "1e3", "argument --budget: expected a whole number, got '1e3'"),
        ("--runs", "two", "argument --runs: expected a whole number, got 'two'"),
        ("--dt", "abc", "argument --dt: expected a number, got 'abc'"),
        ("--input", "u1:0", "--input expects NAME:LO:HI[:K], got 'u1:0'"),
        ("--input", "u1:a:b", "--input expects NAME:LO:HI[:K], got 'u1:a:b'"),
        ("--input", "z:0:1", "--input names unknown signal 'z' (model has u1, u2)"),
        ("--input", "u1:5:1", "'u1': lower bound exceeds upper bound"),
        ("--input", "u1:0:1:-1", "'u1': discontinuity count must be >= 0"),
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


@pytest.mark.parametrize(
    "option, value, interval",
    [
        ("--sa-cooling", "1.5", "(0, 1)"),
        ("--sa-cooling", "1", "(0, 1)"),
        ("--sa-cooling", "0", "(0, 1)"),
        ("--sa-cooling", "nan", "(0, 1)"),
        ("--sa-cooling", "inf", "(0, 1)"),
        ("--sa-scale", "nan", "(0, 1]"),
        ("--sa-scale", "1.5", "(0, 1]"),
        ("--sa-scale", "0", "(0, 1]"),
        ("--sa-scale", "-0.5", "(0, 1]"),
        ("--sa-scale", "inf", "(0, 1]"),
    ],
)
def test_falsify_sa_option_out_of_range_names_the_option(tmp_path, capsys, option, value, interval):
    out = tmp_path / "run"
    code = run_cli(
        "falsify", "--model", "omm-v1", "--table", "omm-rt0", "--algo", "ur", "--budget", "5",
        "--out", str(out), option, value,
    )
    assert code == 2
    err = assert_one_usage_line(capsys.readouterr().err)
    assert err == f"usage error: argument {option}: must be in {interval}, got {value!r}\n"
    assert not out.exists()  # rejected before any search or output file


def test_falsify_sa_option_malformed_number_names_the_option(capsys):
    code = run_cli("falsify", "--model", "omm-v1", "--table", "omm-rt0", "--sa-scale", "big")
    assert code == 2
    err = assert_one_usage_line(capsys.readouterr().err)
    assert err == "usage error: argument --sa-scale: expected a number, got 'big'\n"


def test_falsify_accepts_sa_scale_one(tmp_path):
    out = tmp_path / "run"
    code = run_cli(
        "falsify", "--model", "omm-v1", "--table", "omm-rt0", "--algo", "sa", "--budget", "5",
        "--sa-cooling", "0.5", "--sa-scale", "1", "--out", str(out),
    )
    assert code in (0, 10)
    config = json.loads((out / "result.json").read_text())["config"]
    assert config["sa"] == {"initial_temperature": 1.0, "cooling": 0.5, "proposal_scale": 1.0}


def test_falsify_sa_cooled_to_zero_ends_nff(tmp_path):
    # 0.5 ** n underflows to 0.0 after about 1,075 of the 1,500 default steps
    out = tmp_path / "run"
    code = run_cli(
        "falsify", "--model", "omm-v0", "--table", "omm-rt1", "--algo", "sa",
        "--sa-cooling", "0.5", "--out", str(out),
    )
    assert code == 10
    assert json.loads((out / "result.json").read_text())["verdict"] == "NFF"


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
