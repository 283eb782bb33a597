"""What each entry point loads: the CLI and the package import only the layers they use."""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rtfalsify
import rtfalsify.cli as cli
from rtfalsify.sim import MODEL_PRESETS, Trace, write_trace_csv

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"

# runs cli.main in a fresh interpreter, then reports its exit code and what it loaded
_MAIN = """
import sys
from rtfalsify.cli import main
code = main(sys.argv[1:])
print(code, *(name in sys.modules for name in ("numpy", "rtfalsify.search")))
"""


def _main_in_child(*argv, cwd):
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN, *argv], capture_output=True, text=True, cwd=cwd, check=True
    )
    code, numpy_loaded, search_loaded = proc.stdout.split()[-3:]
    return int(code), numpy_loaded == "True", search_loaded == "True"


@pytest.mark.parametrize(
    "argv, code",
    [
        (("check", "sc"), 0),
        (("check", "missing.rt"), 3),
        (("--help",), 0),
        (("falsify", "--budget", "0"), 2),
    ],
    ids=["check", "check-missing-file", "help", "usage-error"],
)
def test_commands_without_a_trace_load_no_numpy(tmp_path, argv, code):
    assert _main_in_child(*argv, cwd=tmp_path) == (code, False, False)


def test_monitor_loads_no_search(tmp_path):
    write_trace_csv(
        Trace(dt=1.0, samples={"F_s": np.full(3, 4.0), "T_s": np.full(3, 80.0), "P_s": np.ones(3)}),
        str(tmp_path / "trace.csv"),
    )
    assert _main_in_child("monitor", "sc", "trace.csv", cwd=tmp_path) == (0, True, False)


def test_model_choices_are_the_presets():
    assert cli.MODEL_NAMES == tuple(sorted(MODEL_PRESETS))


@pytest.mark.parametrize(
    "name",
    ["falsify", "run_monitor", "compile_table", "read_trace_csv", "write_trace_csv", "write_degree_csv"],
)
def test_traced_cli_names_are_module_level_callables(name):
    # bench/tracing.py rebinds these entries of the module's namespace
    assert callable(cli.__dict__[name])


def test_benchmark_tracer_installs_on_the_current_layers(monkeypatch, omm_pi, omm_tables):
    # bench/tracing.py rebinds layer names it looks up in their modules' namespaces:
    # a name a change to the package drops fails here, not only in the benchmark
    import rtfalsify.monitor as monitor
    import rtfalsify.search as search
    import rtfalsify.table as table
    from rtfalsify.sim import make_model

    spec = importlib.util.spec_from_file_location("bench_tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclass resolves names there
    spec.loader.exec_module(tracing)
    owners = (cli, monitor, search, table, search.ParameterizedInput)
    before = [dict(vars(owner)) for owner in owners]
    with tracing.installed(tracing.Tracer()) as tracer:
        assert [dict(vars(owner)) for owner in owners] != before
        search.falsify(make_model("omm-v1"), omm_tables[0], omm_pi, search.SearchConfig(budget=3))
    assert [dict(vars(owner)) for owner in owners] == before
    assert "search.falsify" in {span[1] for span in tracer.spans}


def _readme_api() -> list[str]:
    block = re.search(r"from rtfalsify import \(([^)]*)\)", README.read_text()).group(1)
    return [name.strip() for name in block.split(",") if name.strip()]


def test_package_import_loads_no_numpy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, rtfalsify; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        check=True,
    )
    assert proc.stdout == "False\n"


def test_package_api_is_the_defining_modules_objects():
    names = [*_readme_api(), "SystemModel", "Trace"]
    assert len(names) == 10
    assert sorted(rtfalsify.__all__) == sorted(names)
    assert set(names) <= set(dir(rtfalsify))
    for name in names:
        value = getattr(rtfalsify, name)
        assert value is getattr(sys.modules[value.__module__], name)
    assert rtfalsify.falsify is rtfalsify.search.falsify


def test_package_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        rtfalsify.nope  # noqa: B018
