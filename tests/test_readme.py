"""The README's library examples run as written."""

import re
from pathlib import Path

import numpy as np

from rtfalsify import ParameterizedInput, SearchConfig, SignalShape, Trace, falsify
from rtfalsify.sim import simulate
from rtfalsify.table import parse_table

README = Path(__file__).resolve().parents[1] / "README.md"


def _python_blocks(text):
    return re.findall(r"```python\n(.*?)```", text, re.S)


def _readme_doubler():
    (block,) = [b for b in _python_blocks(README.read_text()) if "class Doubler(SystemModel)" in b]
    namespace = {}
    exec(block, namespace)
    return namespace["Doubler"]


def test_readme_doubler_simulates_and_is_falsified():
    model = _readme_doubler()()
    u = np.array([-3.0, 0.0, 1.5, 80.0])
    out = simulate(model, Trace(dt=0.5, samples={"u": u}))
    assert out.samples["y"].tolist() == (2.0 * u).tolist()

    table = parse_table("table T\ninputs u, y\nreq 1\n  post y < 150\n")
    pi = ParameterizedInput(shapes=(SignalShape("u", -100.0, 100.0),), horizon=10.0, dt=0.5)
    result = falsify(model, table, pi, SearchConfig(budget=200, seed=0))
    assert result.verdict == "TC"
    assert result.best_evaluation.trace.samples["y"].max() >= 150


def test_readme_library_example_finds_a_test_case(capsys):
    library_use = README.read_text().split("## Library use", 1)[1]
    exec(_python_blocks(library_use)[0], {})
    verdict, violated, fitness = capsys.readouterr().out.split(" ", 2)
    assert (verdict, violated) == ("TC", "(2,)")
    assert float(fitness) < 0
