import os
from pathlib import Path

import pytest

import rtfalsify
from rtfalsify import ParameterizedInput, SignalShape, load_bundled_table

# tests that start `python -m rtfalsify.cli` need the package the tests import
_SOURCE = str(Path(rtfalsify.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SOURCE, os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def sc_table():
    return load_bundled_table("sc")


@pytest.fixture(scope="session")
def omm_tables():
    return {name: load_bundled_table(f"omm-rt{name}") for name in (0, 1, 2)}


@pytest.fixture()
def omm_pi():
    return ParameterizedInput(
        shapes=(
            SignalShape("u1", -100.0, 100.0),
            SignalShape("u2", -100.0, 100.0),
        ),
        horizon=10.0,
        dt=0.5,
    )
