"""Falsification of tabular requirements over simulated systems.

Parse a requirements table, compile it into per-requirement monitor
machines that score traces with signed satisfaction degrees, and search a
parameterized input space for a test case with negative fitness.

The names below are imported from their modules on first use, so that
``import rtfalsify`` (and ``rtfalsify check``) loads no numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_API = {
    "compile_table": "monitor",
    "run_monitor": "monitor",
    "ParameterizedInput": "search",
    "SearchConfig": "search",
    "SignalShape": "search",
    "falsify": "search",
    "SystemModel": "sim",
    "Trace": "sim",
    "make_model": "sim",
    "load_bundled_table": "table",
}

__all__ = sorted(_API)


def __getattr__(name: str):
    if name not in _API:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_API[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_API})
