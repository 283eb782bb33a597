"""Falsification of tabular requirements over simulated systems.

Parse a requirements table, compile it into per-requirement monitor
machines that score traces with signed satisfaction degrees, and search a
parameterized input space for a test case with negative fitness.
"""

from .monitor import compile_table, run_monitor
from .search import ParameterizedInput, SearchConfig, SignalShape, falsify
from .sim import SystemModel, Trace, make_model
from .table import load_bundled_table

__version__ = "0.1.0"
