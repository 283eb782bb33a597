"""Command-line front end.

Three subcommands tie the pieces together:

* ``check <table.rt>``: parse and validate a table.
* ``monitor <table.rt> <trace.csv>``: replay a recorded trace through the
  compiled monitor, print the fitness, write the per-step degree CSV.
* ``falsify --model ... --table ...``: search for a failure-revealing test
  case; writes machine-readable result files plus, on success, the test
  case trace and its degree trace.

Exit codes are a stable contract: 0 a failure-revealing test case was found
(or, for check/monitor, success), 10 no failure found within the budget,
1 table validation failed, 2 syntax or usage error, 3 runtime error.

A command loads only the layers it runs: ``check``, ``--help`` and usage
errors import the table parser and no numpy, and ``monitor`` does not
import the search.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import asdict, replace
from importlib import import_module
from typing import TYPE_CHECKING, Sequence

from .expr import RunError
from .table import (
    RequirementsTable,
    TableSyntaxError,
    TableValidationError,
    load_bundled_table,
    load_table,
)

if TYPE_CHECKING:
    from .search import FalsificationResult, ParameterizedInput, SearchConfig, SignalShape

EXIT_TC = 0
EXIT_OK = 0
EXIT_INVALID = 1
EXIT_SYNTAX = 2
EXIT_RUNTIME = 3
EXIT_NFF = 10

# sorted(sim.MODEL_PRESETS), kept here so that building the parser loads no
# numpy; a test checks that the two agree
MODEL_NAMES = ("omm-v0", "omm-v1", "omm-v2", "omm-v3", "plant-demo")


def _layer_function(module: str, name: str):
    """A module-level stand-in for ``module.name`` that imports the module on first call.

    Commands call the layers only through these names, so each command loads
    only the layers it runs, and tracing tools can rebind the names here.
    """

    def call(*args, **kwargs):
        return getattr(import_module(f"{__package__}.{module}"), name)(*args, **kwargs)

    call.__name__ = call.__qualname__ = name
    return call


compile_table = _layer_function("monitor", "compile_table")
run_monitor = _layer_function("monitor", "run_monitor")
write_degree_csv = _layer_function("monitor", "write_degree_csv")
falsify = _layer_function("search", "falsify")
read_trace_csv = _layer_function("sim", "read_trace_csv")
write_trace_csv = _layer_function("sim", "write_trace_csv")


def _ascii(convert, text: str):
    """``convert(text)``, but ValueError for non-ASCII digits and ``_``, as in ``.rt`` cells."""
    if not text.isascii() or "_" in text:
        raise ValueError(text)
    return convert(text)


def _number(convert, accepts, requirement: str):
    """An argparse type: ``convert(text)`` if ``accepts`` takes it, else ``requirement``.

    ``requirement`` may quote the argument as ``{!r}``; NaN fails every bound.
    """
    noun = "a whole number" if convert is int else "a number"

    def parse(text: str):
        try:
            value = _ascii(convert, text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {noun}, got {text!r}") from None
        if not accepts(value):
            raise argparse.ArgumentTypeError(requirement.format(text))
        return value

    return parse


_COUNT = _number(int, lambda n: n >= 1, "must be >= 1")
_SEED = _number(int, lambda n: n >= 0, "must be >= 0")
_POSITIVE = _number(float, lambda x: 0 < x < math.inf, "must be finite and > 0")
_COOLING = _number(float, lambda x: 0 < x < 1, "must be in (0, 1), got {!r}")
_SCALE = _number(float, lambda x: 0 < x <= 1, "must be in (0, 1], got {!r}")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one ``usage error:`` line; subcommands inherit it."""

    def error(self, message: str):
        self.exit(EXIT_SYNTAX, f"usage error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rtfalsify",
        description="Falsification of tabular requirements over simulated systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="parse and validate a requirements table")
    p_check.add_argument("table", help="path to a .rt file or a bundled table name")

    p_monitor = sub.add_parser("monitor", help="replay a recorded trace through the monitor")
    p_monitor.add_argument("table", help="path to a .rt file or a bundled table name")
    p_monitor.add_argument("trace", help="trace CSV with a leading t column")
    p_monitor.add_argument("--out", default=".", help="directory for degrees.csv (default .)")

    p_falsify = sub.add_parser("falsify", help="search for a failure-revealing test case")
    p_falsify.add_argument(
        "--model", required=True, choices=MODEL_NAMES, help="built-in model preset"
    )
    p_falsify.add_argument("--table", required=True, help="path to a .rt file or bundled name")
    p_falsify.add_argument(
        "--algo",
        choices=("ur", "sa"),
        default="ur",
        help="search algorithm: ur = uniform random, sa = simulated annealing",
    )
    p_falsify.add_argument("--budget", type=_COUNT, default=1500, help="max iterations")
    p_falsify.add_argument("--seed", type=_SEED, default=0, help="random seed")
    p_falsify.add_argument(
        "--runs", type=_COUNT, default=1, help="repeat with seeds seed, seed+1, ..."
    )
    p_falsify.add_argument("--out", default="out", help="output directory (default out)")
    p_falsify.add_argument(
        "--input",
        action="append",
        default=[],
        metavar="NAME:LO:HI[:K]",
        help="override one input's bounds and discontinuity count (default K=1)",
    )
    p_falsify.add_argument("--horizon", type=_POSITIVE, help="trace horizon in seconds")
    p_falsify.add_argument("--dt", type=_POSITIVE, help="trace step size in seconds")
    p_falsify.add_argument("--sa-temp", type=_POSITIVE, default=1.0)
    p_falsify.add_argument("--sa-cooling", type=_COOLING, default=0.97)
    p_falsify.add_argument("--sa-scale", type=_SCALE, default=0.1)
    return parser


def _load_table_arg(ref: str) -> RequirementsTable:
    if os.path.exists(ref):
        return load_table(ref)
    try:
        return load_bundled_table(ref)
    except FileNotFoundError:
        raise FileNotFoundError(f"table '{ref}' is neither a file nor a bundled table") from None


def format_fitness(x: float) -> str:
    return "+inf" if x == math.inf else repr(x)  # repr(-inf) is already '-inf'


def _json_value(x: float):
    if math.isfinite(x):
        return x
    return "inf" if x > 0 else "-inf"


def cmd_check(args: argparse.Namespace) -> int:
    table = _load_table_arg(args.table)
    n = len(table.requirements)
    print(f"ok: table '{table.name}' with {n} requirement{'s' if n != 1 else ''}")
    return EXIT_OK


def cmd_monitor(args: argparse.Namespace) -> int:
    table = _load_table_arg(args.table)
    trace = read_trace_csv(args.trace)
    run = run_monitor(compile_table(table), trace)
    os.makedirs(args.out, exist_ok=True)
    out_path = os.path.join(args.out, "degrees.csv")
    write_degree_csv(run, out_path)
    print(f"fitness {format_fitness(run.fitness)}")
    print(f"degree trace written to {out_path}")
    return EXIT_OK


def _parse_input_override(spec: str) -> SignalShape:
    from .search import SignalShape

    parts = spec.split(":")
    try:  # a wrong number of parts fails the unpacking
        name, lower, upper, k = parts if len(parts) == 4 else (*parts, "1")
        lower, upper, k = _ascii(float, lower), _ascii(float, upper), _ascii(int, k)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--input expects NAME:LO:HI[:K], got {spec!r}") from None
    return SignalShape(name=name, lower=lower, upper=upper, discontinuities=k)


def _build_run_setup(args: argparse.Namespace) -> tuple[ParameterizedInput, SearchConfig, dict]:
    from .search import (
        SIMULATED_ANNEALING,
        UNIFORM_RANDOM,
        ParameterizedInput,
        SAConfig,
        SearchConfig,
        SignalShape,
    )
    from .sim import MODEL_PRESETS

    preset = MODEL_PRESETS[args.model]
    shapes = {
        name: SignalShape(name=name, lower=lo, upper=hi)
        for name, (lo, hi) in preset.input_bounds.items()
    }
    overridden = set()
    for spec in args.input:
        shape = _parse_input_override(spec)
        if shape.name not in shapes:
            raise argparse.ArgumentTypeError(
                f"--input names unknown signal '{shape.name}' (model has {', '.join(shapes)})"
            )
        if shape.name in overridden:
            raise argparse.ArgumentTypeError(f"--input names signal '{shape.name}' twice")
        overridden.add(shape.name)
        shapes[shape.name] = shape
    horizon = args.horizon if args.horizon is not None else preset.horizon
    dt = args.dt if args.dt is not None else preset.dt
    try:
        pi = ParameterizedInput(shapes=tuple(shapes.values()), horizon=horizon, dt=dt)
    except ValueError as exc:  # the shapes are checked: only the sample count is left
        raise ValueError(f"--horizon/--dt: {exc}") from None
    if pi.times.size < 2:  # monitor infers dt from a trace file's first two rows
        raise ValueError(
            f"--horizon/--dt: horizon {horizon!r} / dt {dt!r} gives 1 sample, "
            "but a test-case trace needs at least 2"
        )
    for shape in pi.shapes:  # more switches than samples make no new trace, only a huge box
        if shape.discontinuities > pi.times.size:
            raise argparse.ArgumentTypeError(
                f"--input '{shape.name}': K={shape.discontinuities} exceeds the trace's "
                f"{pi.times.size} samples"
            )

    algorithm = UNIFORM_RANDOM if args.algo == "ur" else SIMULATED_ANNEALING
    sa = SAConfig(
        initial_temperature=args.sa_temp,
        cooling=args.sa_cooling,
        proposal_scale=args.sa_scale,
    )
    cfg = SearchConfig(algorithm=algorithm, budget=args.budget, seed=args.seed, sa=sa)

    echo = {
        "model": args.model,
        "table": args.table,
        "algorithm": algorithm,
        "budget": args.budget,
        "base_seed": args.seed,
        "runs": args.runs,
        "sa": asdict(sa),
        "inputs": [asdict(s) for s in pi.shapes],
        "horizon": horizon,
        "dt": dt,
    }
    return pi, cfg, echo


def _result_payload(result: FalsificationResult, pi: ParameterizedInput, seed: int, echo: dict):
    names = [p.name for p in pi.parameters]
    return {
        "verdict": result.verdict,
        "seed": seed,
        "config": echo,
        "iterations": result.iterations,
        "best_fitness": _json_value(result.best_fitness),
        "best_parameters": {
            name: float(v) for name, v in zip(names, result.best_params)
        },
        "violated_requirements": list(result.violated),
        "fitness_history": [_json_value(f) for f in result.history],
    }


# the fields of a result file that summary.json repeats for each run, in its order
_SUMMARY_KEYS = ("seed", "verdict", "iterations", "best_fitness", "violated_requirements")


def _write_json(path: str, payload: dict) -> None:
    import json

    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, allow_nan=False)
        fh.write("\n")


def cmd_falsify(args: argparse.Namespace) -> int:
    from .search import _check_signals
    from .sim import make_model

    table = _load_table_arg(args.table)
    pi, base_cfg, echo = _build_run_setup(args)
    model = make_model(args.model)
    _check_signals(model, table, pi)  # a mismatch fails before --out is made
    os.makedirs(args.out, exist_ok=True)

    summaries = []
    any_tc = False
    for i in range(args.runs):
        seed = args.seed + i
        result = falsify(model, table, pi, replace(base_cfg, seed=seed))
        any_tc = any_tc or result.failure_found

        suffix = f"_{i + 1}" if args.runs > 1 else ""
        result_file = f"result{suffix}.json"
        payload = _result_payload(result, pi, seed, echo)
        _write_json(os.path.join(args.out, result_file), payload)
        if result.failure_found:
            trace_path = os.path.join(args.out, f"testcase_trace{suffix}.csv")
            degrees_path = os.path.join(args.out, f"testcase_degrees{suffix}.csv")
            write_trace_csv(result.best_evaluation.trace, trace_path)
            write_degree_csv(result.best_evaluation.run, degrees_path)

        violated = ", ".join(str(v) for v in result.violated) or "-"
        print(
            f"run {i + 1}/{args.runs} seed={seed}: {result.verdict} "
            f"after {result.iterations} iterations, "
            f"fitness {format_fitness(result.best_fitness)}, violated [{violated}]"
        )
        summaries.append(
            {key: payload[key] for key in _SUMMARY_KEYS} | {"result_file": result_file}
        )

    if args.runs > 1:
        summary_path = os.path.join(args.out, "summary.json")
        tc_count = sum(1 for s in summaries if s["verdict"] == "TC")
        _write_json(summary_path, {"config": echo, "tc_count": tc_count, "runs": summaries})
        print(f"summary written to {summary_path}")

    return EXIT_TC if any_tc else EXIT_NFF


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # 0 after --help, EXIT_SYNTAX after a usage error
        return int(exc.code or 0)

    try:
        if args.command == "check":
            return cmd_check(args)
        if args.command == "monitor":
            return cmd_monitor(args)
        return cmd_falsify(args)
    except TableSyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except TableValidationError as exc:
        for diag in exc.diagnostics:
            print(diag, file=sys.stderr)
        return EXIT_INVALID
    except (argparse.ArgumentTypeError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except (OSError, RunError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
