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

def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected a whole number, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}")
        return value

    return parse


def _float(text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None


def _positive_float(text: str) -> float:
    value = _float(text)
    if not (0 < value < math.inf):
        raise argparse.ArgumentTypeError("must be finite and > 0")
    return value


def _fraction(*, one_allowed: bool):
    """A number in (0, 1), or in (0, 1] when ``one_allowed``; NaN is never inside."""
    interval = "(0, 1]" if one_allowed else "(0, 1)"

    def parse(text: str) -> float:
        value = _float(text)
        if not (0 < value < 1 or (one_allowed and value == 1)):
            raise argparse.ArgumentTypeError(f"must be in {interval}, got {text!r}")
        return value

    return parse


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
    p_falsify.add_argument("--budget", type=_int_at_least(1), default=1500, help="max iterations")
    p_falsify.add_argument("--seed", type=_int_at_least(0), default=0, help="random seed")
    p_falsify.add_argument(
        "--runs", type=_int_at_least(1), default=1, help="repeat with seeds seed, seed+1, ..."
    )
    p_falsify.add_argument("--out", default="out", help="output directory (default out)")
    p_falsify.add_argument(
        "--input",
        action="append",
        default=[],
        metavar="NAME:LO:HI[:K]",
        help="override one input's bounds and discontinuity count (default K=1)",
    )
    p_falsify.add_argument("--horizon", type=_positive_float, help="trace horizon in seconds")
    p_falsify.add_argument("--dt", type=_positive_float, help="trace step size in seconds")
    p_falsify.add_argument("--sa-temp", type=_positive_float, default=1.0)
    p_falsify.add_argument("--sa-cooling", type=_fraction(one_allowed=False), default=0.97)
    p_falsify.add_argument("--sa-scale", type=_fraction(one_allowed=True), default=0.1)
    return parser


def _load_table_arg(ref: str) -> RequirementsTable:
    if os.path.exists(ref):
        return load_table(ref)
    try:
        return load_bundled_table(ref)
    except FileNotFoundError:
        raise FileNotFoundError(f"table '{ref}' is neither a file nor a bundled table") from None


def _print_diagnostics(exc: TableValidationError) -> None:
    for diag in exc.diagnostics:
        print(str(diag), file=sys.stderr)


def format_fitness(x: float) -> str:
    if x == math.inf:
        return "+inf"
    if x == -math.inf:
        return "-inf"
    return repr(x)


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
    if len(parts) not in (3, 4):
        raise argparse.ArgumentTypeError(f"--input expects NAME:LO:HI[:K], got {spec!r}")
    name = parts[0]
    try:
        lower, upper = float(parts[1]), float(parts[2])
        k = int(parts[3]) if len(parts) == 4 else 1
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
    for spec in args.input:
        shape = _parse_input_override(spec)
        if shape.name not in shapes:
            raise argparse.ArgumentTypeError(
                f"--input names unknown signal '{shape.name}' (model has {', '.join(shapes)})"
            )
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


def cmd_falsify(args: argparse.Namespace) -> int:
    import json

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
        with open(os.path.join(args.out, result_file), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")
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
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "config": echo,
                    "tc_count": sum(1 for s in summaries if s["verdict"] == "TC"),
                    "runs": summaries,
                },
                fh,
                indent=2,
                allow_nan=False,
            )
            fh.write("\n")
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
        _print_diagnostics(exc)
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
