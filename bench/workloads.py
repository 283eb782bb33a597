"""The benchmark's workloads: omm-grid, plant-sa and cli.

Every workload is a closed loop in one process: one search, or one CLI child
process, at a time. ``setup`` builds what a pass needs from the benchmark
seed; the program sees only the generated models, tables, search seeds and
traces. ``run_pass`` runs one pass, times each operation and checks its
output. An operation fails when it raises, exits with an unexpected code, or
produces an output that a check rejects:

* its digest differs from the one recorded in ``digests.json``;
* the boolean oracle ``replay_violation`` (tests/oracle.py) does not confirm
  a failure-revealing test case, or disagrees with the sign of a replay;
* omm-grid breaks the verdict pattern of acceptance criterion 5.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "tests")]

import numpy as np  # noqa: E402

import rtfalsify.monitor as monitor  # noqa: E402
import rtfalsify.search as search  # noqa: E402
import rtfalsify.sim as sim  # noqa: E402
from oracle import replay_violation  # noqa: E402
from rtfalsify.table import load_bundled_table  # noqa: E402

DIGEST_FILE = BENCH_DIR / "digests.json"
LAUNCHER = BENCH_DIR / "cli_launcher.py"
CLI_TIMEOUT_S = 60  # a call that hangs must not hold the run past its time limit


@dataclass
class Op:
    """One timed operation: a search or a CLI call."""

    name: str
    seconds: float
    evals: int = 0  # fitness-history entries it produced
    ok: bool = True
    detail: str = ""


class Digests:
    """Output digests recorded from a reference commit, keyed by operation.

    An operation whose key has no recorded digest is not compared; it is
    counted in ``unchecked``. With ``record`` set, such digests are stored.
    """

    def __init__(self, recorded: dict[str, str], record: bool = False):
        self.recorded = recorded
        self.record = record
        self.checked = 0
        self.unchecked = 0

    @classmethod
    def load(cls, record: bool = False) -> "Digests":
        with open(DIGEST_FILE, encoding="utf-8") as fh:
            return cls(json.load(fh), record)

    def matches(self, key: str, digest: str) -> bool:
        expected = self.recorded.get(key)
        if expected is None:
            if self.record:
                self.recorded[key] = digest
            else:
                self.unchecked += 1
            return True
        self.checked += 1
        return expected == digest


def digest_bytes(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()[:16]


def search_digest(result) -> str:
    payload = [
        result.verdict,
        result.iterations,
        [repr(f) for f in result.history],
        [repr(float(p)) for p in result.best_params],
        list(result.violated),
    ]
    return digest_bytes(json.dumps(payload).encode())


def preset_input(model: str, discontinuities: int = 1, horizon: float | None = None):
    """The CLI's default search box for a model preset."""
    preset = sim.MODEL_PRESETS[model]
    return search.ParameterizedInput(
        shapes=tuple(
            search.SignalShape(name, lo, hi, discontinuities)
            for name, (lo, hi) in preset.input_bounds.items()
        ),
        horizon=preset.horizon if horizon is None else horizon,
        dt=preset.dt,
    )


def run_search(key, model, table, automaton, pi, cfg, digests: Digests):
    """Time one ``falsify`` call and check its output; returns (Op, verdict or None)."""
    start = time.perf_counter()
    try:
        result = search.falsify(model, automaton, pi, cfg)
    except Exception as exc:  # a raising search is a failed operation, not a crash
        return Op(key, time.perf_counter() - start, ok=False, detail=repr(exc)), None
    op = Op(key, time.perf_counter() - start, evals=len(result.history))
    if not digests.matches(key, search_digest(result)):
        op.ok, op.detail = False, "digest differs from the recorded one"
    elif result.verdict == "TC" and not replay_violation(table, result.best_evaluation.trace):
        op.ok, op.detail = False, "oracle finds no violation in the TC trace"
    return op, result.verdict


# --- omm-grid: the paper's study grid ------------------------------------------

GRID_VERSIONS = ("omm-v0", "omm-v1", "omm-v2", "omm-v3")
GRID_TABLES = ("omm-rt0", "omm-rt1", "omm-rt2")
GRID_BUDGET = 1500  # smoke: 300
# acceptance criterion 5: cells that never fail, and cells that fail for some seed
NEVER_FAIL = {("omm-v0", "omm-rt0")} | {(v, "omm-rt1") for v in GRID_VERSIONS}
FAIL_SOMEWHERE = {(v, "omm-rt0") for v in GRID_VERSIONS[1:]} | {(v, "omm-rt2") for v in GRID_VERSIONS}


@dataclass
class GridState:
    tables: dict
    automata: dict
    models: dict
    pi: object
    seeds: list[int]
    budget: int


def setup_grid(seed: int, smoke: bool, workdir: Path) -> GridState:
    tables = {name: load_bundled_table(name) for name in GRID_TABLES}
    return GridState(
        tables=tables,
        automata={name: monitor.compile_table(t) for name, t in tables.items()},
        models={v: sim.make_model(v) for v in GRID_VERSIONS},
        pi=preset_input("omm-v0"),
        # seed 0 gives criterion 5's search seeds 1..5
        seeds=[5 * seed + k for k in range(1, 2 if smoke else 6)],
        budget=300 if smoke else GRID_BUDGET,
    )


def grid_pass(state: GridState, digests: Digests, tracer=None) -> list[Op]:
    ops: list[Op] = []
    cells: dict[tuple[str, str], list[tuple[Op, str | None]]] = defaultdict(list)
    for version in GRID_VERSIONS:
        for rt in GRID_TABLES:
            for s in state.seeds:
                cfg = search.SearchConfig(algorithm=search.UNIFORM_RANDOM, budget=state.budget, seed=s)
                key = f"{version}/{rt}/ur/{state.budget}/{s}"
                op, verdict = run_search(
                    key, state.models[version], state.tables[rt], state.automata[rt],
                    state.pi, cfg, digests,
                )
                ops.append(op)
                cells[(version, rt)].append((op, verdict))
    for cell, outcomes in cells.items():
        verdicts = [v for _, v in outcomes]
        if cell in NEVER_FAIL:
            for op, verdict in outcomes:
                if verdict == "TC":
                    op.ok, op.detail = False, "TC in a cell that can never fail"
        # "fails for some seed" is criterion 5's claim about its five seeds at full budget
        elif cell in FAIL_SOMEWHERE and len(verdicts) == 5 and "TC" not in verdicts:
            for op, _ in outcomes:
                op.ok, op.detail = False, "no TC in a cell that must fail for some seed"
    return ops


# --- plant-sa: simulated annealing on the plant demo -----------------------------

PLANT_BUDGET = 40
PLANT_PASS_EVALS = 120  # fitness-history entries per pass; smoke: 6


@dataclass
class PlantState:
    table: object
    automaton: object
    model: object
    pi: object
    seed: int
    evals: int


def setup_plant(seed: int, smoke: bool, workdir: Path) -> PlantState:
    table = load_bundled_table("sc")
    return PlantState(
        table=table,
        automaton=monitor.compile_table(table),
        model=sim.make_model("plant-demo"),
        pi=preset_input("plant-demo"),
        seed=seed,
        evals=6 if smoke else PLANT_PASS_EVALS,
    )


def plant_pass(state: PlantState, digests: Digests, tracer=None) -> list[Op]:
    """SA searches on successive seeds until the pass holds ``state.evals`` entries.

    Searches stop at their first TC, so a fixed entry count (the last search's
    budget is cut to what remains) keeps a pass's work independent of the mix
    of TC and NFF that the seed happens to give.
    """
    ops: list[Op] = []
    remaining = state.evals
    k = 0
    while remaining > 0:
        budget = min(PLANT_BUDGET, remaining)
        s = 1000 * state.seed + k
        cfg = search.SearchConfig(algorithm=search.SIMULATED_ANNEALING, budget=budget, seed=s)
        op, _ = run_search(
            f"plant-demo/sc/sa/{budget}/{s}", state.model, state.table, state.automaton,
            state.pi, cfg, digests,
        )
        ops.append(op)
        remaining -= op.evals if op.evals else budget
        k += 1
    return ops


# --- cli: a fixed sequence of rtfalsify child processes -------------------------

REPLAY_HORIZON_S = 350.0  # 35,001 samples at the plant's dt of 0.01 s; smoke: 35 s
REPLAY_SWITCHES = 12


@dataclass
class CliState:
    workdir: Path
    replay_csv: Path
    replay_samples: int
    seed: int
    tables: dict
    replay_violated: bool | None = None
    calls: list = field(default_factory=list)


def setup_cli(seed: int, smoke: bool, workdir: Path) -> CliState:
    """Generate the replay trace: the plant driven by a seeded step input."""
    pi = preset_input("plant-demo", REPLAY_SWITCHES, 35.0 if smoke else REPLAY_HORIZON_S)
    lows, highs = pi.bounds
    params = np.random.default_rng(seed).uniform(lows, highs)
    trace = sim.simulate(sim.make_model("plant-demo"), pi.instantiate(params))
    replay_csv = workdir / "replay.csv"
    sim.write_trace_csv(trace, str(replay_csv))
    state = CliState(
        workdir=workdir,
        replay_csv=replay_csv,
        replay_samples=trace.n_samples,
        seed=seed,
        tables={name: load_bundled_table(name) for name in ("sc", "omm-rt0")},
    )
    state.calls = [
        ("check", ["check", "sc"]),
        ("falsify-plant", ["falsify", "--model", "plant-demo", "--table", "sc", "--algo", "ur",
                           "--budget", "20", "--seed", "0", "--out", str(workdir / "plant")]),
        ("falsify-omm", ["falsify", "--model", "omm-v1", "--table", "omm-rt0", "--algo", "sa",
                         "--budget", "40", "--seed", "7", "--out", str(workdir / "omm")]),
        ("monitor", ["monitor", "sc", str(replay_csv), "--out", str(workdir / "replay")]),
    ]
    return state


def _cli_child(argv: list[str], workdir: Path, tracer) -> tuple[float, int, bytes, str]:
    """Run one rtfalsify call; returns (seconds, exit code, stdout, stderr)."""
    if tracer is None:
        cmd = [sys.executable, "-m", "rtfalsify.cli", *argv]
    else:
        spans = workdir / "spans.csv"
        cmd = [sys.executable, str(LAUNCHER), str(spans), repr(time.monotonic()), *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, env=env, cwd=ROOT, timeout=CLI_TIMEOUT_S)
    seconds = time.perf_counter() - start
    if tracer is not None and spans.exists():
        tracer.merge_file(spans)
        spans.unlink()
    return seconds, proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")


def cli_pass(state: CliState, digests: Digests, tracer=None) -> list[Op]:
    if state.replay_violated is None:  # the oracle's verdict, outside every timed call
        replay = sim.read_trace_csv(str(state.replay_csv))
        state.replay_violated = replay_violation(state.tables["sc"], replay)
    ops = []
    for name, argv in state.calls:
        if "--out" in argv:  # no output of an earlier pass may pass a check
            shutil.rmtree(argv[argv.index("--out") + 1], ignore_errors=True)
        try:
            seconds, code, stdout, stderr = _cli_child(argv, state.workdir, tracer)
        except subprocess.TimeoutExpired:
            ops.append(Op(name, CLI_TIMEOUT_S, ok=False, detail="timed out"))
            continue
        op = Op(name, seconds)
        ops.append(op)
        try:
            op.detail, op.evals = _check_cli(state, name, argv, code, stdout, digests)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            op.detail = f"unreadable output: {exc!r}"
        if op.detail:
            op.ok = False
            if stderr.strip():
                op.detail += f"; stderr: {stderr.strip().splitlines()[-1]}"
    return ops


def _check_cli(state: CliState, name, argv, code, stdout, digests) -> tuple[str, int]:
    """Check one call's exit code and outputs; returns (problem or "", history entries)."""
    if name == "check":
        if code != 0:
            return f"exit {code}", 0
        if not digests.matches("cli/check/sc", digest_bytes(stdout)):
            return "stdout digest differs from the recorded one", 0
        return "", 0

    if name == "monitor":
        if code != 0:
            return f"exit {code}", 0
        fitness_line = stdout.split(b"\n", 1)[0]  # the next line names the output path
        if (float(fitness_line.split()[1]) < 0) != state.replay_violated:
            return "fitness sign disagrees with the oracle", 0
        degrees = (state.workdir / "replay" / "degrees.csv").read_bytes()
        key = f"cli/monitor/sc/replay-{state.seed}-{state.replay_samples}"
        if not digests.matches(key, digest_bytes(fitness_line, degrees)):
            return "degree CSV digest differs from the recorded one", 0
        return "", 0

    out = Path(argv[argv.index("--out") + 1])
    raw = (out / "result.json").read_bytes()
    result = json.loads(raw)
    evals = len(result["fitness_history"])
    if code != (0 if result["verdict"] == "TC" else 10):
        return f"exit {code} for verdict {result['verdict']}", evals
    config = result["config"]
    key = "cli/falsify/{model}/{table}/{algorithm}/{budget}/{base_seed}".format(**config)
    if not digests.matches(key, digest_bytes(raw)):
        return "result.json digest differs from the recorded one", evals
    if result["verdict"] == "TC":
        trace = sim.read_trace_csv(str(out / "testcase_trace.csv"))
        if not replay_violation(state.tables[config["table"]], trace):
            return "oracle finds no violation in the TC trace", evals
    return "", evals


@dataclass(frozen=True)
class Workload:
    setup: object
    run_pass: object
    in_process: bool  # False when the program runs in child processes


WORKLOADS = {
    "omm-grid": Workload(setup_grid, grid_pass, True),
    "plant-sa": Workload(setup_plant, plant_pass, True),
    "cli": Workload(setup_cli, cli_pass, False),
}
