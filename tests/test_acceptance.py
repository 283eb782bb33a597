"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The random-pair criteria share the generators in oracle.py; every
tolerance is written out here, nothing is deferred to calibration.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from rtfalsify.expr import Const, Rel, SignalRef
from rtfalsify.monitor import compile_table, run_monitor
from rtfalsify.search import ParameterizedInput, SearchConfig, SignalShape, evaluate, falsify
from rtfalsify.sim import Trace, make_model
from rtfalsify.table import Requirement, RequirementsTable, load_bundled_table, parse_table
from oracle import near_boundary, random_table, random_trace, replay_violation

INF = math.inf


def report(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance criterion {number} [{name}]: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed{suffix}"


# --- criterion 1: sign-of-fitness soundness ------------------------------------


def test_criterion_1_soundness_against_boolean_oracle():
    rng = np.random.default_rng(20240811)
    started = time.monotonic()
    evaluated = 0
    excluded = 0
    disagreements = 0
    attempts = 0
    while evaluated < 1000 and attempts < 1400:
        attempts += 1
        table = random_table(rng)
        trace = random_trace(rng)
        automaton = compile_table(table)
        run = run_monitor(automaton, trace)
        if near_boundary(run, 1e-9):
            excluded += 1
            continue
        evaluated += 1
        monitor_violation = run.fitness < 0
        oracle_violation = replay_violation(table, trace)
        if monitor_violation != oracle_violation:
            disagreements += 1
    elapsed = time.monotonic() - started
    detail = (
        f"{evaluated} pairs, {excluded} boundary-excluded, "
        f"{disagreements} disagreements, {elapsed:.1f}s"
    )
    report(1, "soundness", evaluated >= 1000 and disagreements == 0 and elapsed < 60.0, detail)


# --- criterion 2: directionality -------------------------------------------------


def _threshold_table(c):
    return RequirementsTable(
        name="Ladder",
        inputs=("P_s",),
        requirements=(
            Requirement(index=1, postcondition=Rel("<", SignalRef("P_s"), Const(float(c)))),
        ),
    )


def test_criterion_2_directionality():
    rng = np.random.default_rng(7)
    base = rng.uniform(-3.0, 1.0, size=80)
    peak = float(base.max())
    trace = Trace(dt=0.5, samples={"P_s": base})

    thresholds = peak + np.linspace(0.25, 5.0, 10)
    satisfying = [
        run_monitor(compile_table(_threshold_table(c)), trace).fitness for c in thresholds
    ]
    increasing = all(a < b for a, b in zip(satisfying, satisfying[1:]))
    assert all(f > 0 for f in satisfying)

    automaton = compile_table(_threshold_table(0.0))
    violating = []
    for peak_value in np.linspace(0.5, 5.0, 10):
        values = rng.uniform(-3.0, -1.0, size=80)
        values[40] = peak_value
        violating.append(run_monitor(automaton, Trace(dt=0.5, samples={"P_s": values})).fitness)
    decreasing = all(a > b for a, b in zip(violating, violating[1:]))
    assert all(f < 0 for f in violating)

    report(2, "directionality", increasing and decreasing)


# --- criterion 3: duration semantics ---------------------------------------------


def _held_guard_trace(hold_steps, n=20, k0=4):
    values = np.full(n, -1.0)
    values[k0 : k0 + hold_steps] = 1.0
    return Trace(dt=1.0, samples={"u": values})


def test_criterion_3_duration_semantics():
    duration = 3.0
    dt = 1.0
    k0 = 4
    automaton = compile_table(
        parse_table("table T\ninputs u\nreq 1\n  pre u > 0\n  dur 3\n  post u > -100\n")
    )

    # guard held exactly duration - dt seconds: spans d/dt samples, never POA
    run_short = run_monitor(automaton, _held_guard_trace(int(duration / dt)))
    never_poa = all(row[0] == INF for row in run_short.degrees)

    # guard held >= duration: POA exactly on the step where et reaches it
    run_long = run_monitor(automaton, _held_guard_trace(int(duration / dt) + 3))
    first_active = next(k for k, row in enumerate(run_long.degrees) if row[0] != INF)
    on_time = first_active == k0 + int(duration / dt)

    report(3, "duration-semantics", never_poa and on_time)


# --- criterion 4: prev/action correctness ----------------------------------------


def test_criterion_4_prev_action_first_difference():
    table = load_bundled_table("sc")
    automaton = compile_table(table)
    init_f_s = table.initial_values["F_s"]
    rng = np.random.default_rng(17)
    exact = True
    for _ in range(20):
        n = int(rng.integers(30, 120))
        f_s = rng.uniform(0.0, 8.0, size=n)
        trace = Trace(
            dt=0.5,
            samples={
                "F_s": f_s,
                "T_s": rng.uniform(78.0, 82.0, size=n),
                "P_s": rng.uniform(86.0, 89.0, size=n),
            },
        )
        run = run_monitor(automaton, trace)
        diff = run.outputs["F_diff"]
        exact &= diff[0] == f_s[0] - init_f_s
        exact &= all(diff[k] == f_s[k] - f_s[k - 1] for k in range(1, n))
    report(4, "prev-action", exact)


# --- criterion 5: gain-model study grid ------------------------------------------


def test_criterion_5_gain_model_grid():
    started = time.monotonic()
    pi = ParameterizedInput(
        shapes=(
            SignalShape("u1", -100.0, 100.0),
            SignalShape("u2", -100.0, 100.0),
        ),
        horizon=10.0,
        dt=0.5,
    )
    tables = {i: compile_table(load_bundled_table(f"omm-rt{i}")) for i in (0, 1, 2)}
    versions = ("omm-v0", "omm-v1", "omm-v2", "omm-v3")
    seeds = (1, 2, 3, 4, 5)

    verdicts = {}
    for version in versions:
        model = make_model(version)
        for rt in (0, 1, 2):
            outcomes = []
            for seed in seeds:
                cfg = SearchConfig(algorithm="uniform-random", budget=1500, seed=seed)
                outcomes.append(falsify(model, tables[rt], pi, cfg).verdict)
            verdicts[(version, rt)] = outcomes

    must_never_fail = [("omm-v0", 0)] + [(v, 1) for v in versions]
    must_fail_somewhere = [(v, 0) for v in versions[1:]] + [(v, 2) for v in versions]

    ok = True
    for combo in must_never_fail:
        ok &= all(v == "NFF" for v in verdicts[combo])
    for combo in must_fail_somewhere:
        ok &= any(v == "TC" for v in verdicts[combo])
    elapsed = time.monotonic() - started
    report(5, "gain-model-grid", ok and elapsed < 300.0, f"{elapsed:.1f}s")


# --- criterion 6: aggregator equivalence -----------------------------------------


def test_criterion_6_aggregator_equivalence():
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(100):
        table = random_table(rng)
        trace = random_trace(rng, n_min=20, n_max=80)
        run = run_monitor(compile_table(table), trace)
        flattened = [d for row in run.degrees for d in row]
        ok &= run.fitness == min(flattened, default=INF)
    report(6, "aggregator-equivalence", ok)


# --- criterion 7: result-file determinism ----------------------------------------


def test_criterion_7_result_file_determinism(tmp_path):
    def run_once(out_dir):
        cmd = [
            sys.executable,
            "-m",
            "rtfalsify.cli",
            "falsify",
            "--model", "omm-v1",
            "--table", "omm-rt0",
            "--algo", "sa",
            "--budget", "40",
            "--seed", "7",
            "--out", str(out_dir),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode in (0, 10), proc.stderr
        return (out_dir / "result.json").read_bytes()

    first = run_once(tmp_path / "a")
    second = run_once(tmp_path / "b")
    report(7, "determinism", first == second, f"{len(first)} bytes")


# --- criterion 8: demo run on the built-in plant ----------------------------------


def test_criterion_8_plant_demo_oracle_agreement():
    # Iteration-count comparisons against proprietary simulator benchmarks are
    # out of scope at desk scale; the substitute is the soundness machinery of
    # criterion 1 applied to traces of the built-in plant, around one
    # documented demo falsification run.
    table = load_bundled_table("sc")
    automaton = compile_table(table)
    model = make_model("plant-demo")
    pi = ParameterizedInput(shapes=(SignalShape("F_s", 3.5, 4.5),), horizon=35.0, dt=0.01)

    result = falsify(model, automaton, pi, SearchConfig(algorithm="uniform-random", budget=20, seed=0))

    rng = np.random.default_rng(1)
    lows, highs = pi.bounds
    checked = 0
    agreed = 0
    candidates = [result.best_params] + [rng.uniform(lows, highs) for _ in range(10)]
    for params in candidates:
        ev = evaluate(model, automaton, pi, params)
        if near_boundary(ev.run, 1e-9):
            continue
        checked += 1
        if (ev.fitness < 0) == replay_violation(table, ev.trace):
            agreed += 1
    report(
        8,
        "plant-demo-oracle-agreement",
        checked >= 5 and agreed == checked,
        f"demo verdict {result.verdict} in {result.iterations} iterations, "
        f"{agreed}/{checked} traces agree",
    )


# --- known gap: boundary soundness (ROADMAP item 4) -------------------------------


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 4: a fitness of exactly 0 on a saturated output is not a TC yet",
)
def test_saturated_output_on_the_bound_is_a_test_case():
    # omm-v0 clamps y1 at exactly 10.2 for every u1 >= 10.2, so `y1 < 10.2`
    # is classically false there while its degree is 0.0
    table = parse_table("table T\ninputs u1, u2, y1, y2\nreq 1\n  post y1 < 10.2\n")
    pi = ParameterizedInput(
        shapes=(SignalShape("u1", -100.0, 100.0, 0), SignalShape("u2", -100.0, 100.0)),
        horizon=10.0,
        dt=0.5,
    )
    result = falsify(make_model("omm-v0"), table, pi, SearchConfig(budget=300, seed=0))
    assert replay_violation(table, result.best_evaluation.trace)
    assert result.verdict == "TC"
