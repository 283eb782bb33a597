"""Aggregation of the degrees into the running minimum and the fitness.

Each test feeds chosen degrees through ``run_monitor``: requirement j of
the table emits ``steps[k][j]`` at step k, and +inf where it is inactive.
"""

import math

import numpy as np

from rtfalsify.monitor import compile_table, run_monitor
from rtfalsify.sim import Trace
from rtfalsify.table import RequirementsTable, parse_table

INF = math.inf


def run_degrees(steps):
    width = len(steps[0])
    names = [f"x{j}" for j in range(width)] + [f"g{j}" for j in range(width)]
    text = "table T\ninputs " + ", ".join(names) + "\n"
    text += "".join(f"req {j + 1}\n  pre g{j} > 0\n  post x{j} > 0\n" for j in range(width))
    values = np.array(steps, dtype=float).reshape(len(steps), width)
    samples = {f"x{j}": np.where(values[:, j] == INF, 0.0, values[:, j]) for j in range(width)}
    samples.update({f"g{j}": np.where(values[:, j] == INF, -1.0, 1.0) for j in range(width)})
    return run_monitor(compile_table(parse_table(text)), Trace(dt=1.0, samples=samples))


def test_min_of_step():
    run = run_degrees([(0.25, INF, 1.3)])
    assert run.degrees.tolist() == [[0.25, INF, 1.3]]
    assert run.running.tolist() == [0.25] and run.fitness == 0.25


def test_running_value_wins_over_larger_step():
    assert run_degrees([(-0.1,), (5.0,)]).running.tolist() == [-0.1, -0.1]


def test_empty_step_is_identity():
    assert run_degrees([(2.0,), (INF,)]).running.tolist() == [2.0, 2.0]
    empty = compile_table(RequirementsTable(name="Empty", inputs=("x",)))
    run = run_monitor(empty, Trace(dt=1.0, samples={"x": np.zeros(3)}))
    assert run.degrees.tolist() == [[], [], []] and run.running.tolist() == [INF] * 3


def test_finalize_sequence():
    run = run_degrees([(1.0,), (0.2,), (0.7,)])
    assert run.running.tolist() == [1.0, 0.2, 0.2] and run.fitness == 0.2


def test_finalize_without_steps_is_vacuous():
    assert run_degrees([(INF, INF), (INF, INF)]).fitness == INF


def test_negative_infinity_absorbs():
    run = run_degrees([(0.5,), (1.0,), (-INF,), (3.0,)])
    assert run.running.tolist() == [0.5, 0.5, -INF, -INF] and run.fitness == -INF


def test_online_equals_batch_fold():
    steps = [(3.0, 1.5), (INF, 0.25), (INF, INF), (-1.0, 7.0)]
    run = run_degrees(steps)
    flattened = [d for step in steps for d in step]
    assert run.fitness == min(flattened, default=INF)
    assert run.running.tolist() == [min(flattened[: 2 * (k + 1)]) for k in range(len(steps))]


def test_aggregation_is_order_insensitive():
    steps = [(0.4, 2.0), (1.1, -0.3)]
    reversed_steps = [tuple(reversed(step)) for step in reversed(steps)]
    assert run_degrees(steps).fitness == run_degrees(reversed_steps).fitness


def test_ties_aggregate_as_the_smallest_violation():
    # `x > 0` is false at x = 0.0 and at x = -0.0: both tie to -5e-324
    tie = -math.ulp(0.0)
    assert run_degrees([(0.0, -0.0)]).fitness == run_degrees([(-0.0, 0.0)]).fitness == tie
    run = run_degrees([(1.0, -0.0), (0.0, 2.0), (-1.0, INF)])
    assert run.running.tolist() == [tie, tie, -1.0]
