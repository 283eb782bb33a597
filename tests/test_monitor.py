import math

import numpy as np
import pytest

from rtfalsify.expr import DivisionByZeroError
from rtfalsify.monitor import (
    ConflictingActionError,
    MissingActionError,
    MonitorError,
    UndefinedDegreeError,
    compile_table,
    monitor_batch,
    run_monitor,
    write_degree_csv,
)
from rtfalsify.search import ParameterizedInput, SignalShape
from rtfalsify.sim import MODEL_PRESETS, SignalMismatchError, Trace, make_model, simulate_batch
from rtfalsify.table import RequirementsTable, load_bundled_table, parse_table

INF = math.inf


def constant_sc_trace(n=8, dt=1.0, f_s=5.0, t_s=80.0, p_s=87.25):
    return Trace(
        dt=dt,
        samples={
            "F_s": np.full(n, float(f_s)),
            "T_s": np.full(n, float(t_s)),
            "P_s": np.full(n, float(p_s)),
        },
    )


def simple_table(text):
    return compile_table(parse_table(text))


# --- compile ------------------------------------------------------------------


def test_compile_sc_machines(sc_table):
    automaton = compile_table(sc_table)
    assert len(automaton.requirements) == 3
    assert [r.duration for r in automaton.requirements] == [None, None, 5.0]
    # the machines run the table's own rows, not copies
    assert all(a is b for a, b in zip(automaton.requirements, sc_table.requirements, strict=True))
    assert automaton.prev_signals == ("F_s",)


def test_compile_unconditioned_requirement_has_true_guard():
    automaton = simple_table("table T\ninputs x\nreq 1\n  post x > 0\n")
    assert len(automaton.requirements) == 1
    assert automaton.requirements[0].precondition is None


# --- phases -------------------------------------------------------------------
# A phase shows in the degrees: a requirement with a postcondition emits a
# finite degree exactly on its POA steps, +inf in PRC and WT.


def sc_trace(f_s, dt=1.0):
    n = len(f_s)
    return Trace(
        dt=dt,
        samples={
            "F_s": np.array(f_s, dtype=float),
            "T_s": np.full(n, 80.0),
            "P_s": np.full(n, 87.25),
        },
    )


def active_steps(run, j):
    return [k for k, row in enumerate(run.degrees) if row[j] != INF]


def test_init_phases_on_sc(sc_table):
    run = run_monitor(compile_table(sc_table), sc_trace([5.0] * 7))
    # req 1 (no guard) is active at once, req 2 waits for t = 30, req 3 enters
    # WT at step 0 and reaches POA when its 5 s have elapsed
    assert run.degrees[0][1:] == [INF, INF]
    assert active_steps(run, 0) == list(range(7))
    assert active_steps(run, 2) == [5, 6]


def test_init_guard_false_stays_prc(sc_table):
    run = run_monitor(compile_table(sc_table), sc_trace([0.0] + [5.0] * 7))
    assert active_steps(run, 2) == [6, 7]  # the timer starts at step 1, not 0


def test_init_time_guard_enters_poa_immediately():
    automaton = simple_table(
        "table T\ninputs x\nreq 1\n  pre t >= 0\n  post x > 0\n"
    )
    run = run_monitor(automaton, Trace(dt=1.0, samples={"x": np.array([1.0])}))
    assert run.degrees == [[1.0]]


def test_init_executes_actions(sc_table):
    run = run_monitor(compile_table(sc_table), sc_trace([5.0]))
    # prev(F_s) reads the declared init of F_s = 4.0 at step 0
    assert run.outputs == {"F_diff": [1.0]}


def test_window_guard_fires_at_thirty(sc_table):
    run = run_monitor(compile_table(sc_table), sc_trace([0.0] * 62, dt=0.5))
    assert run.degrees[59][1] == INF  # t = 29.5
    assert run.degrees[60][1] == 0.25  # t = 30.0


def test_waiting_phase_elapses_into_poa(sc_table):
    run = run_monitor(compile_table(sc_table), sc_trace([5.0] * 6))
    assert [row[2] == INF for row in run.degrees] == [True] * 5 + [False]


def test_waiting_phase_aborts_to_prc_on_guard_drop(sc_table):
    run = run_monitor(compile_table(sc_table), sc_trace([5.0, 5.0, 0.0] + [5.0] * 6))
    assert run.degrees[2][2] == INF
    assert active_steps(run, 2) == [8]  # the timer restarted at step 3


def test_poa_returns_to_prc_when_guard_drops():
    automaton = simple_table(
        "table T\ninputs x\nreq 1\n  pre x > 0\n  post x < 10\n"
    )
    run = run_monitor(automaton, Trace(dt=1.0, samples={"x": np.array([1.0, -1.0, 2.0])}))
    assert run.degrees == [[9.0], [INF], [8.0]]


def test_one_transition_per_step_for_positive_duration():
    # the guard turning true and the timer elapsing take separate steps
    automaton = simple_table(
        "table T\ninputs x\nreq 1\n  pre x > 0\n  dur 1\n  post x > 5\n"
    )
    run = run_monitor(automaton, Trace(dt=1.0, samples={"x": np.array([-1.0, 7.0, 7.0])}))
    assert run.degrees == [[INF], [INF], [2.0]]


def test_zero_duration_behaves_like_no_duration():
    zero = simple_table("table T\ninputs x\nreq 1\n  pre x > 0\n  dur 0\n  post x > 5\n")
    none = simple_table("table T\ninputs x\nreq 1\n  pre x > 0\n  post x > 5\n")
    values = [-1.0, 7.0, 7.0, -2.0, 6.0, 6.0]
    trace = Trace(dt=1.0, samples={"x": np.array(values)})
    run_zero = run_monitor(zero, trace)
    run_none = run_monitor(none, trace)
    assert run_zero.degrees == run_none.degrees
    assert run_zero.fitness == run_none.fitness


def test_phase_exclusivity_and_no_wt_without_duration():
    automaton = simple_table("table T\ninputs x\nreq 1\n  pre x > 0\n  post x > 1\n")
    x = np.random.default_rng(5).uniform(-2, 2, size=50)
    run = run_monitor(automaton, Trace(dt=1.0, samples={"x": x}))
    # without a duration the machine is in POA exactly when the guard holds
    assert [row[0] != INF for row in run.degrees] == list(x > 0)


# --- actions ------------------------------------------------------------------


def test_prev_action_first_difference(sc_table):
    automaton = compile_table(sc_table)
    rng = np.random.default_rng(11)
    n = 40
    f_s = rng.uniform(0.0, 8.0, size=n)
    trace = Trace(
        dt=1.0,
        samples={"F_s": f_s, "T_s": np.full(n, 80.0), "P_s": np.full(n, 87.25)},
    )
    run = run_monitor(automaton, trace)
    assert run.outputs["F_diff"][0] == f_s[0] - 4.0
    for k in range(1, n):
        assert run.outputs["F_diff"][k] == f_s[k] - f_s[k - 1]


def test_missing_action_stops_the_run():
    automaton = simple_table(
        "table T\ninputs x\noutputs y\ninit y = 0\n"
        "req 1\n  pre x > 0\n  post x > -1\n  action y = x\n"
    )
    trace = Trace(dt=1.0, samples={"x": np.array([1.0, -1.0])})
    with pytest.raises(MissingActionError):
        run_monitor(automaton, trace)


def test_conflicting_actions_stop_the_run():
    automaton = simple_table(
        "table T\ninputs x\noutputs y\ninit y = 0\n"
        "req 1\n  post x > -100\n  action y = x\n"
        "req 2\n  post x > -100\n  action y = x + 1\n"
    )
    trace = Trace(dt=1.0, samples={"x": np.array([1.0])})
    with pytest.raises(ConflictingActionError):
        run_monitor(automaton, trace)


def test_agreeing_duplicate_actions_are_fine():
    automaton = simple_table(
        "table T\ninputs x\noutputs y\ninit y = 0\n"
        "req 1\n  post x > -100\n  action y = x\n"
        "req 2\n  post x > -100\n  action y = x\n"
    )
    trace = Trace(dt=1.0, samples={"x": np.array([1.0, 2.0])})
    run = run_monitor(automaton, trace)
    assert run.outputs["y"] == [1.0, 2.0]


def test_action_only_requirement_contributes_inf():
    automaton = simple_table(
        "table T\ninputs x\noutputs y\ninit y = 0\n"
        "req 1\n  post -\n  action y = x\n"
    )
    trace = Trace(dt=1.0, samples={"x": np.array([1.0, 2.0])})
    run = run_monitor(automaton, trace)
    assert run.fitness == INF
    assert run.outputs["y"] == [1.0, 2.0]


def test_postcondition_can_read_current_action_output():
    automaton = simple_table(
        "table T\ninputs x\noutputs y\ninit y = 0\n"
        "req 1\n  post y > 0\n  action y = x * 2\n"
    )
    trace = Trace(dt=1.0, samples={"x": np.array([3.0, -1.0])})
    run = run_monitor(automaton, trace)
    assert run.degrees == [[6.0], [-2.0]]


# --- whole-run behavior ---------------------------------------------------------


def test_inactive_requirement_contributes_inf(sc_table):
    automaton = compile_table(sc_table)
    run = run_monitor(automaton, constant_sc_trace(n=8, f_s=5.0))
    # req 2's window starts at t=30; this trace ends at t=7
    assert all(row[1] == INF for row in run.degrees)


def test_violation_inside_window(sc_table):
    automaton = compile_table(sc_table)
    n = 40
    p_s = np.full(n, 87.25)
    p_s[32:35] = 87.9  # exits the (87, 87.5) band inside t in [30, 35]
    trace = Trace(
        dt=1.0,
        samples={"F_s": np.full(n, 5.0), "T_s": np.full(n, 80.0), "P_s": p_s},
    )
    run = run_monitor(automaton, trace)
    assert run.fitness < 0


def test_fitness_is_minimum_of_margins():
    automaton = simple_table(
        "table T\ninputs x\nreq 1\n  post x > 0\nreq 2\n  post x < 1\n"
    )
    trace = Trace(dt=1.0, samples={"x": np.array([0.2, 0.3, 0.3])})
    run = run_monitor(automaton, trace)
    assert run.fitness == 0.2


def test_empty_table_is_vacuously_satisfied():
    automaton = compile_table(RequirementsTable(name="Empty", inputs=("x",)))
    trace = Trace(dt=1.0, samples={"x": np.zeros(5)})
    assert run_monitor(automaton, trace).fitness == INF


def test_running_minimum_is_monotone(sc_table):
    automaton = compile_table(sc_table)
    rng = np.random.default_rng(3)
    n = 60
    trace = Trace(
        dt=1.0,
        samples={
            "F_s": rng.uniform(0, 8, n),
            "T_s": rng.uniform(78, 82, n),
            "P_s": rng.uniform(86, 89, n),
        },
    )
    run = run_monitor(automaton, trace)
    assert all(a >= b for a, b in zip(run.running, run.running[1:]))
    assert run.fitness == run.running[-1]


def test_requirement_order_does_not_change_fitness():
    a = parse_table("table T\ninputs x\nreq 1\n  post x > 0\nreq 2\n  pre x > 1\n  post x < 3\n")
    b = parse_table("table T\ninputs x\nreq 1\n  pre x > 1\n  post x < 3\nreq 2\n  post x > 0\n")
    trace = Trace(dt=1.0, samples={"x": np.array([0.5, 2.0, 4.0, -0.25])})
    assert run_monitor(compile_table(a), trace).fitness == run_monitor(compile_table(b), trace).fitness


@pytest.mark.parametrize(
    "post",
    [
        "x * 1e308 * 10 - x * 1e308 * 10 > 0",
        "x > 5 & x * 1e308 * 10 - x * 1e308 * 10 > 0",
        "x * 1e308 * 10 - x * 1e308 * 10 > 0 | x > 5",
    ],
    ids=["atom", "and-rhs", "or-lhs"],
)
def test_nan_degree_is_an_error(post):
    # inf - inf is NaN; whatever the operand order of & and |, it must not pass as a degree
    automaton = simple_table(f"table T\ninputs x\nreq 1\n  pre x > 0\n  post {post}\n")
    trace = Trace(dt=0.5, samples={"x": np.array([-1.0, -1.0, 1.0])})
    with pytest.raises(MonitorError, match=r"requirement 1 .*t=1\.0"):
        run_monitor(automaton, trace)


def test_missing_trace_column_is_rejected(sc_table):
    automaton = compile_table(sc_table)
    trace = Trace(dt=1.0, samples={"F_s": np.zeros(3)})
    with pytest.raises(SignalMismatchError):
        run_monitor(automaton, trace)


def test_degree_csv_layout(tmp_path, sc_table):
    automaton = compile_table(sc_table)
    run = run_monitor(automaton, constant_sc_trace(n=3))
    path = tmp_path / "degrees.csv"
    write_degree_csv(run, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "t,ff_1,ff_2,ff_3,ff_total_running"
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "0.0"
    assert first[2] == "inf"


# --- which error a run stops with -------------------------------------------------

NAN_POST = "x * 1e308 * 10 - x * 1e308 * 10 > 0"  # inf - inf for any x != 0


@pytest.mark.parametrize(
    "rows, x, error, t",
    [
        # an earlier step wins over a later one
        ("req 1\n  pre x > 0\n  action y = 1\nreq 2\n  post 1 / (x - 2) > 0\n",
         [1.0, -1.0, 2.0], MissingActionError, 1.0),
        ("req 1\n  pre 1 / x > 0\n  post x > 0\nreq 2\n  post " + NAN_POST + "\n  action y = 0\n",
         [1.0, 0.0], UndefinedDegreeError, 0.0),
        # within a step: guards, actions, missing outputs, postconditions
        ("req 1\n  pre 1 / x > 0\n  post x > 0\nreq 2\n  post " + NAN_POST + "\n  action y = 0\n",
         [0.0, 1.0], DivisionByZeroError, None),
        ("req 1\n  post x > 0\n  action y = x\n"
         "req 2\n  pre x > 0\n  post x > 0\n  action y = x + 1\n",
         [1.0], ConflictingActionError, 0.0),
        ("req 1\n  pre x > 0\n  action y = x\nreq 2\n  post " + NAN_POST + "\n",
         [-1.0], MissingActionError, 0.0),
        # within a stage, requirement order
        ("req 1\n  post " + NAN_POST + "\n  action y = 0\nreq 2\n  post 1 / (x - x) > 0\n",
         [1.0], UndefinedDegreeError, 0.0),
        ("req 1\n  post 1 / (x - x) > 0\n  action y = 0\nreq 2\n  post " + NAN_POST + "\n",
         [1.0], DivisionByZeroError, None),
    ],
)
def test_first_error_of_the_run_wins(rows, x, error, t):
    automaton = simple_table("table T\ninputs x\noutputs y\ninit y = 0\n" + rows)
    with pytest.raises(error) as raised:
        run_monitor(automaton, Trace(dt=1.0, samples={"x": np.array(x)}))
    assert getattr(raised.value, "t", None) == t


def test_short_circuit_guards_do_not_divide():
    automaton = simple_table("table T\ninputs x\nreq 1\n  pre x > 0 & 1 / x > 0\n  post x < 5\n")
    run = run_monitor(automaton, Trace(dt=1.0, samples={"x": np.array([0.0, 2.0])}))
    assert run.degrees == [[INF], [3.0]]


DIVIDING_ROWS = [
    "req 1\n  pre 1 / x > 0\n  action y = 0\n",  # a guard divides
    "req 1\n  pre x > -1\n  action y = 1 / x\n",  # an action divides
    "req 1\n  pre x > -1\n  action y = prev(y) + 1 / x\n",  # ... one step at a time
]


@pytest.mark.parametrize("rows", DIVIDING_ROWS)
@pytest.mark.parametrize(
    "x, error, t",
    [
        ([1.0, 0.0, -2.0], DivisionByZeroError, None),  # divides at step 1, unset at step 2
        ([1.0, -2.0, 0.0], MissingActionError, 1.0),  # unset at step 1, divides at step 2
    ],
)
def test_division_by_zero_raises_at_its_step(rows, x, error, t):
    automaton = simple_table("table T\ninputs x\noutputs y\ninit y = 0\n" + rows)
    with pytest.raises(error) as raised:
        run_monitor(automaton, Trace(dt=1.0, samples={"x": np.array(x)}))
    assert getattr(raised.value, "t", None) == t


# --- a batch equals its candidates run one at a time --------------------------------


def preset_input(name):
    preset = MODEL_PRESETS[name]
    shapes = tuple(SignalShape(s, lo, hi) for s, (lo, hi) in preset.input_bounds.items())
    return ParameterizedInput(shapes=shapes, horizon=preset.horizon, dt=preset.dt)


def same_floats(a, b):
    """Equal bit for bit, so -0.0 differs from 0.0."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize(
    "model_name, table_name, n",
    [("plant-demo", "sc", 16)]
    + [(f"omm-v{v}", f"omm-rt{r}", 24) for v in range(4) for r in range(3)],
)
def test_batch_equals_batches_of_one(model_name, table_name, n):
    pi = preset_input(model_name)
    automaton = compile_table(load_bundled_table(table_name))
    lows, highs = pi.bounds
    params = np.random.default_rng(n).uniform(lows, highs, size=(n, lows.size))
    params[0] = np.where(lows <= 0.0, 0.0, lows)  # zero levels give zero degrees
    params[1] = np.where(lows <= 0.0, -0.0, lows)
    params[2] = np.where(lows < 0.0, -0.4, highs)  # violates omm-rt2
    signals = simulate_batch(make_model(model_name), pi.instantiate_batch(params), pi.dt)
    batch = monitor_batch(automaton, signals, pi.times)
    for c in range(n):
        one = monitor_batch(automaton, {s: v[c : c + 1] for s, v in signals.items()}, pi.times)
        assert same_floats(batch.degrees[c], one.degrees[0])
        assert same_floats(batch.fitness[c], one.fitness[0])
        assert batch.outputs.keys() == one.outputs.keys()
        for name, values in batch.outputs.items():
            assert same_floats(values[c], one.outputs[name][0])
