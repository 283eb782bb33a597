import json
import math
import tracemalloc

import numpy as np
import pytest

import rtfalsify.search as search
from rtfalsify.expr import BinaryArith, Const, Not, PrevRef, Rel, SignalRef
from rtfalsify.monitor import compile_table, run_monitor
from rtfalsify.search import (
    ArityMismatchError,
    Evaluation,
    OutOfBoundsError,
    ParameterizedInput,
    SAConfig,
    SearchConfig,
    SignalShape,
    acceptance_probability,
    evaluate,
    falsify,
    violated_requirements,
)
from rtfalsify.sim import NonFiniteOutputError, SignalMismatchError, SystemModel, Trace, make_model
from rtfalsify.table import (
    Assignment,
    Requirement,
    RequirementsTable,
    TableValidationError,
    parse_table,
)

INF = math.inf


def single_signal_pi(horizon=30.0, dt=1.0, k=1):
    return ParameterizedInput(
        shapes=(SignalShape("u", 0.0, 10.0, discontinuities=k),), horizon=horizon, dt=dt
    )


# --- instantiate ---------------------------------------------------------------


def test_piecewise_constant_two_levels():
    trace = single_signal_pi().instantiate([2.0, 5.0, 10.0])
    times = trace.times
    values = trace.samples["u"]
    assert np.all(values[times < 10.0] == 2.0)
    assert np.all(values[times >= 10.0] == 5.0)


def test_equal_levels_make_a_constant_trace():
    trace = single_signal_pi().instantiate([3.0, 3.0, 17.0])
    assert np.all(trace.samples["u"] == 3.0)


def test_switch_at_zero_degenerates_to_second_level():
    trace = single_signal_pi().instantiate([2.0, 5.0, 0.0])
    assert np.all(trace.samples["u"] == 5.0)


def test_switch_times_are_sorted_before_use():
    pi = single_signal_pi(k=2)
    a = pi.instantiate([1.0, 2.0, 3.0, 10.0, 20.0])
    b = pi.instantiate([1.0, 2.0, 3.0, 20.0, 10.0])
    assert np.array_equal(a.samples["u"], b.samples["u"])


def test_parameter_layout():
    pi = ParameterizedInput(
        shapes=(SignalShape("u1", -1.0, 1.0), SignalShape("u2", 0.0, 2.0, discontinuities=2)),
        horizon=5.0,
        dt=1.0,
    )
    names = [p.name for p in pi.parameters]
    assert names == [
        "u1_level0",
        "u1_level1",
        "u1_switch1",
        "u2_level0",
        "u2_level1",
        "u2_level2",
        "u2_switch1",
        "u2_switch2",
    ]
    switch = pi.parameters[2]
    assert (switch.lower, switch.upper) == (0.0, 5.0)


def test_bounds_and_times_are_computed_once_and_read_only(omm_pi):
    assert omm_pi.bounds is omm_pi.bounds and omm_pi.times is omm_pi.times
    for values in (*omm_pi.bounds, omm_pi.times):
        with pytest.raises(ValueError):
            values[0] = 1.0


@pytest.mark.parametrize(
    "lower, upper", [(-math.inf, 1.0), (0.0, math.inf), (math.nan, 1.0), (-1e308, 1e308)]
)
def test_signal_shape_needs_a_finite_range(lower, upper):
    with pytest.raises(ValueError, match="finite"):
        SignalShape("u", lower, upper)


@pytest.mark.parametrize(
    "shapes, horizon, dt, message",
    [
        (
            (SignalShape("u", 0.0, 1.0), SignalShape("u", 5.0, 6.0)),
            10.0,
            1.0,
            "duplicate signal 'u'",
        ),
        ((), 10.0, 1.0, "need at least one input signal"),
        ((SignalShape("u", 0.0, 1.0),), -1.0, 1.0, "horizon must be >= 0"),
        ((SignalShape("u", 0.0, 1.0),), 10.0, 0.0, "dt must be > 0"),
    ],
    ids=["duplicate-name", "no-shapes", "negative-horizon", "zero-dt"],
)
def test_parameterized_input_construction_errors(shapes, horizon, dt, message):
    with pytest.raises(ValueError, match=message):
        ParameterizedInput(shapes=shapes, horizon=horizon, dt=dt)


def test_arity_and_bounds_errors():
    pi = single_signal_pi()
    with pytest.raises(ArityMismatchError):
        pi.instantiate([1.0, 2.0])
    with pytest.raises(OutOfBoundsError):
        pi.instantiate([1.0, 99.0, 10.0])


@pytest.mark.parametrize(
    "horizon, dt, message",
    [
        (1e300, 1e-300, "not finite"),
        (10.0, 1e-300, "too many for an array"),
        # numpy's arange gives an empty array for 2**63 + 1, not an error
        (2.0**63, 1.0, "too many for an array"),
    ],
)
def test_unusable_sample_count_fails_at_construction(horizon, dt, message):
    # no count here can be allocated, so the check costs no memory
    with pytest.raises(ValueError, match=message):
        single_signal_pi(horizon=horizon, dt=dt)


def test_full_horizon_is_covered():
    trace = single_signal_pi(horizon=30.0, dt=1.0).instantiate([1.0, 2.0, 29.5])
    assert trace.n_samples == 31
    assert trace.times[-1] == 30.0


def per_signal_instantiate(pi, values):
    """Reference: one compare, count and gather per signal."""
    samples, offset = {}, 0
    for shape in pi.shapes:
        k = shape.discontinuities
        levels = values[:, offset : offset + k + 1]
        switches = values[:, offset + k + 1 : offset + 2 * k + 1]
        offset += 2 * k + 1
        segment = (switches[:, :, None] <= pi.times).sum(axis=1)
        samples[shape.name] = levels[np.arange(len(values))[:, None], segment]
    return samples


@pytest.mark.parametrize(
    "counts", [(0,), (3,), (0, 0), (1, 0), (0, 2), (2, 0, 1), (5, 0, 0, 1), (1, 1)]
)
@pytest.mark.parametrize("horizon, dt", [(10.0, 0.5), (0.0, 1.0), (3.0, 0.7)])
def test_instantiate_batch_matches_a_per_signal_gather(counts, horizon, dt):
    shapes = tuple(SignalShape(f"s{j}", -1.0, 1.0, k) for j, k in enumerate(counts))
    pi = ParameterizedInput(shapes=shapes, horizon=horizon, dt=dt)
    lows, highs = pi.bounds
    rng = np.random.default_rng(sum(counts) + len(counts))
    for rows in (1, 2, 7):
        values = lows + (highs - lows) * rng.random((rows, lows.size))
        # switches exactly on sample times, at 0 and at the horizon, and ±0.0 levels
        is_switch = np.array(["_switch" in p.name for p in pi.parameters])
        on_grid = rng.choice(np.append(pi.times, horizon), size=values.shape)
        values = np.where(is_switch & (rng.random(values.shape) < 0.5), on_grid, values)
        values = np.where(~is_switch & (rng.random(values.shape) < 0.2), -0.0, values)
        got = pi.instantiate_batch(values)
        expected = per_signal_instantiate(pi, values)
        assert list(got) == [s.name for s in shapes]
        for name, signal in expected.items():
            assert got[name].shape == (rows, pi.times.size)
            assert [repr(v) for v in got[name].ravel().tolist()] == [
                repr(v) for v in signal.ravel().tolist()
            ]


def test_instantiate_batch_memory_does_not_grow_with_the_switch_count():
    # one switch per sample: a switches-by-samples comparison would take about 4 MB
    pi = single_signal_pi(horizon=200.0, dt=0.1, k=2000)
    assert pi.times.size == 2001
    lows, highs = pi.bounds
    values = lows + (highs - lows) * np.random.default_rng(0).random((1, lows.size))
    tracemalloc.start()
    try:
        pi.instantiate_batch(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# --- evaluate -------------------------------------------------------------------


def forced_params(u1, u2, switch=5.0):
    return [u1, u1, switch, u2, u2, switch]


def test_evaluate_forced_violation(omm_pi, omm_tables):
    ev = evaluate(make_model("omm-v1"), omm_tables[0], omm_pi, forced_params(-100.0, 0.5))
    assert ev.fitness == -0.49
    assert violated_requirements(ev.run) == (2,)


@pytest.mark.parametrize(
    "x, violated",
    [
        ([3.0, 1.0], (1, 3)),  # rows 1 and 3 tie at -1.0
        ([3.0, INF], (2,)),  # row 2's degree is 10 - inf = -inf
        ([3.0, 2.0], (1, 3)),  # rows 1 and 3 tie at -5e-324: x > 2 is false at x == 2
    ],
)
def test_violated_requirements_are_the_rows_at_the_minimum(x, violated):
    automaton = compile_table(
        parse_table(
            "table T\ninputs x\nreq 1\n  post x > 2\nreq 2\n  post x < 10\nreq 3\n  post 2 < x\n"
        )
    )
    run = run_monitor(automaton, Trace(dt=1.0, samples={"x": np.array(x)}))
    got = violated_requirements(run)
    assert got == violated
    assert json.dumps(list(got)) == json.dumps(list(violated))


def test_evaluate_clean_model_never_negative(omm_pi, omm_tables):
    rng = np.random.default_rng(2)
    model = make_model("omm-v0")
    automaton = compile_table(omm_tables[0])
    for _ in range(20):
        params = rng.uniform(*omm_pi.bounds)
        ev = evaluate(model, automaton, omm_pi, params)
        assert ev.fitness >= 0


def test_evaluate_empty_table_is_vacuous(omm_pi):
    empty = RequirementsTable(name="Empty", inputs=("u1", "u2"))
    ev = evaluate(make_model("omm-v0"), empty, omm_pi, forced_params(1.0, 1.0))
    assert ev.fitness == INF


def test_a_table_is_validated_once(monkeypatch, omm_pi):
    import rtfalsify.monitor as monitor
    import rtfalsify.table as table_module

    validate, calls = table_module.validate, []

    def counting(table):
        calls.append(table)
        return validate(table)

    # each module-level name through which a layer could check a table
    for module in (table_module, monitor):
        monkeypatch.setattr(module, "validate", counting, raising=False)
    table = parse_table("table T\ninputs u1, u2\nreq 1\n  post u1 < 200\n")
    compiled = compile_table(table)
    falsify(make_model("omm-v0"), table, omm_pi, SearchConfig(budget=3))
    evaluate(make_model("omm-v0"), table, omm_pi, forced_params(1.0, 1.0))
    assert calls == [table]
    assert compiled is table


# --- annealing mechanics --------------------------------------------------------


def test_improving_moves_always_accepted():
    assert acceptance_probability(-1.0, 0.5) == 1.0
    assert acceptance_probability(0.0, 0.5) == 1.0


def test_vacuous_proposal_from_finite_point_is_rejected():
    # +inf fitness enters the delta as a huge finite penalty
    from rtfalsify.search import _metropolis_delta

    delta = _metropolis_delta(INF, 0.3)
    assert acceptance_probability(delta, 1.0) == 0.0


def test_acceptance_vanishes_as_temperature_drops():
    probs = [acceptance_probability(0.5, T) for T in (1.0, 0.1, 1e-3, 1e-9)]
    assert all(a >= b for a, b in zip(probs, probs[1:]))
    assert probs[-1] == 0.0
    assert acceptance_probability(1.0, 0.0) == 0.0  # cooling underflowed to 0


def test_annealing_proposals_stay_in_bounds(monkeypatch, omm_pi, omm_tables):
    # at full scale most Gaussian steps leave the box and must be clamped back into
    # it; an unclamped proposal would raise OutOfBoundsError in instantiate_batch
    proposals = []
    evaluate_batch = search._evaluate_batch

    def recording(model, automaton, pi, params):
        proposals.append(params[0].copy())
        return evaluate_batch(model, automaton, pi, params)

    monkeypatch.setattr(search, "_evaluate_batch", recording)
    cfg = SearchConfig(
        algorithm="simulated-annealing", budget=60, seed=0, sa=SAConfig(proposal_scale=1.0)
    )
    result = falsify(make_model("omm-v3"), omm_tables[1], omm_pi, cfg)
    assert result.iterations == len(proposals) == 60
    lows, highs = omm_pi.bounds
    proposals = np.array(proposals)
    assert np.all(proposals >= lows) and np.all(proposals <= highs)
    assert np.count_nonzero((proposals == lows) | (proposals == highs)) > 60


# --- falsify --------------------------------------------------------------------


def test_falsify_finds_cross_gain_fault(omm_pi, omm_tables):
    cfg = SearchConfig(algorithm="uniform-random", budget=1500, seed=1)
    result = falsify(make_model("omm-v1"), omm_tables[0], omm_pi, cfg)
    assert result.verdict == "TC"
    assert result.best_fitness < 0
    assert result.iterations <= 1500
    assert 2 in result.violated
    assert json.loads(json.dumps(list(result.violated))) == list(result.violated)


def test_falsify_unsatisfiable_requirement_is_nff(omm_pi, omm_tables):
    cfg = SearchConfig(algorithm="uniform-random", budget=200, seed=1)
    result = falsify(make_model("omm-v3"), omm_tables[1], omm_pi, cfg)
    assert result.verdict == "NFF"
    assert result.iterations == 200
    assert all(f >= 0 for f in result.history)
    assert result.violated == ()


def test_equal_fitnesses_keep_the_first_candidate(omm_pi):
    # u1 never exceeds 1000, so every candidate is vacuous and all five tie at +inf
    table = parse_table("table T\ninputs u1, y1\nreq 1\n  pre u1 > 1000\n  post y1 > 0\n")
    result = falsify(make_model("omm-v1"), table, omm_pi, SearchConfig(budget=5, seed=3))
    assert (result.verdict, result.history) == ("NFF", [INF] * 5)
    lows, highs = omm_pi.bounds
    drawn = lows + (highs - lows) * np.random.default_rng(3).random((5, lows.size))
    assert result.best_params.tolist() == drawn[0].tolist()


def test_falsify_budget_one_with_lucky_seed(omm_pi, omm_tables):
    # seed 11's very first sample violates, so the search stops immediately
    cfg = SearchConfig(algorithm="uniform-random", budget=1, seed=11)
    result = falsify(make_model("omm-v0"), omm_tables[2], omm_pi, cfg)
    assert result.verdict == "TC"
    assert result.iterations == 1


def test_verdict_matches_history_sign(omm_pi, omm_tables):
    for seed in range(4):
        cfg = SearchConfig(algorithm="uniform-random", budget=60, seed=seed)
        result = falsify(make_model("omm-v2"), omm_tables[2], omm_pi, cfg)
        assert (result.verdict == "TC") == (min(result.history) < 0)
        assert result.best_fitness == min(result.history)
        if result.verdict == "TC":
            # early stop: only the last recorded fitness is negative
            assert all(f >= 0 for f in result.history[:-1])


def test_falsify_is_deterministic(omm_pi, omm_tables):
    model = make_model("omm-v1")
    for algo in ("uniform-random", "simulated-annealing"):
        cfg = SearchConfig(algorithm=algo, budget=40, seed=9)
        a = falsify(model, omm_tables[0], omm_pi, cfg)
        b = falsify(model, omm_tables[0], omm_pi, cfg)
        assert a.history == b.history
        assert a.verdict == b.verdict
        assert np.array_equal(a.best_params, b.best_params)
        assert a.violated == b.violated


def test_simulated_annealing_improves_on_plateau(omm_pi, omm_tables):
    cfg = SearchConfig(
        algorithm="simulated-annealing",
        budget=400,
        seed=2,
        sa=SAConfig(initial_temperature=1.0, cooling=0.97, proposal_scale=0.1),
    )
    result = falsify(make_model("omm-v1"), omm_tables[0], omm_pi, cfg)
    assert result.iterations <= 400
    assert result.best_fitness <= result.history[0]


def test_uniform_sampling_covers_the_box(omm_pi):
    rng = np.random.default_rng(123)
    lows, highs = omm_pi.bounds
    samples = rng.uniform(lows, highs, size=(10_000, len(lows)))
    means = samples.mean(axis=0)
    mids = (lows + highs) / 2
    assert np.all(np.abs(means - mids) <= 0.05 * (highs - lows))


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(budget=0)
    with pytest.raises(ValueError):
        SearchConfig(algorithm="hill-climbing")
    with pytest.raises(ValueError):
        SearchConfig(seed=-1)
    for temperature in (0.0, math.nan):
        with pytest.raises(ValueError, match="^initial temperature must be > 0$"):
            SAConfig(initial_temperature=temperature)
    with pytest.raises(ValueError):
        SAConfig(cooling=1.0)
    with pytest.raises(ValueError):
        SAConfig(proposal_scale=0.0)


class ThresholdModel(SystemModel):
    """y = u, but a NaN output (a NonFiniteOutputError) once u exceeds the threshold."""

    inputs = ("u",)
    outputs = ("y",)

    def __init__(self, threshold):
        self.threshold = threshold

    def step(self, state, inputs, dt):
        u = inputs["u"]
        return {"y": u if u <= self.threshold else math.nan}


class CountingModel(SystemModel):
    """A memoryless y = u that counts its batches."""

    inputs = ("u",)
    outputs = ("y",)
    batches = 0

    def run_batch(self, inputs, dt):
        self.batches += 1
        return {"y": inputs["u"]}


@pytest.mark.parametrize(
    "inputs, table_inputs, message",
    [
        (("u", "w"), "u, y", "input trace is missing signals: w"),
        (("u",), "u, v, y, z", "trace is missing table inputs: v, z"),
    ],
    ids=["model-input", "table-input"],
)
def test_signal_mismatch_fails_before_any_simulation(inputs, table_inputs, message):
    def table(names):
        return parse_table(f"table T\ninputs {names}\nreq 1\n  post y < 5\n")

    model, matched = CountingModel(), CountingModel()
    model.inputs = inputs
    with pytest.raises(SignalMismatchError, match=f"^{message}$"):
        falsify(model, table(table_inputs), single_signal_pi(), SearchConfig(budget=10))
    assert model.batches == 0
    falsify(matched, table("u, y"), single_signal_pi(), SearchConfig(budget=10))
    assert matched.batches > 0


_FIVE = Const(5.0)
_Y_BELOW_FIVE = Rel("<", SignalRef("y"), _FIVE)


def _nested_not(levels):
    e = _Y_BELOW_FIVE
    for _ in range(levels):
        e = Not(e)
    return e


@pytest.mark.parametrize(
    "row, message",
    [
        (
            Requirement(1, postcondition=Rel("=>", SignalRef("y"), _FIVE)),
            "postcondition: unknown operator '=>'",
        ),
        (
            Requirement(1, postcondition=Rel("<", BinaryArith("%", SignalRef("y"), _FIVE), _FIVE)),
            "postcondition: unknown operator '%'",
        ),
        (
            Requirement(1, precondition=SignalRef("u"), postcondition=_Y_BELOW_FIVE),
            "precondition: expected a condition, found SignalRef",
        ),
        (
            Requirement(1, actions=(Assignment("z", _Y_BELOW_FIVE),)),
            "action value: expected an arithmetic expression, found Rel",
        ),
        (
            Requirement(1, postcondition=_nested_not(5000)),
            "postcondition: nested deeper than 100 levels",
        ),
        (
            Requirement(1, postcondition=Rel("<", SignalRef("y"), Const("x"))),
            "postcondition: constant 'x' is not a number",
        ),
        (
            Requirement(1, postcondition=Rel("<", SignalRef("y"), Const(None))),
            "postcondition: constant None is not a number",
        ),
        (
            Requirement(1, postcondition=Rel("<", SignalRef(3), SignalRef("y"))),
            "postcondition: signal name 3 is not a string",
        ),
        # a malformed cell's names are not read, so prev(y) asks for no init
        (
            Requirement(1, postcondition=Rel("<", PrevRef(3), PrevRef("y"))),
            "postcondition: signal name 3 is not a string",
        ),
    ],
    ids=[
        "relation", "arithmetic", "signal-precondition", "condition-action", "deep",
        "text-constant", "none-constant", "int-signal-name", "int-prev-name",
    ],
)
def test_malformed_cell_fails_before_any_simulation(row, message):
    # hand-built cells the parser never makes: validation rejects them, so the
    # engine never meets them
    outputs = ("z",) if row.actions else ()
    table = RequirementsTable(
        name="T",
        inputs=("u", "y"),
        outputs=outputs,
        initial_values=dict.fromkeys(outputs, 0.0),
        requirements=(row,),
    )
    model = CountingModel()
    with pytest.raises(TableValidationError) as err:
        falsify(model, table, single_signal_pi(), SearchConfig(budget=10))
    assert [str(d) for d in err.value.diagnostics] == [f"req 1: MalformedExpression: {message}"]
    assert model.batches == 0
    trace = Trace(dt=1.0, samples={"u": np.zeros(3), "y": np.zeros(3)})
    with pytest.raises(TableValidationError):
        run_monitor(table, trace)


def sequential_outcome(model, automaton, pi, seed, budget):
    """What a one-candidate-at-a-time search meets first: ("TC", iteration) or the error."""
    rng = np.random.default_rng(seed)
    lows, highs = pi.bounds
    for i in range(budget):
        params = rng.uniform(lows, highs)
        try:
            if evaluate(model, automaton, pi, params).fitness < 0:
                return ("TC", i + 1)
        except NonFiniteOutputError as exc:
            return ("error", str(exc))
    return ("NFF", budget)


def test_batched_uniform_search_meets_what_a_sequential_one_does():
    pi = single_signal_pi(horizon=10.0, dt=1.0, k=0)
    automaton = compile_table(parse_table("table T\ninputs u, y\nreq 1\n  post y < 8\n"))
    outcomes = set()
    for seed in range(12):
        for threshold in (8.5, 9.0):
            model = ThresholdModel(threshold)
            expected = sequential_outcome(model, automaton, pi, seed, budget=200)
            try:
                result = falsify(model, automaton, pi, SearchConfig(budget=200, seed=seed))
                got = (result.verdict, result.iterations)
            except NonFiniteOutputError as exc:
                got = ("error", str(exc))
            assert got == expected
            outcomes.add(got[0])
    assert outcomes == {"TC", "error"}


def sequential_annealing_outcome(model, automaton, pi, sa, seed, budget):
    """Annealing's proposals stepped through ``evaluate``, drawing as ``falsify`` does."""
    rng = np.random.default_rng(seed)
    lows, highs = pi.bounds
    params, current, temperature = rng.uniform(lows, highs), None, sa.initial_temperature
    for i in range(budget):
        if current is not None:
            noise = rng.normal(0.0, 1.0, size=lows.size) * sa.proposal_scale * (highs - lows)
            params = np.clip(current + noise, lows, highs)
        try:
            fitness = evaluate(model, automaton, pi, params).fitness
        except NonFiniteOutputError as exc:
            return ("error", str(exc))
        if fitness < 0:
            return ("TC", i + 1)
        if current is None:
            current, current_fitness = params, fitness
            continue
        delta = min(fitness, search.VACUOUS_PENALTY) - min(current_fitness, search.VACUOUS_PENALTY)
        if rng.random() < acceptance_probability(delta, temperature):
            current, current_fitness = params, fitness
        temperature *= sa.cooling
    return ("NFF", budget)


def test_annealing_meets_what_a_sequential_run_does():
    pi = single_signal_pi(horizon=10.0, dt=1.0, k=0)
    automaton = compile_table(parse_table("table T\ninputs u, y\nreq 1\n  post y < 8\n"))
    sa = SAConfig(proposal_scale=0.3)
    outcomes = set()
    for seed in range(12):
        for threshold in (8.5, 9.0):
            model = ThresholdModel(threshold)
            expected = sequential_annealing_outcome(model, automaton, pi, sa, seed, budget=60)
            cfg = SearchConfig(algorithm="simulated-annealing", budget=60, seed=seed, sa=sa)
            try:
                result = falsify(model, automaton, pi, cfg)
                got = (result.verdict, result.iterations)
            except NonFiniteOutputError as exc:
                got = ("error", str(exc))
            assert got == expected
            outcomes.add(got[0])
    assert {"TC", "error"} <= outcomes


def test_best_evaluation_is_reproducible(omm_pi, omm_tables):
    cfg = SearchConfig(algorithm="uniform-random", budget=100, seed=4)
    result = falsify(make_model("omm-v1"), omm_tables[0], omm_pi, cfg)
    again = evaluate(make_model("omm-v1"), omm_tables[0], omm_pi, result.best_params)
    assert isinstance(result.best_evaluation, Evaluation)
    assert again.fitness == result.best_fitness


def search_outcome(model, automaton, pi, cfg):
    """Everything a uniform search reports, as plain values; an error by its type and text."""
    try:
        result = falsify(model, automaton, pi, cfg)
    except NonFiniteOutputError as exc:
        return ("error", str(exc))
    best = result.best_evaluation
    return (
        result.verdict,
        result.iterations,
        [repr(f) for f in result.history],
        [repr(p) for p in result.best_params.tolist()],
        result.violated,
        repr(best.fitness),
        [[repr(d) for d in row] for row in best.run.degrees.tolist()],
        [repr(r) for r in best.run.running.tolist()],
        {name: values.tolist() for name, values in best.trace.samples.items()},
    )


def test_uniform_results_do_not_depend_on_batch_size(monkeypatch, omm_pi, omm_tables):
    # omm-v1 x omm-rt0 (21-sample traces): at the default 195 candidates a batch, seeds 5,
    # 10 and 4 meet their test case in the first batch and 1 in the second; at 2^10
    # candidate-samples (48 candidates) 10 meets it on a batch's last candidate and 4 in
    # the second batch; at 2^13 (390) all four do in the first; seed 11 exhausts the budget
    cases = [
        (make_model("omm-v1"), compile_table(omm_tables[0]), omm_pi, seed, 1500)
        for seed in (5, 10, 4, 1, 11)
    ]
    pi = single_signal_pi(horizon=10.0, dt=1.0, k=0)
    automaton = compile_table(parse_table("table T\ninputs u, y\nreq 1\n  post y < 8\n"))
    cases += [
        (ThresholdModel(threshold), automaton, pi, seed, 200)
        for seed in range(8)
        for threshold in (8.5, 9.0)
    ]

    def outcomes():
        return [search_outcome(m, a, p, SearchConfig(budget=b, seed=s)) for m, a, p, s, b in cases]

    default = outcomes()
    for batch_samples in (1, 1 << 10, 1 << 13):  # 1: one candidate per batch
        monkeypatch.setattr(search, "BATCH_SAMPLES", batch_samples)
        assert outcomes() == default, batch_samples
    assert [o[:2] for o in default[:5]] == [
        ("TC", 32), ("TC", 48), ("TC", 64), ("TC", 303), ("NFF", 1500)
    ]
    assert {o[0] for o in default[5:]} == {"TC", "error"}


@pytest.fixture()
def batch_sizes(monkeypatch):
    """The number of candidates in each batch the search evaluates, in order."""
    sizes = []
    evaluate_batch = search._evaluate_batch

    def counting(model, automaton, pi, params):
        sizes.append(len(params))
        return evaluate_batch(model, automaton, pi, params)

    monkeypatch.setattr(search, "_evaluate_batch", counting)
    return sizes


def test_uniform_search_draws_full_batches(batch_sizes, omm_pi, omm_tables):
    budget = 1500
    cfg = SearchConfig(budget=budget, seed=11)
    result = falsify(make_model("omm-v1"), omm_tables[0], omm_pi, cfg)
    assert result.verdict == "NFF"
    max_rows = search.BATCH_SAMPLES // omm_pi.times.size
    assert len(batch_sizes) == math.ceil(budget / max_rows)
    assert batch_sizes[:-1] == [max_rows] * (len(batch_sizes) - 1) and sum(batch_sizes) == budget


@pytest.mark.parametrize("batch_samples", [None, 1 << 10, 1 << 7])  # None: the default
@pytest.mark.parametrize("seed, tc_at", [(5, 32), (10, 48), (4, 64)])
def test_uniform_search_stops_within_one_batch_of_its_test_case(
    monkeypatch, batch_sizes, omm_pi, omm_tables, batch_samples, seed, tc_at
):
    if batch_samples is not None:
        monkeypatch.setattr(search, "BATCH_SAMPLES", batch_samples)
    result = falsify(make_model("omm-v1"), omm_tables[0], omm_pi, SearchConfig(seed=seed))
    assert (result.verdict, result.iterations) == ("TC", tc_at)
    max_rows = search.BATCH_SAMPLES // omm_pi.times.size
    assert sum(batch_sizes) <= result.iterations + max_rows - 1
    assert batch_sizes[:-1] == [max_rows] * (len(batch_sizes) - 1)
