import re
import tracemalloc

import numpy as np
import pytest

from rtfalsify.sim import (
    MODEL_PRESETS,
    WRITE_BLOCK_ROWS,
    GainCrossModel,
    ModelPreset,
    NonFiniteOutputError,
    PlantDemoModel,
    SignalMismatchError,
    SystemModel,
    Trace,
    TraceFormatError,
    make_model,
    n_samples_for,
    read_trace_csv,
    simulate,
    write_csv,
    write_trace_csv,
)
from oracle import same_bits


def constant_inputs(n, u1, u2, dt=0.5):
    return Trace(dt=dt, samples={"u1": np.full(n, u1), "u2": np.full(n, u2)})


def test_trace_shape_checks():
    with pytest.raises(ValueError):
        Trace(dt=0.0, samples={"x": np.zeros(3)})
    with pytest.raises(ValueError):
        Trace(dt=1.0, samples={"x": np.zeros(3), "y": np.zeros(4)})
    with pytest.raises(ValueError, match="at least one signal"):
        Trace(dt=1.0, samples={})
    for values in (np.zeros((2, 3)), np.zeros(0)):
        with pytest.raises(ValueError, match="signal 'x' must be a non-empty 1-d array"):
            Trace(dt=1.0, samples={"x": values})
    trace = Trace(dt=0.5, samples={"x": [0.0, 1.0, 2.0]})
    assert trace.n_samples == 3
    assert trace.times.tolist() == [0.0, 0.5, 1.0]


def test_identity_model_passes_inputs_through():
    model = GainCrossModel()
    out = simulate(model, constant_inputs(5, 0.5, 0.5))
    assert np.all(out.samples["y1"] == 0.5)
    assert np.all(out.samples["y2"] == 0.5)


def test_cross_gain_saturates_at_floor():
    model = GainCrossModel(g12=0.01)
    out = simulate(model, constant_inputs(4, -100.0, 0.5))
    # y2 = clamp(0.5 + 0.01 * -100) = clamp(-0.5) -> floor
    assert np.all(out.samples["y2"] == -0.49)
    assert np.all(out.samples["y1"] == -0.49)


def test_non_finite_sample_count_names_horizon_and_dt():
    with pytest.raises(ValueError, match=r"horizon / dt .*horizon=1e\+300, dt=1e-300"):
        n_samples_for(1e300, 1e-300)
    for horizon, dt in ((-1.0, 0.5), (1.0, 0.0)):
        with pytest.raises(ValueError, match="need horizon >= 0 and dt > 0"):
            n_samples_for(horizon, dt)


@pytest.mark.parametrize(
    "horizon, dt, n",
    [
        (0.3, 0.1, 4),  # 0.3 / 0.1 is 2.9999999999999996
        (0.7, 0.1, 8),
        (2.3, 0.1, 24),
        (3.0, 0.7, 5),
        (0.1, 0.5, 1),
        (10.0, 0.5, 21),
        (35.0, 0.01, 3501),
        (350.0, 0.01, 35001),
    ],
)
def test_sample_count_reaches_a_horizon_just_below_a_whole_step(horizon, dt, n):
    assert n_samples_for(horizon, dt) == n


def test_zero_horizon_gives_single_sample():
    assert n_samples_for(0.0, 0.5) == 1
    out = simulate(GainCrossModel(), constant_inputs(1, 2.0, 3.0))
    assert out.n_samples == 1
    assert out.samples["y1"][0] == 2.0


def test_outputs_never_reach_minus_half():
    rng = np.random.default_rng(0)
    model = make_model("omm-v3")
    for _ in range(25):
        inputs = constant_inputs(6, rng.uniform(-100, 100), rng.uniform(-100, 100))
        out = simulate(model, inputs)
        assert np.all(out.samples["y1"] > -0.5)
        assert np.all(out.samples["y2"] > -0.5)


def test_preset_gain_ladder():
    v0 = make_model("omm-v0")
    v1 = make_model("omm-v1")
    v2 = make_model("omm-v2")
    v3 = make_model("omm-v3")
    assert (v0.g12, v0.g21) == (0.0, 0.0)
    assert (v1.g12, v1.g21) == (0.01, 0.0)
    assert (v2.g12, v2.g21) == (0.01, 0.01)
    assert (v3.g12, v3.g21) == (0.01, 0.1)
    for model in (v0, v1, v2, v3):
        # unit direct gains: with the other input at zero, each output is its own input
        out = model.run_batch({"u1": np.array([[3.0, 0.0]]), "u2": np.array([[0.0, 3.0]])}, 0.5)
        assert (out["y1"][0, 0], out["y2"][0, 1]) == (3.0, 3.0)
        assert (model.FLOOR, model.CEILING) == (-0.49, 10.2)


def test_unknown_model_name():
    with pytest.raises(KeyError):
        make_model("nope")


def test_signal_mismatch():
    trace = Trace(dt=0.5, samples={"u1": np.zeros(3)})
    with pytest.raises(SignalMismatchError):
        simulate(GainCrossModel(), trace)


def test_non_finite_output_detected():
    class BrokenModel(SystemModel):
        inputs = ("u",)
        outputs = ("y",)

        def step(self, state, inputs, dt):  # the base reset gives a state of None
            return {"y": float("nan")}

    trace = Trace(dt=1.0, samples={"u": np.zeros(2)})
    with pytest.raises(NonFiniteOutputError):
        simulate(BrokenModel(), trace)


def test_plant_demo_is_bounded_and_deterministic():
    preset = MODEL_PRESETS["plant-demo"]
    rng = np.random.default_rng(7)
    n = n_samples_for(preset.horizon, preset.dt)
    flow = np.clip(rng.normal(4.0, 0.3, size=n), 3.5, 4.5)
    inputs = Trace(dt=preset.dt, samples={"F_s": flow})
    out1 = simulate(make_model("plant-demo"), inputs)
    out2 = simulate(make_model("plant-demo"), inputs)
    for sig in ("T_s", "P_s"):
        assert np.all(np.isfinite(out1.samples[sig]))
        assert np.all(np.abs(out1.samples[sig]) < 1e3)
        assert np.array_equal(out1.samples[sig], out2.samples[sig])


def traced_peak(fn, *args):
    """The peak of memory traced while ``fn(*args)`` runs, in bytes."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_plant_demo_holds_samples_as_raw_doubles():
    # a list of Python floats costs 32 bytes a sample; the outputs alone take 16
    n = 200_000
    flows = np.random.default_rng(5).uniform(3.5, 4.5, size=(1, n))
    assert traced_peak(PlantDemoModel().run_batch, {"F_s": flows}, 0.01) < 48 * n


# the omm saturation bounds
CLAMP = (GainCrossModel.FLOOR, GainCrossModel.CEILING)


def clamp_edge_inputs(clamp, n=1200):
    """(3, n) inputs that put zeros of both signs, NaNs of both signs and the bounds
    themselves through the clamp, mixed with uniform values; long enough for numpy's
    vector loops, not only their scalar tail."""
    rng = np.random.default_rng(11)
    edges = np.array([0.0, -0.0, np.nan, -np.nan, *clamp, *(-b for b in clamp)])
    u1 = rng.choice(np.concatenate([edges, rng.uniform(-2.0, 12.0, size=8)]), size=(3, n))
    u2 = rng.choice(np.array([0.0, -0.0, clamp[0], clamp[1]]), size=(3, n))
    return {"u1": u1, "u2": u2}


@pytest.mark.parametrize(
    "name, model, inputs",
    [(name, MODEL_PRESETS[name].factory(), None) for name in sorted(MODEL_PRESETS)]
    + [("omm-v0", GainCrossModel(g21=0.5), clamp_edge_inputs(CLAMP))],
    ids=sorted(MODEL_PRESETS) + [f"clamp{CLAMP}"],
)
def test_batched_models_run_each_row_alone(name, model, inputs):
    # each trace of a batch starts from a fresh state, as if it were run by itself
    preset = MODEL_PRESETS[name]
    if inputs is None:
        rng = np.random.default_rng(3)
        n = min(n_samples_for(preset.horizon, preset.dt), 500)
        inputs = {s: rng.uniform(lo, hi, size=(3, n)) for s, (lo, hi) in preset.input_bounds.items()}
    batched = model.run_batch(inputs, preset.dt)
    for row in range(3):
        alone = model.run_batch({s: v[row : row + 1] for s, v in inputs.items()}, preset.dt)
        for sig in model.outputs:
            assert same_bits(batched[sig][row], alone[sig][0])


def test_model_without_step_or_run_batch_names_what_to_implement():
    class Silent(SystemModel):
        inputs = ("u",)
        outputs = ("y",)

    with pytest.raises(NotImplementedError, match="^Silent: implement step or override run_batch$"):
        Silent().run_batch({"u": np.zeros((1, 2))}, 1.0)


@pytest.mark.parametrize("clamp", [CLAMP], ids=str)
def test_cross_gain_clamp_is_min_of_max(clamp):
    # ties keep the first operand, as min(max(x, lo), hi) does: the sign of a zero survives
    model = GainCrossModel(g12=0.5, g21=-0.0)
    inputs = clamp_edge_inputs(clamp)
    out = model.run_batch(inputs, 1.0)
    lo, hi = clamp
    pairs = list(zip(inputs["u1"].ravel().tolist(), inputs["u2"].ravel().tolist()))
    y1 = [min(max(1.0 * a + -0.0 * b, lo), hi) for a, b in pairs]
    y2 = [min(max(1.0 * b + 0.5 * a, lo), hi) for a, b in pairs]
    assert same_bits(out["y1"].ravel(), y1)
    assert same_bits(out["y2"].ravel(), y2)


def test_trace_csv_round_trip(tmp_path):
    trace = Trace(dt=0.25, samples={"b": np.array([1.0, 2.5, -3.0]), "a": np.zeros(3)})
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, str(path))
    header = path.read_text().splitlines()[0]
    assert header == "t,b,a"  # declared order is preserved
    back = read_trace_csv(str(path))
    assert back.dt == trace.dt
    assert back.signals == trace.signals
    for sig in trace.signals:
        assert np.array_equal(back.samples[sig], trace.samples[sig])


def test_write_csv_matches_a_row_by_row_reference_across_blocks(tmp_path):
    n = 2 * WRITE_BLOCK_ROWS + 3
    rng = np.random.default_rng(9)
    columns = [np.arange(n) * 0.01, rng.standard_normal(n), rng.standard_normal(n)]
    edges = (-0.0, np.inf, -np.inf, np.nan, 5e-324)
    for j, value in enumerate(edges):  # on both sides of the first block boundary
        columns[1 + j % 2][WRITE_BLOCK_ROWS - 1 + j // 2] = value
        columns[2 - j % 2][WRITE_BLOCK_ROWS + j // 2] = value
    path = tmp_path / "blocks.csv"
    write_csv(str(path), ["t", "a", "b"], columns)
    rows = (",".join(repr(float(c[k])) for c in columns) for k in range(n))
    assert path.read_bytes() == "".join(f"{row}\r\n" for row in ["t,a,b", *rows]).encode()


def test_write_csv_converts_a_block_of_rows_at_a_time(tmp_path):
    n = 200_000
    columns = [np.arange(n) * 0.01, *np.random.default_rng(2).standard_normal((4, n))]
    path = str(tmp_path / "long.csv")
    assert traced_peak(write_csv, path, ["t", "a", "b", "c", "d"], columns) < 2_000_000


@pytest.mark.parametrize(
    "body", ["0.0,1.0\ninf,2.0\n", "0.0,1.0\n-inf,2.0\n", "0.0,1.0\nnan,2.0\n", "nan,1.0\n1.0,2.0\n"]
)
def test_trace_csv_rejects_a_non_finite_time(tmp_path, body):
    path = tmp_path / "times.csv"
    path.write_text("t,x\n" + body)
    with pytest.raises(TraceFormatError, match="time column holds a non-finite value$"):
        read_trace_csv(str(path))


def test_trace_csv_rejects_ragged_and_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,x\n0.0,1.0\n0.5,2.0\n1.5,3.0\n")
    with pytest.raises(TraceFormatError):
        read_trace_csv(str(path))
    path.write_text("x,t\n0.0,1.0\n")
    with pytest.raises(TraceFormatError):
        read_trace_csv(str(path))
    for body in ("t,x\n", "t,x\n\n0.0,1.0\n"):  # no rows, one row
        path.write_text(body)
        with pytest.raises(TraceFormatError, match="two samples"):
            read_trace_csv(str(path))


def test_trace_csv_must_start_at_zero(tmp_path):
    # times are rebuilt as k * dt, so a shifted file would move every t guard
    path = tmp_path / "shifted.csv"
    path.write_text("t,x\n5.0,1.0\n5.5,2.0\n")
    with pytest.raises(TraceFormatError, match="start at 0"):
        read_trace_csv(str(path))


def test_trace_csv_rejects_a_repeated_column(tmp_path):
    path = tmp_path / "twice.csv"
    path.write_text("t,x,y,x\n0.0,1.0,2.0,-6.0\n1.0,1.0,2.0,-6.0\n")
    with pytest.raises(TraceFormatError, match="'x'"):
        read_trace_csv(str(path))


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("0.0,1.0\n1.0,oops\n", 3, "could not convert"),
        ("0.0,1.0\n\n1.0\n", 4, "expected 2 columns"),
        ("0.0,1.0,2.0\n", 2, "expected 2 columns"),
        pytest.param(
            "0.0,1.0\n1.0," + "1" * 200_000 + "\n", 3, "field larger", id="oversized-field"
        ),
        # a quoted field spans lines 2-3, so the next record starts on line 4
        pytest.param('0.0,"1.0\n"\n1.0,2.0,3.0\n', 4, "expected 2 columns", id="ragged-row"),
        pytest.param('0.0,"1.0\n"\n1.0,oops\n', 4, "could not convert", id="bad-number"),
    ],
)
def test_trace_csv_names_the_bad_line(tmp_path, body, line, message):
    path = tmp_path / "bad.csv"
    path.write_text("t,x\n" + body)
    with pytest.raises(TraceFormatError, match=f"^{re.escape(str(path))}:{line}: {message}"):
        read_trace_csv(str(path))


def test_trace_csv_oversized_header_field_names_line_1(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("t,x" + "x" * 200_000 + "\n0.0,1.0\n1.0,2.0\n")
    with pytest.raises(TraceFormatError, match=f"^{re.escape(str(path))}:1: field larger"):
        read_trace_csv(str(path))


@pytest.mark.parametrize(
    "data",
    [b"t,x\xff\n0.0,1.0\n1.0,2.0\n", b"t,x\n" + b"0.0,1.0\n" * 4000 + b"1.0,\xff\n"],
    ids=["header", "later-row"],
)
def test_trace_csv_not_utf8_names_the_file(tmp_path, data):
    path = tmp_path / "binary.csv"
    path.write_bytes(data)
    with pytest.raises(TraceFormatError, match=f"^{re.escape(str(path))}: not valid UTF-8$"):
        read_trace_csv(str(path))


def test_trace_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text("t,x,y\n\n0.0,1.5,-2\n   \n1.0,inf,3e2\n\t\n\n")
    back = read_trace_csv(str(path))
    assert back.dt == 1.0
    assert back.samples["x"].tolist() == [1.5, float("inf")]
    assert back.samples["y"].tolist() == [-2.0, 300.0]


def test_presets_are_complete():
    assert set(MODEL_PRESETS) == {"omm-v0", "omm-v1", "omm-v2", "omm-v3", "plant-demo"}
    for preset in MODEL_PRESETS.values():
        assert isinstance(preset, ModelPreset)
        model = preset.factory()
        assert set(preset.input_bounds) == set(model.inputs)
