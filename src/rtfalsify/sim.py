"""Discrete-time simulation harness: traces, the model interface, built-ins.

A Trace is a uniformly sampled multi-signal time series. A model maps whole
input traces to whole output traces deterministically, many traces at once,
through ``run_batch``; a per-sample ``reset``/``step`` pair is enough for
the default. Two built-ins ship with the package, addressable by preset name
from the CLI:

* ``omm-v0`` .. ``omm-v3``: a memoryless two-input/two-output gain model
  with optional cross gains between the channels and saturated outputs.
  The version ladder injects increasing cross-contamination faults.
* ``plant-demo``: a first-order pressure plant under a PI controller, the
  demo target for the steam-condenser style table shipped as ``sc.rt``.
"""

from __future__ import annotations

import csv
import math
from array import array
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Collection, Mapping, Sequence

import numpy as np

from .expr import RunError


class SimError(RunError):
    pass


class SignalMismatchError(SimError):
    pass


class NonFiniteOutputError(SimError):
    pass


class TraceFormatError(SimError):
    pass


def require_signals(needed: Sequence[str], given: Collection[str], message: str) -> None:
    """Raise SignalMismatchError naming, in order, the ``needed`` signals not ``given``."""
    missing = [s for s in needed if s not in given]
    if missing:
        raise SignalMismatchError(f"{message}: {', '.join(missing)}")


@dataclass
class Trace:
    """Uniformly sampled signals; all arrays share one length of at least 1."""

    dt: float
    samples: dict[str, np.ndarray]

    def __post_init__(self) -> None:
        if not (self.dt > 0):
            raise ValueError(f"dt must be positive, got {self.dt!r}")
        if not self.samples:
            raise ValueError("a trace needs at least one signal")
        converted = {}
        length: int | None = None
        for name, values in self.samples.items():
            arr = np.asarray(values, dtype=float)
            if arr.ndim != 1 or arr.size < 1:
                raise ValueError(f"signal '{name}' must be a non-empty 1-d array")
            if length is None:
                length = arr.size
            elif arr.size != length:
                raise ValueError(
                    f"signal '{name}' has {arr.size} samples, expected {length}"
                )
            converted[name] = arr
        self.samples = converted

    @property
    def n_samples(self) -> int:
        return next(iter(self.samples.values())).size

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * self.dt

    @property
    def signals(self) -> tuple[str, ...]:
        return tuple(self.samples)


def n_samples_for(horizon: float, dt: float) -> int:
    """Sample count covering [0, horizon] at step dt; a zero horizon is one sample."""
    if horizon < 0 or not (dt > 0):
        raise ValueError("need horizon >= 0 and dt > 0")
    steps = horizon / dt
    if not math.isfinite(steps):
        raise ValueError(f"horizon / dt is not finite (horizon={horizon!r}, dt={dt!r})")
    # 0.3 / 0.1 is 2.9999999999999996: an integer within read_trace_csv's tolerance is reached
    return int(math.floor(steps + 1e-9 * max(1.0, steps))) + 1


class SystemModel:
    """A deterministic discrete-time system.

    ``run_batch`` simulates many input traces at once and is all the search
    calls. A model either overrides it, as the built-ins do, or implements
    the per-sample pair its default drives: ``reset`` returns a fresh
    internal state (identical every call, so runs are reproducible) and
    ``step`` maps the state and one input sample to the output sample for
    the same instant, advancing the state in place.
    """

    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()

    def reset(self) -> Any:
        return None

    def step(self, state: Any, inputs: Mapping[str, float], dt: float) -> dict[str, float]:
        raise NotImplementedError(f"{type(self).__name__}: implement step or override run_batch")

    def run_batch(self, inputs: Mapping[str, np.ndarray], dt: float) -> dict[str, np.ndarray]:
        """Outputs for a batch of input traces, as arrays of shape (traces, samples).

        ``inputs`` holds arrays of that shape; each trace starts from ``reset()``.
        """
        rows = {name: values.tolist() for name, values in inputs.items()}
        n_traces, n = next(iter(inputs.values())).shape
        outputs = {name: np.empty((n_traces, n)) for name in self.outputs}
        for c in range(n_traces):
            state = self.reset()
            for k in range(n):
                produced = self.step(state, {name: row[c][k] for name, row in rows.items()}, dt)
                for name in self.outputs:
                    outputs[name][c, k] = produced[name]
        return outputs


class GainCrossModel(SystemModel):
    """Memoryless two-channel gain block with saturated outputs and cross gains.

    y1 = min(max(u1 + g21*u2, -0.49), 10.2) and y2 = min(max(u2 + g12*u1, -0.49), 10.2):
    g12 couples input 1 into output 2 and g21 couples input 2 into output 1.
    The saturation floor of -0.49 keeps every output strictly above -0.5, so a
    requirement demanding outputs above -0.5 can never be violated while one
    demanding positive outputs can be, once a cross gain is non-zero. The
    ``omm-*`` presets differ only in ``(g12, g21)``; reach them through ``make_model``.
    """

    inputs = ("u1", "u2")
    outputs = ("y1", "y2")
    FLOOR = -0.49
    CEILING = 10.2

    def __init__(self, g12: float = 0.0, g21: float = 0.0):
        self.g12 = g12
        self.g21 = g21

    def run_batch(self, inputs: Mapping[str, np.ndarray], dt: float) -> dict[str, np.ndarray]:
        # with non-zero bounds np.maximum/np.minimum give Python's min(max(x, lo), hi)
        # bit for bit, NaN included: a tie can only be between equal non-zero floats
        u1, u2 = inputs["u1"], inputs["u2"]
        return {
            "y1": np.minimum(np.maximum(u1 + self.g21 * u2, self.FLOOR), self.CEILING),
            "y2": np.minimum(np.maximum(u2 + self.g12 * u1, self.FLOOR), self.CEILING),
        }


class PlantDemoModel(SystemModel):
    """First-order pressure plant with a PI controller on the cooling flow.

    The steam flow F_s drives the pressure state up, the controller drives
    it back toward the setpoint, and the temperature output is an algebraic
    blend of pressure and flow. Forward-Euler integration; intended for
    traces with dt around the plant-demo preset's 0.01 s. Not a physical
    model, just a bounded, falsifiable demo plant with fixed constants.
    """

    inputs = ("F_s",)
    outputs = ("T_s", "P_s")
    TIME_CONSTANT = 5.0
    KP = 2.5
    KI = 0.8
    SETPOINT = 87.25
    INITIAL_PRESSURE = 87.0
    NOMINAL_FLOW = 4.0
    INTEGRATOR_LIMIT = 50.0
    # the integrator is pre-warmed at the nominal operating point, so a run
    # starts near equilibrium instead of with a cold-start transient
    INITIAL_INTEGRAL = (2.0 * NOMINAL_FLOW - 0.05 * (SETPOINT - 80.0)) / 0.8 / KI

    def run_batch(self, inputs: Mapping[str, np.ndarray], dt: float) -> dict[str, np.ndarray]:
        # a loop over plain floats: per-sample numpy calls would cost more than the arithmetic;
        # array("d") holds them as raw doubles, 8 bytes a sample where a list of floats takes 32
        rows = np.asarray(inputs["F_s"], dtype=float)
        runs = [self._integrate(array("d", flows.tobytes()), dt) for flows in rows]
        return {
            name: np.array([np.frombuffer(r[j]) for r in runs])
            for j, name in enumerate(self.outputs)
        }

    def _integrate(self, flows: array, dt: float) -> tuple[array, array]:
        """Step through ``flows`` from the initial state; returns the T_s and P_s samples."""
        pressure, integral = self.INITIAL_PRESSURE, self.INITIAL_INTEGRAL
        setpoint, limit, kp, ki = self.SETPOINT, self.INTEGRATOR_LIMIT, self.KP, self.KI
        temperatures, pressures = array("d"), array("d")
        for flow in flows:
            temperatures.append(35.0 + 0.5 * pressure + 0.2 * flow)
            pressures.append(pressure)
            error = pressure - setpoint  # cooling ramps up when pressure is high
            integral = min(max(integral + error * dt, -limit), limit)
            cooling = kp * error + ki * integral
            dp = (2.0 * flow - 0.8 * cooling - 0.05 * (pressure - 80.0)) / self.TIME_CONSTANT
            pressure = pressure + dt * dp
        return temperatures, pressures


def simulate(model: SystemModel, inputs: Trace) -> Trace:
    """Run the model over an input trace; returns inputs and outputs merged.

    Raises SignalMismatchError when the trace lacks a declared model input
    and NonFiniteOutputError when the model emits NaN or infinity.
    """
    batch = {name: values[None] for name, values in inputs.samples.items()}
    merged = simulate_batch(model, batch, inputs.dt)
    return Trace(dt=inputs.dt, samples={name: values[0] for name, values in merged.items()})


def simulate_batch(
    model: SystemModel, inputs: Mapping[str, np.ndarray], dt: float
) -> dict[str, np.ndarray]:
    """``simulate`` for a batch of input traces, arrays of shape (traces, samples).

    A non-finite output is reported at its earliest step, outputs in
    declared order.
    """
    require_signals(model.inputs, inputs, "input trace is missing signals")
    produced = model.run_batch(inputs, dt)
    finite = [np.isfinite(produced[name]) for name in model.outputs]
    # np.count_nonzero costs less than ndarray.all() on the small arrays of a search
    if any(np.count_nonzero(f) != f.size for f in finite):
        k, j = min((int(np.argmin(f.all(axis=0))), j) for j, f in enumerate(finite) if not f.all())
        name = model.outputs[j]
        value = float(produced[name][np.argmin(finite[j][:, k]), k])
        raise NonFiniteOutputError(f"model output '{name}' is {value!r} at t={k * dt}")
    merged = dict(inputs)
    merged.update((name, produced[name]) for name in model.outputs)
    return merged


# --- CSV interchange --------------------------------------------------------


def write_trace_csv(trace: Trace, path: str) -> None:
    """Write a trace as CSV with the time column first, signals in declared order."""
    write_csv(path, ["t", *trace.signals], [trace.times, *trace.samples.values()])


WRITE_BLOCK_ROWS = 4096  # rows turned into Python floats at a time, 32 bytes a value


def write_csv(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    """Write a header and float columns row by row, as csv.writer does for floats."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(header)
        for i in range(0, len(columns[0]), WRITE_BLOCK_ROWS):
            # Python floats, since numpy 2's repr of one is "np.float64(...)"; none needs quoting
            block = (map(repr, c[i : i + WRITE_BLOCK_ROWS].tolist()) for c in columns)
            fh.writelines(",".join(row) + "\r\n" for row in zip(*block))


def read_trace_csv(path: str) -> Trace:
    """Read a trace written by write_trace_csv (or compatible).

    The first column must be a uniformly spaced time axis starting at 0;
    the step size is inferred from it. Column names must be distinct.
    """
    try:
        # utf-8-sig drops the byte-order mark that spreadsheet "CSV UTF-8" exports begin with
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise TraceFormatError(f"{path}: empty file") from None
            if not header or header[0] != "t":
                raise TraceFormatError(f"{path}: first column must be 't'")
            names = header[1:]
            if not names:
                raise TraceFormatError(f"{path}: no signal columns")
            seen: set[str] = set()
            for name in header:
                if name in seen:
                    raise TraceFormatError(f"{path}: repeated column '{name}'")
                seen.add(name)
            # one flat buffer of floats, row after row: a list per row would hold about five
            # times the memory, and a long replay trace is the CLI's largest allocation
            cells = array("d")
            for row in reader:  # reader.line_num is the record's last line, not its index
                if not row:
                    continue
                if len(row) != len(header):
                    if len(row) == 1 and not row[0].strip():  # a whitespace-only line
                        continue
                    raise TraceFormatError(
                        f"{path}:{reader.line_num}: expected {len(header)} columns"
                    )
                try:
                    cells.extend(map(float, row))
                except ValueError as exc:
                    raise TraceFormatError(f"{path}:{reader.line_num}: {exc}") from None
    except csv.Error as exc:  # e.g. a field longer than csv.field_size_limit()
        raise TraceFormatError(f"{path}:{reader.line_num}: {exc}") from None
    except UnicodeDecodeError:  # decoded a block at a time, so no line number
        raise TraceFormatError(f"{path}: not valid UTF-8") from None
    data = np.frombuffer(cells, dtype=float).reshape(-1, len(header))
    if len(data) < 2:
        raise TraceFormatError(f"{path}: need at least two samples to infer dt")
    times = data[:, 0]
    if not np.isfinite(times).all():
        raise TraceFormatError(f"{path}: time column holds a non-finite value")
    # finite times can still overflow a step (-1.5e308 then 1.5e308); the inf or NaN
    # that gives fails the spacing check, so numpy need not warn about it first
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(times)
        dt = float(steps[0])
        steps -= dt  # in place: a long replay's temporaries would set the reader's peak
    tolerance = 1e-9 * max(dt, 1.0)
    if dt <= 0 or not (np.abs(steps, out=steps).max() <= tolerance):  # NaN fails too
        raise TraceFormatError(f"{path}: time column is not uniformly spaced")
    # the monitor rebuilds times as k * dt, so a shifted column would move every t guard
    if abs(times[0]) > tolerance:
        raise TraceFormatError(f"{path}: time column must start at 0, not {float(times[0])!r}")
    return Trace(dt=dt, samples={name: data[:, j + 1] for j, name in enumerate(names)})


# --- model presets -----------------------------------------------------------


@dataclass(frozen=True)
class ModelPreset:
    """A named model factory plus the default search box for its inputs."""

    name: str
    factory: Callable[[], SystemModel]
    input_bounds: dict[str, tuple[float, float]]
    horizon: float
    dt: float


_OMM_CROSS_GAINS = (
    ("omm-v0", 0.0, 0.0), ("omm-v1", 0.01, 0.0), ("omm-v2", 0.01, 0.01), ("omm-v3", 0.01, 0.1)
)

MODEL_PRESETS: dict[str, ModelPreset] = {
    name: ModelPreset(
        name=name,
        factory=partial(GainCrossModel, g12, g21),
        input_bounds={"u1": (-100.0, 100.0), "u2": (-100.0, 100.0)},
        horizon=10.0,
        dt=0.5,
    )
    for name, g12, g21 in _OMM_CROSS_GAINS
}
MODEL_PRESETS["plant-demo"] = ModelPreset(
    "plant-demo", PlantDemoModel, input_bounds={"F_s": (3.5, 4.5)}, horizon=35.0, dt=0.01
)


def make_model(name: str) -> SystemModel:
    try:
        preset = MODEL_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_PRESETS))
        raise KeyError(f"unknown model '{name}' (known: {known})") from None
    return preset.factory()
