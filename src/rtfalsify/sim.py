"""Discrete-time simulation harness: traces, the model interface, built-ins.

A Trace is a uniformly sampled multi-signal time series. Models implement a
tiny step interface so the falsification loop can drive anything that maps
input samples to output samples deterministically, and may add a batched
method that runs many input traces at once; two built-ins ship with the
package, addressable by preset name from the CLI:

* ``omm-v0`` .. ``omm-v3``: a memoryless two-input/two-output gain model
  with optional cross gains between the channels and saturated outputs.
  The version ladder injects increasing cross-contamination faults.
* ``plant-demo``: a first-order pressure plant under a PI controller, the
  demo target for the steam-condenser style table shipped as ``sc.rt``.
"""

from __future__ import annotations

import csv
import math
from abc import ABC, abstractmethod
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np


class SimError(Exception):
    pass


class SignalMismatchError(SimError):
    pass


class NonFiniteOutputError(SimError):
    pass


class TraceFormatError(SimError):
    pass


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
    def horizon(self) -> float:
        return (self.n_samples - 1) * self.dt

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
    return int(math.floor(horizon / dt)) + 1


class SystemModel(ABC):
    """A deterministic discrete-time system.

    ``reset`` returns a fresh internal state (identical every call, so runs
    are reproducible); ``step`` maps the state and one input sample to the
    output sample for the same instant and advances the state in place.
    ``run_batch`` simulates many input traces at once; its default drives
    ``reset``/``step``, and a model may override it with array code that
    gives the same floats.
    """

    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()

    @abstractmethod
    def reset(self) -> Any: ...

    @abstractmethod
    def step(self, state: Any, inputs: Mapping[str, float], dt: float) -> dict[str, float]: ...

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
    """Memoryless two-channel gain block with saturation and cross gains.

    y1 = clamp(g11*u1 + g21*u2), y2 = clamp(g22*u2 + g12*u1); g12 couples
    input 1 into output 2 and g21 couples input 2 into output 1. The default
    saturation floor of -0.49 keeps every output strictly above -0.5, so a
    requirement demanding outputs above -0.5 can never be violated while one
    demanding positive outputs can be, once a cross gain is non-zero.
    """

    inputs = ("u1", "u2")
    outputs = ("y1", "y2")

    def __init__(
        self,
        g11: float = 1.0,
        g22: float = 1.0,
        g12: float = 0.0,
        g21: float = 0.0,
        clamp: tuple[float, float] = (-0.49, 10.2),
    ):
        self.g11 = g11
        self.g22 = g22
        self.g12 = g12
        self.g21 = g21
        self.clamp = clamp

    def reset(self) -> None:
        return None

    def step(self, state: None, inputs: Mapping[str, float], dt: float) -> dict[str, float]:
        batch = {name: np.array([[inputs[name]]]) for name in self.inputs}
        return {name: float(values[0, 0]) for name, values in self.run_batch(batch, dt).items()}

    def run_batch(self, inputs: Mapping[str, np.ndarray], dt: float) -> dict[str, np.ndarray]:
        u1, u2 = inputs["u1"], inputs["u2"]
        return {
            "y1": _clamp(self.g11 * u1 + self.g21 * u2, *self.clamp),
            "y2": _clamp(self.g22 * u2 + self.g12 * u1, *self.clamp),
        }


def _clamp(x: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``min(max(x, lo), hi)`` elementwise, down to the sign of a zero and NaN."""
    x = np.where(lo > x, lo, x)
    return np.where(hi < x, hi, x)


class PlantDemoModel(SystemModel):
    """First-order pressure plant with a PI controller on the cooling flow.

    The steam flow F_s drives the pressure state up, the controller drives
    it back toward the setpoint, and the temperature output is an algebraic
    blend of pressure and flow. Forward-Euler integration; intended for
    traces with dt around the 0.01 s default. Not a physical model, just a
    bounded, falsifiable demo plant.
    """

    inputs = ("F_s",)
    outputs = ("T_s", "P_s")

    default_dt = 0.01

    def __init__(
        self,
        time_constant: float = 5.0,
        kp: float = 2.5,
        ki: float = 0.8,
        setpoint: float = 87.25,
        initial_pressure: float = 87.0,
        nominal_flow: float = 4.0,
    ):
        self.time_constant = time_constant
        self.kp = kp
        self.ki = ki
        self.setpoint = setpoint
        self.initial_pressure = initial_pressure
        self.nominal_flow = nominal_flow
        self.integrator_limit = 50.0

    def reset(self) -> list[float]:
        # pre-warm the integrator at the nominal operating point so the run
        # starts near equilibrium instead of with a cold-start transient
        cooling_eq = (2.0 * self.nominal_flow - 0.05 * (self.setpoint - 80.0)) / 0.8
        return [self.initial_pressure, cooling_eq / self.ki]

    def step(self, state: list[float], inputs: Mapping[str, float], dt: float) -> dict[str, float]:
        temperatures, pressures = self._integrate(state, [inputs["F_s"]], dt)
        return {"T_s": temperatures[0], "P_s": pressures[0]}

    def run_batch(self, inputs: Mapping[str, np.ndarray], dt: float) -> dict[str, np.ndarray]:
        # a loop over plain floats: per-sample numpy calls would cost more than the arithmetic
        runs = [self._integrate(self.reset(), flows, dt) for flows in inputs["F_s"].tolist()]
        return {"T_s": np.array([r[0] for r in runs]), "P_s": np.array([r[1] for r in runs])}

    def _integrate(
        self, state: list[float], flows: list[float], dt: float
    ) -> tuple[list[float], list[float]]:
        """Step through ``flows``, advancing ``state`` in place; returns the T_s and P_s samples."""
        pressure, integral = state
        setpoint, limit, kp, ki = self.setpoint, self.integrator_limit, self.kp, self.ki
        temperatures, pressures = [], []
        for flow in flows:
            temperatures.append(35.0 + 0.5 * pressure + 0.2 * flow)
            pressures.append(pressure)
            error = pressure - setpoint  # cooling ramps up when pressure is high
            integral = min(max(integral + error * dt, -limit), limit)
            cooling = kp * error + ki * integral
            dp = (2.0 * flow - 0.8 * cooling - 0.05 * (pressure - 80.0)) / self.time_constant
            pressure = pressure + dt * dp
        state[0], state[1] = pressure, integral
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
    missing = [s for s in model.inputs if s not in inputs]
    if missing:
        raise SignalMismatchError(f"input trace is missing signals: {', '.join(missing)}")
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
    columns = [trace.times.tolist(), *(trace.samples[s].tolist() for s in trace.signals)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerow(["t", *trace.signals])
        write_csv_columns(fh, columns)


def write_csv_columns(fh, columns) -> None:
    """Write float columns row by row as csv.writer does: a float's repr needs no quoting."""
    fh.writelines(",".join(row) + "\r\n" for row in zip(*(map(repr, c) for c in columns)))


def read_trace_csv(path: str) -> Trace:
    """Read a trace written by write_trace_csv (or compatible).

    The first column must be a uniformly spaced time axis starting at 0;
    the step size is inferred from it. Column names must be distinct.
    """
    with open(path, newline="", encoding="utf-8") as fh:
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
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise TraceFormatError(f"{path}:{lineno}: expected {len(header)} columns")
            try:
                cells.extend(map(float, row))
            except ValueError as exc:
                raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
    data = np.frombuffer(cells, dtype=float).reshape(-1, len(header))
    if len(data) < 2:
        raise TraceFormatError(f"{path}: need at least two samples to infer dt")
    times = data[:, 0]
    steps = np.diff(times)
    dt = float(steps[0])
    tolerance = 1e-9 * max(dt, 1.0)
    if dt <= 0 or not np.allclose(steps, dt, rtol=0, atol=tolerance):
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


_OMM_BOUNDS = {"u1": (-100.0, 100.0), "u2": (-100.0, 100.0)}

MODEL_PRESETS: dict[str, ModelPreset] = {
    preset.name: preset
    for preset in (
        ModelPreset(
            name="omm-v0",
            factory=lambda: GainCrossModel(),
            input_bounds=dict(_OMM_BOUNDS),
            horizon=10.0,
            dt=0.5,
        ),
        ModelPreset(
            name="omm-v1",
            factory=lambda: GainCrossModel(g12=0.01),
            input_bounds=dict(_OMM_BOUNDS),
            horizon=10.0,
            dt=0.5,
        ),
        ModelPreset(
            name="omm-v2",
            factory=lambda: GainCrossModel(g12=0.01, g21=0.01),
            input_bounds=dict(_OMM_BOUNDS),
            horizon=10.0,
            dt=0.5,
        ),
        ModelPreset(
            name="omm-v3",
            factory=lambda: GainCrossModel(g12=0.01, g21=0.1),
            input_bounds=dict(_OMM_BOUNDS),
            horizon=10.0,
            dt=0.5,
        ),
        ModelPreset(
            name="plant-demo",
            factory=PlantDemoModel,
            input_bounds={"F_s": (3.5, 4.5)},
            horizon=35.0,
            dt=0.01,
        ),
    )
}


def make_model(name: str) -> SystemModel:
    try:
        preset = MODEL_PRESETS[name]
    except KeyError:
        known = ", ".join(sorted(MODEL_PRESETS))
        raise KeyError(f"unknown model '{name}' (known: {known})") from None
    return preset.factory()
