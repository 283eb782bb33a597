"""Parameterized input encoding and the falsification loop.

Input signals are piecewise constant with a fixed number of discontinuities
per signal, so a whole test input is one bounded parameter vector: k+1
levels plus k switch times per signal. The search minimizes the monitored
fitness over that box and stops at the first test case whose fitness is
negative (a failure-revealing test case, verdict TC); exhausting the budget
yields verdict NFF. Both algorithms are fully reproducible from the seed.

Uniform random search evaluates its candidates through the array engine in
batches of up to BATCH_SAMPLES (2^12) candidate-samples, the last one cut at
the budget: 195 candidates of a 21-sample trace, and one candidate of a
trace longer than 2^12 samples. It records the same history as drawing and
evaluating them one at a time, because one draw of n rows yields the same
numbers as n draws of one row, and the history stops at the first test case.
The candidates after it in the same batch were still simulated and
monitored; they never enter the history. Simulated annealing runs the same
loop on batches of one candidate, since each proposal depends on the last.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .expr import RunError
from .monitor import MonitorBatch, MonitorRun, compile_table, monitor_batch, run_monitor
from .sim import SignalMismatchError, SystemModel, Trace, n_samples_for, simulate, simulate_batch
from .table import RequirementsTable

INF = math.inf

# stand-in for an infinite fitness inside Metropolis arithmetic
VACUOUS_PENALTY = 1e15

# most candidate-samples in one uniform-random batch (195 candidates of a
# 21-sample trace, at least one candidate); every batch but the budget's last
# is full, so a search evaluates at most one batch past its first test case.
# On a 2-vCPU Xeon (4 MiB L2, numpy 2.4.6, omm-rt0..2), a batch of one omm
# candidate costs 80-115 us, nearly all of it fixed cost, and one of 195 about
# 200-280 us. Larger batches fault pages: glibc returns the freed top of the
# heap to the kernel after each batch, and the next batch faults it back in.
# A pass of criterion 5's grid took 61-93 minor faults at 2^12, 2,203-2,708 at
# 2^13 and 4,366-6,295 at 780 candidates, and 2^13 and 780 ran 0.94x and 0.80x
# as fast (median of 12 interleaved passes; 1.07x and 0.98x with glibc's trim
# threshold raised). This size also wastes fewer candidates past an early test
# case, and of 2^10..2^13 runs the grid fastest (BENCH_6.json)
BATCH_SAMPLES = 1 << 12

UNIFORM_RANDOM = "uniform-random"
SIMULATED_ANNEALING = "simulated-annealing"
_ALGORITHMS = (UNIFORM_RANDOM, SIMULATED_ANNEALING)


class SearchError(RunError):
    pass


class ArityMismatchError(SearchError):
    pass


class OutOfBoundsError(SearchError):
    pass


@dataclass(frozen=True)
class SignalShape:
    """Piecewise-constant shape of one input signal inside the search box."""

    name: str
    lower: float
    upper: float
    discontinuities: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError(f"'{self.name}': bounds must be finite")
        if self.lower > self.upper:
            raise ValueError(f"'{self.name}': lower bound exceeds upper bound")
        if not math.isfinite(self.upper - self.lower):
            raise ValueError(f"'{self.name}': upper - lower is not finite")
        if self.discontinuities < 0:
            raise ValueError(f"'{self.name}': discontinuity count must be >= 0")


@dataclass(frozen=True)
class Parameter:
    name: str
    lower: float
    upper: float


@dataclass(frozen=True)
class ParameterizedInput:
    """Family of input traces indexed by one bounded parameter vector.

    Parameters are laid out per signal: level_0 .. level_k then
    switch_1 .. switch_k, with levels bounded by the signal's range and
    switch times by [0, horizon]. Any in-bounds vector instantiates to a
    valid trace over the full horizon; a sample takes the level after as
    many switches as lie at or before it, so the order of the switch times
    in the vector does not matter.

    An input family is an immutable value whose derived facts are cached:
    ``times`` is computed at construction, so a sample count that is not
    finite or too large for an array raises ValueError there; ``parameters``
    and ``bounds`` are computed on first use. ``bounds`` and ``times`` are
    read-only arrays.
    """

    shapes: tuple[SignalShape, ...]
    horizon: float
    dt: float

    def __post_init__(self) -> None:
        if not self.shapes:
            raise ValueError("need at least one input signal")
        names = [shape.name for shape in self.shapes]
        for name in names:
            if names.count(name) > 1:
                raise ValueError(f"duplicate signal '{name}'")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if not (self.dt > 0):
            raise ValueError("dt must be > 0")
        self.times  # noqa: B018 -- computed now, so that a bad sample count fails here

    @cached_property
    def parameters(self) -> tuple[Parameter, ...]:
        params: list[Parameter] = []
        for shape in self.shapes:
            k = shape.discontinuities
            for j in range(k + 1):
                params.append(Parameter(f"{shape.name}_level{j}", shape.lower, shape.upper))
            for j in range(1, k + 1):
                params.append(Parameter(f"{shape.name}_switch{j}", 0.0, self.horizon))
        return tuple(params)

    @cached_property
    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        params = self.parameters
        return (
            _read_only(np.array([p.lower for p in params])),
            _read_only(np.array([p.upper for p in params])),
        )

    @cached_property
    def times(self) -> np.ndarray:
        n = n_samples_for(self.horizon, self.dt)
        try:
            times = np.arange(n) * self.dt
        except (MemoryError, ValueError):  # past numpy's limit on array sizes, or out of memory
            times = np.empty(0)
        if times.size != n:  # n >= 1; near 2**63 numpy's arange returns an empty array
            sizes = f"horizon {self.horizon!r} / dt {self.dt!r} gives {n:.4g} samples"
            raise ValueError(f"{sizes}, too many for an array")
        return _read_only(times)

    def instantiate(self, params: Sequence[float]) -> Trace:
        """Build the input trace for one parameter vector."""
        rows = self.instantiate_batch(np.asarray(params, dtype=float)[None])
        return Trace(dt=self.dt, samples={name: values[0] for name, values in rows.items()})

    def instantiate_batch(self, params: np.ndarray) -> dict[str, np.ndarray]:
        """The input signals of many parameter vectors, one per row of ``params``.

        Returns one C-contiguous array of shape (rows, samples) per signal,
        independent of ``params``.
        """
        spec = self.parameters
        values = np.asarray(params, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(spec):
            raise ArityMismatchError(
                f"expected rows of {len(spec)} parameters, got shape {values.shape}"
            )
        lows, highs = self.bounds
        inside = (lows <= values) & (values <= highs)
        if np.count_nonzero(inside) != inside.size:
            row, j = np.argwhere(~inside)[0]
            p = spec[j]
            raise OutOfBoundsError(f"{p.name}={values[row, j]!r} outside [{p.lower}, {p.upper}]")

        columns = np.ascontiguousarray(values.T)[:, :, None]  # (parameters, rows, 1)
        signals, offset = {}, 0
        for shape in self.shapes:
            k = shape.discontinuities
            levels = columns[offset : offset + k + 1]
            switches = columns[offset + k + 1 : offset + 2 * k + 1]
            offset += 2 * k + 1
            if k == 1:  # the default shape: one select is cheaper than the loop below
                signals[shape.name] = np.where(self.times >= switches[0], levels[1], levels[0])
            else:  # a sample takes the level after as many switches as lie at or before it
                # one in-place select per switch in time order, so memory is one
                # (rows, samples) array whatever the switch count
                signal = np.repeat(levels[0], self.times.size, axis=1)
                for switch, level in zip(np.sort(switches, axis=0), levels[1:]):
                    np.copyto(signal, level, where=self.times >= switch)
                signals[shape.name] = signal
        return signals


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class SAConfig:
    """Simulated-annealing knobs; defaults are in fitness and range units."""

    initial_temperature: float = 1.0
    cooling: float = 0.97
    proposal_scale: float = 0.1

    def __post_init__(self) -> None:
        if not (self.initial_temperature > 0):
            raise ValueError("initial temperature must be > 0")
        if not (0 < self.cooling < 1):
            raise ValueError("cooling factor must be in (0, 1)")
        if not (0 < self.proposal_scale <= 1):
            raise ValueError("proposal scale must be in (0, 1]")


@dataclass(frozen=True)
class SearchConfig:
    algorithm: str = UNIFORM_RANDOM
    budget: int = 1500
    seed: int = 0
    sa: SAConfig = field(default_factory=SAConfig)

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(f"algorithm must be one of {_ALGORITHMS}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class Evaluation:
    """Artifacts of one falsification iteration."""

    fitness: float
    trace: Trace
    run: MonitorRun


@dataclass
class FalsificationResult:
    verdict: str  # "TC" or "NFF"
    best_params: np.ndarray
    best_fitness: float
    iterations: int
    violated: tuple[int, ...]
    history: list[float]
    best_evaluation: Evaluation

    @property
    def failure_found(self) -> bool:
        return self.verdict == "TC"


def evaluate(
    model: SystemModel,
    table: RequirementsTable,
    pi: ParameterizedInput,
    params: Sequence[float],
) -> Evaluation:
    """One falsification iteration: instantiate, simulate, monitor, aggregate."""
    table = compile_table(table)
    inputs = pi.instantiate(params)
    merged = simulate(model, inputs)
    run = run_monitor(table, merged)
    return Evaluation(fitness=run.fitness, trace=merged, run=run)


def _evaluate_batch(model, table, pi: ParameterizedInput, params) -> tuple[dict, MonitorBatch]:
    """The candidates' inputs and outputs, (candidates, samples) each, and their monitored batch."""
    signals = simulate_batch(model, pi.instantiate_batch(params), pi.dt)
    return signals, monitor_batch(table, signals, pi.times)


def _check_signals(model: SystemModel, table: RequirementsTable, pi: ParameterizedInput) -> None:
    """Raise SignalMismatchError unless the box feeds the model and the traces feed the table."""
    box = [shape.name for shape in pi.shapes]
    for needed, given, message in (
        (model.inputs, box, "input trace is missing signals"),
        (table.inputs, [*box, *model.outputs], "trace is missing table inputs"),
    ):
        missing = [s for s in needed if s not in given]
        if missing:
            raise SignalMismatchError(f"{message}: {', '.join(missing)}")


def violated_requirements(run: MonitorRun) -> tuple[int, ...]:
    """Indexes of requirements whose degree hit the (negative) overall minimum."""
    if not (run.fitness < 0):
        return ()
    hit = (run.degrees == run.fitness).any(axis=0)
    return tuple(idx for idx, h in zip(run.requirement_indexes, hit) if h)


def _metropolis_delta(proposal_fitness: float, current_fitness: float) -> float:
    low, high = -VACUOUS_PENALTY, VACUOUS_PENALTY
    return min(max(proposal_fitness, low), high) - min(max(current_fitness, low), high)


def acceptance_probability(delta: float, temperature: float) -> float:
    """Metropolis rule: improving moves always pass, worsening ones decay to 0 as T reaches 0."""
    if delta <= 0:
        return 1.0
    return math.exp(-delta / temperature) if temperature > 0 else 0.0


def falsify(
    model: SystemModel,
    table: RequirementsTable,
    pi: ParameterizedInput,
    cfg: SearchConfig,
) -> FalsificationResult:
    """Search the input box for a negative-fitness test case.

    Stops at the first iteration whose fitness is negative (verdict TC) or
    when the budget is exhausted (verdict NFF). Identical configuration and
    seed give identical results, including the fitness history. A box and
    model whose signals do not cover the model's inputs and the table's
    raise SignalMismatchError before any candidate is drawn or simulated.
    """
    table = compile_table(table)
    _check_signals(model, table, pi)
    lows, highs = pi.bounds
    spans = highs - lows
    rng = np.random.default_rng(cfg.seed)
    annealing = cfg.algorithm == SIMULATED_ANNEALING
    max_rows = 1 if annealing else max(1, BATCH_SAMPLES // pi.times.size)
    current, temperature = None, cfg.sa.initial_temperature

    history: list[float] = []
    best_fitness = INF
    best = None  # (rows, signals, monitored, j) of the best candidate so far
    while best_fitness >= 0 and len(history) < cfg.budget:
        if current is None:  # a uniform-random batch, or annealing's start point
            m = min(max_rows, cfg.budget - len(history))
            # the floats of rng.uniform(lows, highs, size=(m, d)), without its argument checks
            params = lows + spans * rng.random((m, lows.size))
        else:
            # Gaussian noise with standard deviation proposal_scale times each
            # parameter's range, clamped back into the box
            noise = rng.normal(0.0, 1.0, size=lows.size) * cfg.sa.proposal_scale * spans
            params = np.clip(current + noise, lows, highs)[None]
        try:
            batches = [(params, *_evaluate_batch(model, table, pi, params))]
        except Exception:
            # one candidate at a time, so that the error, or a test case
            # before it, surfaces where a sequential search meets it
            batches = ((p[None], *_evaluate_batch(model, table, pi, p[None])) for p in params)
        for rows, signals, monitored in batches:
            fitness = monitored.fitness
            failing = np.flatnonzero(fitness < 0)
            if failing.size:  # keep the history up to the first test case
                fitness = fitness[: failing[0] + 1]
            values = fitness.tolist()
            history.extend(values)
            j = int(fitness.argmin())  # argmin keeps the first of equal values
            if best is None or values[j] < best_fitness:
                best_fitness, best = values[j], (rows, signals, monitored, j)
            if best_fitness < 0:
                break
        if annealing and current is None:  # the start point is taken as it is
            current, current_fitness = params[0], history[-1]
        elif annealing:
            delta = _metropolis_delta(history[-1], current_fitness)
            if rng.random() < acceptance_probability(delta, temperature):
                current, current_fitness = params[0], history[-1]
            temperature *= cfg.sa.cooling

    assert best is not None
    rows, signals, monitored, j = best
    run = monitored.run(j)
    trace = Trace(dt=pi.dt, samples={name: v[j] for name, v in signals.items()})
    verdict = "TC" if best_fitness < 0 else "NFF"
    return FalsificationResult(
        verdict=verdict,
        best_params=rows[j].copy(),
        best_fitness=best_fitness,
        iterations=len(history),
        violated=violated_requirements(run),
        history=history,
        best_evaluation=Evaluation(fitness=run.fitness, trace=trace, run=run),
    )
