"""Parameterized input encoding and the falsification loop.

Input signals are piecewise constant with a fixed number of discontinuities
per signal, so a whole test input is one bounded parameter vector: k+1
levels plus k switch times per signal. The search minimizes the monitored
fitness over that box and stops at the first test case whose fitness is
negative (a failure-revealing test case, verdict TC); exhausting the budget
yields verdict NFF. Both algorithms are fully reproducible from the seed.

Uniform random search evaluates its candidates through the array engine in
batches of up to BATCH_SAMPLES candidate-samples, the last one cut at the
budget. It records the same history as drawing and evaluating them one at a
time, because one draw of n rows yields the same numbers as n draws of one
row, and the history stops at the first test case. The candidates after it
in the same batch were still simulated and monitored; they never enter the
history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .monitor import (
    MonitorAutomaton,
    MonitorBatch,
    MonitorRun,
    compile_table,
    monitor_batch,
    run_monitor,
)
from .sim import SystemModel, Trace, n_samples_for, simulate, simulate_batch
from .table import RequirementsTable

INF = math.inf

# stand-in for an infinite fitness inside Metropolis arithmetic
VACUOUS_PENALTY = 1e15

# most candidate-samples in one uniform-random batch (48 candidates of a
# 21-sample trace, at least one candidate); every batch but the budget's last
# is full, so a search evaluates at most one batch past its first test case. A
# batch this size still costs mostly its fixed part, so larger batches run
# faster, but they hold more memory at once
BATCH_SAMPLES = 1 << 10

UNIFORM_RANDOM = "uniform-random"
SIMULATED_ANNEALING = "simulated-annealing"
_ALGORITHMS = (UNIFORM_RANDOM, SIMULATED_ANNEALING)


class SearchError(Exception):
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

    ``parameters``, ``bounds`` and ``times`` are computed once per object;
    ``bounds`` and ``times`` are returned as read-only arrays.
    """

    shapes: tuple[SignalShape, ...]
    horizon: float
    dt: float

    def __post_init__(self) -> None:
        if not self.shapes:
            raise ValueError("need at least one input signal")
        if self.horizon < 0:
            raise ValueError("horizon must be >= 0")
        if not (self.dt > 0):
            raise ValueError("dt must be > 0")

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
        return _read_only(np.arange(n_samples_for(self.horizon, self.dt)) * self.dt)

    def instantiate(self, params: Sequence[float]) -> Trace:
        """Build the input trace for one parameter vector."""
        rows = self.instantiate_batch(np.asarray(params, dtype=float)[None])
        return Trace(dt=self.dt, samples={name: values[0] for name, values in rows.items()})

    def instantiate_batch(self, params: np.ndarray) -> dict[str, np.ndarray]:
        """The input signals of many parameter vectors, one per row of ``params``.

        Returns arrays of shape (rows, samples), one per signal.
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

        switches, owners, first_levels = self._layout
        n_rows, n_params = values.shape
        n_samples = self.times.size
        # (switches, rows, samples): which switch times lie at or before each sample
        passed = values.T[switches][:, :, None] <= self.times
        # a sample takes the level after as many of its signal's switches as it has passed;
        # the counts are small whole numbers, exact as floats
        index = owners @ passed.reshape(switches.size, n_rows * n_samples)
        index = index.reshape(len(self.shapes), n_rows, n_samples)
        index += first_levels[:, None, None] + np.arange(0, n_rows * n_params, n_params)[:, None]
        levels = values.take(index.astype(np.intp))  # flat positions into ``values``
        return {shape.name: signal for shape, signal in zip(self.shapes, levels)}

    @cached_property
    def _layout(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The columns of all switch times, which signal owns each switch (a 0/1
        matrix of signals x switches), and the column of each signal's first level."""
        switches: list[int] = []
        first_levels: list[int] = []
        owners = np.zeros((len(self.shapes), sum(s.discontinuities for s in self.shapes)))
        offset = 0
        for g, shape in enumerate(self.shapes):
            k = shape.discontinuities
            owners[g, len(switches) : len(switches) + k] = 1.0
            first_levels.append(offset)
            switches.extend(range(offset + k + 1, offset + 2 * k + 1))
            offset += 2 * k + 1
        return np.array(switches, dtype=np.intp), owners, np.array(first_levels)


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
    table: RequirementsTable | MonitorAutomaton,
    pi: ParameterizedInput,
    params: Sequence[float],
) -> Evaluation:
    """One falsification iteration: instantiate, simulate, monitor, aggregate."""
    automaton = table if isinstance(table, MonitorAutomaton) else compile_table(table)
    inputs = pi.instantiate(params)
    merged = simulate(model, inputs)
    run = run_monitor(automaton, merged)
    return Evaluation(fitness=run.fitness, trace=merged, run=run)


@dataclass
class _Batch:
    """Candidates that went through instantiate, simulate and monitor together."""

    params: np.ndarray  # (candidates, parameters)
    signals: dict[str, np.ndarray]  # inputs and outputs, (candidates, samples)
    monitored: MonitorBatch
    dt: float

    def evaluation(self, c: int) -> Evaluation:
        run = self.monitored.run(c)
        trace = Trace(dt=self.dt, samples={name: v[c] for name, v in self.signals.items()})
        return Evaluation(fitness=run.fitness, trace=trace, run=run)


def _evaluate_batch(model, automaton: MonitorAutomaton, pi: ParameterizedInput, params) -> _Batch:
    signals = simulate_batch(model, pi.instantiate_batch(params), pi.dt)
    return _Batch(params, signals, monitor_batch(automaton, signals, pi.times), pi.dt)


def violated_requirements(run: MonitorRun) -> tuple[int, ...]:
    """Indexes of requirements whose degree hit the (negative) overall minimum."""
    if not (run.fitness < 0):
        return ()
    hit = []
    for j, idx in enumerate(run.requirement_indexes):
        if any(row[j] == run.fitness for row in run.degrees):
            hit.append(idx)
    return tuple(hit)


def _finite_fitness(x: float) -> float:
    return min(max(x, -VACUOUS_PENALTY), VACUOUS_PENALTY)


def _metropolis_delta(proposal_fitness: float, current_fitness: float) -> float:
    return _finite_fitness(proposal_fitness) - _finite_fitness(current_fitness)


def acceptance_probability(delta: float, temperature: float) -> float:
    """Metropolis rule: improving moves always pass, worsening ones decay."""
    if delta <= 0:
        return 1.0
    return math.exp(-delta / temperature)


def sa_step(
    objective: Callable[[np.ndarray], float],
    pi: ParameterizedInput,
    current: np.ndarray,
    current_fitness: float,
    temperature: float,
    proposal_scale: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float, bool]:
    """Propose and evaluate one annealing move.

    The proposal adds per-dimension Gaussian noise with standard deviation
    ``proposal_scale`` times the parameter range, clamped back into the box.
    Returns (proposal, proposal fitness, accepted); on rejection the caller
    keeps its current point.
    """
    lows, highs = pi.bounds
    noise = rng.normal(0.0, 1.0, size=current.shape) * proposal_scale * (highs - lows)
    proposal = np.clip(current + noise, lows, highs)
    proposal_fitness = objective(proposal)
    delta = _metropolis_delta(proposal_fitness, current_fitness)
    accepted = rng.random() < acceptance_probability(delta, temperature)
    return proposal, proposal_fitness, accepted


def falsify(
    model: SystemModel,
    table: RequirementsTable | MonitorAutomaton,
    pi: ParameterizedInput,
    cfg: SearchConfig,
) -> FalsificationResult:
    """Search the input box for a negative-fitness test case.

    Stops at the first iteration whose fitness is negative (verdict TC) or
    when the budget is exhausted (verdict NFF). Identical configuration and
    seed give identical results, including the fitness history.
    """
    automaton = table if isinstance(table, MonitorAutomaton) else compile_table(table)
    lows, highs = pi.bounds
    rng = np.random.default_rng(cfg.seed)

    history: list[float] = []
    best_fitness = INF
    best: tuple[_Batch, int] | None = None

    def record(batch: _Batch, fitnesses: list[float]) -> None:
        """Append the batch's first ``len(fitnesses)`` candidates; keep the first best."""
        nonlocal best_fitness, best
        history.extend(fitnesses)
        j = fitnesses.index(min(fitnesses))  # min keeps the first of equal values
        if best is None or fitnesses[j] < best_fitness:
            best_fitness, best = fitnesses[j], (batch, j)

    if cfg.algorithm == UNIFORM_RANDOM:
        max_rows = max(1, BATCH_SAMPLES // pi.times.size)
        spans = highs - lows
        while best_fitness >= 0 and len(history) < cfg.budget:
            m = min(max_rows, cfg.budget - len(history))
            # the floats of rng.uniform(lows, highs, size=(m, d)), without its argument checks
            params = lows + spans * rng.random((m, lows.size))
            try:
                batches = [_evaluate_batch(model, automaton, pi, params)]
            except Exception:
                # one candidate at a time, so that the error, or a test case
                # before it, surfaces where a sequential search meets it
                batches = (_evaluate_batch(model, automaton, pi, p[None]) for p in params)
            for batch in batches:
                fitnesses = batch.monitored.fitness.tolist()
                if min(fitnesses) < 0:  # keep the history up to the first test case
                    fitnesses = fitnesses[: next(j for j, f in enumerate(fitnesses) if f < 0) + 1]
                record(batch, fitnesses)
                if best_fitness < 0:
                    break
    else:
        last: _Batch | None = None

        def objective(params: np.ndarray) -> float:
            nonlocal last
            last = _evaluate_batch(model, automaton, pi, params[None])
            return float(last.monitored.fitness[0])

        current = rng.uniform(lows, highs)
        current_fitness = objective(current)
        record(last, [current_fitness])
        temperature = cfg.sa.initial_temperature
        while best_fitness >= 0 and len(history) < cfg.budget:
            proposal, proposal_fitness, accepted = sa_step(
                objective, pi, current, current_fitness, temperature, cfg.sa.proposal_scale, rng
            )
            record(last, [proposal_fitness])
            if accepted:
                current, current_fitness = proposal, proposal_fitness
            temperature *= cfg.sa.cooling

    assert best is not None
    batch, j = best
    best_eval = batch.evaluation(j)
    verdict = "TC" if best_fitness < 0 else "NFF"
    return FalsificationResult(
        verdict=verdict,
        best_params=batch.params[j].copy(),
        best_fitness=best_fitness,
        iterations=len(history),
        violated=violated_requirements(best_eval.run),
        history=history,
        best_evaluation=best_eval,
    )
