"""Compile requirements tables into three-phase monitor machines and run them.

Each requirement becomes one parallel machine with phases PRC (checking the
precondition), WT (precondition held, waiting out the duration) and POA
(postcondition active). Machines take at most one transition per time step:

    PRC -> POA   precondition holds, no (or zero) duration
    PRC -> WT    precondition holds, positive duration; the timer starts
    WT  -> PRC   precondition stopped holding before the duration elapsed
    WT  -> POA   elapsed time reached the duration with the guard still held
    POA -> PRC   precondition stopped holding

A machine emits +inf while in PRC or WT and the postcondition's satisfaction
degree while in POA (including the entry step). Actions attached to a
requirement execute on every step its machine spends in POA; if the table
declares outputs, every output must be assigned on every step, otherwise
the run stops with MissingActionError, mirroring how an unset table output
aborts a simulation.

prev(...) reads go through a one-step delay buffer seeded with the declared
initial values, so step 0 sees the init values and step k sees step k-1.

The machines run as one array engine over a batch of traces (candidates x
samples): every expression is evaluated once per batch, and the phases
follow from the guards' run lengths. Only an action that reads prev() of a
table output makes the outputs a recurrence; that case runs the same
kernels one step at a time. A run stops with the error that a step-by-step
run meets first: the earliest step, and within it guards, then actions,
then missing outputs, then postconditions, each in requirement order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Mapping

import numpy as np

# the scalar reference semantics; bench/tracing.py counts calls to these names
from .expr import degree, eval_arith, eval_bool  # noqa: F401
from .expr import (
    ArrayEnv,
    DivisionByZeroError,
    arith_array,
    degree_array,
    holds_array,
    prev_names,
)
from .sim import SignalMismatchError, Trace, write_csv_columns
from .table import (
    Requirement,
    RequirementsTable,
    TableValidationError,
    prev_signals,
    validate,
)

INF = math.inf

# absorbs float accumulation in the elapsed-time comparison, scaled by dt
ET_TOLERANCE = 1e-9


class MonitorError(Exception):
    pass


class MissingActionError(MonitorError):
    def __init__(self, output: str, t: float):
        super().__init__(f"output '{output}' received no assignment at t={t}")
        self.output = output
        self.t = t


class ConflictingActionError(MonitorError):
    def __init__(self, output: str, t: float, first: float, second: float):
        super().__init__(
            f"output '{output}' assigned conflicting values {first!r} and {second!r} at t={t}"
        )
        self.output = output
        self.t = t


class UndefinedDegreeError(MonitorError):
    """A postcondition's degree is NaN, e.g. from ``inf - inf``: no verdict can rest on it."""

    def __init__(self, requirement: int, t: float):
        super().__init__(f"requirement {requirement} has an undefined (NaN) degree at t={t}")
        self.requirement = requirement
        self.t = t


@dataclass(frozen=True)
class MonitorAutomaton:
    """Immutable compiled table: one parallel machine per requirement."""

    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    requirements: tuple[Requirement, ...]
    prev_signals: tuple[str, ...]
    initial_values: dict[str, float]

    @cached_property
    def requirement_indexes(self) -> tuple[int, ...]:
        return tuple(r.index for r in self.requirements)

    @cached_property
    def recurrent(self) -> bool:
        """True when an action reads prev() of a table output, so step k needs step k-1."""
        outputs = set(self.outputs)
        return any(
            prev_names(action.value) & outputs
            for req in self.requirements
            for action in req.actions
        )


def compile_table(table: RequirementsTable) -> MonitorAutomaton:
    """Build the monitor automaton for a validated table.

    Raises TableValidationError when the table breaks a static rule, so a
    compiled automaton can always be executed without name errors.
    """
    diagnostics = validate(table)
    if diagnostics:
        raise TableValidationError(diagnostics)
    return MonitorAutomaton(
        inputs=table.inputs,
        outputs=table.outputs,
        requirements=table.requirements,
        prev_signals=prev_signals(table),
        initial_values=dict(table.initial_values),
    )


@dataclass
class MonitorRun:
    """Everything one monitored run produced."""

    times: list[float]
    requirement_indexes: tuple[int, ...]
    degrees: list[list[float]]  # [step][requirement]
    running: list[float]  # running minimum after each step
    outputs: dict[str, list[float]]
    fitness: float


@dataclass
class MonitorBatch:
    """What the machines produced over a batch of traces, as arrays."""

    times: np.ndarray  # (samples,)
    requirement_indexes: tuple[int, ...]
    degrees: np.ndarray  # (candidates, samples, requirements)
    outputs: dict[str, np.ndarray]  # (candidates, samples) per table output
    fitness: np.ndarray  # (candidates,)

    def run(self, c: int) -> MonitorRun:
        """Candidate ``c``'s run, with plain-float lists."""
        degrees = self.degrees[c]
        running = np.minimum.accumulate(degrees.min(axis=1, initial=INF))
        return MonitorRun(
            times=self.times.tolist(),
            requirement_indexes=self.requirement_indexes,
            degrees=degrees.tolist(),
            running=_first_zero_sign(running, degrees.ravel()).tolist(),
            outputs={name: values[c].tolist() for name, values in self.outputs.items()},
            fitness=float(self.fitness[c]),
        )


def _first_zero_sign(minima: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Give zero minima the sign of the first zero in ``values``' last axis.

    Folding ``if d < current: current = d`` over the degrees in step order
    keeps the first of equal minima; only zeros can differ among equals.
    """
    zero = minima == 0
    if np.count_nonzero(zero):
        first = np.take_along_axis(values, np.argmax(values == 0, axis=-1)[..., None], axis=-1)
        minima = np.where(zero, first[..., 0], minima)
    return minima


def run_monitor(automaton: MonitorAutomaton, trace) -> MonitorRun:
    """Execute the automaton over a whole trace and aggregate the fitness.

    The trace must contain every table input at a uniform step; errors from
    individual steps (missing or conflicting actions, division by zero, a
    NaN degree) propagate.
    """
    if not isinstance(trace, Trace):
        raise TypeError("run_monitor expects a Trace")
    signals = {name: values[None] for name, values in trace.samples.items()}
    return monitor_batch(automaton, signals, trace.times).run(0)


def monitor_batch(
    automaton: MonitorAutomaton, signals: Mapping[str, np.ndarray], times: np.ndarray
) -> MonitorBatch:
    """Run every machine over a batch of traces at once.

    ``signals`` maps names to arrays of shape (candidates, samples), all
    sampled at ``times``. Raises the error a step-by-step run meets first.
    """
    missing = [s for s in automaton.inputs if s not in signals]
    if missing:
        raise SignalMismatchError(f"trace is missing table inputs: {', '.join(missing)}")
    with np.errstate(all="ignore"):
        return _Engine(automaton, signals, times).run()


class _Engine:
    """One monitor_batch call: the batch, the masks built from it, the errors found.

    Masks are tested with ``np.count_nonzero``, which costs less than
    ``ndarray.any()`` on the small arrays of a search.
    """

    def __init__(self, automaton: MonitorAutomaton, signals, times: np.ndarray):
        self.automaton = automaton
        self.signals = signals
        self.times = times
        self.shape = next(iter(signals.values())).shape
        init = automaton.initial_values
        outputs = set(automaton.outputs)
        # prev() of a trace signal is the trace delayed by one step
        self.prev = {
            s: _delayed(signals[s], init[s]) for s in automaton.prev_signals if s not in outputs
        }
        self.prev_outputs = [s for s in automaton.prev_signals if s in outputs]
        # (step mask, order within a step, exception factory) of every error source
        self.errors: list[tuple[np.ndarray, tuple, object]] = []

    def run(self) -> MonitorBatch:
        automaton, shape, times = self.automaton, self.shape, self.times
        n_candidates, n = shape
        env = ArrayEnv(self.signals, self.prev, times[None, :])
        active = [
            _postcondition_active(self._guard(i, req, env), req, times)
            for i, req in enumerate(automaton.requirements)
        ]
        guard_errors, self.errors = self.errors, []

        degrees = np.full((n_candidates, n, len(active)), INF)
        init = automaton.initial_values
        carry = {s: np.full((n_candidates, 1), init[s]) for s in self.prev_outputs}
        if not automaton.recurrent:  # one pass over the whole arrays
            outputs = self._pass(
                self.signals, self.prev, times, active, carry, degrees, guard_errors
            )
        else:
            # actions read prev() of an output: one step at a time, carrying the outputs
            outputs = {name: np.empty(shape) for name in automaton.outputs}
            for k in range(n):
                cols = slice(k, k + 1)
                values = self._pass(
                    {name: signal[:, cols] for name, signal in self.signals.items()},
                    {name: signal[:, cols] for name, signal in self.prev.items()},
                    times[cols],
                    [mask[:, cols] for mask in active],
                    carry,
                    degrees[:, cols],
                    [(mask[:, cols], key, make) for mask, key, make in guard_errors],
                )
                for name, column in values.items():
                    outputs[name][:, cols] = column
                carry = {s: values[s] for s in carry}

        fitness = np.minimum.reduce(degrees.reshape(n_candidates, -1), axis=1, initial=INF)
        return MonitorBatch(
            times=times,
            requirement_indexes=automaton.requirement_indexes,
            degrees=degrees,
            outputs=outputs,
            fitness=_first_zero_sign(fitness, degrees.reshape(n_candidates, -1)),
        )

    def _pass(self, signals, prev, times, live, carry, degrees, guard_errors) -> dict:
        """Actions, then postconditions, over some steps; returns the outputs' values.

        ``carry`` holds each prev()-read output's value before the first of
        these steps; ``degrees`` is the (candidates, steps, requirements)
        block to write into.
        """
        t = times[None, :]
        action_env = ArrayEnv(signals, {**prev, **carry}, t)
        values = self._actions(action_env, live) if self.automaton.outputs else {}
        prev = {**prev, **{s: _delayed(values[s], carry[s]) for s in carry}}
        post_env = ArrayEnv({**signals, **values}, prev, t)
        for i, req in enumerate(self.automaton.requirements):
            if req.postcondition is not None:
                self._postcondition(i, req, post_env, live[i], degrees[:, :, i])
        self._raise_first(guard_errors, times)
        return values

    def _guard(self, i: int, req: Requirement, env: ArrayEnv) -> np.ndarray:
        if req.precondition is None:  # an absent precondition always holds
            return np.ones(self.shape, dtype=bool)
        env.zero_division = False
        holds = _broadcast(holds_array(req.precondition, env), self.shape)
        self._note_division(env, (0, i))
        return holds

    def _actions(self, env: ArrayEnv, live: list[np.ndarray]) -> dict[str, np.ndarray]:
        """Every output's value: the last active action's, checked for conflicts and gaps."""
        shape = (self.shape[0], env.t.shape[1])
        values = {name: np.full(shape, np.nan) for name in self.automaton.outputs}
        assigned = {name: np.zeros(shape, dtype=bool) for name in self.automaton.outputs}
        for i, req in enumerate(self.automaton.requirements):
            for a, action in enumerate(req.actions):
                env.zero_division = False
                value = _broadcast(arith_array(action.value, env, live[i]), shape)
                self._note_division(env, (1, i, a, 0))
                target, current = action.target, values[action.target]
                conflict = live[i] & assigned[target] & (current != value)
                if np.count_nonzero(conflict):
                    self.errors.append((conflict, (1, i, a, 1), _conflict(target, current, value)))
                values[target] = np.where(live[i], value, current)
                assigned[target] = assigned[target] | live[i]
        for j, name in enumerate(self.automaton.outputs):
            unset = ~assigned[name]
            if np.count_nonzero(unset):
                self.errors.append(
                    (unset, (2, j), lambda c, k, t, name=name: MissingActionError(name, t))
                )
        return values

    def _postcondition(self, i: int, req, env: ArrayEnv, live: np.ndarray, out) -> None:
        """Write the degrees into ``out`` where ``live``; ``out`` holds +inf elsewhere."""
        env.zero_division = False
        np.copyto(out, degree_array(req.postcondition, env, live), where=live)
        self._note_division(env, (3, i, 0))
        undefined = np.isnan(out)
        if np.count_nonzero(undefined):
            self.errors.append(
                (undefined, (3, i, 1), lambda c, k, t, idx=req.index: UndefinedDegreeError(idx, t))
            )

    def _note_division(self, env: ArrayEnv, key: tuple) -> None:
        # stays the plain False it was reset to unless a `/` was evaluated
        if env.zero_division is not False and np.count_nonzero(env.zero_division):
            mask = np.broadcast_to(env.zero_division, (self.shape[0], env.t.shape[1]))
            self.errors.append((mask, key, lambda c, k, t: DivisionByZeroError()))

    def _raise_first(self, guard_errors: list, t: np.ndarray) -> None:
        """Raise the error of the earliest step, ties broken in step-by-step order."""
        first = None
        for mask, key, make in guard_errors + self.errors:
            steps = np.flatnonzero(mask.any(axis=0))
            if steps.size and (first is None or (steps[0], key) < first[:2]):
                first = (steps[0], key, mask, make)
        if first is not None:
            k, _, mask, make = first
            raise make(int(np.argmax(mask[:, k])), k, float(t[k]))


def _broadcast(values, shape: tuple[int, int]) -> np.ndarray:
    """``values`` as an array of ``shape``: itself if it has that shape, else a broadcast view."""
    if getattr(values, "shape", None) == shape:
        return values
    return np.broadcast_to(values, shape)


def _delayed(values: np.ndarray, first) -> np.ndarray:
    """``values`` shifted one step later along the samples, starting from ``first``."""
    head = np.broadcast_to(first, (values.shape[0], 1))
    return np.concatenate([head, values[:, :-1]], axis=1)


def _conflict(target: str, current: np.ndarray, value: np.ndarray):
    def make(c: int, k: int, t: float) -> ConflictingActionError:
        return ConflictingActionError(target, t, float(current[c, k]), float(value[c, k]))

    return make


def _postcondition_active(guard: np.ndarray, req: Requirement, times) -> np.ndarray:
    """The POA mask: where the guard holds and, with a duration, has held long enough.

    A positive duration starts timing at the first step of each run of
    guard-true steps (the WT entry) and reaches POA on a later step of the
    run once the elapsed time, less a dt-scaled tolerance, reaches it.
    """
    if not req.duration:  # no WT phase: a zero duration elapses at entry
        return guard
    entry = guard.copy()
    entry[:, 1:] &= ~guard[:, :-1]
    run_start = np.maximum.accumulate(np.where(entry, np.arange(times.size), 0), axis=1)
    tolerance = ET_TOLERANCE * np.diff(times, prepend=times[0])
    return guard & ~entry & (times - times[run_start] >= req.duration - tolerance)


def write_degree_csv(run: MonitorRun, path: str) -> None:
    """Write the per-step degrees as CSV: t, ff_1..ff_n, ff_total_running."""
    import csv

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["t", *(f"ff_{idx}" for idx in run.requirement_indexes), "ff_total_running"]
        )
        # one lazy column per requirement: transposing the rows would copy them all
        degrees = (map(itemgetter(j), run.degrees) for j in range(len(run.requirement_indexes)))
        write_csv_columns(fh, [run.times, *degrees, run.running])
