"""Run requirements tables as three-phase monitor machines.

``compile_table`` checks a table's static rules and returns the table
itself, which ``run_monitor`` and ``monitor_batch`` then run. Each
requirement is one parallel machine with phases PRC (checking the
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
table output makes the outputs a recurrence; that case first steps the
actions through the samples to fill in the outputs, then makes the same
whole-array pass with prev() read from them. Every stage records where it
fails, and the run raises, once, the error that a step-by-step run meets
first: the earliest step, and within it guards, then actions, then missing
outputs, then postconditions, each in requirement order.

The engine's expression evaluators (``arith_array``, ``holds_array``,
``degree_array``) live here, next to their only caller. They compute the
same floats bit for bit as ``expr``'s scalar reference functions, over many
samples at once; the one intended difference is that a NaN operand of
``&`` or ``|`` makes the array degree NaN, where Python's ``min`` and
``max`` keep or drop it depending on operand order.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Mapping

import numpy as np

# the scalar reference semantics; bench/tracing.py counts calls to these names
from .expr import degree, eval_arith, eval_bool  # noqa: F401
from .expr import (
    And,
    ArithExpr,
    BinaryArith,
    BoolExpr,
    Const,
    DivisionByZeroError,
    Not,
    Or,
    PrevRef,
    Rel,
    RunError,
    SignalRef,
    TIE_DEGREE,
    TimeVar,
)
from .sim import SignalMismatchError, Trace, write_csv
from .table import Requirement, RequirementsTable, TableValidationError

INF = math.inf

# absorbs float accumulation in the elapsed-time comparison, scaled by dt
ET_TOLERANCE = 1e-9


class MonitorError(RunError):
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


def compile_table(table: RequirementsTable) -> RequirementsTable:
    """Check ``table`` for running as a monitor and return it.

    Raises TableValidationError when the table breaks a static rule, so a
    compiled table runs without name errors. The rules are checked once per
    table, however often it is parsed, compiled or searched.
    """
    if table.diagnostics:
        raise TableValidationError(table.diagnostics)
    return table


@dataclass
class MonitorRun:
    """One candidate's run; ``times``, ``degrees`` and ``outputs`` are views of the batch's."""

    times: np.ndarray  # (samples,)
    requirement_indexes: tuple[int, ...]
    degrees: np.ndarray  # (samples, requirements), +inf where a row is inactive
    running: np.ndarray  # (samples,) running minimum after each step
    outputs: dict[str, np.ndarray]  # (samples,) per table output
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
        """Candidate ``c``'s run, sharing the batch's arrays: copy them before changing them."""
        degrees = self.degrees[c]
        return MonitorRun(
            times=self.times,
            requirement_indexes=self.requirement_indexes,
            degrees=degrees,
            running=np.minimum.accumulate(degrees.min(axis=1, initial=INF)),
            outputs={name: values[c] for name, values in self.outputs.items()},
            fitness=float(self.fitness[c]),
        )


def run_monitor(table: RequirementsTable, trace) -> MonitorRun:
    """Run a compiled table's machines over a whole trace and aggregate the fitness.

    The trace must contain every table input at a uniform step; errors from
    individual steps (missing or conflicting actions, division by zero, a
    NaN degree) propagate.
    """
    if not isinstance(trace, Trace):
        raise TypeError("run_monitor expects a Trace")
    signals = {name: values[None] for name, values in trace.samples.items()}
    return monitor_batch(table, signals, trace.times).run(0)


def monitor_batch(
    table: RequirementsTable, signals: Mapping[str, np.ndarray], times: np.ndarray
) -> MonitorBatch:
    """Run every machine of a compiled table over a batch of traces at once.

    ``signals`` maps names to arrays of shape (candidates, samples), all
    sampled at ``times``. Raises TableValidationError for a table that
    breaks a static rule, else the error a step-by-step run meets first.
    """
    if table.diagnostics:  # cached on the table, so checked once however often it runs
        raise TableValidationError(table.diagnostics)
    missing = [s for s in table.inputs if s not in signals]
    if missing:
        raise SignalMismatchError(f"trace is missing table inputs: {', '.join(missing)}")
    with np.errstate(all="ignore"):
        return _Engine(table, signals, times).run()


# --- whole-array evaluation ---------------------------------------------

_COMPARE = {
    ">": operator.gt,
    "<": operator.lt,
    ">=": operator.ge,
    "<=": operator.le,
    "==": operator.eq,
    "!=": operator.ne,
}


@dataclass
class ArrayEnv:
    """Bindings for evaluating expressions over many samples at once.

    Values are arrays (or floats) that broadcast to one shape, candidates x
    samples in the monitor. Division by zero does not raise here: every
    ``/`` ORs into ``zero_division`` the samples where its divisor was zero
    and the scalar evaluator would have reached it, so the caller can raise
    the error of the first failing step. Evaluate under
    ``np.errstate(all="ignore")``; the other samples' quotients are discarded.
    """

    signals: Mapping[str, np.ndarray]
    prev: Mapping[str, np.ndarray]
    t: np.ndarray | float
    zero_division: np.ndarray | bool = False


def arith_array(e: ArithExpr, env: ArrayEnv, live=True):
    """``eval_arith`` elementwise; ``live`` marks the samples the scalar evaluator reaches.

    ``env`` binds every name ``e`` reads, as it does for a compiled table's rows.
    """
    match e:
        case Const(value):
            return value
        case SignalRef(name):
            return env.signals[name]
        case TimeVar():
            return env.t
        case PrevRef(name):
            return env.prev[name]
        case BinaryArith(op, lhs, rhs):
            a = arith_array(lhs, env, live)
            b = arith_array(rhs, env, live)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                env.zero_division = np.logical_or(env.zero_division, np.logical_and(live, b == 0.0))
                return np.divide(a, b)
            raise ValueError(f"unknown arithmetic operator {op!r}")
    raise TypeError(f"not an arithmetic expression: {e!r}")


def holds_array(e: BoolExpr, env: ArrayEnv, live=True):
    """``eval_bool`` elementwise, with ``&`` and ``|`` short-circuiting per sample."""
    match e:
        case Rel(op, lhs, rhs):
            if op not in _COMPARE:
                raise ValueError(f"unknown relational operator {op!r}")
            return _COMPARE[op](arith_array(lhs, env, live), arith_array(rhs, env, live))
        case And(lhs, rhs):
            left = holds_array(lhs, env, live)
            return np.logical_and(left, holds_array(rhs, env, np.logical_and(live, left)))
        case Or(lhs, rhs):
            left = holds_array(lhs, env, live)
            right_live = np.logical_and(live, np.logical_not(left))
            return np.logical_or(left, holds_array(rhs, env, right_live))
        case Not(operand):
            return np.logical_not(holds_array(operand, env, live))
    raise TypeError(f"not a boolean expression: {e!r}")


def degree_array(e: BoolExpr, env: ArrayEnv, live=True):
    """``degree`` elementwise; ``&`` and ``|`` evaluate both sides, as ``degree`` does."""
    match e:
        case Rel(op, lhs, rhs):
            a = arith_array(lhs, env, live)
            b = arith_array(rhs, env, live)
            if op in (">", ">="):
                d = a - b
            elif op in ("<", "<="):
                d = b - a
            elif op == "==":
                d = -abs(a - b)
            elif op == "!=":
                d = abs(a - b)
            else:
                raise ValueError(f"unknown relational operator {op!r}")
            tie = d == 0
            return np.where(tie, TIE_DEGREE[op], d) if np.count_nonzero(tie) else d
        case And(lhs, rhs):
            return np.minimum(degree_array(lhs, env, live), degree_array(rhs, env, live))
        case Or(lhs, rhs):
            return np.maximum(degree_array(lhs, env, live), degree_array(rhs, env, live))
        case Not(operand):
            return -degree_array(operand, env, live)
    raise TypeError(f"not a boolean expression: {e!r}")


class _Engine:
    """One monitor_batch call: the batch, the masks built from it, the errors found.

    Masks are tested with ``np.count_nonzero``, which costs less than
    ``ndarray.any()`` on the small arrays of a search.
    """

    def __init__(self, table: RequirementsTable, signals, times: np.ndarray):
        self.table = table
        self.signals = signals
        self.times = times
        self.shape = next(iter(signals.values())).shape
        init = table.initial_values
        outputs = set(table.outputs)
        # prev() of a trace signal is the trace delayed by one step
        self.prev = {
            s: _delayed(signals[s], init[s]) for s in table.prev_signals if s not in outputs
        }
        self.prev_outputs = [s for s in table.prev_signals if s in outputs]
        # (step mask, order within a step, exception factory) of every error source
        self.errors: list[tuple[np.ndarray, tuple, object]] = []

    def run(self) -> MonitorBatch:
        table, times = self.table, self.times
        n_candidates, n = self.shape
        t = times[None, :]
        env = ArrayEnv(self.signals, self.prev, t)
        active = [
            _postcondition_active(self._guard(i, req, env), req, times)
            for i, req in enumerate(table.requirements)
        ]
        prev = {**self.prev, **self._recurrence(active)} if table.recurrent else self.prev
        values = self._actions(ArrayEnv(self.signals, prev, t), active) if table.outputs else {}
        init = table.initial_values
        prev = {**prev, **{s: _delayed(values[s], init[s]) for s in self.prev_outputs}}
        post_env = ArrayEnv({**self.signals, **values}, prev, t)
        degrees = np.empty((n_candidates, n, len(active)))
        for i, req in enumerate(table.requirements):
            degrees[:, :, i] = self._postcondition(i, req, post_env, active[i])
        fitness = np.minimum.reduce(degrees.reshape(n_candidates, -1), axis=1, initial=INF)
        if np.count_nonzero(np.isnan(fitness)):  # the minimum carries any NaN degree
            for i, req in enumerate(table.requirements):
                self._note_undefined(i, req, degrees[:, :, i])
        self._raise_first()  # once, now that every stage has recorded where it fails

        return MonitorBatch(
            times=times,
            requirement_indexes=table.requirement_indexes,
            degrees=degrees,
            outputs=values,
            fitness=fitness,
        )

    def _recurrence(self, active: list[np.ndarray]) -> dict[str, np.ndarray]:
        """prev() of each prev()-read output, from the actions run one step at a time."""
        errors, self.errors = self.errors, []  # dropped: the whole-array pass meets each again
        init = self.table.initial_values
        delayed = {s: np.full(self.shape, init[s]) for s in self.prev_outputs}
        prev = {**self.prev, **delayed}
        for k in range(self.shape[1] - 1):  # no step reads the last step's outputs
            cols = slice(k, k + 1)
            env = ArrayEnv(
                {name: signal[:, cols] for name, signal in self.signals.items()},
                {name: signal[:, cols] for name, signal in prev.items()},
                self.times[None, cols],
            )
            values = self._actions(env, [mask[:, cols] for mask in active])
            for s in delayed:
                delayed[s][:, k + 1 : k + 2] = values[s]
        self.errors = errors
        return delayed

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
        values = {name: np.full(shape, np.nan) for name in self.table.outputs}
        assigned = {name: np.zeros(shape, dtype=bool) for name in self.table.outputs}
        for i, req in enumerate(self.table.requirements):
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
        for j, name in enumerate(self.table.outputs):
            unset = ~assigned[name]
            if np.count_nonzero(unset):
                self.errors.append(
                    (unset, (2, j), lambda c, k, t, name=name: MissingActionError(name, t))
                )
        return values

    def _postcondition(self, i: int, req, env: ArrayEnv, live: np.ndarray):
        """The requirement's degrees where ``live``, +inf elsewhere."""
        if req.postcondition is None:
            return INF
        env.zero_division = False
        degree = degree_array(req.postcondition, env, live)
        self._note_division(env, (3, i, 0))
        return np.where(live, degree, INF)

    def _note_undefined(self, i: int, req, degrees: np.ndarray) -> None:
        undefined = np.isnan(degrees)
        if np.count_nonzero(undefined):
            self.errors.append(
                (undefined, (3, i, 1), lambda c, k, t, idx=req.index: UndefinedDegreeError(idx, t))
            )

    def _note_division(self, env: ArrayEnv, key: tuple) -> None:
        # stays the plain False it was reset to unless a `/` was evaluated
        if env.zero_division is not False and np.count_nonzero(env.zero_division):
            mask = np.broadcast_to(env.zero_division, (self.shape[0], env.t.shape[1]))
            self.errors.append((mask, key, lambda c, k, t: DivisionByZeroError()))

    def _raise_first(self) -> None:
        """Raise the error of the earliest step, ties broken in step-by-step order."""
        first = None
        for mask, key, make in self.errors:
            steps = np.flatnonzero(mask.any(axis=0))
            if steps.size and (first is None or (steps[0], key) < first[:2]):
                first = (steps[0], key, mask, make)
        if first is not None:
            k, _, mask, make = first
            raise make(int(np.argmax(mask[:, k])), k, float(self.times[k]))


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
    header = ["t", *(f"ff_{idx}" for idx in run.requirement_indexes), "ff_total_running"]
    write_csv(path, header, [run.times, *run.degrees.T, run.running])
