"""Independent boolean-phase oracle plus random table/trace generators.

The oracle replays the three-phase rules (including duration timers and
actions) using only two-valued expression evaluation, and reports whether
some postcondition is classically false at a step where it is active. It
shares the phase-transition rules and the plain arithmetic evaluator with
the implementation under test, but none of the degree arithmetic, so
sign-of-fitness agreement is a real check of the quantitative semantics.
"""

from __future__ import annotations

import numpy as np

from rtfalsify.expr import (
    And,
    BinaryArith,
    BoolExpr,
    Const,
    Env,
    Not,
    Or,
    PrevRef,
    Rel,
    SignalRef,
    TimeVar,
    eval_arith,
    eval_bool,
)
from rtfalsify.sim import Trace
from rtfalsify.table import Assignment, Requirement, RequirementsTable

ET_TOLERANCE = 1e-9


def replay_violation(table: RequirementsTable, trace: Trace) -> bool:
    """True iff a postcondition is false (classically) at an active step."""
    reqs = table.requirements
    n_reqs = len(reqs)
    phases = ["PRC"] * n_reqs
    entries = [0.0] * n_reqs
    prev_vals = dict(table.initial_values)
    times = trace.times
    tolerance = ET_TOLERANCE * trace.dt
    violated = False

    for k in range(trace.n_samples):
        t = float(times[k])
        signals = {s: float(trace.samples[s][k]) for s in table.inputs}
        env = Env(signals=signals, prev=prev_vals, t=t)
        for i, req in enumerate(reqs):
            holds = req.precondition is None or eval_bool(req.precondition, env)
            timed = req.duration is not None and req.duration > 0
            if k == 0:
                if holds and timed:
                    phases[i] = "WT"
                    entries[i] = t
                elif holds:
                    phases[i] = "POA"
                else:
                    phases[i] = "PRC"
            elif phases[i] == "PRC":
                if holds:
                    if timed:
                        phases[i] = "WT"
                        entries[i] = t
                    else:
                        phases[i] = "POA"
            elif phases[i] == "WT":
                if not holds:
                    phases[i] = "PRC"
                elif t - entries[i] >= req.duration - tolerance:
                    phases[i] = "POA"
            else:
                if not holds:
                    phases[i] = "PRC"

        outputs: dict[str, float] = {}
        for i, req in enumerate(reqs):
            if phases[i] == "POA":
                for action in req.actions:
                    outputs[action.target] = eval_arith(action.value, env)
        full = {**signals, **outputs}
        post_env = Env(signals=full, prev=prev_vals, t=t)
        for i, req in enumerate(reqs):
            if phases[i] == "POA" and req.postcondition is not None:
                if not eval_bool(req.postcondition, post_env):
                    violated = True

        for sig in prev_vals:
            if sig in full:
                prev_vals[sig] = full[sig]

    return violated


def same_bits(a, b) -> bool:
    """Equal bit for bit: -0.0 differs from 0.0, and a NaN equals only the same NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# --- random generators -------------------------------------------------------

_INPUTS = ("a", "b")
_OUTPUT = "w"
_REL_MAIN = (">", "<", ">=", "<=")
_REL_EXACT = ("==", "!=")
_ARITH = ("+", "-", "*")


def _rand_arith(rng: np.random.Generator, reads: tuple[str, ...], prevs: tuple[str, ...], depth: int,
                ops: tuple[str, ...] = _ARITH):
    roll = rng.random()
    if depth <= 0 or roll < 0.55:
        kind = rng.random()
        if kind < 0.35:
            return Const(float(rng.uniform(-5.0, 5.0)))
        if kind < 0.75 or not prevs:
            return SignalRef(str(rng.choice(reads)))
        if kind < 0.9:
            return PrevRef(str(rng.choice(prevs)))
        return TimeVar()
    op = str(rng.choice(ops))
    return BinaryArith(op, _rand_arith(rng, reads, prevs, depth - 1, ops),
                       _rand_arith(rng, reads, prevs, depth - 1, ops))


def _rand_rel(rng, reads, prevs, ops=_ARITH) -> Rel:
    rel_ops = _REL_EXACT if rng.random() < 0.05 else _REL_MAIN
    lhs = _rand_arith(rng, reads, prevs, 1, ops)
    rhs = _rand_arith(rng, reads, prevs, 1, ops)
    if rhs == lhs:
        rhs = Const(float(rng.uniform(-5.0, 5.0)))
    return Rel(str(rng.choice(rel_ops)), lhs, rhs)


def _rand_bool(rng, reads, prevs, depth: int, ops=_ARITH) -> BoolExpr:
    if depth <= 0 or rng.random() < 0.45:
        return _rand_rel(rng, reads, prevs, ops)
    roll = rng.random()
    if roll < 0.4:
        return And(_rand_bool(rng, reads, prevs, depth - 1, ops),
                   _rand_bool(rng, reads, prevs, depth - 1, ops))
    if roll < 0.8:
        return Or(_rand_bool(rng, reads, prevs, depth - 1, ops),
                  _rand_bool(rng, reads, prevs, depth - 1, ops))
    return Not(_rand_bool(rng, reads, prevs, depth - 1, ops))


def random_bool_expr(rng: np.random.Generator, depth: int = 3, ops: tuple[str, ...] = _ARITH):
    """A random boolean expression over signals a, b, prev(a), prev(b) and t."""
    return _rand_bool(rng, _INPUTS, _INPUTS, depth, ops)


def random_arith_expr(rng: np.random.Generator, depth: int = 3, ops: tuple[str, ...] = _ARITH):
    """A random arithmetic expression over signals a, b, prev(a), prev(b) and t."""
    return _rand_arith(rng, _INPUTS, _INPUTS, depth, ops)


def random_table(rng: np.random.Generator, dt: float = 0.5) -> RequirementsTable:
    """A valid random table over inputs a, b with optional output, prev, durations."""
    with_output = rng.random() < 0.5
    outputs = (_OUTPUT,) if with_output else ()
    prev_pool = _INPUTS + outputs

    requirements = []
    index = 1
    if with_output:
        # an unconditioned first row keeps the output assigned at every step
        post = _rand_bool(rng, _INPUTS + outputs, prev_pool, 1) if rng.random() < 0.5 else None
        action = Assignment(_OUTPUT, _rand_arith(rng, _INPUTS, prev_pool, 2))
        requirements.append(Requirement(index=1, postcondition=post, actions=(action,)))
        index = 2

    n_more = int(rng.integers(1, 5)) if index == 1 else int(rng.integers(0, 4))
    n_more = max(n_more, 1 - len(requirements))
    for _ in range(n_more):
        pre = _rand_bool(rng, _INPUTS, _INPUTS, 1) if rng.random() < 0.75 else None
        duration = None
        if pre is not None and rng.random() < 0.4:
            duration = float(rng.integers(0, 4)) * dt
        post = _rand_bool(rng, _INPUTS + outputs, prev_pool, 2)
        requirements.append(Requirement(index=index, precondition=pre, duration=duration, postcondition=post))
        index += 1

    initial_values = {sig: float(rng.uniform(-5.0, 5.0)) for sig in _INPUTS}
    if with_output:
        initial_values[_OUTPUT] = float(rng.uniform(-5.0, 5.0))
    return RequirementsTable(
        name="Rand",
        inputs=_INPUTS,
        outputs=outputs,
        initial_values=initial_values,
        requirements=tuple(requirements),
    )


def random_trace(rng: np.random.Generator, signals=_INPUTS, dt: float = 0.5,
                 n_min: int = 50, n_max: int = 200) -> Trace:
    """Random trace; a smooth walk half the time so guards persist across steps."""
    n = int(rng.integers(n_min, n_max + 1))
    samples = {}
    for sig in signals:
        if rng.random() < 0.5:
            samples[sig] = rng.uniform(-5.0, 5.0, size=n)
        else:
            steps = rng.normal(0.0, 0.6, size=n)
            steps[0] = rng.uniform(-4.0, 4.0)
            samples[sig] = np.clip(np.cumsum(steps), -6.0, 6.0)
    return Trace(dt=dt, samples=samples)
