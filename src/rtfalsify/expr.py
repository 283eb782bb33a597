"""Expression trees shared by the table parser, the monitor, and the search.

Preconditions, postconditions and action values are built from one AST of
arithmetic and relational nodes. Boolean expressions have two semantics:
classical two-valued truth (``eval_bool``) and a signed satisfaction degree
(``degree``) whose sign is the truth and whose magnitude measures the
distance to the satisfaction boundary. Conjunction maps to min,
disjunction to max, negation flips the sign.

A degree is never zero: a relational atom with equal operands scores
``RELATIONS[op].tie``, ±5e-324 signed by the relation's truth. No real margin
is smaller, so degrees keep the order of their margins.

Degrees are plain floats on the extended real line: ``math.inf`` is the
degree of an inactive requirement and the identity of min-aggregation.

The scalar functions are the reference semantics. The monitor evaluates
with their array counterparts in ``rtfalsify.monitor``, which compute the
same floats over many samples at once; both read what each operator means
from ``RELATIONS`` and ``ARITHMETIC``. This module imports no numpy, so
the table parser, and with it ``rtfalsify check``, runs without it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, NamedTuple, Union


class RunError(Exception):
    """Base class of every layer's runtime failure; the CLI exits 3 on one."""


class EvalError(RunError):
    """Base class for expression evaluation failures."""


class UnboundNameError(EvalError):
    def __init__(self, name: str, kind: str = "signal"):
        super().__init__(f"unbound {kind} '{name}'")
        self.name = name


class DivisionByZeroError(EvalError):
    def __init__(self) -> None:
        super().__init__("division by zero")


# --- arithmetic nodes ---------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class SignalRef:
    name: str


@dataclass(frozen=True)
class TimeVar:
    """The simulation time variable t, in seconds."""


@dataclass(frozen=True)
class PrevRef:
    """Value of a signal at the previous time step (one-step delay)."""

    name: str


@dataclass(frozen=True)
class BinaryArith:
    op: str  # one of + - * /
    lhs: "ArithExpr"
    rhs: "ArithExpr"


ArithExpr = Union[Const, SignalRef, TimeVar, PrevRef, BinaryArith]


# --- boolean nodes ------------------------------------------------------


@dataclass(frozen=True)
class Rel:
    """Relational atom between two arithmetic expressions."""

    op: str  # one of > < >= <= == !=
    lhs: ArithExpr
    rhs: ArithExpr


@dataclass(frozen=True)
class And:
    lhs: "BoolExpr"
    rhs: "BoolExpr"


@dataclass(frozen=True)
class Or:
    lhs: "BoolExpr"
    rhs: "BoolExpr"


@dataclass(frozen=True)
class Not:
    operand: "BoolExpr"


BoolExpr = Union[Rel, And, Or, Not]


class Relation(NamedTuple):
    holds: Callable  # the classical truth of ``a op b``
    margin: Callable  # the signed distance of ``a`` and ``b`` to the boundary
    tie: float  # the degree of a zero margin, signed by the relation's truth at a tie


_TINY = math.ulp(0.0)  # 5e-324, the smallest subnormal

RELATIONS = {
    ">": Relation(operator.gt, operator.sub, -_TINY),
    "<": Relation(operator.lt, lambda a, b: b - a, -_TINY),
    ">=": Relation(operator.ge, operator.sub, _TINY),
    "<=": Relation(operator.le, lambda a, b: b - a, _TINY),
    "==": Relation(operator.eq, lambda a, b: -abs(a - b), _TINY),
    "!=": Relation(operator.ne, lambda a, b: abs(a - b), -_TINY),
}
REL_OPS = tuple(RELATIONS)
# "/" by zero is an error that each evaluator handles before dividing
ARITHMETIC = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}


@dataclass(frozen=True)
class Env:
    """Bindings for one evaluation step.

    ``signals`` holds current values, ``prev`` the previous-step values read
    by ``prev(...)`` nodes, and ``t`` the simulation time in seconds.
    Immutable; evaluation is pure.
    """

    signals: Mapping[str, float]
    prev: Mapping[str, float] = field(default_factory=dict)
    t: float = 0.0


def eval_arith(e: ArithExpr, env: Env) -> float:
    """Evaluate an arithmetic expression to a finite real."""
    match e:
        case Const(value):
            return value
        case SignalRef(name):
            try:
                return env.signals[name]
            except KeyError:
                raise UnboundNameError(name) from None
        case TimeVar():
            return env.t
        case PrevRef(name):
            try:
                return env.prev[name]
            except KeyError:
                raise UnboundNameError(name, "previous-step signal") from None
        case BinaryArith(op, lhs, rhs) if op in ARITHMETIC:
            a = eval_arith(lhs, env)
            b = eval_arith(rhs, env)
            if op == "/" and b == 0.0:
                raise DivisionByZeroError()
            return ARITHMETIC[op](a, b)
    raise TypeError(f"not an arithmetic expression: {e!r}")


def eval_bool(e: BoolExpr, env: Env) -> bool:
    """Classical truth value of a boolean expression.

    This is the reference semantics that the quantitative ``degree`` must
    agree with in sign, and the one the brute-force test oracle uses.
    """
    match e:
        case Rel(op, lhs, rhs) if op in RELATIONS:
            return RELATIONS[op].holds(eval_arith(lhs, env), eval_arith(rhs, env))
        case And(lhs, rhs):
            return eval_bool(lhs, env) and eval_bool(rhs, env)
        case Or(lhs, rhs):
            return eval_bool(lhs, env) or eval_bool(rhs, env)
        case Not(operand):
            return not eval_bool(operand, env)
    raise TypeError(f"not a boolean expression: {e!r}")


def degree(e: BoolExpr, env: Env) -> float:
    """Signed satisfaction degree of a boolean expression.

    Relational atoms become signed margins (``a > b`` and ``a >= b`` both
    give ``a - b``, the mirrored forms give ``b - a``, equality gives
    ``-|a - b|`` and inequality ``|a - b|``, and a zero margin gives
    ``RELATIONS[op].tie``); ``&`` becomes min, ``|`` becomes max, ``~`` negates.
    A degree that is not NaN is negative exactly when ``eval_bool`` is false.
    """
    match e:
        case Rel(op, lhs, rhs) if op in RELATIONS:
            relation = RELATIONS[op]
            d = relation.margin(eval_arith(lhs, env), eval_arith(rhs, env))
            return relation.tie if d == 0 else d
        case And(lhs, rhs):
            return min(degree(lhs, env), degree(rhs, env))
        case Or(lhs, rhs):
            return max(degree(lhs, env), degree(rhs, env))
        case Not(operand):
            return -degree(operand, env)
    raise TypeError(f"not a boolean expression: {e!r}")


def _children(node: Union[ArithExpr, BoolExpr]) -> tuple:
    match node:
        case BinaryArith(_, lhs, rhs) | Rel(_, lhs, rhs) | And(lhs, rhs) | Or(lhs, rhs):
            return (lhs, rhs)
        case Not(operand):
            return (operand,)
    return ()


def iter_nodes(e: Union[ArithExpr, BoolExpr]) -> Iterator[Union[ArithExpr, BoolExpr]]:
    """Yield every node of an expression tree, root first."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(_children(node)))


def signal_names(e: Union[ArithExpr, BoolExpr]) -> set[str]:
    """Names referenced through current-value reads."""
    return {n.name for n in iter_nodes(e) if isinstance(n, SignalRef)}


def prev_names(e: Union[ArithExpr, BoolExpr]) -> set[str]:
    """Names referenced through prev(...) reads."""
    return {n.name for n in iter_nodes(e) if isinstance(n, PrevRef)}
