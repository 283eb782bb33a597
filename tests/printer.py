"""The canonical textual form of a table, for the parser's round-trip tests:
``parse_table(format_table(table))`` reads back a table equal to ``table``.
"""

from __future__ import annotations

from rtfalsify.expr import (
    And,
    ArithExpr,
    BinaryArith,
    BoolExpr,
    Const,
    Not,
    Or,
    PrevRef,
    Rel,
    SignalRef,
    TimeVar,
)
from rtfalsify.table import RequirementsTable


def format_table(table: RequirementsTable) -> str:
    """Render the canonical textual form; reparses to an equal table."""
    lines = [f"table {table.name}"]
    lines.append("inputs " + (", ".join(table.inputs) if table.inputs else "-"))
    lines.append("outputs " + (", ".join(table.outputs) if table.outputs else "-"))
    for sig, value in table.initial_values.items():
        lines.append(f"init {sig} = {value!r}")
    for req in table.requirements:
        lines.append("")
        lines.append(f"req {req.index}")
        pre = format_bool_expr(req.precondition) if req.precondition is not None else "-"
        lines.append(f"  pre {pre}")
        lines.append(f"  dur {req.duration!r}" if req.duration is not None else "  dur -")
        post = format_bool_expr(req.postcondition) if req.postcondition is not None else "-"
        lines.append(f"  post {post}")
        for action in req.actions:
            lines.append(f"  action {action.target} = {format_arith_expr(action.value)}")
    return "\n".join(lines) + "\n"


def format_bool_expr(e: BoolExpr) -> str:
    return _fmt_bool(e, 0)


def format_arith_expr(e: ArithExpr) -> str:
    return _fmt_arith(e, 0)


def _fmt_bool(e: BoolExpr, required: int) -> str:
    # precedence: | = 1, & = 2, ~ = 3, relational atom = 4; a right operand
    # needs one level more than its parent so right-nested trees reparse
    # with the same shape
    if isinstance(e, Rel):
        return f"{_fmt_arith(e.lhs, 0)} {e.op} {_fmt_arith(e.rhs, 0)}"
    if isinstance(e, Not):
        text = "~" + _fmt_bool(e.operand, 3)
        return text if required <= 3 else f"({text})"
    if isinstance(e, And):
        text = f"{_fmt_bool(e.lhs, 2)} & {_fmt_bool(e.rhs, 3)}"
        return text if required <= 2 else f"({text})"
    if isinstance(e, Or):
        text = f"{_fmt_bool(e.lhs, 1)} | {_fmt_bool(e.rhs, 2)}"
        return text if required <= 1 else f"({text})"
    raise TypeError(f"not a boolean expression: {e!r}")


def _fmt_arith(e: ArithExpr, required: int) -> str:
    if isinstance(e, Const):
        return repr(e.value)
    if isinstance(e, SignalRef):
        return e.name
    if isinstance(e, TimeVar):
        return "t"
    if isinstance(e, PrevRef):
        return f"prev({e.name})"
    if isinstance(e, BinaryArith):
        prec = 1 if e.op in ("+", "-") else 2
        text = f"{_fmt_arith(e.lhs, prec)} {e.op} {_fmt_arith(e.rhs, prec + 1)}"
        return text if required <= prec else f"({text})"
    raise TypeError(f"not an arithmetic expression: {e!r}")
