"""Requirements table data model, textual format, and static validation.

A table is a list of requirements, each with an optional precondition over
the table's input signals and the time variable ``t``, an optional minimum
duration for which the precondition must hold, an optional postcondition
over inputs and outputs, and zero or more actions assigning output signals.

The textual format (``.rt`` files, UTF-8, ``#`` comments) is line oriented:

    table <ident>
    inputs  <ident> ("," <ident>)* | "-"
    outputs <ident> ("," <ident>)* | "-"
    init    <ident> "=" <number>          # zero or more lines
    req <int>
      pre    <boolexpr> | "-"
      dur    <number> | "-"
      post   <boolexpr> | "-"
      action <ident> "=" <arithexpr>      # zero or more lines

A ``-`` cell means absent: an absent precondition is always satisfied, an
absent duration means the postcondition is checked as soon as the
precondition holds. Expression operators, loosest first: ``|``, ``&``, ``~``,
the non-associative relations ``> < >= <= == !=``, ``+ -``, ``* /``, unary
``-``. Operands are numbers, signal names, ``prev(name)`` and the reserved
time variable ``t``.
"""

from __future__ import annotations

import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

from .expr import (
    ARITHMETIC,
    REL_OPS,
    RELATIONS,
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
    prev_names,
    signal_names,
)

RESERVED_NAMES = frozenset({"t", "prev"})
# bounds both the parser's and the evaluators' recursion, far below Python's limit
MAX_NESTING = 100
_IDENT_RE = re.compile(r"[A-Za-z_]\w*\Z")
_NUMBERS = (int, float)  # what a hand-built constant, duration or init value may be
_INDEX_RE = re.compile(r"[+-]?[0-9]+\Z")
# as in editors, Python and csv; str.splitlines() would also split at \f, \v, U+2028, ...
_LINE_BREAK_RE = re.compile(r"\r\n|\r|\n")


@dataclass(frozen=True)
class Assignment:
    """One action cell: assign an arithmetic expression to an output."""

    target: str
    value: ArithExpr


@dataclass(frozen=True)
class Requirement:
    index: int
    precondition: BoolExpr | None = None
    duration: float | None = None
    postcondition: BoolExpr | None = None
    actions: tuple[Assignment, ...] = ()


@dataclass(frozen=True)
class RequirementsTable:
    """A requirements table; ``compile_table`` checks it and returns it to run as a monitor.

    A table is an immutable value whose derived facts are cached: its
    validation findings, requirement indexes, prev() signals and whether its
    actions recur are computed on first use, so do not change
    ``initial_values`` after building the table.
    """

    name: str
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    initial_values: dict[str, float] = field(default_factory=dict)
    requirements: tuple[Requirement, ...] = ()

    @cached_property
    def diagnostics(self) -> tuple[Diagnostic, ...]:
        """Every static rule the table breaks, as ``validate`` finds them."""
        return tuple(validate(self))

    @cached_property
    def requirement_indexes(self) -> tuple[int, ...]:
        return tuple(r.index for r in self.requirements)

    @cached_property
    def prev_signals(self) -> tuple[str, ...]:
        """Signals read through prev(...) anywhere in the table, sorted."""
        cells = [tree for req in self.requirements for _, tree, _ in _cells(req)]
        return tuple(sorted(set().union(*map(prev_names, cells))))

    @cached_property
    def recurrent(self) -> bool:
        """True when an action reads prev() of a table output, so step k needs step k-1."""
        outputs = set(self.outputs)
        cells = (cell for req in self.requirements for cell in _cells(req))
        return any(prev_names(tree) & outputs for _, tree, action in cells if action is not None)


@dataclass(frozen=True)
class Diagnostic:
    """One validation finding; ``requirement`` is None for table-level rules."""

    kind: str
    message: str
    requirement: int | None = None

    def __str__(self) -> str:
        where = f"req {self.requirement}: " if self.requirement is not None else ""
        return f"{where}{self.kind}: {self.message}"


class TableError(Exception):
    pass


class TableSyntaxError(TableError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class TableValidationError(TableError):
    def __init__(self, diagnostics: Sequence[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = list(diagnostics)


# --- expression parsing ---------------------------------------------------

_NUMBER = r"(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"
# a number cell (dur, init) is a number literal with an optional sign
_NUMBER_CELL_RE = re.compile(rf"[+-]?{_NUMBER}\Z")
_TOKEN_RE = re.compile(
    rf"""
    (?P<num>{_NUMBER})
  | (?P<ident>[A-Za-z_]\w*)
  | (?P<op>>=|<=|==|!=|[><&|~+\-*/(),])
    """,
    re.VERBOSE,
)

# binding power of each binary operator, all left-associative; a chained
# relation fails the operand check, since a condition is not arithmetic
_PRECEDENCE = {"|": 1, "&": 2, **dict.fromkeys(REL_OPS, 3), "+": 4, "-": 4, "*": 5, "/": 5}
_CONDITIONS = (Rel, And, Or, Not)
_ARITHMETIC = (BinaryArith, Const, SignalRef, TimeVar, PrevRef)


class _Token:
    __slots__ = ("kind", "text", "column")

    def __init__(self, kind: str, text: str, column: int):
        self.kind = kind
        self.text = text
        self.column = column


class _ExprParser:
    """Precedence-climbing parser for one expression cell.

    One loop reads the binary operators of ``_PRECEDENCE``; ``_prefix`` reads
    groups, ``~``, unary minus and atoms. A group is parsed once, whatever it
    holds, and each operator checks the kind of its operands as it combines
    them: ``& | ~`` take conditions, relations and ``+ - * /`` take
    arithmetic. Groups, ``~`` and unary minus may nest at most MAX_NESTING
    deep, and so may the finished tree.
    """

    def __init__(self, text: str, line: int, column_offset: int = 1):
        self.line = line
        self.tokens: list[_Token] = []
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise TableSyntaxError(
                    f"unexpected character {text[pos]!r}", line, column_offset + pos
                )
            kind = m.lastgroup or "op"
            self.tokens.append(_Token(kind, m.group(), column_offset + pos))
            pos = m.end()
        self.end_column = column_offset + len(text)
        self.column_offset = column_offset
        self.pos = 0
        self.nesting = 0

    @contextmanager
    def _nested(self, tok: _Token):
        self.nesting += 1
        try:
            if self.nesting > MAX_NESTING:
                raise TableSyntaxError(
                    f"expression nested deeper than {MAX_NESTING} levels", self.line, tok.column
                )
            yield
        finally:
            self.nesting -= 1

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> _Token:
        tok = self._peek()
        if tok is None:
            raise TableSyntaxError("unexpected end of expression", self.line, self.end_column)
        self.pos += 1
        return tok

    def _expect(self, text: str) -> None:
        tok = self._next()
        if tok.text != text:
            raise TableSyntaxError(f"expected {text!r}, found {tok.text!r}", self.line, tok.column)

    def _check(self, e, condition: bool, op: _Token | None):
        """``e`` if it is a condition exactly when one is wanted; a missing one is
        reported where its relational operator should be, a misplaced one at ``op``."""
        if isinstance(e, _CONDITIONS) == condition:
            return e
        if condition:
            tok = self._peek()
            col = tok.column if tok is not None else self.end_column
            raise TableSyntaxError("expected relational operator", self.line, col)
        col = op.column if op is not None else self.column_offset
        raise TableSyntaxError("expected an arithmetic operand, found a condition", self.line, col)

    def parse(self, condition: bool):
        # an arithmetic cell binds only arithmetic operators, so a stray
        # relation or connective is reported where it stands
        e = self._check(self._expr(1 if condition else _PRECEDENCE["+"]), condition, None)
        tok = self._peek()
        if tok is not None:
            raise TableSyntaxError(f"unexpected {tok.text!r}", self.line, tok.column)
        problem = _malformed(e, condition)  # of a parsed tree, only its depth can be wrong
        if problem:
            raise TableSyntaxError(f"expression {problem}", self.line, self.column_offset)
        return e

    def _expr(self, min_precedence: int):
        e = self._prefix()
        while (op := self._peek()) is not None and _PRECEDENCE.get(op.text, 0) >= min_precedence:
            condition = op.text in ("&", "|")
            self._check(e, condition, op)
            self.pos += 1
            rhs = self._check(self._expr(_PRECEDENCE[op.text] + 1), condition, op)
            if condition:
                e = (And if op.text == "&" else Or)(e, rhs)
            else:
                e = (Rel if op.text in REL_OPS else BinaryArith)(op.text, e, rhs)
        return e

    def _prefix(self):
        tok = self._next()
        if tok.text == "(":
            with self._nested(tok):
                e = self._expr(1)
                self._expect(")")
            return e
        if tok.text == "~":  # binds looser than relations, tighter than &
            with self._nested(tok):
                return Not(self._check(self._expr(_PRECEDENCE[">"]), True, tok))
        if tok.text == "-":
            with self._nested(tok):
                operand = self._check(self._prefix(), False, tok)
            if isinstance(operand, Const):
                return Const(-operand.value)
            return BinaryArith("-", Const(0.0), operand)
        if tok.kind == "num":
            return Const(_parse_number(tok.text, self.line, tok.column))
        if tok.kind == "ident":
            if tok.text == "prev":
                self._expect("(")
                name = self._next()
                if name.kind != "ident" or name.text in RESERVED_NAMES:
                    raise TableSyntaxError("prev() takes a signal name", self.line, name.column)
                self._expect(")")
                return PrevRef(name.text)
            if tok.text == "t":
                return TimeVar()
            return SignalRef(tok.text)
        raise TableSyntaxError(f"unexpected {tok.text!r}", self.line, tok.column)


def parse_bool_expr(text: str, line: int = 1, column_offset: int = 1) -> BoolExpr:
    return _ExprParser(text, line, column_offset).parse(condition=True)


def parse_arith_expr(text: str, line: int = 1, column_offset: int = 1) -> ArithExpr:
    return _ExprParser(text, line, column_offset).parse(condition=False)


# --- table parsing --------------------------------------------------------


def parse_table(text: str) -> RequirementsTable:
    """Parse and validate a table from its textual form.

    Raises TableSyntaxError for malformed text (with line and column) and
    TableValidationError when the parsed table breaks a static rule.
    """
    table = _parse_structure(text)
    if table.diagnostics:
        raise TableValidationError(table.diagnostics)
    return table


def load_table(path: str) -> RequirementsTable:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # -sig: drop a leading byte-order mark
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise TableSyntaxError(f"not valid UTF-8: {exc}", 1) from None
    return parse_table(text)


def _parse_structure(text: str) -> RequirementsTable:
    name: str | None = None
    inputs: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ()
    initial_values: dict[str, float] = {}
    requirements: list[Requirement] = []
    section = 0  # 0: expect table, 1: inputs ok, 2: outputs ok, 3: init ok, 4: reqs
    stage = 0  # cells of the current req: pre < dur < post < action

    line_re = re.compile(r"\s*(\S+)\s*(.*?)\s*$")
    lines = _LINE_BREAK_RE.split(text)
    for line_no, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        m = line_re.match(line)
        assert m is not None
        keyword, rest = m.group(1), m.group(2)
        rest_col = m.start(2) + 1

        if name is None:
            if keyword != "table":
                raise TableSyntaxError("file must start with 'table <name>'", line_no)
            if not _IDENT_RE.match(rest):
                raise TableSyntaxError("invalid table name", line_no, rest_col)
            name = rest
            section = 1
            continue

        if keyword == "inputs":
            if section != 1:
                raise TableSyntaxError("'inputs' must directly follow 'table'", line_no)
            inputs = _parse_name_list(rest, line_no, rest_col)
            section = 2
        elif keyword == "outputs":
            if section > 2:
                raise TableSyntaxError("'outputs' must come before 'init' and 'req'", line_no)
            outputs = _parse_name_list(rest, line_no, rest_col)
            section = 3
        elif keyword == "init":
            if section > 3:
                raise TableSyntaxError("'init' lines must come before 'req' blocks", line_no)
            section = 3
            sig, value, value_col = _parse_binding(rest, line_no, rest_col)
            if sig in initial_values:
                raise TableSyntaxError(f"duplicate init for '{sig}'", line_no, rest_col)
            initial_values[sig] = _parse_number(value, line_no, value_col)
        elif keyword == "req":
            section = 4
            if not _INDEX_RE.match(rest):  # int() would also take '1_0' and non-ASCII digits
                raise TableSyntaxError("'req' takes an integer index", line_no, rest_col)
            requirements.append(Requirement(int(rest)))
            stage = 0
        elif keyword in _STAGES:
            if not requirements:
                raise TableSyntaxError(f"'{keyword}' outside of a req block", line_no)
            if _STAGES[keyword] < stage or (_STAGES[keyword] == stage and keyword != "action"):
                raise TableSyntaxError(
                    f"'{keyword}' out of order (expected pre, dur, post, then actions)", line_no
                )
            stage = _STAGES[keyword]
            requirements[-1] = _parse_cell(requirements[-1], keyword, rest, line_no, rest_col)
        else:
            raise TableSyntaxError(f"unknown keyword {keyword!r}", line_no)

    if name is None:
        raise TableSyntaxError("file must start with 'table <name>'", len(lines))
    return RequirementsTable(
        name=name,
        inputs=inputs,
        outputs=outputs,
        initial_values=initial_values,
        requirements=tuple(requirements),
    )


_STAGES = {"pre": 1, "dur": 2, "post": 3, "action": 4}


def _parse_cell(req: Requirement, keyword: str, rest: str, line_no: int, col: int) -> Requirement:
    """``req`` with one more cell; a ``-`` cell leaves its field absent."""
    if keyword == "action":
        target, value, value_col = _parse_binding(rest, line_no, col)
        action = Assignment(target, parse_arith_expr(value, line_no, value_col))
        return replace(req, actions=(*req.actions, action))
    if rest == "-":
        return req
    if keyword == "dur":
        return replace(req, duration=_parse_number(rest, line_no, col))
    cell = parse_bool_expr(rest, line_no, col)
    return replace(req, precondition=cell) if keyword == "pre" else replace(req, postcondition=cell)


def _parse_name_list(rest: str, line_no: int, col: int) -> tuple[str, ...]:
    if rest == "-":
        return ()
    if not rest:
        raise TableSyntaxError("expected a signal list or '-'", line_no, col)
    names = []
    for part in rest.split(","):
        candidate = part.strip()
        if not _IDENT_RE.match(candidate):
            at = col + len(part) - len(part.lstrip())  # where the name starts
            raise TableSyntaxError(f"invalid signal name {candidate!r}", line_no, at)
        names.append(candidate)
        col += len(part) + 1
    return tuple(names)


def _parse_binding(rest: str, line_no: int, col: int) -> tuple[str, str, int]:
    """``<name> = <value>`` starting at column ``col``: the name, the value and its column."""
    target, eq, value = rest.partition("=")
    target = target.strip()
    if not eq or not _IDENT_RE.match(target):
        raise TableSyntaxError("expected '<name> = <expression>'", line_no, col)
    value = value.lstrip()  # ``rest`` has no trailing blanks
    return target, value, col + len(rest) - len(value)


def _parse_number(text: str, line_no: int, col: int) -> float:
    if not _NUMBER_CELL_RE.match(text):
        raise TableSyntaxError(f"invalid number {text!r}", line_no, col)
    value = float(text)
    if not math.isfinite(value):
        raise TableSyntaxError(f"number must be finite, got {text!r}", line_no, col)
    return value


# --- validation -----------------------------------------------------------


def validate(table: RequirementsTable) -> list[Diagnostic]:
    """Check every static rule; an empty list means the table is well formed.

    Rules: declared names are valid and unique, requirement indexes are
    contiguous from 1, every requirement has a postcondition or an action,
    durations are non-negative and only appear with a precondition,
    preconditions read only inputs (and t), postconditions read inputs and
    outputs, actions assign declared outputs from input-only expressions,
    every prev(...) signal and action target has an initial value, and each
    cell is a tree of its kind, with known operators, at most MAX_NESTING deep.
    A hand-built table's names are ``str``, its durations, initial values and
    constants ``int`` or ``float``, and its indexes ``int``. The names a
    malformed cell reads are not checked.
    """
    diags: list[Diagnostic] = []
    add = diags.append

    if not _is_name(table.name):
        add(Diagnostic("BadName", f"invalid table name {table.name!r}"))

    declared: set[str] = set()
    for role, names in (("input", table.inputs), ("output", table.outputs)):
        for sig in names:
            if not _is_name(sig):
                add(Diagnostic("BadName", f"invalid {role} name {sig!r}"))
            elif sig in RESERVED_NAMES:
                add(Diagnostic("ReservedName", f"'{sig}' is reserved and cannot be declared"))
            if sig in declared:
                add(Diagnostic("DuplicateSignal", f"'{sig}' declared more than once"))
            declared.add(sig)
    inputs = set(table.inputs)
    outputs = set(table.outputs)
    # what each cell may read now and through prev(); an action value reads no output now,
    # so that no action depends on the order the actions run in
    may_read = {
        "precondition": (inputs, inputs),
        "postcondition": (declared, declared),
        "action value": (inputs, declared),
    }

    for sig, value in table.initial_values.items():
        if sig not in declared:
            add(Diagnostic("UnknownSignal", f"init for undeclared signal '{sig}'"))
        if not isinstance(value, _NUMBERS):
            add(Diagnostic("BadInitialValue", f"init {sig} = {value!r} is not a number"))
        elif not math.isfinite(value):
            add(Diagnostic("BadInitialValue", f"init {sig} = {value!r} is not finite"))

    seen_indexes: set[int] = set()
    needs_init: dict[str, int] = {}
    for pos, req in enumerate(table.requirements, start=1):
        idx = req.index
        if idx in seen_indexes:
            add(Diagnostic("DuplicateIndex", f"index {idx} already used", idx))
        seen_indexes.add(idx)
        if not isinstance(idx, int) or idx != pos:
            add(Diagnostic("NonContiguousIndex", f"expected index {pos}, found {idx!r}", idx))

        if req.postcondition is None and not req.actions:
            add(Diagnostic("EmptyRequirement", "needs a postcondition or an action", idx))
        if req.duration is not None:
            if req.precondition is None:
                add(Diagnostic("DurationWithoutPrecondition", "duration needs a precondition", idx))
            if not isinstance(req.duration, _NUMBERS):
                message = f"duration {req.duration!r} is not a number"
                add(Diagnostic("InvalidDuration", message, idx))
            elif not math.isfinite(req.duration):
                add(Diagnostic("InvalidDuration", "duration must be finite", idx))
            elif req.duration < 0:
                add(Diagnostic("NegativeDuration", f"duration {req.duration} < 0", idx))

        seen_targets: set[str] = set()
        read_prev: list[str] = []  # noted for the init rule after the row's action targets
        for role, tree, action in _cells(req):
            if action is not None:
                target = action.target
                if target in seen_targets:
                    add(Diagnostic("DuplicateActionTarget", f"'{target}' assigned twice", idx))
                seen_targets.add(target)
                if target in outputs:
                    needs_init.setdefault(target, idx)
                else:
                    message = f"action target '{target}' is not a declared output"
                    add(Diagnostic("UnknownSignal", message, idx))
            problem = _malformed(tree, action is None)
            if problem:
                add(Diagnostic("MalformedExpression", f"{role}: {problem}", idx))
                continue
            now, before = may_read[role]
            prevs = sorted(prev_names(tree))
            reads = [(f"'{sig}'", sig, now) for sig in sorted(signal_names(tree))]
            reads += [(f"prev('{sig}')", sig, before) for sig in prevs]
            for read, sig, allowed in reads:
                if sig not in allowed:
                    detail = "may not be read here" if sig in declared else "is not declared"
                    add(Diagnostic("UnknownSignal", f"{role}: {read} {detail}", idx))
            read_prev += (sig for sig in prevs if sig in declared)
        for sig in read_prev:
            needs_init.setdefault(sig, idx)

    for sig, idx in needs_init.items():
        if sig not in table.initial_values:
            add(Diagnostic("MissingInitialValue", f"'{sig}' needs an init value", idx))

    return diags


def _cells(req: Requirement) -> list[tuple[str, BoolExpr | ArithExpr, Assignment | None]]:
    """A requirement's present cells in table order, as ``(role, tree, action or None)``."""
    conditions = zip(("precondition", "postcondition"), (req.precondition, req.postcondition))
    cells = [(role, tree, None) for role, tree in conditions if tree is not None]
    return cells + [("action value", action.value, action) for action in req.actions]


def _malformed(e, condition: bool) -> str | None:
    """Why ``e`` is not a tree the evaluators can run as a condition (else as arithmetic).

    None when it is. Walks without recursion, as ``iter_nodes`` does, so a
    hand-built tree too deep for the recursive evaluators is reported, not met.
    """
    stack = [(e, condition, 1)]
    while stack:
        node, condition, level = stack.pop()
        if not isinstance(node, _CONDITIONS if condition else _ARITHMETIC):
            kind = "a condition" if condition else "an arithmetic expression"
            return f"expected {kind}, found {type(node).__name__}"
        if level > MAX_NESTING:
            return f"nested deeper than {MAX_NESTING} levels"
        match node:
            case Rel(op, lhs, rhs) | BinaryArith(op, lhs, rhs):
                if op not in (RELATIONS if condition else ARITHMETIC):
                    return f"unknown operator {op!r}"
                stack += [(lhs, False, level + 1), (rhs, False, level + 1)]
            case And(lhs, rhs) | Or(lhs, rhs):
                stack += [(lhs, True, level + 1), (rhs, True, level + 1)]
            case Not(operand):
                stack.append((operand, True, level + 1))
            case Const(value) if not isinstance(value, _NUMBERS):
                return f"constant {value!r} is not a number"
            case SignalRef(name) | PrevRef(name) if not isinstance(name, str):
                return f"signal name {name!r} is not a string"
    return None


def _is_name(name: object) -> bool:
    return isinstance(name, str) and _IDENT_RE.match(name) is not None


def load_bundled_table(name: str) -> RequirementsTable:
    """Load a shipped table by name (with or without the .rt suffix)."""
    from importlib.resources import files

    if name.endswith(".rt"):
        name = name[:-3]
    resource = files("rtfalsify").joinpath("tables").joinpath(f"{name}.rt")
    if not resource.is_file():
        raise FileNotFoundError(f"no bundled table named '{name}'")
    return parse_table(resource.read_text(encoding="utf-8-sig"))
