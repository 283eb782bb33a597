import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtfalsify.expr import And, BinaryArith, Const, Not, Or, PrevRef, Rel, SignalRef, TimeVar
from rtfalsify.monitor import compile_table
from rtfalsify.table import (
    Assignment,
    Requirement,
    RequirementsTable,
    TableSyntaxError,
    TableValidationError,
    parse_arith_expr,
    parse_bool_expr,
    parse_table,
    validate,
)
from oracle import random_table
from printer import format_arith_expr, format_bool_expr, format_table

A, B, ZERO = SignalRef("a"), SignalRef("b"), Const(0.0)
NEG_X = BinaryArith("-", ZERO, SignalRef("x"))

SC_TEXT = """
table SC
inputs F_s, T_s, P_s
outputs F_diff
init F_s = 4.0
init F_diff = 0.0

req 1
  pre -
  post T_s > 79 & P_s <= 90.5
  action F_diff = F_s - prev(F_s)

req 2
  pre t >= 30 & t <= 35
  post P_s > 87 & P_s < 87.5

req 3
  pre F_s >= 4
  dur 5
  post T_s > 79.3
"""


def test_parse_sc_structure():
    table = parse_table(SC_TEXT)
    assert table.name == "SC"
    assert table.inputs == ("F_s", "T_s", "P_s")
    assert table.outputs == ("F_diff",)
    assert len(table.requirements) == 3
    req2 = table.requirements[1]
    assert req2.precondition == And(
        Rel(">=", TimeVar(), Const(30.0)), Rel("<=", TimeVar(), Const(35.0))
    )
    assert req2.duration is None
    req3 = table.requirements[2]
    assert req3.duration == 5.0
    req1 = table.requirements[0]
    assert req1.precondition is None
    assert req1.actions == (
        Assignment("F_diff", BinaryArith("-", SignalRef("F_s"), PrevRef("F_s"))),
    )


def test_parse_empty_table():
    table = parse_table("table Empty\ninputs x\n")
    assert table.requirements == ()


def test_prev_without_init_is_rejected():
    text = SC_TEXT.replace("init F_s = 4.0\n", "")
    with pytest.raises(TableValidationError) as err:
        parse_table(text)
    kinds = {d.kind for d in err.value.diagnostics}
    assert kinds == {"MissingInitialValue"}


def test_validate_sc_is_clean():
    assert validate(parse_table(SC_TEXT)) == []


def test_duration_without_precondition_diagnostic():
    table = RequirementsTable(
        name="T",
        inputs=("x",),
        requirements=(
            Requirement(index=1, duration=2.0, postcondition=Rel(">", SignalRef("x"), Const(0.0))),
        ),
    )
    diags = validate(table)
    assert len(diags) == 1
    assert diags[0].kind == "DurationWithoutPrecondition"
    assert diags[0].requirement == 1


def test_action_to_undeclared_output_diagnostic():
    table = RequirementsTable(
        name="T",
        inputs=("x",),
        requirements=(Requirement(index=1, actions=(Assignment("y", SignalRef("x")),)),),
    )
    kinds = [d.kind for d in validate(table)]
    assert kinds == ["UnknownSignal"]


def test_negative_duration_diagnostic():
    with pytest.raises(TableValidationError) as err:
        parse_table("table T\ninputs x\nreq 1\n  pre x > 0\n  dur -1\n  post x > 0\n")
    assert any(d.kind == "NegativeDuration" for d in err.value.diagnostics)


def test_duplicate_index_diagnostic():
    text = "table T\ninputs x\nreq 1\n  post x > 0\nreq 1\n  post x > 1\n"
    with pytest.raises(TableValidationError) as err:
        parse_table(text)
    assert any(d.kind == "DuplicateIndex" for d in err.value.diagnostics)


def test_noncontiguous_index_diagnostic():
    text = "table T\ninputs x\nreq 2\n  post x > 0\n"
    with pytest.raises(TableValidationError) as err:
        parse_table(text)
    assert any(d.kind == "NonContiguousIndex" for d in err.value.diagnostics)


def test_requirement_needs_post_or_action():
    text = "table T\ninputs x\nreq 1\n  pre x > 0\n"
    with pytest.raises(TableValidationError) as err:
        parse_table(text)
    assert any(d.kind == "EmptyRequirement" for d in err.value.diagnostics)


def test_precondition_may_not_read_outputs():
    text = (
        "table T\ninputs x\noutputs y\ninit y = 0\n"
        "req 1\n  pre y > 0\n  post x > 0\n  action y = x\n"
    )
    with pytest.raises(TableValidationError) as err:
        parse_table(text)
    assert any(d.kind == "UnknownSignal" for d in err.value.diagnostics)


X_POSITIVE = Rel(">", SignalRef("x"), Const(0.0))


@pytest.mark.parametrize(
    "table, diagnostic",
    [
        ("inputs t\n", "ReservedName: 't' is reserved and cannot be declared"),
        ("inputs x, x\n", "DuplicateSignal: 'x' declared more than once"),
        ("inputs x\noutputs x\n", "DuplicateSignal: 'x' declared more than once"),
        ("inputs x\ninit z = 1\n", "UnknownSignal: init for undeclared signal 'z'"),
        (
            "inputs x\nreq 1\n  post prev(z) > 0\n",
            "req 1: UnknownSignal: postcondition: prev('z') is not declared",
        ),
        (
            "inputs x\noutputs y\ninit y = 0\nreq 1\n  action y = x\n  action y = 1\n",
            "req 1: DuplicateActionTarget: 'y' assigned twice",
        ),
        (RequirementsTable(name="1T"), "BadName: invalid table name '1T'"),
        (RequirementsTable(name="T", outputs=("y z",)), "BadName: invalid output name 'y z'"),
        (
            RequirementsTable(name="T", inputs=("x",), initial_values={"x": math.inf}),
            "BadInitialValue: init x = inf is not finite",
        ),
        (
            RequirementsTable(
                name="T",
                inputs=("x",),
                requirements=(
                    Requirement(1, X_POSITIVE, duration=math.nan, postcondition=X_POSITIVE),
                ),
            ),
            "req 1: InvalidDuration: duration must be finite",
        ),
    ],
    ids=[
        "reserved-input", "duplicate-input", "input-and-output", "init-undeclared",
        "prev-undeclared", "action-target-twice", "bad-table-name", "bad-output-name",
        "infinite-init", "nan-duration",
    ],
)
def test_validation_diagnostics(table, diagnostic):
    """Text cases fail in ``parse_table``, hand-built tables in ``compile_table``."""
    with pytest.raises(TableValidationError) as err:
        compile_table(parse_table("table T\n" + table) if isinstance(table, str) else table)
    assert [str(d) for d in err.value.diagnostics] == [diagnostic]


def test_syntax_error_carries_location():
    with pytest.raises(TableSyntaxError) as err:
        parse_table("table T\ninputs x\nreq 1\n  post x >\n")
    assert err.value.line == 4
    assert err.value.column > 1


def test_unknown_keyword_is_syntax_error():
    with pytest.raises(TableSyntaxError):
        parse_table("table T\nbogus line here\n")


@pytest.mark.parametrize(
    "cell",
    [
        "(" * 400 + "x > 0" + ")" * 400,
        "(" * 400 + "x" + ")" * 400 + " > 0",
        "~" * 1000 + "x > 0",
        "-" * 1000 + "x > 0",
        " + ".join(["x"] * 1000) + " > 0",
    ],
    ids=["bool-parens", "arith-parens", "negations", "unary-minus", "sum-chain"],
)
def test_deep_nesting_is_a_syntax_error(cell):
    with pytest.raises(TableSyntaxError, match="nested"):
        parse_table(f"table T\ninputs x\nreq 1\n  post {cell}\n")


def test_moderate_nesting_parses():
    table = parse_table("table T\ninputs x\nreq 1\n  post " + "(" * 40 + "x > 0" + ")" * 40 + "\n")
    assert table.requirements[0].postcondition == Rel(">", SignalRef("x"), Const(0.0))


def test_comments_and_blank_lines_ignored():
    table = parse_table("# heading\ntable T # trailing\n\ninputs x\nreq 1\n  post x > 0 # ok\n")
    assert table.name == "T"
    assert len(table.requirements) == 1


# what str.splitlines() also splits at; editors, Python and csv keep each in its line
_NOT_LINE_BREAKS = ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize(
    "char", _NOT_LINE_BREAKS, ids=[f"U+{ord(c):04X}" for c in _NOT_LINE_BREAKS]
)
def test_only_cr_and_lf_end_a_line(char):
    text = f"table T\ninputs x\n# note{char}still a comment\nreq 1\n  post x >{char}0\n"
    table = parse_table(text)
    assert table.requirements[0].postcondition == Rel(">", SignalRef("x"), Const(0.0))
    with pytest.raises(TableSyntaxError, match="unknown keyword 'bogus'") as err:
        parse_table(f"table T  # a{char}b\ninputs x\nbogus\n")
    assert err.value.line == 3


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_lines_end_at_lf_crlf_and_cr(newline):
    with pytest.raises(TableSyntaxError, match="unknown keyword 'bogus'") as err:
        parse_table(newline.join(["table T", "inputs x", "bogus", ""]))
    assert err.value.line == 3
    with pytest.raises(TableSyntaxError, match="must start with 'table") as err:
        parse_table(newline.join(["# only a comment", "", ""]))
    assert err.value.line == 3  # the end of the file is on the line after the last break


# --- requirement rows --------------------------------------------------------


@pytest.mark.parametrize(
    "body, message, line",
    [
        ("req 1\n  post x > 0\n  pre x > 1\n", "'pre' out of order", 7),
        ("req 1\n  pre x > 0\n  pre x > 1\n  post x > 0\n", "'pre' out of order", 7),
        ("req 1\n  pre x > 0\n  post x > 0\n  dur 2\n", "'dur' out of order", 8),
        ("req 1\n  post x > 0\n  action y = x\n  post x > 1\n", "'post' out of order", 8),
        ("  dur 2\nreq 1\n  post x > 0\n", "'dur' outside of a req block", 5),
        ("req one\n  post x > 0\n", "'req' takes an integer index", 5),
        ("req 1.5\n  post x > 0\n", "'req' takes an integer index", 5),
        ("req 1_0\n  post x > 0\n", "'req' takes an integer index", 5),
        ("req \u0661\n  post x > 0\n", "'req' takes an integer index", 5),
        ("init y = 1\nreq 1\n  post x > 0\n", "duplicate init for 'y'", 5),
        ("req 1\n  post x > 1e400\n", "number must be finite", 6),
        ("req 1\n  post x < 1e400 - 1e400 + 5\n", "number must be finite", 6),
        ("req 1\n  action y = -1e999\n", "number must be finite", 6),
        ("init z = 1_000\nreq 1\n  post x > 0\n", "invalid number '1_000'", 5),
        ("req 1\n  pre x > 0\n  dur 1_0\n  post x > 0\n", "invalid number '1_0'", 7),
        ("req 1\n  pre x > 0\n  dur inf\n  post x > 0\n", "invalid number 'inf'", 7),
        ("init z = nan\nreq 1\n  post x > 0\n", "invalid number 'nan'", 5),
        ("req 1\n  pre x > 0\n  dur 1e\n  post x > 0\n", "invalid number '1e'", 7),
        ("req 1\n  pre x > 0\n  dur --1\n  post x > 0\n", "invalid number '--1'", 7),
        ("init z = \u0661\nreq 1\n  post x > 0\n", "invalid number", 5),
        ("req 1\n  post x > \u0662\n", "unexpected character", 6),
        ("req 1\n  post x > 1e\u0662\n", "unexpected 'e\u0662'", 6),
        ("req 1\n  pre x > 0\n  dur \u0663\n  post x > 0\n", "invalid number", 7),
        ("req 1\n  post prev(1) > 0\n", "prev\\(\\) takes a signal name", 6),
        ("req 1\n  post prev(t) > 0\n", "prev\\(\\) takes a signal name", 6),
        ("req 1\n  post x > 0\ninit z = 1\n", "'init' lines must come before 'req'", 7),
        ("outputs z\nreq 1\n  post x > 0\n", "'outputs' must come before 'init'", 5),
        ("init z 0\nreq 1\n  post x > 0\n", "expected '<name> = <expression>'", 5),
    ],
    ids=[
        "post-then-pre", "repeated-pre", "dur-after-post", "post-after-action",
        "dur-outside-req", "word-index", "fractional-index", "underscore-index",
        "non-ascii-index", "duplicate-init",
        "infinite-literal", "nan-by-arithmetic", "infinite-action-literal",
        "init-underscore", "dur-underscore", "dur-inf-word", "init-nan-word", "bare-exponent",
        "double-sign", "non-ascii-init", "non-ascii-literal", "non-ascii-exponent",
        "non-ascii-dur", "prev-of-number", "prev-of-time", "init-after-req",
        "outputs-after-init", "init-without-equals",
    ],
)
def test_requirement_row_syntax_errors(body, message, line):
    with pytest.raises(TableSyntaxError, match=message) as err:
        parse_table("table T\ninputs x\noutputs y\ninit y = 0\n" + body)
    assert err.value.line == line


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("table 1T\n", "invalid table name", 1, 7),
        ("table T\noutputs y\ninputs x\n", "'inputs' must directly follow 'table'", 3, 1),
        ("table T\ninputs\n", "expected a signal list or '-'", 2, 7),
        ("table T\ninputs x, 1y\n", "invalid signal name '1y'", 2, 11),
        ("table T\ninputs x\noutputs y, 2z\n", "invalid signal name '2z'", 3, 12),
        ("table T\ninputs x,,y\n", "invalid signal name ''", 2, 10),
    ],
    ids=[
        "bad-table-name", "inputs-after-outputs", "empty-inputs", "bad-input-name",
        "bad-output-name", "empty-input-name",
    ],
)
def test_header_syntax_errors(text, message, line, column):
    with pytest.raises(TableSyntaxError, match=message) as err:
        parse_table(text)
    assert (err.value.line, err.value.column) == (line, column)


def test_number_cells_take_a_sign_and_an_exponent():
    table = parse_table(
        "table T\ninputs x\noutputs y\ninit y = -0.5\n"
        "req 1\n  pre x > 0\n  dur 2.5e1\n  post x > 0\n  action y = x\n"
        "req 2\n  pre x > 1\n  dur +.5\n  post x > 1\n"
    )
    assert table.initial_values == {"y": -0.5}
    assert [r.duration for r in table.requirements] == [25.0, 0.5]


def test_dash_cells_leave_fields_absent():
    table = parse_table(
        "table T\ninputs x\noutputs y\ninit y = 0\n"
        "req 1\n  pre -\n  dur -\n  post -\n  action y = x\n"
        "req 2\n  pre x > 0\n  dur -\n  post x > 1\n"
    )
    assert table.requirements[0] == Requirement(
        index=1, actions=(Assignment("y", SignalRef("x")),)
    )
    req2 = table.requirements[1]
    assert (req2.precondition, req2.duration) == (Rel(">", SignalRef("x"), Const(0.0)), None)


def test_rows_may_skip_cells_and_keep_actions_in_order():
    table = parse_table(
        "table T\ninputs x\noutputs a, b, c\ninit a = 0\ninit b = 0\ninit c = 0\n"
        "req 1\n  action c = x\n  action a = 1\n  action b = x * 2\n"
        "req 2\n  pre x > 0\n  post x > 1\n"
    )
    req1, req2 = table.requirements
    assert [a.target for a in req1.actions] == ["c", "a", "b"]
    assert req1.actions[1] == Assignment("a", Const(1.0))
    assert (req1.precondition, req1.duration, req1.postcondition) == (None, None, None)
    assert (req2.duration, req2.actions) == (None, ())


# --- expression syntax -------------------------------------------------------


def test_parenthesised_boolean_group():
    e = parse_bool_expr("(a > 1 | b > 2) & c > 3")
    assert isinstance(e, And)
    assert isinstance(e.lhs, Or)


def test_parenthesised_arithmetic_group():
    e = parse_bool_expr("(a + b) * 2 > c")
    assert e == Rel(
        ">",
        BinaryArith("*", BinaryArith("+", SignalRef("a"), SignalRef("b")), Const(2.0)),
        SignalRef("c"),
    )


def test_negation_binds_to_the_following_relation():
    e = parse_bool_expr("~a > 0 & b > 1")
    assert e == And(
        Not(Rel(">", SignalRef("a"), Const(0.0))), Rel(">", SignalRef("b"), Const(1.0))
    )


def test_unary_minus():
    assert parse_arith_expr("-5") == Const(-5.0)
    assert parse_arith_expr("-x") == BinaryArith("-", Const(0.0), SignalRef("x"))


def test_left_associativity():
    assert parse_arith_expr("1 - 2 - 3") == BinaryArith(
        "-", BinaryArith("-", Const(1.0), Const(2.0)), Const(3.0)
    )


@pytest.mark.parametrize(
    "kind, text, expected",
    [
        ("bool", "~(a + b) > 0", Not(Rel(">", BinaryArith("+", A, B), ZERO))),
        ("bool", "~~a > 0", Not(Not(Rel(">", A, ZERO)))),
        ("arith", "--5", Const(5.0)),
        ("bool", "-x * 2 > 0", Rel(">", BinaryArith("*", NEG_X, Const(2.0)), ZERO)),
        ("bool", "a - -1 > 0", Rel(">", BinaryArith("-", A, Const(-1.0)), ZERO)),
        ("bool", "a > b > c", None),
        ("bool", "(a > 1) + 2 > 0", None),
        ("bool", "(x > 0 & y) > 1", None),
        ("bool", "~(a + b)", None),
        ("arith", "x > 1", None),  # action y = x > 1
    ],
    ids=lambda v: v if isinstance(v, str) else ("error" if v is None else "parses"),
)
def test_expression_corner_cases(kind, text, expected):
    """``expected`` None means a syntax error."""
    parse = parse_bool_expr if kind == "bool" else parse_arith_expr
    if expected is None:
        with pytest.raises(TableSyntaxError):
            parse(text)
    else:
        assert parse(text) == expected


@pytest.mark.parametrize(
    "text, column, message",
    [
        ("(a > 1 | b >) & c > 3", 13, "unexpected ')'"),
        ("(a > 1 | b > 2 & c > 3", 23, "end of expression"),
        ("((a + b) > 1", 13, "end of expression"),
    ],
)
def test_expression_error_location(text, column, message):
    with pytest.raises(TableSyntaxError) as err:
        parse_bool_expr(text)
    assert err.value.column == column
    assert message in str(err.value)


@pytest.mark.parametrize(
    "init, action, line, column, message",
    [
        ("init y = 1_000", "  action y = a", 4, 10, "invalid number '1_000'"),
        ("init y =   -", "  action y = a", 4, 12, "invalid number '-'"),
        ("init y =", "  action y = a", 4, 9, "invalid number ''"),
        ("init y = 0", "  action y = a $ 1", 6, 16, "unexpected character '$'"),
        ("init y = 0", "  action y=prev(y) +", 6, 21, "unexpected end of expression"),
    ],
)
def test_binding_value_errors_point_into_the_value(init, action, line, column, message):
    text = f"table T\ninputs a\noutputs y\n{init}\nreq 1\n{action}\n"
    with pytest.raises(TableSyntaxError) as err:
        parse_table(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert message in str(err.value)


# --- round trips and fuzz ----------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10**9))
def test_format_parse_round_trip(seed):
    table = random_table(np.random.default_rng(seed))
    text = format_table(table)
    assert parse_table(text) == table


def test_format_parse_round_trip_sc():
    table = parse_table(SC_TEXT)
    assert parse_table(format_table(table)) == table


@settings(max_examples=400, deadline=None)
@given(text=st.text(max_size=200))
def test_parser_never_panics(text):
    try:
        parse_table(text)
    except (TableSyntaxError, TableValidationError):
        pass


# draws from the characters and the one keyword of an expression cell; the
# st.text() draws above nearly all fail at the table header instead
_EXPR_PIECES = st.sampled_from([*"ab t()~-+*/<>=!&|.0123456789e,", "prev"])


@settings(max_examples=400, deadline=None)
@given(cell=st.lists(_EXPR_PIECES, max_size=40).map("".join))
def test_expression_parser_never_panics(cell):
    for row in (f"post {cell}", f"action y = {cell}"):
        try:
            parse_table(f"table T\ninputs a, b\noutputs y\ninit y = 0\nreq 1\n  {row}\n")
        except (TableSyntaxError, TableValidationError):
            pass


def test_expression_formatting_preserves_structure():
    # right-nested trees of equal precedence need explicit parentheses
    right_nested = And(Rel(">", SignalRef("a"), Const(0.0)),
                       And(Rel(">", SignalRef("b"), Const(0.0)),
                           Rel(">", SignalRef("c"), Const(0.0))))
    text = format_bool_expr(right_nested)
    assert parse_bool_expr(text) == right_nested

    minus = BinaryArith("-", SignalRef("a"), BinaryArith("-", SignalRef("b"), SignalRef("c")))
    assert parse_arith_expr(format_arith_expr(minus)) == minus
