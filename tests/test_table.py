import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rtfalsify.expr import And, BinaryArith, Const, Not, Or, PrevRef, Rel, SignalRef, TimeVar
from rtfalsify.table import (
    Assignment,
    Requirement,
    RequirementsTable,
    TableSyntaxError,
    TableValidationError,
    format_arith_expr,
    format_bool_expr,
    format_table,
    parse_arith_expr,
    parse_bool_expr,
    parse_table,
    validate,
)
from oracle import random_table

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
        ("init y = 1\nreq 1\n  post x > 0\n", "duplicate init for 'y'", 5),
    ],
    ids=[
        "post-then-pre", "repeated-pre", "dur-after-post", "post-after-action",
        "dur-outside-req", "word-index", "fractional-index", "duplicate-init",
    ],
)
def test_requirement_row_syntax_errors(body, message, line):
    with pytest.raises(TableSyntaxError, match=message) as err:
        parse_table("table T\ninputs x\noutputs y\ninit y = 0\n" + body)
    assert err.value.line == line


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


def test_expression_formatting_preserves_structure():
    # right-nested trees of equal precedence need explicit parentheses
    right_nested = And(Rel(">", SignalRef("a"), Const(0.0)),
                       And(Rel(">", SignalRef("b"), Const(0.0)),
                           Rel(">", SignalRef("c"), Const(0.0))))
    text = format_bool_expr(right_nested)
    assert parse_bool_expr(text) == right_nested

    minus = BinaryArith("-", SignalRef("a"), BinaryArith("-", SignalRef("b"), SignalRef("c")))
    assert parse_arith_expr(format_arith_expr(minus)) == minus
