import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import random_arith_expr, random_bool_expr, same_bits
from rtfalsify.expr import (
    REL_OPS,
    And,
    BinaryArith,
    Const,
    DivisionByZeroError,
    Env,
    Not,
    Or,
    PrevRef,
    Rel,
    SignalRef,
    TimeVar,
    UnboundNameError,
    degree,
    eval_arith,
    eval_bool,
    prev_names,
    signal_names,
)
from rtfalsify.monitor import ArrayEnv, arith_array, degree_array, holds_array


def test_const_evaluates_to_itself():
    assert eval_arith(Const(87.0), Env(signals={})) == 87.0


def test_prev_difference():
    e = BinaryArith("-", SignalRef("F_s"), PrevRef("F_s"))
    env = Env(signals={"F_s": 4.0}, prev={"F_s": 3.5})
    assert eval_arith(e, env) == 0.5


def test_time_in_arithmetic():
    e = BinaryArith("+", Const(2.0), SignalRef("T_s"))
    assert eval_arith(e, Env(signals={"T_s": 79.0})) == 81.0


def test_unbound_signal_raises():
    with pytest.raises(UnboundNameError):
        eval_arith(SignalRef("missing"), Env(signals={}))
    with pytest.raises(UnboundNameError):
        eval_arith(PrevRef("x"), Env(signals={"x": 1.0}))


def test_division_by_zero_is_an_error():
    e = BinaryArith("/", Const(1.0), Const(0.0))
    with pytest.raises(DivisionByZeroError):
        eval_arith(e, Env(signals={}))


def band(lo, hi):
    return And(Rel(">", SignalRef("P_s"), Const(lo)), Rel("<", SignalRef("P_s"), Const(hi)))


def test_bool_band_inside():
    assert eval_bool(band(87.0, 87.5), Env(signals={"P_s": 87.25})) is True


def test_bool_strict_boundary():
    assert eval_bool(Not(Rel(">", SignalRef("x"), Const(0.0))), Env(signals={"x": 0.0})) is True


def test_bool_time_window():
    e = And(Rel(">=", TimeVar(), Const(30.0)), Rel("<=", TimeVar(), Const(35.0)))
    assert eval_bool(e, Env(signals={}, t=20.0)) is False
    assert eval_bool(e, Env(signals={}, t=30.0)) is True


def test_degree_band():
    # min(P_s - 87, -(P_s - 87.5)) with P_s = 87.25
    assert degree(band(87.0, 87.5), Env(signals={"P_s": 87.25})) == 0.25


def test_degree_mixed_conjunction():
    e = And(
        Rel(">", SignalRef("T_s"), Const(79.0)),
        Rel("<=", SignalRef("P_s"), Const(90.5)),
    )
    d = degree(e, Env(signals={"T_s": 79.35, "P_s": 87.45}))
    assert d == pytest.approx(0.35)
    assert d == min(79.35 - 79.0, 90.5 - 87.45)


def test_degree_of_negation_is_negated():
    e = Rel(">=", SignalRef("x"), Const(1.0))
    env = Env(signals={"x": 3.0})
    assert degree(Not(e), env) == -degree(e, env) == -2.0


def test_monotone_in_signal_value():
    e = Rel(">", SignalRef("s"), Const(1.5))
    degrees = [degree(e, Env(signals={"s": v})) for v in (-2.0, 0.0, 1.5, 2.0, 10.0)]
    assert degrees == sorted(degrees)
    assert all(x < y for x, y in zip(degrees, degrees[1:]))


def test_name_collectors():
    e = And(
        Rel(">", BinaryArith("+", SignalRef("a"), PrevRef("b")), Const(0.0)),
        Rel("<", TimeVar(), SignalRef("c")),
    )
    assert signal_names(e) == {"a", "c"}
    assert prev_names(e) == {"b"}


# --- property tests ----------------------------------------------------------

_names = st.sampled_from(("a", "b"))
_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def _arith(depth=2):
    base = st.one_of(
        _finite.map(Const),
        _names.map(SignalRef),
        _names.map(PrevRef),
        st.just(TimeVar()),
    )
    if depth == 0:
        return base
    sub = _arith(depth - 1)
    return st.one_of(
        base,
        st.builds(BinaryArith, st.sampled_from(("+", "-", "*")), sub, sub),
    )


def _rel():
    return st.builds(Rel, st.sampled_from((">", "<", ">=", "<=", "==", "!=")), _arith(1), _arith(1))


def _bool(depth=2):
    if depth == 0:
        return _rel()
    sub = _bool(depth - 1)
    return st.one_of(
        _rel(),
        st.builds(And, sub, sub),
        st.builds(Or, sub, sub),
        st.builds(Not, sub),
    )


_envs = st.builds(
    Env,
    signals=st.fixed_dictionaries({"a": _finite, "b": _finite}),
    prev=st.fixed_dictionaries({"a": _finite, "b": _finite}),
    t=st.floats(min_value=0.0, max_value=1e4),
)


@settings(max_examples=300, deadline=None)
@given(e=_bool(), env=_envs)
def test_sign_coherence(e, env):
    d = degree(e, env)
    if not math.isfinite(d):
        return  # overflow is out of scope for the sign law
    if d > 0:
        assert eval_bool(e, env) is True
    else:
        assert eval_bool(e, env) is False


@settings(max_examples=200, deadline=None)
@given(a=_bool(1), b=_bool(1), env=_envs)
def test_de_morgan_degrees_exact(a, b, env):
    lhs = degree(Not(And(a, b)), env)
    rhs = degree(Or(Not(a), Not(b)), env)
    assert lhs == rhs or (math.isnan(lhs) and math.isnan(rhs))


@settings(max_examples=200, deadline=None)
@given(lhs=_arith(1), rhs=_arith(1), env=_envs)
def test_less_than_equals_negated_geq(lhs, rhs, env):
    direct = degree(Rel("<", lhs, rhs), env)
    rewritten = degree(Not(Rel(">=", lhs, rhs)), env)
    assert direct == rewritten or (math.isnan(direct) and math.isnan(rewritten))


# --- ties -------------------------------------------------------------------

TINY = math.ulp(0.0)  # 5e-324


def _tie_degrees(e, x, y):
    """``e``'s degree with ``x`` and ``y`` bound, on the scalar path and the array path."""
    env = ArrayEnv(signals={"x": np.array([x]), "y": np.array([y])}, prev={}, t=0.0)
    return degree(e, Env(signals={"x": x, "y": y})), float(degree_array(e, env)[0])


@pytest.mark.parametrize("x, y", [(3.7, 3.7), (0.0, -0.0)], ids=["equal", "signed-zeros"])
@pytest.mark.parametrize("op", REL_OPS)
def test_tie_degree_is_the_smallest_float_with_the_relations_truth(op, x, y):
    atom = Rel(op, SignalRef("x"), SignalRef("y"))
    truth = eval_bool(atom, Env(signals={"x": x, "y": y}))
    assert same_bits(_tie_degrees(atom, x, y), [TINY if truth else -TINY] * 2)
    assert same_bits(_tie_degrees(Not(atom), x, y), [-TINY if truth else TINY] * 2)
    for op2 in REL_OPS:  # De Morgan, exactly, between two tied atoms
        other = Rel(op2, SignalRef("y"), SignalRef("x"))
        lhs = _tie_degrees(Not(And(atom, other)), x, y)
        assert same_bits(lhs, _tie_degrees(Or(Not(atom), Not(other)), x, y))


def test_tie_degree_survives_the_engines_float_operations():
    """A library that turns on flush-to-zero (FTZ/DAZ) would make every tie degree 0.

    A zero degree has no sign, so ties would silently stop being test cases;
    this fails in that process instead.
    """
    ties = np.array([[-TINY, TINY]])
    assert (ties < 0).tolist() == [[True, False]]
    assert np.minimum(ties, np.inf).tolist() == [[-TINY, TINY]]
    assert np.maximum(ties, -np.inf).tolist() == [[-TINY, TINY]]
    assert np.minimum.reduce(ties, axis=1, initial=np.inf).tolist() == [-TINY]
    assert (-ties).tolist() == [[TINY, -TINY]]
    assert (-ties < 0).tolist() == [[False, True]]


# --- every operator, written out by hand --------------------------------------

# the scalar reference and the array engine read one operator table, so the
# array-against-scalar test below cannot catch a wrong entry; these pin each one

# (x, y): greater, less, equal, and equal zeros of opposite sign
_PAIRS = ((2.0, 1.0), (1.0, 2.0), (1.0, 1.0), (0.0, -0.0))

# per relation and pair: the truth of x op y and its degree (the margin, or ±TINY at a tie)
_RELATIONS_BY_HAND = {
    ">": ((True, 1.0), (False, -1.0), (False, -TINY), (False, -TINY)),
    "<": ((False, -1.0), (True, 1.0), (False, -TINY), (False, -TINY)),
    ">=": ((True, 1.0), (False, -1.0), (True, TINY), (True, TINY)),
    "<=": ((False, -1.0), (True, 1.0), (True, TINY), (True, TINY)),
    "==": ((False, -1.0), (False, -1.0), (True, TINY), (True, TINY)),
    "!=": ((True, 1.0), (True, 1.0), (False, -TINY), (False, -TINY)),
}
# per arithmetic operator and pair: the value of x op y, None where it divides by zero
_ARITHMETIC_BY_HAND = {
    "+": (3.0, 3.0, 2.0, 0.0),
    "-": (1.0, -1.0, 0.0, 0.0),
    "*": (2.0, 2.0, 1.0, -0.0),
    "/": (2.0, 0.5, 1.0, None),
}


def _bound(x, y):
    """``x`` and ``y`` bound for the scalar reference and for the array engine."""
    array_env = ArrayEnv(signals={"x": np.array([x]), "y": np.array([y])}, prev={}, t=0.0)
    return Env(signals={"x": x, "y": y}), array_env


def test_every_relation_covered_by_hand():
    assert tuple(_RELATIONS_BY_HAND) == REL_OPS


@pytest.mark.parametrize("op", list(_RELATIONS_BY_HAND))
def test_relation_by_hand(op):
    atom = Rel(op, SignalRef("x"), SignalRef("y"))
    for (x, y), (truth, expected) in zip(_PAIRS, _RELATIONS_BY_HAND[op]):
        env, array_env = _bound(x, y)
        assert eval_bool(atom, env) is truth, (x, y)
        assert holds_array(atom, array_env).tolist() == [truth], (x, y)
        degrees = [degree(atom, env), float(degree_array(atom, array_env)[0])]
        assert same_bits(degrees, [expected] * 2), (x, y, degrees)


@pytest.mark.parametrize("op", list(_ARITHMETIC_BY_HAND))
def test_arithmetic_by_hand(op):
    e = BinaryArith(op, SignalRef("x"), SignalRef("y"))
    for (x, y), expected in zip(_PAIRS, _ARITHMETIC_BY_HAND[op]):
        env, array_env = _bound(x, y)
        with np.errstate(all="ignore"):
            value = float(arith_array(e, array_env)[0])
        assert np.any(array_env.zero_division) == (expected is None), (x, y)
        if expected is None:
            with pytest.raises(DivisionByZeroError):
                eval_arith(e, env)
        else:
            assert same_bits([eval_arith(e, env), value], [expected] * 2), (x, y, value)


# --- array evaluation against the scalar reference ----------------------------

# exact zeros of both signs and repeated values make ties, equal operands and
# zero divisors common; the random floats keep the rest generic
_POOL = (0.0, -0.0, 1.0, -1.0, 2.5, -3.0)


def _batch_values(rng, shape):
    values = rng.uniform(-5.0, 5.0, size=shape)
    pick = rng.random(shape) < 0.6
    values[pick] = rng.choice(_POOL, size=int(pick.sum()))
    return values


def _scalar(fn, e, arrays, t):
    """``fn`` at every sample, and where it raised DivisionByZeroError."""
    shape = arrays["a"].shape
    values, raised = np.zeros(shape, dtype=object), np.zeros(shape, dtype=bool)
    for c, k in np.ndindex(shape):
        env = Env(
            signals={"a": float(arrays["a"][c, k]), "b": float(arrays["b"][c, k])},
            prev={"a": float(arrays["pa"][c, k]), "b": float(arrays["pb"][c, k])},
            t=float(t[k]),
        )
        try:
            values[c, k] = fn(e, env)
        except DivisionByZeroError:
            raised[c, k] = True
    return values, raised


def _same_floats(array, reference, where):
    bits = np.ascontiguousarray(array, dtype=float).view(np.uint64)
    expected = np.array(reference.tolist(), dtype=float).view(np.uint64)
    return np.array_equal(bits[where], expected[where])


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_array_evaluation_matches_scalar_reference(seed):
    # bit-for-bit equality, and a zero divisor flagged exactly where the scalar
    # evaluator divides by zero: & and | short-circuit in eval_bool only
    rng = np.random.default_rng(seed)
    ops = ("+", "-", "*", "/")
    boolean = random_bool_expr(rng, ops=ops)
    arithmetic = random_arith_expr(rng, ops=ops)
    shape = (3, 7)
    arrays = {name: _batch_values(rng, shape) for name in ("a", "b", "pa", "pb")}
    t = np.arange(shape[1]) * 0.5

    def run(fn, e):
        env = ArrayEnv(
            signals={"a": arrays["a"], "b": arrays["b"]},
            prev={"a": arrays["pa"], "b": arrays["pb"]},
            t=t[None, :],
        )
        with np.errstate(all="ignore"):
            value = np.broadcast_to(fn(e, env), shape)
        return value, np.broadcast_to(env.zero_division, shape)

    for scalar_fn, array_fn, e in (
        (degree, degree_array, boolean),
        (eval_arith, arith_array, arithmetic),
    ):
        reference, raised = _scalar(scalar_fn, e, arrays, t)
        value, flagged = run(array_fn, e)
        assert np.array_equal(flagged, raised)
        assert _same_floats(value, reference, ~raised)

    reference, raised = _scalar(eval_bool, boolean, arrays, t)
    value, flagged = run(holds_array, boolean)
    assert np.array_equal(flagged, raised)
    assert np.array_equal(value[~raised], reference[~raised].astype(bool))


def test_array_degree_makes_nan_operands_nan():
    # min(1.0, nan) is 1.0 but min(nan, 1.0) is nan; the array degree is nan either way
    nan_atom = Rel(">", BinaryArith("-", SignalRef("x"), SignalRef("x")), Const(0.0))
    one = Rel(">", Const(1.0), Const(0.0))
    env = ArrayEnv(signals={"x": np.array([np.inf])}, prev={}, t=0.0)
    with np.errstate(all="ignore"):
        for e in (And(one, nan_atom), And(nan_atom, one), Or(one, nan_atom), Or(nan_atom, one)):
            assert np.isnan(degree_array(e, env)).all()
