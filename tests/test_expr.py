"""Expression language: grammar coverage, exact derivatives, error handling."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from grammar import GRAMMATICAL
from susyq.expr import (
    Add,
    Const,
    Div,
    EvalDomainError,
    ExprError,
    LogAbs,
    Mul,
    Neg,
    ParseError,
    Pow,
    Var,
    conjugate,
    differentiate,
    evaluate,
    evaluate_array,
    parse,
    parse_bindings,
    to_source,
)
from susyq.susy import SuperpotentialPair

DIFF_TOL = 1e-8


def central_diff(e, x, h=1e-4):
    return (evaluate(e, x + h) - evaluate(e, x - h)) / (2 * h)


def assert_derivative_matches(e, points, h=1e-4):
    """Exact derivative agrees with an O(h^2) central difference, and the
    mismatch shrinks when h does (order check)."""
    d = differentiate(e)
    for x in points:
        exact = evaluate(d, x)
        scale = max(1.0, abs(exact))
        err_h = abs(central_diff(e, x, h) - exact)
        err_h2 = abs(central_diff(e, x, h / 2) - exact)
        assert err_h < 1e-5 * scale
        assert err_h2 < max(0.3 * err_h, 1e-11 * scale)


def test_parse_variable():
    e = parse("x")
    assert evaluate(e, 3.25) == 3.25 + 0j


def test_parse_numbers_and_imaginary_suffix():
    assert evaluate(parse("2.5"), 0.0) == 2.5
    assert evaluate(parse("2.5i"), 0.0) == 2.5j
    assert evaluate(parse("1e-3"), 0.0) == 1e-3
    assert evaluate(parse(".5 + 2i"), 0.0) == 0.5 + 2j


def test_every_production_evaluates():
    cases = {
        "1 + x": 3.0,
        "x - 3": -1.0,
        "2 * x": 4.0,
        "x / 4": 0.5,
        "-x": -2.0,
        "x^3": 8.0,
        "x^-2": 0.25,
        "exp(x)": np.exp(2.0),
        "sin(x)": np.sin(2.0),
        "cos(x)": np.cos(2.0),
        "tanh(x)": np.tanh(2.0),
        "ln(x)": np.log(2.0),
    }
    for src, expected in cases.items():
        assert evaluate(parse(src), 2.0) == pytest.approx(expected, abs=1e-14)


def test_ln_is_log_of_absolute_value():
    assert evaluate(parse("ln(x)"), -3.0) == pytest.approx(np.log(3.0))


def test_bindings_resolve_at_parse_time():
    e = parse("k + e0 * x", {"k": -1, "e0": [0.0, 2.0]})
    assert evaluate(e, 1.0) == -1 + 2j
    # the tree has no free symbols left, so the binding table may be dropped
    assert evaluate(parse(to_source(e)), 1.0) == -1 + 2j


def test_binding_shadowing_reserved_rejected():
    with pytest.raises(ParseError):
        parse_bindings({"exp": 1.0})
    with pytest.raises(ParseError):
        parse_bindings({"x": 1.0})


def test_superpotential_growing_pair_parses():
    wa = parse("k + exp(x)", {"k": -1})
    wb = parse("x - exp(x)")
    assert evaluate(wa, 0.0) == pytest.approx(0.0)
    assert evaluate(wb, 0.0) == pytest.approx(-1.0)
    # the sum is linear: the exponential factors cancel
    s = wa + wb
    for x in (-2.0, 0.3, 1.7):
        assert evaluate(s, x) == pytest.approx(x - 1, abs=1e-12)


def test_derivative_of_difference_with_exp():
    e = parse("x - exp(x)")
    d = differentiate(e)
    for x in (-1.0, 0.0, 2.0):
        assert evaluate(d, x) == pytest.approx(1 - np.exp(x), abs=1e-12)


def test_derivative_of_constant_is_zero():
    d = differentiate(parse("3.5 + 2i"))
    assert evaluate(d, 11.0) == 0


def test_cube_derivative_matches_central_difference():
    e = parse("x^3")
    d = differentiate(e)
    assert evaluate(d, 2.0) == pytest.approx(12.0, abs=1e-12)
    assert abs(central_diff(e, 2.0, h=5e-5) - 12.0) < DIFF_TOL


def test_exp_at_zero():
    assert evaluate(parse("exp(x)"), 0.0) == pytest.approx(1.0)


def test_derivatives_against_central_differences_many_points():
    rng = np.random.default_rng(7)
    sources = [
        ("x^3 - 2*x + 1", None),
        ("exp(-x^2 / 2)", None),
        ("sin(x) * cos(2*x)", None),
        ("tanh(x) + 0.3i*sin(x)", None),
        ("k + exp(x)", {"k": -1}),
        ("x - exp(x)", None),
        ("1 / (x^2 + 1)", None),
        ("ln(x^2 + 2)", None),
        ("(x + 2i) * exp(0.5*x)", None),
        ("x^-3", None),
    ]
    for src, bindings in sources:
        e = parse(src, bindings)
        pts = rng.uniform(0.5, 2.5, size=5)
        assert_derivative_matches(e, pts)


def test_second_derivative_numeric_check():
    e = parse("exp(-x^2/2) * sin(x)")
    d2 = differentiate(differentiate(e))
    for x in (0.3, 1.1):
        h = 1e-3
        fd2 = (evaluate(e, x + h) - 2 * evaluate(e, x) + evaluate(e, x - h)) / h**2
        assert abs(evaluate(d2, x) - fd2) < 1e-5


def test_conjugate_pointwise():
    e = parse("(1 + 2i) * exp(1i * x) + tanh(x - 0.5i)")
    c = conjugate(e)
    for x in (-1.0, 0.2, 3.1):
        assert evaluate(c, x) == pytest.approx(np.conjugate(evaluate(e, x)), abs=1e-13)


def test_constant_folding_and_identities():
    assert to_source(parse("0 + x")) == "x"
    assert to_source(parse("1 * x")) == "x"
    assert to_source(parse("x^1")) == "x"
    assert to_source(parse("2 + 3")) == "5.0"
    assert to_source(parse("0 * exp(x)")) == "0.0"


def test_syntax_error_offsets():
    with pytest.raises(ParseError) as err:
        parse("x + * 2")
    assert err.value.offset == 4
    with pytest.raises(ParseError) as err:
        parse("exp(x")
    assert err.value.offset == 5
    with pytest.raises(ParseError) as err:
        parse("x + $")
    assert err.value.offset == 4


def test_unknown_identifier_offset():
    with pytest.raises(ParseError) as err:
        parse("2 * blob")
    assert err.value.offset == 4


def test_non_integer_exponent_rejected():
    with pytest.raises(ParseError):
        parse("x^2.5")
    with pytest.raises(ParseError):
        parse("x^x")


def test_pole_evaluation_carries_x():
    e = parse("1 / (x - 2)")
    with pytest.raises(EvalDomainError) as err:
        evaluate(e, 2.0)
    assert err.value.x == 2.0
    with pytest.raises(EvalDomainError):
        evaluate(parse("ln(x)"), 0.0)
    with pytest.raises(EvalDomainError):
        evaluate(parse("x^-1"), 0.0)


def test_scalar_power_overflow_is_a_domain_error_like_the_array_inf():
    e = parse("x^400")
    with pytest.raises(EvalDomainError) as err:
        evaluate(e, 8.0)
    assert err.value.x == 8.0
    with pytest.raises(EvalDomainError):
        evaluate(parse("(x + 1i)^400"), 8.0)
    assert np.isinf(evaluate_array([e], np.array([8.0]))[0][0].real)
    # a negative power of a base whose cube underflows: Python divides by zero, numpy gives inf
    tiny = parse("(1e-150 * x)^-3")
    with pytest.raises(EvalDomainError):
        evaluate(tiny, 1.0)
    assert np.isinf(evaluate_array([tiny], np.array([1.0]))[0][0].real)
    # past the overflow the value is exact again
    assert evaluate(parse("exp(0 - x^400)"), 8.0) == 0.0


@pytest.mark.parametrize("text, bindings, message", [
    ("(0)^-1", None, "the constant zero raised to a negative power"),
    ("k^3", {"k": [1e200, 1e200]}, "out of float range"),
    ("k^101", {"k": [1e200, 1e200]}, "out of float range"),
    ("k^2", {"k": 1e200}, "out of float range"),
    ("(0.5^400)^-3", None, "out of float range"),  # the reciprocal of an underflow
])
def test_constant_powers_fold_to_finite_numbers_or_raise(text, bindings, message):
    with pytest.raises(ExprError, match=message):
        parse(text, bindings)
    assert evaluate(parse("k^-2", {"k": 2}), 0.0) == 0.25


def test_array_evaluation_matches_scalar():
    e = parse("tanh(x) * exp(0.25i * x^2) + 1/(x - 20)")
    xs = np.linspace(-3, 3, 11)
    [arr] = evaluate_array([e], xs)
    for j, x in enumerate(xs):
        assert arr[j] == pytest.approx(evaluate(e, float(x)), abs=1e-14)


def test_drift_free_large_x_limits():
    # for the two-superpotential market pair the left tail of wA approaches r
    # (1/v -> 0 there) while the right tail approaches -1 (v -> -1/(r+1))
    r, v0 = 1.0, 1.0
    wa = parse("r + 1/(v0*exp(-(r + 1)*x) - 1/(r + 1))", {"r": r, "v0": v0})
    assert evaluate(wa, -30.0).real == pytest.approx(r, abs=1e-12)
    assert evaluate(wa, 30.0).real == pytest.approx(-1.0, abs=1e-12)


# --- round-trip property ----------------------------------------------------

_leaf = st.sampled_from(["x", "2", "0.5", "1.5i", "3"])
_unary = st.sampled_from(["exp", "sin", "cos", "tanh"])


def _expr_source(depth):
    if depth == 0:
        return _leaf
    sub = _expr_source(depth - 1)
    return st.one_of(
        _leaf,
        st.tuples(sub, sub).map(lambda t: f"({t[0]} + {t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"({t[0]} * {t[1]})"),
        st.tuples(sub, sub).map(lambda t: f"({t[0]} - {t[1]})"),
        sub.map(lambda s: f"-({s})"),
        st.tuples(_unary, sub).map(lambda t: f"{t[0]}({t[1]})"),
        sub.map(lambda s: f"({s})^2"),
    )


@settings(max_examples=60, deadline=None)
@given(src=_expr_source(3), x=st.floats(-2.0, 2.0))
def test_print_parse_round_trip_evaluates_identically(src, x):
    e = parse(src)
    try:
        direct = evaluate(e, x)
    except EvalDomainError:
        return  # overflowing tower of exps; round trip is not meaningful
    rt = evaluate(parse(to_source(e)), x)
    assert rt == pytest.approx(direct, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# one DAG per record against the field-by-field walk

def _field_by_field(e, x):
    """e on the array x by the recursive walk, one node at a time.  A sum's
    or product's operands are fresh temporaries, so numpy may compute the
    result in the buffer of either, and in that operand order."""
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return x
    if isinstance(e, Add):
        return _field_by_field(e.a, x) + _field_by_field(e.b, x)
    if isinstance(e, Mul):
        return _field_by_field(e.a, x) * _field_by_field(e.b, x)
    if isinstance(e, Neg):
        return -_field_by_field(e.a, x)
    v = _field_by_field(e.a, x)
    if isinstance(e, Div):
        den = _field_by_field(e.b, x)
        if np.ndim(den) == 0 and den == 0:
            raise EvalDomainError("division by zero", x)
        return v / den
    if isinstance(e, Pow):
        if e.n < 0 and np.ndim(v) == 0 and v == 0:
            raise EvalDomainError("zero raised to a negative power", x)
        try:
            return v ** e.n
        except OverflowError:
            return np.power(np.asarray(v), e.n)
    if isinstance(e, LogAbs):
        if np.ndim(v) == 0 and abs(v) == 0:
            raise EvalDomainError("log of zero", x)
        return np.log(np.abs(v)) + 0j if np.ndim(v) else complex(np.log(np.abs(v)))
    return {"exp": np.exp, "sin": np.sin, "cos": np.cos, "tanh": np.tanh}[e.name](v)


def _walked(e, x):
    with np.errstate(all="ignore"):
        v = np.asarray(_field_by_field(e, x), dtype=np.complex128)
    return v if v.shape == x.shape else np.full(x.shape, complex(v), dtype=np.complex128)


# 32769 points: float64 arrays too reach numpy's 256 KiB temporary-elision size
@settings(deadline=None)
@given(w_a=GRAMMATICAL, w_b=GRAMMATICAL, n=st.sampled_from([257, 32769]))
def test_drawn_pairs_sample_as_one_dag_bit_for_bit(w_a, w_b, n):
    try:
        p = SuperpotentialPair(parse(w_a, {"k": -1.3, "a": 0.4}), parse(w_b, {"k": -1.3, "a": 0.4}))
        fields = [getattr(p, name) for name in p._SAMPLED]
        roots = fields + [differentiate(e) for e in fields]
    except ExprError:  # folding a constant failed: no pair to sample
        event("no pair")
        return
    x = np.linspace(-12.0, 12.0, n)  # x = 0 is a node: poles give inf and nan points
    try:
        got = evaluate_array(roots, x)
    except EvalDomainError as err:
        with warnings.catch_warnings(), pytest.raises(EvalDomainError) as first:
            warnings.simplefilter("ignore")
            for e in roots:
                _walked(e, x)
        assert str(err) == str(first.value)
        event("domain error")
        return
    event("non-finite points" if not all(np.isfinite(v).all() for v in got) else "finite")
    for i, (e, values) in enumerate(zip(roots, got)):
        assert np.array_equal(values.view(np.uint64), _walked(e, x).view(np.uint64)), i


@pytest.mark.parametrize("source", [
    "exp(0.3i)^-3 * (x - 0.3i)",  # a numpy scalar times a temporary: numpy keeps the order
    "(0.5 + 0.2i) * (x - 0.3i)",  # a Python scalar times a temporary: numpy computes it swapped
    "x * (x + 0.2i) + tanh(x) * 0.7i",
])
def test_products_keep_the_operand_order_of_the_walk(source):
    x = np.linspace(-12.0, 12.0, 32769)
    [got] = evaluate_array([parse(source)], x)
    assert np.array_equal(got.view(np.uint64), _walked(parse(source), x).view(np.uint64))


def test_constants_differing_in_a_zero_sign_are_separate_nodes():
    x = np.array([-1.0, 1.0])
    inf = 1e308 * 10  # constant folding can make inf, and nan as its difference with itself
    roots = [Const(0.0), Const(-0.0), Mul(Var(), Const(0j)), Mul(Var(), Const(complex(-0.0, 0.0))),
             Const(inf), Const(-inf), Const(inf - inf), Const(-(inf - inf))]
    got = evaluate_array(roots, x)
    for e, values in zip(roots, got):
        assert np.array_equal(values.view(np.uint64), _walked(e, x).view(np.uint64))
    for a, b in (got[:2], got[2:4], got[4:6], got[6:]):
        assert not np.array_equal(a.view(np.uint64), b.view(np.uint64))
    # equal constants are one node, a nan one too, although nan != nan
    first, again = evaluate_array([Const(inf - inf), Const(inf - inf)], x)
    assert again is first


def test_equal_roots_share_one_array_and_constant_roots_fill_the_grid():
    x = np.linspace(-1.0, 1.0, 5)
    first, again, const = evaluate_array([parse("x^2 + 1"), parse("x^2 + 1"), parse("2 + 1i")], x)
    assert again is first
    assert np.array_equal(const, np.full(5, 2 + 1j))
