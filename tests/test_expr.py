"""Parser, evaluator, and serializer tests."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hhcert.expr import (
    _OPS,
    Apply,
    Const,
    DomainError,
    EvaluationError,
    Expression,
    ExpressionError,
    Num,
    ParseError,
    Var,
    evaluate,
    parse,
    serialize,
)


# --------------------------------------------------------------------------
# parsing structure
# --------------------------------------------------------------------------

def test_variable_is_identity():
    assert parse("x").root == Var()


def test_multiplication_binds_tighter_than_addition():
    assert parse("2+3*x").root == Apply("+", (Num(2.0), Apply("*", (Num(3.0), Var()))))


def test_call_wraps_power():
    assert parse("exp(x^2)").root == Apply("exp", (Apply("^", (Var(), Num(2.0))),))


def test_power_is_right_associative():
    # x^2^3 = x^(2^3) = x^8
    assert parse("x^2^3").root == Apply("^", (Var(), Apply("^", (Num(2.0), Num(3.0)))))
    assert evaluate(parse("x^2^3"), 2.0) == 256.0


def test_additive_and_multiplicative_operators_are_left_associative():
    one_minus_x = Apply("-", (Num(1.0), Var()))
    assert parse("1-x-2").root == Apply("-", (one_minus_x, Num(2.0)))
    assert parse("1-x*2/3").root == Apply(
        "-", (Num(1.0), Apply("/", (Apply("*", (Var(), Num(2.0))), Num(3.0))))
    )


def test_every_interior_node_is_an_apply_keyed_by_its_operation():
    def interior(node):
        if isinstance(node, Apply):
            yield node
            for arg in node.args:
                yield from interior(arg)

    text = "-(1 - x + 2) / 3 * sqrt(x) ^ 2 + exp(ln(sin(cos(sinh(cosh(abs(x)))))))"
    nodes = list(interior(parse(text).root))
    assert {node.kind for node in nodes} == set(_OPS)
    assert all(len(node.args) == (1 if node.kind.isalpha() else 2) for node in nodes)


def test_unary_minus_binds_below_power():
    assert parse("-x^2").root == Apply("neg", (Apply("^", (Var(), Num(2.0))),))
    assert evaluate(parse("-x^2"), 3.0) == -9.0
    # but a unary minus is fine in exponent position
    assert evaluate(parse("2^-2"), 0.0) == 0.25


def test_whitespace_is_insignificant():
    assert parse(" 2 +  3*x ").root == parse("2+3*x").root


def test_constants_and_functions():
    assert evaluate(parse("e"), 0.0) == math.e
    assert evaluate(parse("pi"), 0.0) == math.pi
    assert evaluate(parse("cos(0)"), 0.0) == 1.0
    assert evaluate(parse("sinh(x)+cosh(x)"), 0.3) == pytest.approx(math.exp(0.3), rel=1e-15)
    assert evaluate(parse("abs(x)"), -2.5) == 2.5


def test_scientific_literals():
    assert evaluate(parse("1.5e-3"), 0.0) == 1.5e-3
    assert evaluate(parse("2E2"), 0.0) == 200.0


# --------------------------------------------------------------------------
# parse errors carry positions
# --------------------------------------------------------------------------

def test_unbalanced_paren_reports_position():
    with pytest.raises(ParseError) as err:
        parse("exp(")
    assert err.value.position == 4


def test_log_is_rejected_with_hint():
    with pytest.raises(ParseError, match="ln"):
        parse("log(x)")


def test_unknown_identifier():
    with pytest.raises(ParseError, match="unknown identifier 'y'"):
        parse("2*y")


def test_trailing_garbage():
    with pytest.raises(ParseError) as err:
        parse("1+2)")
    assert err.value.position == 3


def test_empty_expression():
    with pytest.raises(ParseError):
        parse("   ")


def test_huge_literal_rejected():
    with pytest.raises(ParseError, match="out of double range"):
        parse("1e999")


# --------------------------------------------------------------------------
# evaluation semantics
# --------------------------------------------------------------------------

def test_square():
    assert evaluate(parse("x^2"), 3.0) == 9.0


def test_exp_quarter():
    # independent high-precision value of e^{1/4}
    assert evaluate(parse("exp(x^2)"), 0.5) == pytest.approx(1.2840254166877414, rel=1e-15)


def test_ln_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse("ln(x)"), -1.0)
    with pytest.raises(DomainError):
        evaluate(parse("ln(x)"), 0.0)


def test_sqrt_domain_error():
    with pytest.raises(DomainError):
        evaluate(parse("sqrt(x)"), -4.0)


def test_division_by_zero():
    with pytest.raises(DomainError):
        evaluate(parse("1/x"), 0.0)


def test_fractional_power_of_negative_base():
    with pytest.raises(DomainError):
        evaluate(parse("x^0.5"), -2.0)


def test_overflow_reported_as_evaluation_error():
    with pytest.raises(EvaluationError):
        evaluate(parse("exp(x)"), 1000.0)
    with pytest.raises(EvaluationError):
        evaluate(parse("sinh(x)"), 1e6)
    with pytest.raises(EvaluationError):
        evaluate(parse("cosh(x)"), 1e6)
    with pytest.raises(EvaluationError):
        evaluate(parse("x^x"), 400.0)


@pytest.mark.parametrize(
    "text, x, error, message",
    [
        ("ln(x)", -1.0, DomainError, "ln of non-positive value -1.0"),
        ("sqrt(x)", -4.0, DomainError, "sqrt of negative value -4.0"),
        ("1/x", 0.0, DomainError, "division by zero"),
        ("x^0.5", -2.0, DomainError, "invalid power -2.0 ^ 0.5"),
        ("x^-1", 0.0, DomainError, "invalid power 0.0 ^ -1.0"),
        ("exp(x)", 1000.0, EvaluationError, "overflow in exp(1000.0)"),
        ("sinh(x)", -1e6, EvaluationError, "overflow in sinh(-1000000.0)"),
        ("cosh(x)", 1e6, EvaluationError, "overflow in cosh(1000000.0)"),
        ("x^x", 400.0, EvaluationError, "overflow in power 400.0 ^ 400.0"),
        ("x*1e308*10", 0.5, EvaluationError, "non-finite result at x=0.5"),
        # the first node out of its domain is named, in evaluation order
        ("ln(x) + sqrt(x)", -1.0, DomainError, "ln of non-positive value -1.0"),
        ("sqrt(x) + 1/(x+1)", -1.0, DomainError, "sqrt of negative value -1.0"),
        # a division by zero is named even when the result would be finite
        ("1/(1/x)", 0.0, DomainError, "division by zero"),
        # sin(inf) and cos(inf) are NaN, not a bare "math domain error"
        ("sin(x*1e308*10)", 0.5, EvaluationError, "non-finite result at x=0.5"),
        ("cos(x*1e308*10)", 0.5, EvaluationError, "non-finite result at x=0.5"),
    ],
)
def test_each_node_names_its_own_domain_error(text, x, error, message):
    with pytest.raises(error) as err:
        evaluate(parse(text), x)
    assert str(err.value) == message


def test_non_finite_point_rejected():
    with pytest.raises(ValueError):
        evaluate(parse("x"), float("inf"))


def test_evaluate_is_deterministic():
    f = parse("exp(x^2) / (1 + sqrt(x))")
    values = {evaluate(f, 0.7) for _ in range(10)}
    assert len(values) == 1


# --------------------------------------------------------------------------
# vectorized evaluation
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    ["exp(x^2)", "ln(x+2)", "sqrt(abs(x)) + sin(x)*cosh(x/3)", "(x+2)^1.5", "1/(x+3)", "2.5"],
)
def test_eval_array_matches_scalar(text):
    f = parse(text)
    xs = np.linspace(-1.0, 1.0, 17)
    vec = f.eval_array(xs)
    assert vec.shape == xs.shape
    for x, v in zip(xs, vec):
        assert f(float(x)) == v


def test_eval_array_flags_domain_violations_as_nan():
    vals = parse("ln(x)").eval_array(np.array([-1.0, 1.0]))
    assert math.isnan(vals[0]) and vals[1] == 0.0


def test_eval_array_keeps_mesh_shape():
    mesh = np.linspace(0, 1, 12).reshape(3, 4)
    assert parse("x^2 + 1").eval_array(mesh).shape == (3, 4)


# --------------------------------------------------------------------------
# serialization round trip
# --------------------------------------------------------------------------

_literals = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False).map(abs)

_trees = st.recursive(
    st.one_of(
        st.builds(Num, _literals),
        st.just(Var()),
        st.builds(Const, st.sampled_from(["e", "pi"])),
    ),
    lambda children: st.one_of(
        st.builds(Apply, st.sampled_from(list("+-*/^")), st.tuples(children, children)),
        st.builds(
            Apply,
            st.sampled_from(["neg", "exp", "ln", "sqrt", "sin", "cos", "sinh", "cosh", "abs"]),
            st.tuples(children),
        ),
    ),
    max_leaves=12,
)


@given(_trees)
def test_serialize_parse_round_trip(root):
    text = serialize(Expression(root))
    reparsed = parse(text)
    assert reparsed.root == root
    # canonical text is a fixed point
    assert serialize(reparsed) == text


# --------------------------------------------------------------------------
# one evaluator: f(x) is the array path on one point
# --------------------------------------------------------------------------

def _bits(value) -> int:
    return int(np.float64(value).view(np.uint64))


_points = st.one_of(
    st.floats(min_value=-4.0, max_value=4.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(_trees, st.lists(_points, min_size=1, max_size=4))
def test_f_of_x_is_the_one_point_array_entry_or_a_named_error(root, xs):
    # f(x) walks the array path on [x]: it returns that entry bit for bit,
    # or raises an ExpressionError, and it always raises when the entry is
    # not finite
    f = Expression(root)
    for x in xs:
        entry = f.eval_array([x])[0]
        try:
            value = f(x)
        except ExpressionError:
            continue
        assert math.isfinite(entry)
        assert _bits(value) == _bits(entry)


def test_round_trip_of_plain_sources():
    for text in ["2+3*x", "exp(x^2)", "-x^2 + 1/(x+3)", "x^-2", "e*pi - sqrt(x)"]:
        once = parse(text)
        assert parse(serialize(once)).root == once.root


def test_cached_text_leaves_equality_and_hashing_alone():
    f, g = parse("exp(x^2) + 1"), parse("exp(x^2) + 1")
    assert str(f) == "(exp((x ^ 2.0)) + 1.0)"
    assert str(f) is str(f)  # built once, then read from the cache
    assert f == g and hash(f) == hash(g)
    assert serialize(g) == str(f)


def test_subtraction_of_a_negated_factor():
    # x - -1 parses as x minus (-1)
    assert evaluate(parse("x - -1"), 2.0) == 3.0


def test_negated_exponent_chain():
    # 2^-3^2 = 2^(-(3^2))
    assert evaluate(parse("2^-3^2"), 0.0) == pytest.approx(2.0**-9, rel=1e-15)


def test_juxtaposed_number_and_identifier_is_an_error():
    # '2e' lexes as the literal 2 followed by a dangling constant
    with pytest.raises(ParseError):
        parse("2e")


# --------------------------------------------------------------------------
# nesting bound: deep text is refused by name, never by exhausting the stack
# --------------------------------------------------------------------------

# Text of each shape at nesting or tree depth n; the bound is 100 levels.
_DEEP_TEXTS = {
    "parentheses": lambda n: "(" * n + "x" + ")" * n,
    "calls": lambda n: "sin(" * n + "x" + ")" * n,
    "unary minus": lambda n: "-" * n + "x",
    "sum": lambda n: " + ".join(["x"] * (n + 1)),
    "product": lambda n: "*".join(["x"] * (n + 1)),
    "powers": lambda n: "x^" * n + "1",
    "parenthesised powers": lambda n: "x^(" * n + "1" + ")" * n,
}


@pytest.mark.parametrize("shape", _DEEP_TEXTS)
def test_text_at_the_nesting_bound_parses_evaluates_and_serializes(shape):
    f = parse(_DEEP_TEXTS[shape](100))
    assert math.isfinite(f(1.0))
    assert f.eval_array([1.0])[0] == f(1.0)
    assert parse(serialize(f)) == f


@pytest.mark.parametrize("shape", _DEEP_TEXTS)
def test_text_one_level_past_the_nesting_bound_is_refused(shape):
    with pytest.raises(ParseError, match="deeper than 100 levels"):
        parse(_DEEP_TEXTS[shape](101))


def test_a_long_sum_is_refused_by_name_not_by_the_stack():
    # the 101st '+' would make the tree 101 levels deep
    message = r"expression tree deeper than 100 levels \(position 402\)"
    with pytest.raises(ParseError, match=message):
        parse(" + ".join(["x"] * 3000))
