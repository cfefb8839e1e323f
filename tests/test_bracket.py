"""d/dx, interval enclosures and the modulus bracket built on them.

mpmath is the independent oracle: its numerical derivative checks the
symbolic d/dx, and its interval arithmetic at 120 bits gives each sampled
value of f a tight rigorous enclosure that hhcert's must contain.
"""

import math
import os
import subprocess
import sys
import time

import mpmath
import numpy as np
from mpmath.libmp.libmpf import ComplexResult
import pytest
from hypothesis import assume, given, settings, strategies as st

import hhcert
from hhcert import calculus, expr
from hhcert.certify import CertStatus, estimate_modulus, modulus_bracket
from hhcert.expr import Apply, Const, Num, Var, parse
from hhcert.harness import ALL_FAMILIES, generate_case

# --------------------------------------------------------------------------
# mpmath evaluation of a tree (or of a derivative DAG), memoized per node
# --------------------------------------------------------------------------

_MP_CALLS = {
    "exp": lambda m, v: m.exp(v),
    "ln": lambda m, v: m.log(v),
    "sqrt": lambda m, v: m.sqrt(v),
    "sin": lambda m, v: m.sin(v),
    "cos": lambda m, v: m.cos(v),
    "sinh": lambda m, v: m.sinh(v) if m is mpmath.mp else _iv_hyperbolic(mpmath.sinh, v),
    "cosh": lambda m, v: m.cosh(v) if m is mpmath.mp else _iv_hyperbolic(mpmath.cosh, v),
    "abs": lambda m, v: abs(v),
    "neg": lambda m, v: -v,
}
_MP_OPS = {
    "+": lambda u, v: u + v,
    "-": lambda u, v: u - v,
    "*": lambda u, v: u * v,
    "/": lambda u, v: u / v,
    "^": lambda u, v: u**v,
}


class _Undefined(Exception):
    pass


def _iv_hyperbolic(fn, v):
    """sinh or cosh over the interval v, which mpmath.iv lacks: from fn at v's ends at
    200 bits, widened by 2**-150 relative; cosh never falls below 1, which it
    reaches where v holds 0."""
    with mpmath.workprec(200):
        ends = [fn(mpmath.mpf(v.a)), fn(mpmath.mpf(v.b))]
        lo, hi = min(ends), max(ends)
        eps = mpmath.mpf(2) ** -150
        lo, hi = lo - abs(lo) * eps, hi + abs(hi) * eps
        if fn is mpmath.cosh:
            lo = mpmath.mpf(1) if v.a < 0 < v.b else max(lo, 1)
        return mpmath.iv.mpf([lo, hi])


_REAL = {mpmath.mp: mpmath.mpf, mpmath.iv: type(mpmath.iv.mpf(0))}
# Largest |exponent| or |argument| evaluated: mpmath takes minutes for exact
# integer powers far past 1000, for exp of huge arguments (the doubles
# overflow past 710) and for the argument reduction of sin of huge ones.
_MP_LIMIT = {"^": 1000, "exp": 1000, "sinh": 1000, "cosh": 1000, "sin": 1e6, "cos": 1e6}


def _mp_eval(node, x, m=mpmath.mp, memo=None):
    """The value of node at x in mpmath context m (mp or iv); _Undefined off its domain.

    In mp, an infinite or NaN value counts as off the domain: 0^x * ln(0) is
    where the formula for d/dx of a power says nothing.
    """
    memo = {} if memo is None else memo
    if id(node) in memo:
        return memo[id(node)]
    if type(node) is Var:
        value = x
    elif type(node) is Num:
        value = m.mpf(node.value)
    elif type(node) is Const:
        value = m.mpf(expr._CONSTANTS[node.name])  # the double the language means
    else:
        args = [_mp_eval(arg, x, m, memo) for arg in node.args]
        size = [abs(arg).b if m is mpmath.iv else abs(arg) for arg in args]
        if size[-1] > _MP_LIMIT.get(node.kind, math.inf):
            raise _Undefined
        if node.kind == "^" and m is mpmath.mp and args[0] < 0 and args[1] != int(args[1]):
            raise _Undefined
        try:
            if len(args) == 2:
                value = _MP_OPS[node.kind](*args)
            else:
                value = _MP_CALLS[node.kind](m, args[0])
        except (ZeroDivisionError, ValueError, OverflowError, ComplexResult) as exc:
            # OverflowError: mpmath's exponent of exp(exp(1e167)) outgrows its integers
            raise _Undefined from exc
        if not isinstance(value, _REAL[m]) or (m is mpmath.mp and not mpmath.isfinite(value)):
            raise _Undefined
    memo[id(node)] = value
    return value


# Small literals keep most trees finite on the boxes below, so the checks
# bite; max_leaves bounds the trees' size.
_literals = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
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
    max_leaves=10,
)


# --------------------------------------------------------------------------
# d/dx
# --------------------------------------------------------------------------

def _numeric_derivative(fn, x, order=1):
    """mpmath's derivative of fn at x, by central differences at 80 digits.

    _Undefined unless fn is defined around x and two steps, 1e-15 and 1e-18,
    agree: a singularity within a step of x would change the difference with
    the step.
    """
    with mpmath.workdps(80):
        for t in (x - mpmath.mpf("1e-8"), x + mpmath.mpf("1e-8")):
            fn(t)
        coarse = mpmath.diff(fn, x, order, h=mpmath.mpf("1e-15"))
        fine = mpmath.diff(fn, x, order, h=mpmath.mpf("1e-18"))
    if abs(coarse - fine) > mpmath.mpf("1e-20") * max(abs(coarse), abs(fine)) + mpmath.mpf("1e-40"):
        raise _Undefined
    return fine


def _moderate(root, x) -> bool:
    """Whether every node of root is below 1e6 in magnitude at x, so that
    neither a difference of mpmath's steps nor a sum in a derivative tree,
    such as -1/x^2 + 1/sin(x)^2 near 0, is lost to cancellation."""
    memo = {}
    _mp_eval(root, x, memo=memo)
    return all(abs(value) < 1e6 for value in memo.values())


def _near_a_kink(root, x) -> bool:
    """Whether some abs node's argument is within 1e-6 of 0 at x, where no derivative is smooth."""
    stack = [root]
    while stack:
        node = stack.pop()
        if type(node) is Apply:
            if node.kind == "abs" and abs(_mp_eval(node.args[0], x)) < 1e-6:
                return True
            stack.extend(node.args)
    return False


def _mp_stable(node, x):
    """node at x at 100 digits; _Undefined unless 40 digits give the same value,
    since a sum that cancels, such as sin(x) - x cos(x) near 0, would not."""
    with mpmath.workdps(40):
        rough = _mp_eval(node, x)
    with mpmath.workdps(100):
        value = _mp_eval(node, x)
    if abs(rough - value) > mpmath.mpf("1e-30") * abs(value) + mpmath.mpf("1e-40"):
        raise _Undefined
    return value


# Points away from 0, and 0 itself: at tiny |x| the derivative trees of
# x/sin(x) and the like cancel far past any working precision.
_points = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-3, max_value=2.0),
    st.floats(min_value=-2.0, max_value=-1e-3),
)


def _agrees(symbolic, numeric):
    return abs(symbolic - numeric) <= mpmath.mpf("1e-15") * max(1, abs(numeric))


@settings(max_examples=300, deadline=None)
@given(_trees, _points)
def test_derivative_agrees_with_mpmath_diff(root, x):
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        derivative = calculus.derivative(root, {})
        try:
            assume(_moderate(root, x) and _moderate(derivative, x) and not _near_a_kink(root, x))
            numeric = _numeric_derivative(lambda t: _mp_eval(root, t), x)
            symbolic = _mp_stable(derivative, x)
        except _Undefined:
            assume(False)
        assume(max(abs(numeric), abs(symbolic)) < 1e6)
        assert _agrees(symbolic, numeric)


@settings(max_examples=300, deadline=None)
@given(_trees, _points)
def test_log_derivatives_agree_with_mpmath_diff_of_ln_f(root, x):
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        g1, g2 = calculus.log_derivatives(expr.Expression(root))

        def g(t):
            value = _mp_eval(root, t)
            if value == 0:
                raise _Undefined
            return mpmath.log(abs(value))

        try:
            assume(all(_moderate(node, x) for node in (root, g1, g2)) and not _near_a_kink(root, x))
            first = _numeric_derivative(g, x)
            second = _numeric_derivative(g, x, 2)
            symbolic = (_mp_stable(g1, x), _mp_stable(g2, x))
        except _Undefined:
            assume(False)
        assume(max(abs(first), abs(second), *map(abs, symbolic)) < 1e6)
        assert _agrees(symbolic[0], first)
        assert abs(symbolic[1] - second) <= mpmath.mpf("1e-12") * max(1, abs(second))


def test_every_node_kind_has_a_derivative_rule_and_an_interval_rule():
    assert list(calculus._RULES) == list(expr._OPS)


@pytest.mark.parametrize(
    "text, g2",
    [
        ("exp(0.5*x + 0.25)", Num(0.0)),
        ("exp(-1.5*x - 0.3)", Num(-0.0)),
        ("2.5*exp(x)/3", Num(0.0)),
        ("exp(x^2)", Num(2.0)),
        ("exp(1.25*x^2 + 0.5*x + 1)", Num(2.5)),
    ],
)
def test_ln_exp_cancels_so_g2_folds_to_a_literal(text, g2):
    assert calculus.log_derivatives(parse(text))[1] == g2


def test_a_power_of_an_affine_base_has_g2_minus_p_over_the_base_squared():
    # (x + s)^p: g' = p * (1/(x + s)), g'' = p * (-1/(x + s)^2); p = -1.5 parses as neg(1.5)
    base, p = parse("x + 0.5").root, parse("-1.5").root
    g1, g2 = calculus.log_derivatives(parse("(x + 0.5)^-1.5"))
    assert g1 == Apply("*", (p, Apply("/", (Num(1.0), base))))
    assert g2 == Apply("*", (p, Apply("/", (Num(-1.0), Apply("^", (base, Num(2.0)))))))


def test_folding_keeps_only_exact_constants():
    # 0.1 * 3 is not a double, so it stays a node; 0.25 * 3 is exact
    assert calculus._mul(Num(0.1), Num(3.0)) == Apply("*", (Num(0.1), Num(3.0)))
    assert calculus._mul(Num(0.25), Num(3.0)) == Num(0.75)
    assert calculus._sub(Num(0.0), Var()) == Apply("neg", (Var(),))
    assert calculus._div(Num(1.0), Num(0.0)) == Apply("/", (Num(1.0), Num(0.0)))


# --------------------------------------------------------------------------
# interval enclosures
# --------------------------------------------------------------------------

def _iv_value(root, x):
    """A 120-bit interval enclosure of root at the double x, or None off its domain."""
    prec, mpmath.iv.prec = mpmath.iv.prec, 120
    try:
        return _mp_eval(root, mpmath.iv.mpf(x), mpmath.iv)
    except _Undefined:
        return None
    finally:
        mpmath.iv.prec = prec


def _contains(lo: float, hi: float, value) -> bool:
    return lo <= value.a and value.b <= hi


@settings(max_examples=300, deadline=None)
@given(_trees, st.floats(min_value=-3.0, max_value=3.0), st.floats(min_value=0.0, max_value=2.0))
def test_enclosures_contain_mpmath_interval_values(root, lo, width):
    # the box [lo, hi] and the 17 sample points inside it, each as a box of
    # its own; every sample's tight mpmath enclosure must lie inside both
    hi = lo + width
    samples = np.linspace(lo, hi, 17)
    lows = np.concatenate(([lo], samples))
    highs = np.concatenate(([hi], samples))
    ((enc_lo, enc_hi),) = calculus.enclose((root,), lows, highs)
    assert np.all(enc_lo <= enc_hi)
    for i, x in enumerate(samples):
        value = _iv_value(root, float(x))
        if value is None or not (math.isfinite(value.a) and math.isfinite(value.b)):
            continue
        assert _contains(enc_lo[0], enc_hi[0], value), (x, value, enc_lo[0], enc_hi[0])
        assert _contains(enc_lo[i + 1], enc_hi[i + 1], value), (x, value)


@pytest.mark.parametrize(
    "text, lo, hi, expected",
    [
        ("x^2", -1.0, 2.0, (0.0, 4.0)),  # an even power through 0 is smooth
        ("x^3", -1.0, 2.0, (-1.0, 8.0)),
        ("cosh(x)", -1.0, 2.0, (1.0, math.cosh(2.0))),
        ("sin(x)", 0.0, 3.0, (0.0, 1.0)),
        ("cos(x)", 1.0, 4.0, (-1.0, math.cos(1.0))),
        # a literal's comparisons are Python bools, which once enclosed these as [-1, 1]
        ("cos(0.1)", 0.0, 1.0, (math.cos(0.1),) * 2),
        ("sin(1)", 0.0, 1.0, (math.sin(1.0),) * 2),
    ],
)
def test_enclosures_are_tight_on_monotone_pieces_and_extrema(text, lo, hi, expected):
    ((enc_lo, enc_hi),) = calculus.enclose((parse(text).root,), np.array([lo]), np.array([hi]))
    assert enc_lo[0] <= expected[0] and enc_hi[0] >= expected[1]
    assert enc_lo[0] >= expected[0] - 1e-15 and enc_hi[0] <= expected[1] + 1e-15


@pytest.mark.parametrize(
    "text, lo, hi",
    [
        ("abs(x)", -1.0, 1.0),  # not smooth at 0
        ("abs(x)", 0.0, 1.0),
        ("sqrt(x)", 0.0, 1.0),
        ("ln(x)", 0.0, 1.0),
        ("1/x", -1.0, 0.0),
        ("x^0.5", 0.0, 1.0),
        ("x^-2", -1.0, 1.0),
        ("0*ln(x)", -1.0, 1.0),  # 0 * inf is NaN, which encloses as the whole line
    ],
)
def test_a_node_that_is_not_smooth_on_its_box_encloses_as_the_whole_line(text, lo, hi):
    ((enc_lo, enc_hi),) = calculus.enclose((parse(text).root,), np.array([lo]), np.array([hi]))
    assert (enc_lo[0], enc_hi[0]) == (-math.inf, math.inf)


# --------------------------------------------------------------------------
# the modulus bracket
# --------------------------------------------------------------------------

def _power_limits(s, p, a, b):
    """The least exact value of the two limits of the defect ratio of (x + s)^p at 17 edges.

    The local term f(t) g''(t)/2 = (-p/2)(t+s)^(p-2) at each edge, and the
    edge term B(x, y) = f(y)(g(x) - g(y) - g'(y)(x - y))/(x - y)^2 at each
    pair of distinct edges, with g = p ln(t+s): the edges of
    ``modulus_bracket``, whose c_up encloses this value from above.
    """
    s, p = mpmath.mpf(s), mpmath.mpf(p)
    ts = [mpmath.mpf(float(t)) for t in np.linspace(a, b, 17)]
    local = min(-p / 2 * (t + s) ** (p - 2) for t in ts)
    edge = min((y + s) ** p * p * (mpmath.log((x + s) / (y + s)) - (x - y) / (y + s)) / (x - y) ** 2
               for x in ts for y in ts if x != y)
    return min(local, edge)


def _closed_form_modulus(case) -> float:
    """c* of the log-convex families: alpha min f, 0, and min (-p/2)(t+s)^(p-2) over the ends.

    A log-concave (x + s)^p, p > 0, has no closed form: its c* can lie below
    that local infimum (see the next test), so the reference there is the
    exact value c_up encloses, which is at least c*.
    """
    a, b = case.a, case.b
    if case.family == "exp_quadratic":
        alpha, beta, gamma = case.parameters
        ts = [a, b] + ([-beta / (2.0 * alpha)] if a < -beta / (2.0 * alpha) < b else [])
        ts = map(mpmath.mpf, ts)
        return alpha * min(mpmath.exp(alpha * t * t + beta * t + gamma) for t in ts)
    if case.family == "log_affine":
        return mpmath.mpf(0)
    s, p = (mpmath.mpf(v) for v in case.parameters)
    if p > 0:
        return _power_limits(s, p, a, b)
    return min(-p / 2 * (mpmath.mpf(t) + s) ** (p - 2) for t in (a, b))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_the_bracket_holds_the_closed_form_modulus_of_every_family(family):
    rng = np.random.default_rng(20260809)
    with mpmath.workdps(40):
        for _ in range(300):
            case = generate_case(family, rng)
            bracket = modulus_bracket(case.expression(), case.a, case.b)
            c_star = _closed_form_modulus(case)
            assert bracket.c_lo <= c_star <= bracket.c_up, case
            assert bracket.status is not None, case  # closed on every family
            if c_star > 0:
                assert bracket.status is CertStatus.CERTIFIED_POSITIVE
                assert bracket.c_lo >= c_star * (1 - 1e-13), case
            elif family == "log_affine":
                assert (bracket.c_lo, bracket.c_up) == (0.0, 0.0)
                assert bracket.status is CertStatus.CERTIFIED_ZERO
            else:
                assert bracket.status is CertStatus.NOT_LOG_CONVEX
                assert bracket.c_up <= c_star * (1 - 1e-12), case


def test_c_up_takes_the_edge_term_where_c_star_is_not_local():
    # an exact ratio at lam = 0.1 lies below the local term's infimum, so c*
    # does too; c_up encloses the edge term B(a, b), the ratio's limit as
    # lam tends to 0 at the corners, and lies below both
    s, p = 2.706363599016388, 1.4385075674032377
    a, b = -0.01350687882034629, 1.7279222471044688
    bracket = modulus_bracket(parse(f"(x + {s!r})^{p!r}"), a, b)
    with mpmath.workdps(40):
        ms, mp_, ma, mb = (mpmath.mpf(v) for v in (s, p, a, b))
        f = lambda t: (t + ms) ** mp_
        local = -mp_ / 2 * (ma + ms) ** (mp_ - 2)
        lam = mpmath.mpf("0.1")
        ratio = (f(ma) ** lam * f(mb) ** (1 - lam) - f(lam * ma + (1 - lam) * mb)) / (
            lam * (1 - lam) * (ma - mb) ** 2)
        edge = f(mb) * mp_ * (mpmath.log((ma + ms) / (mb + ms)) - (ma - mb) / (mb + ms)) / (ma - mb) ** 2
        assert ratio < local and edge < ratio
        assert edge <= bracket.c_up <= edge * (1 - 1e-13)
    assert bracket.status is CertStatus.NOT_LOG_CONVEX


@pytest.mark.parametrize(
    "text, a, b",
    [("exp(abs(x))", -1.0, 1.0), ("exp(x^4)", -1.0, 1.0), ("x", -1.0, 1.0), ("ln(x)", 0.0, 1.0)],
)
def test_the_bracket_is_open_where_it_cannot_decide(text, a, b):
    # |x| is not smooth at 0; g'' = 12x^2 vanishes at 0, so c_lo <= 0 <= c_up;
    # x and ln x are not positive on the interval
    bracket = modulus_bracket(parse(text), a, b)
    assert bracket.status is None
    assert bracket.c_lo <= 0.0 <= bracket.c_up


@pytest.mark.parametrize(
    "text, a, b",
    [
        ("^".join(["x"] * 100), 0.5, 1.5),  # a 100-level tower x^x^...^x
        ("*".join(f"(x + {i})" for i in range(1, 101)), 0.0, 1.0),  # 100 factors
        ("exp(" * 99 + "x" + ")" * 99, -30.0, -29.0),  # as deep as parse allows
    ],
    ids=["tower", "product", "nested_exp"],
)
def test_deep_and_wide_trees_get_a_bracket_in_bounded_time(text, a, b):
    f = parse(text)
    start = time.perf_counter()
    bracket = modulus_bracket(f, a, b)
    assert time.perf_counter() - start < 1.0
    assert bracket.c_lo <= bracket.c_up


def test_trees_past_the_node_budget_leave_the_bracket_open(monkeypatch):
    f = parse("exp(1.25*x^2 + 0.5*x + 1)")
    assert modulus_bracket(f, 0.0, 1.0).status is CertStatus.CERTIFIED_POSITIVE
    monkeypatch.setattr(calculus, "NODE_BUDGET", 5)
    bracket = modulus_bracket(f, 0.0, 1.0)
    assert (bracket.c_lo, bracket.c_up, bracket.status) == (-math.inf, math.inf, None)


_LAZY_CALCULUS = """
import sys
import hhcert
f = hhcert.parse("exp(x^2)")
hhcert.dragomir_mond_chain(f, 0.0, 1.0)
hhcert.theorem1_chain(f, 0.0, 1.0, 0.5)
hhcert.theorem2_bound(f, 0.0, 1.0, 0.5)
hhcert.integrate(f.eval_array, 0.0, 1.0)
hhcert.max_feasible_c(f, 0.0, 1.0)
before = "hhcert.calculus" in sys.modules
hhcert.modulus_bracket(f, 0.0, 1.0)
print(before, "hhcert.calculus" in sys.modules)
"""


def test_calculus_loads_on_the_first_bracket_and_not_before():
    # an eager import of the d/dx tables raised the peak RSS of every run
    # that only evaluates chains, so they load on the first modulus_bracket
    src = os.path.dirname(os.path.dirname(hhcert.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", _LAZY_CALCULUS], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "True"]


# --------------------------------------------------------------------------
# estimate_modulus clipped into the bracket
# --------------------------------------------------------------------------

def test_log_affine_certifies_zero_exactly_at_the_default_grid():
    # the grid alone once read c* between -1.4e-7 and -2e-11 here
    for text in ("exp(x)", "exp(-1.5*x + 0.3)", "exp(0.5*x + 0.25)"):
        cert = estimate_modulus(parse(text), -1.0, 1.0)
        assert (cert.c_star, cert.status) == (0.0, CertStatus.CERTIFIED_ZERO)


@pytest.mark.parametrize("text", ["exp(x)*cos(0)", "exp(x)*cos(0.1)", "exp(2*x)*sin(1)"])
def test_a_log_affine_f_with_a_trig_literal_certifies_zero(text):
    # each once certified not_log_convex, c_star about -3e-7 to -6e-7, from
    # an open bracket: sin and cos of a literal enclosed as [-1, 1]
    cert = estimate_modulus(parse(text), 0.1, 1.0)
    assert (cert.c_star, cert.status, cert.refinement_rounds) == (
        0.0, CertStatus.CERTIFIED_ZERO, 0)


@pytest.mark.parametrize("b", [1e-4, 1e-6, 1e-8, 1e-10])
def test_a_narrow_interval_certifies_the_proved_modulus(b):
    # the grid read c* = -25.27 on [0, 1e-4] and -9.2e12 on [0, 1e-10]; the
    # exact modulus is (1/2)(b + 0.5)^-3
    cert = estimate_modulus(parse("(x+0.5)^-1"), 0.0, b)
    assert cert.status is CertStatus.CERTIFIED_POSITIVE
    exact = 0.5 * (b + 0.5) ** -3
    assert exact * (1 - 1e-14) <= cert.c_star <= exact


def test_an_open_bracket_clips_the_grid_minimum():
    f = parse("exp(x^4)")  # c* = 0, which the bracket cannot prove
    bracket = modulus_bracket(f, -1.0, 1.0)
    cert = estimate_modulus(f, -1.0, 1.0, grid_n=16, refine_rounds=1)
    assert bracket.status is None
    assert bracket.c_lo <= cert.c_star <= bracket.c_up
