"""Chain evaluation tests: term values, orderings, degenerations, J, bounds."""

import dataclasses
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest

import hhcert.chains
import hhcert.expr
from hhcert.certify import NotPositiveError, estimate_modulus
from hhcert.chains import (
    DEFAULT_TOL,
    NotLogConvexError,
    classical_hh_terms,
    closed_form_J,
    dragomir_mond_chain,
    max_feasible_c,
    theorem1_chain,
    theorem2_bound,
)
from hhcert.expr import DomainError, Refused, parse
from hhcert.means import arithmetic_mean, logarithmic_mean
from hhcert.quadrature import integrate

EXP_X2 = parse("exp(x^2)")
EXP_X = parse("exp(x)")
ONE = parse("1")

EXP_X2_MEAN = 1.4626517459071816  # sum_n 1/(n!(2n+1)), 25 terms


def values(report):
    return [v for _, v in report.terms]


# --------------------------------------------------------------------------
# classical chain
# --------------------------------------------------------------------------

def test_classical_square():
    rep = classical_hh_terms(parse("x^2"), 0.0, 1.0)
    assert values(rep) == pytest.approx([0.25, 1.0 / 3.0, 0.5], rel=1e-12)
    assert rep.holds and rep.min_margin > 0


def test_classical_affine_collapses():
    rep = classical_hh_terms(parse("x"), 0.0, 2.0)
    assert values(rep) == pytest.approx([1.0, 1.0, 1.0], rel=1e-14)
    assert max(abs(m) for m in rep.margins) <= 1e-12
    assert rep.holds


def test_classical_running_example():
    rep = classical_hh_terms(EXP_X2, 0.0, 1.0)
    assert values(rep) == pytest.approx(
        [1.2840254166877414, EXP_X2_MEAN, 1.8591409142295225], rel=1e-9
    )
    assert rep.holds


def test_classical_and_dm_share_the_bits_of_f():
    # f(x) and the array path give the same bits, so both chains report the
    # same midpoint value and endpoint average
    f = parse("exp(2.893911876651373*x^2 + -1.0178458949748617*x + -0.7276690233553447)")
    a, b = 0.7081500315732305, 0.9789235812032859
    classical = dict(classical_hh_terms(f, a, b).terms)
    dm = dict(dragomir_mond_chain(f, a, b).terms)
    for name in ("midpoint_value", "endpoint_average"):
        assert np.float64(classical[name]).view(np.uint64) == np.float64(dm[name]).view(np.uint64)


def test_classical_allows_sign_changing_functions():
    # plain convexity does not need positivity
    rep = classical_hh_terms(parse("x^2 - 1"), -2.0, 2.0)
    assert rep.holds


# --------------------------------------------------------------------------
# six-term chain
# --------------------------------------------------------------------------

def test_dm_constant_collapses_entirely():
    rep = dragomir_mond_chain(parse("3.25"), -1.0, 2.0)
    assert values(rep) == pytest.approx([3.25] * 6, rel=1e-12)
    assert max(abs(m) for m in rep.margins) <= 1e-12 * 3.25
    assert rep.holds


def test_dm_log_affine_collapses_first_three_terms():
    rep = dragomir_mond_chain(EXP_X, 0.0, 1.0)
    expected = [
        math.sqrt(math.e),
        math.sqrt(math.e),
        math.sqrt(math.e),
        math.e - 1.0,
        math.e - 1.0,
        (1.0 + math.e) / 2.0,
    ]
    assert values(rep) == pytest.approx(expected, rel=1e-9)
    assert rep.holds
    names = [n for n, _ in rep.terms]
    assert names == [
        "midpoint_value",
        "exp_mean_log",
        "mean_geometric_reflected",
        "mean_integral",
        "log_mean_endpoints",
        "endpoint_average",
    ]


def test_dm_running_example_strictly_increases():
    rep = dragomir_mond_chain(EXP_X2, 0.0, 1.0)
    assert rep.holds
    assert all(m > 0 for m in rep.margins)
    assert values(rep)[3] == pytest.approx(EXP_X2_MEAN, abs=1e-9)


def test_dm_evaluates_f_twice_per_quadrature_node(monkeypatch):
    counts = {"nodes": 0, "points": 0, "inside": False}
    integrate_, evaluate_array = hhcert.chains.integrate, hhcert.expr.evaluate_array

    def counting_integrate(*args, **kwargs):
        counts["inside"] = True
        try:
            result = integrate_(*args, **kwargs)
        finally:
            counts["inside"] = False
        counts["nodes"] += result.evaluations
        return result

    def counting_evaluate_array(f, xs):
        values = evaluate_array(f, xs)
        counts["points"] += values.size if counts["inside"] else 0
        return values

    monkeypatch.setattr(hhcert.chains, "integrate", counting_integrate)
    monkeypatch.setattr(hhcert.expr, "evaluate_array", counting_evaluate_array)
    dragomir_mond_chain(parse("(x + 0.05)^-1.5"), 0.0, 1.0)
    assert counts["nodes"] > 15
    assert counts["points"] == 2 * counts["nodes"]


def test_dm_rejects_non_positive_function():
    with pytest.raises(NotPositiveError):
        dragomir_mond_chain(parse("x"), -1.0, 1.0)


# --------------------------------------------------------------------------
# strengthened chain
# --------------------------------------------------------------------------

def test_theorem1_constant_with_unit_modulus():
    rep = theorem1_chain(ONE, 0.0, 1.0, 1.0)
    assert values(rep) == pytest.approx(
        [1.0 + 1.0 / 12.0, 1.0, 1.0, 1.0 - 1.0 / 6.0, 1.0 - 1.0 / 6.0], rel=1e-12
    )
    assert not rep.holds
    assert rep.margins[0] == pytest.approx(-1.0 / 12.0, abs=1e-12)
    assert rep.min_margin == pytest.approx(-1.0 / 6.0, abs=1e-12)


def test_theorem1_holds_at_certified_modulus():
    cert = estimate_modulus(EXP_X2, 0.0, 1.0, grid_n=32, refine_rounds=2)
    rep = theorem1_chain(EXP_X2, 0.0, 1.0, cert.c_star)
    assert rep.holds and rep.min_margin > 0


def test_theorem1_degenerates_bitwise_at_zero_modulus():
    corpus = [
        (EXP_X2, 0.0, 1.0),
        (EXP_X, 0.0, 1.0),
        (parse("2.5"), -1.0, 2.0),
        (parse("exp(1.3*x^2 - 0.7*x + 0.2)"), -0.8, 1.1),
        (parse("(x + 2.5)^-1.25"), -1.0, 1.0),
    ]
    for f, a, b in corpus:
        t1 = theorem1_chain(f, a, b, 0.0)
        dm = dragomir_mond_chain(f, a, b)
        vt, vd = values(t1), values(dm)
        assert vt[0] == vd[0]
        assert vt[1] == vd[2]
        assert vt[2] == vd[3]
        assert vt[3] == vd[4]
        assert vt[4] == vd[5]


def test_theorem1_min_margin_nonincreasing_in_c():
    cert = estimate_modulus(EXP_X2, 0.0, 1.0, grid_n=16, refine_rounds=1)
    c = cert.c_star / 2.0
    m1 = theorem1_chain(EXP_X2, 0.0, 1.0, c).min_margin
    m2 = theorem1_chain(EXP_X2, 0.0, 1.0, 2.0 * c).min_margin
    assert m2 <= m1 + 1e-15


def test_theorem1_rejects_negative_modulus():
    with pytest.raises(ValueError):
        theorem1_chain(EXP_X2, 0.0, 1.0, -0.5)


# --------------------------------------------------------------------------
# closed-form J
# --------------------------------------------------------------------------

def test_J_at_one_is_exactly_one_sixth():
    assert closed_form_J(1.0) == 1.0 / 6.0


def test_J_at_e():
    # (e(1-2) + 1 + 2)/1 = 3 - e
    assert closed_form_J(math.e) == pytest.approx(3.0 - math.e, rel=1e-13)


@pytest.mark.parametrize("u", [5.0, 0.2, 37.5, 1.0001, 0.75])
def test_J_reflection_identity(u):
    # substitution t -> 1-t gives u*J(1/u) = J(u)
    assert u * closed_form_J(1.0 / u) == pytest.approx(closed_form_J(u), rel=1e-12)


def test_J_matches_quadrature_across_scales():
    for u in np.logspace(-3, 3, 40):
        u = float(u)
        oracle = integrate(lambda ts: ts * (1 - ts) * np.power(u, ts), 0.0, 1.0, 1e-12)
        assert closed_form_J(u) == pytest.approx(oracle.value, abs=1e-10)


def test_J_accurate_through_the_branch_switch():
    # both sides of |ln u| = 0.25 agree with quadrature to 1e-12 relative
    for k in [-0.2501, -0.2499, -0.01, 1e-5, 0.01, 0.2499, 0.2501]:
        u = math.exp(k)
        oracle = integrate(lambda ts: ts * (1 - ts) * np.power(u, ts), 0.0, 1.0, 1e-13)
        assert closed_form_J(u) == pytest.approx(oracle.value, rel=1e-12)


def test_J_rejects_bad_input():
    for bad in [0.0, -1.0, float("inf"), float("nan")]:
        with pytest.raises(ValueError):
            closed_form_J(bad)


# --------------------------------------------------------------------------
# product-integral bound
# --------------------------------------------------------------------------

def test_theorem2_zero_modulus_reduces_to_endpoint_product():
    rep = theorem2_bound(EXP_X2, 0.0, 1.0, 0.0)
    assert rep.rhs_corrected == EXP_X2(0.0) * EXP_X2(1.0)
    assert rep.rhs_as_printed is None
    # e^{x^2} e^{(1-x)^2} integrates to something below f(0) f(1) = e
    assert rep.holds_corrected


def test_theorem2_equal_endpoints_bracket():
    # f(a) = f(b) = p makes k = 0 and bracket = 2 p J(1) = p/3
    rep = theorem2_bound(parse("2.5"), 0.0, 1.0, 0.5, form="both")
    assert rep.k == 0.0
    assert rep.bracket_value == pytest.approx(2.5 / 3.0, rel=1e-14)
    assert not rep.printed_applicable and rep.rhs_as_printed is None
    expected_rhs = 2.5 * 2.5 + 0.5**2 / 30.0 - 0.5 * 2.5 / 3.0
    assert rep.rhs_corrected == pytest.approx(expected_rhs, rel=1e-14)


def test_theorem2_holds_at_certified_modulus():
    cert = estimate_modulus(EXP_X2, 0.0, 1.0, grid_n=32, refine_rounds=2)
    rep = theorem2_bound(EXP_X2, 0.0, 1.0, cert.c_star, form="both")
    assert rep.holds_corrected
    assert rep.printed_applicable  # f(1) - f(0) = e - 1 > 0 and != 1
    assert rep.holds_as_printed is not None


def test_theorem2_manual_recomputation():
    f = parse("exp(0.8*x^2 + 0.1*x)")
    a, b, c = -0.5, 1.25, 0.37
    rep = theorem2_bound(f, a, b, c)
    fa, fb = f(a), f(b)
    bracket = fb * closed_form_J(fa / fb) + fa * closed_form_J(fb / fa)
    q2 = c * (b - a) ** 2
    assert rep.bracket_value == bracket
    assert rep.rhs_corrected == pytest.approx(fa * fb + q2 * q2 / 30.0 - q2 * bracket, rel=1e-14)
    assert rep.k == pytest.approx(math.log(fa / fb), rel=1e-14)


def test_theorem2_bracket_matches_mean_identity():
    # f(b) J(f(a)/f(b)) + f(a) J(f(b)/f(a)) = 4 (A - L)/k^2
    rng = np.random.default_rng(21)
    for _ in range(300):
        fa = float(10.0 ** rng.uniform(-3, 3))
        fb = float(10.0 ** rng.uniform(-3, 3))
        k = math.log(fa / fb)
        if abs(k) <= 1e-3:
            continue
        bracket = fb * closed_form_J(fa / fb) + fa * closed_form_J(fb / fa)
        identity = 4.0 * (arithmetic_mean(fa, fb) - logarithmic_mean(fa, fb)) / k**2
        assert bracket == pytest.approx(identity, rel=1e-10)
        assert bracket >= 0.0


def test_theorem2_printed_form_applicability():
    # f decreasing: f(b) - f(a) < 0, the printed logarithm does not exist
    rep = theorem2_bound(parse("exp(-x)"), 0.0, 1.0, 0.1, form="both")
    assert not rep.printed_applicable
    assert rep.rhs_as_printed is None and rep.holds_as_printed is None
    # f(b) - f(a) = 1 exactly: the printed denominator ln(1)^2 vanishes
    rep = theorem2_bound(parse("x + 1"), 0.0, 1.0, 0.1, form="both")
    assert not rep.printed_applicable
    assert rep.rhs_as_printed is None


@pytest.mark.parametrize("text", ["exp(700*x)", "exp(-700*x)", "exp(353*x)"])
def test_theorem2_takes_k_from_the_logs_where_an_end_ratio_leaves_the_doubles(text):
    # on [-1, 1], f(a)/f(b) = exp(-1400) underflows as f(b)/f(a) overflows
    # (mirrored for the decreasing f), and J(exp(706)) overflows although
    # exp(706) is a double; the bracket once raised or came out infinite
    f = parse(text)
    rep = theorem2_bound(f, -1.0, 1.0, 0.0, form="both")
    assert rep.holds_corrected
    fa, fb = f(-1.0), f(1.0)
    assert rep.k == math.log(fa) - math.log(fb)
    identity = 4.0 * (arithmetic_mean(fa, fb) - logarithmic_mean(fa, fb)) / rep.k**2
    assert rep.bracket_value == pytest.approx(identity, rel=1e-12)


def test_theorem2_lhs_reflection_invariant():
    # replacing f(x) by f(a+b-x) leaves the product integrand unchanged
    tol = 1e-10
    lhs1 = theorem2_bound(EXP_X2, 0.0, 1.0, 0.0, tol=tol).lhs
    lhs2 = theorem2_bound(parse("exp((1-x)^2)"), 0.0, 1.0, 0.0, tol=tol).lhs
    assert abs(lhs1 - lhs2) <= 2 * tol * max(1.0, abs(lhs1))


def test_theorem2_form_validation():
    with pytest.raises(ValueError):
        theorem2_bound(EXP_X2, 0.0, 1.0, 0.0, form="fancy")


# --------------------------------------------------------------------------
# max feasible modulus
# --------------------------------------------------------------------------

def test_maxc_constant_is_zero():
    assert abs(max_feasible_c(ONE, 0.0, 1.0)) <= 1e-9


def test_maxc_log_affine_nonnegative():
    assert max_feasible_c(EXP_X, 0.0, 1.0) >= 0.0


def _maxc_corpus():
    # seeded log-convex functions of every shape the closed form meets:
    # strictly log-convex, power-law, log-affine (margin G - f_m is 0) and
    # constant (every margin is 0)
    rng = np.random.default_rng(2012)
    cases = [pytest.param("exp(x^2)", 0.0, 1.0, id="exp_x2")]
    for family in ("exp_quadratic", "power", "log_affine", "constant"):
        for i in range(4):
            a, b = sorted(float(x) for x in rng.uniform(-2.0, 2.0, size=2))
            b = max(b, a + 0.1)
            alpha = float(rng.uniform(0.05, 3.0))
            beta, gamma = float(rng.uniform(-2.0, 2.0)), float(rng.uniform(-1.0, 1.0))
            text = {
                "exp_quadratic": f"exp({alpha!r}*x^2 + {beta!r}*x + {gamma!r})",
                "power": f"(x + {0.1 - a + alpha!r})^{-alpha!r}",
                "log_affine": f"exp({beta!r}*x + {gamma!r})",
                "constant": repr(math.exp(3.0 * gamma)),
            }[family]
            cases.append(pytest.param(text, a, b, id=f"{family}-{i}"))
    return cases


@pytest.mark.parametrize("text,a,b", _maxc_corpus())
def test_maxc_dominates_certificate(text, a, b):
    f = parse(text)
    cert = estimate_modulus(f, a, b, grid_n=32, refine_rounds=2)
    value = max_feasible_c(f, a, b)
    assert isinstance(value, float)
    assert value >= cert.c_star
    # the boundary is where the chain, judged as maxc judges it, stops holding
    tol = DEFAULT_TOL
    above = value + 1e-9 * max(1.0, value)
    assert theorem1_chain(f, a, b, value, tol, margin_tol=tol).holds
    assert not theorem1_chain(f, a, b, above, tol, margin_tol=tol).holds


def test_maxc_does_not_run_the_certifier(monkeypatch):
    expected = max_feasible_c(EXP_X2, 0.0, 1.0)

    def no_grid(*args, **kwargs):
        raise AssertionError("max_feasible_c ran the grid certifier")

    monkeypatch.setattr("hhcert.certify._min_over_grid", no_grid)
    assert max_feasible_c(EXP_X2, 0.0, 1.0) == expected


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 5: the verdict tolerance adds about 6*tol/w^2 to max_feasible_c, "
    "so at w = 1e-5 it returns 7.0, the tolerance's answer rather than the chain's",
)
def test_maxc_on_a_narrow_interval_is_the_chains_answer():
    # exp(x^2) on [0, w] has a largest feasible c that tends to 1 as w -> 0
    assert max_feasible_c(EXP_X2, 0.0, 1e-5) == pytest.approx(1.0, rel=0.01)


def test_maxc_serializes_f_at_most_once(monkeypatch):
    # max_feasible_c builds two to eight reports only to read their verdicts;
    # each carries f's canonical text, which is built once per expression
    f = parse("exp(0.5*x^2 + 0.25*x)")
    text = hhcert.expr._text
    serializations = []

    def counting_text(node):
        if node is f.root:
            serializations.append(node)
        return text(node)

    monkeypatch.setattr(hhcert.expr, "_text", counting_text)
    max_feasible_c(f, 0.0, 1.0)
    assert len(serializations) <= 1


@pytest.mark.parametrize("margin_tol", [math.inf, math.nan, -1e-9, 0.0])
def test_every_check_refuses_a_margin_tol_that_is_not_positive_and_finite(margin_tol):
    # at inf the dm chain of log-concave exp(-x^2) once held, and nan or a
    # negative tolerance once failed the chains of exp(x^2), which hold
    checks = [
        lambda f: classical_hh_terms(f, 0.0, 1.0, margin_tol=margin_tol),
        lambda f: dragomir_mond_chain(f, 0.0, 1.0, margin_tol=margin_tol),
        lambda f: theorem1_chain(f, 0.0, 1.0, 0.5, margin_tol=margin_tol),
        lambda f: theorem2_bound(f, 0.0, 1.0, 0.5, margin_tol=margin_tol, form="both"),
    ]
    for f in (parse("exp(-x^2)"), EXP_X2):
        for check in checks:
            with pytest.raises(Refused, match=rf"^margin_tol must be positive and finite, "
                                              rf"got {re.escape(repr(margin_tol))}$"):
                check(f)
    assert not dragomir_mond_chain(parse("exp(-x^2)"), 0.0, 1.0).holds


def test_maxc_rejects_a_tolerance_that_bounds_nothing():
    # at tol >= 1 the verdict tolerance can grow as fast as the margins fall
    message = r"^tol=1\.5 lets the chain hold for every c; need tol < 1$"
    with pytest.raises(ValueError, match=message):
        max_feasible_c(EXP_X2, 0.0, 1.0, tol=1.5)
    assert theorem1_chain(EXP_X2, 0.0, 1.0, 377.0, 1.5, margin_tol=1.5).holds


def test_maxc_on_an_interval_too_narrow_for_c_to_move_a_term_names_the_width():
    # (b - a)^2 underflows to 0, or all but, so no tolerance below 1 is to blame
    for width in (1e-162, 1e-200):
        with pytest.raises(ValueError) as err:
            max_feasible_c(EXP_X2, 0.0, width)
        message = str(err.value)
        assert message.startswith(f"b - a = {width!r} is too narrow for tol=1e-10:")
        assert "c*(b - a)^2 never moves a term past its tolerance" in message
        assert "need tol < 1" not in message


@pytest.mark.parametrize("width", [1e-159, 1e-160, 1e-161])
def test_maxc_refuses_a_width_whose_solved_c_is_not_finite(width):
    # (b - a)^2 is deep among the subnormals, so the root or its ulp step
    # overflows; the walk-down once turned inf - 0*inf into a silent 0.0
    with pytest.raises(ValueError, match=rf"^b - a = {width!r} is too narrow for tol=1e-10: "
                                         r"the solved c_max=\S+ or its ulp step \S+ is not"):
        max_feasible_c(EXP_X2, 0.0, width)
    assert theorem1_chain(EXP_X2, 0.0, width, 1e300).holds


@pytest.mark.parametrize("width", [1e-155, 1e-158])
def test_maxc_solves_the_widths_just_wider_than_the_refused_ones(width):
    # the margins are ~width^2 here, so tol decides: c*width^2/6 first passes
    # tol*|term| ~ tol at c ~ 6*tol/width^2, and 6e306 is still a double
    expected = 6.0 * DEFAULT_TOL / width**2
    assert max_feasible_c(EXP_X2, 0.0, width) == pytest.approx(expected, rel=1e-5)


def test_maxc_raises_for_non_log_convex():
    with pytest.raises(NotLogConvexError) as err:
        max_feasible_c(parse("exp(-x^2)"), 0.0, 1.0)
    assert err.value.report.min_margin < 0


def test_chains_hold_at_the_exact_modulus_of_exp_quadratic():
    # for f = exp(alpha x^2 + beta x + gamma) the maximal modulus is exactly
    # alpha * min f (the exponent is quadratic), so both bounds must hold at
    # that value -- no grid estimate involved
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 15:
        alpha = float(rng.uniform(0.05, 3.0))
        beta = float(rng.uniform(-2.0, 2.0))
        gamma = float(rng.uniform(-1.0, 1.0))
        a, b = sorted(rng.uniform(-2.0, 2.0, size=2))
        if b - a < 0.15:
            continue
        checked += 1
        f = parse(f"exp({alpha!r}*x^2 + {beta!r}*x + {gamma!r})")
        vertex = -beta / (2.0 * alpha)
        candidates = [a, b] + ([vertex] if a < vertex < b else [])
        c_true = alpha * min(
            math.exp(alpha * x * x + beta * x + gamma) for x in candidates
        )
        assert theorem1_chain(f, a, b, c_true).holds
        assert theorem2_bound(f, a, b, c_true).holds_corrected


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda: theorem1_chain(EXP_X2, 0.0, 2.0, 1e308),
         r"term midpoint_plus_correction is inf at c=1e\+308"),
        (lambda: theorem2_bound(EXP_X2, 0.0, 1.0, 1e200), r"term rhs_corrected is inf at c=1e\+200"),
        (lambda: theorem1_chain(EXP_X2, 0.0, 1.0, math.inf), "modulus must be finite"),
        (lambda: theorem2_bound(EXP_X2, 0.0, 1.0, math.inf), "modulus must be finite"),
    ],
)
def test_no_verdict_rests_on_a_non_finite_term(check, message):
    # the verdict tolerance scales with the largest term, so an infinite term
    # would pass any margin
    with pytest.raises(ValueError, match=message):
        check()


def test_no_verdict_rests_on_an_integral_that_did_not_converge():
    # absolute 1e-20 is far below one ulp of these integrals, so the roundoff
    # floor stops the quadrature short of it; every chain once gave a verdict
    for check in (classical_hh_terms, dragomir_mond_chain,
                  lambda f, a, b, tol: theorem1_chain(f, a, b, 0.5, tol),
                  lambda f, a, b, tol: theorem2_bound(f, a, b, 0.5, tol=tol),
                  lambda f, a, b, tol: max_feasible_c(f, a, b, tol=tol)):
        with pytest.raises(ValueError, match=r"the integral over \[0.0, 1.0\] did not converge "
                                             r"for f\(x\) \(error estimate "):
            check(EXP_X2, 0.0, 1.0, tol=1e-20)


def test_a_mean_within_its_tolerance_passes_on_a_wide_interval():
    # the integral of 1 over [-1e160, 1e160] misses the absolute 1e-10 by its
    # roundoff floor alone, but its mean is 1 to a few ulps
    assert classical_hh_terms(ONE, -1e160, 1e160).holds
    assert dragomir_mond_chain(ONE, -1e160, 1e160).holds


def test_an_overflowing_integral_stops_the_chain_by_name(monkeypatch):
    # the product row f(x) f(a+b-x) = 1e300 times the half width 1e160
    # overflows in every panel; refinement once split them down to depth 50
    class Runaway(BaseException):
        pass

    evaluate_array, calls = hhcert.expr.evaluate_array, []

    def bounded_evaluate_array(f, xs):
        calls.append(f)
        if len(calls) > 300:
            raise Runaway
        return evaluate_array(f, xs)

    monkeypatch.setattr(hhcert.expr, "evaluate_array", bounded_evaluate_array)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"the integral overflows on the panel "
                                             r"\[-1e\+160, 1e\+160\]: K15 sum \[inf, "):
            dragomir_mond_chain(parse("1e150"), -1e160, 1e160)
    assert len(calls) < 10


# --------------------------------------------------------------------------
# the kept result of the last means pass
# --------------------------------------------------------------------------

# the checks that read _means, in the order a user runs them on one f
_MEANS_CHECKS = (
    lambda f, a, b, tol: dragomir_mond_chain(f, a, b, tol),
    lambda f, a, b, tol: theorem1_chain(f, a, b, 0.3, tol),
    lambda f, a, b, tol: theorem2_bound(f, a, b, 0.3, tol, form="both"),
    lambda f, a, b, tol: max_feasible_c(f, a, b, tol),
)


def forget_means():
    hhcert.chains._last_means = ((), None)


def bits(value):
    """``value`` with every float, also inside reports and tuples, as float.hex."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.astuple(value)
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    return value.hex() if isinstance(value, float) else value


@pytest.fixture
def passes(monkeypatch):
    """The (a, b) of every quadrature pass the chains make."""
    calls = []

    def counting_integrate(g, a, b, tol):
        calls.append((a, b))
        return integrate(g, a, b, tol)

    monkeypatch.setattr(hhcert.chains, "integrate", counting_integrate)
    return calls


def test_back_to_back_checks_of_one_f_share_one_means_pass(passes):
    f, a, b = parse("(x + 0.05)^-1.5"), 0.0, 1.0
    fresh = []
    for check in _MEANS_CHECKS:
        forget_means()
        fresh.append(bits(check(f, a, b, DEFAULT_TOL)))
    assert len(passes) == len(_MEANS_CHECKS)
    forget_means()
    passes.clear()
    shared = [bits(check(f, a, b, DEFAULT_TOL)) for check in _MEANS_CHECKS]
    assert len(passes) == 1
    assert shared == fresh


@pytest.mark.parametrize(
    "first, second",
    [
        # exp(x*x) has exp(x^2)'s values, but the key is the text
        (("exp(x^2)", 0.0, 1.0, DEFAULT_TOL), ("exp(x*x)", 0.0, 1.0, DEFAULT_TOL)),
        (("exp(x^2)", 0.0, 1.0, DEFAULT_TOL), ("exp(x^2)", 0.0, math.nextafter(1.0, 2.0), DEFAULT_TOL)),
        (("exp(x^2)", 0.0, 1.0, DEFAULT_TOL), ("exp(x^2)", 0.0, 1.0, 2.0 * DEFAULT_TOL)),
        (("exp(x^2)", 0.0, 1.0, DEFAULT_TOL), ("exp(x^2)", -0.0, 1.0, DEFAULT_TOL)),
    ],
    ids=["text", "b_ulp", "tol", "zero_sign"],
)
def test_a_change_to_any_part_of_the_key_recomputes(passes, first, second):
    text, a, b, tol = first
    dragomir_mond_chain(parse(text), a, b, tol)
    text, a, b, tol = second
    shared = bits(dragomir_mond_chain(parse(text), a, b, tol))
    assert len(passes) == 2
    forget_means()
    assert shared == bits(dragomir_mond_chain(parse(text), a, b, tol))


@pytest.mark.parametrize("ends", [(0.0, -0.0), (-0.0, 0.0)], ids=["plus_first", "minus_first"])
def test_the_sign_of_a_zero_end_is_part_of_the_key(ends):
    # at x = 0.0, -1/x = -inf and f = 1; at x = -0.0 the division leaves the
    # domain, so the two intervals must never share a pass
    f = parse("1 + exp(-1/x)")
    for a in ends:
        if math.copysign(1.0, a) > 0.0:
            assert dragomir_mond_chain(f, a, 1.0).holds
        else:
            with pytest.raises(DomainError):
                dragomir_mond_chain(f, a, 1.0)


def test_a_refused_input_is_refused_again(passes):
    # the roundoff floor stops the pass short of an absolute 1e-20
    for _ in range(2):
        with pytest.raises(ValueError, match="did not converge"):
            dragomir_mond_chain(EXP_X2, 0.0, 1.0, tol=1e-20)
    assert len(passes) == 2
    for _ in range(2):
        with pytest.raises(NotPositiveError):
            dragomir_mond_chain(parse("x - 0.5"), 0.0, 1.0)


def test_alternating_two_functions_recomputes_every_time(passes):
    for _ in range(3):
        dragomir_mond_chain(EXP_X2, 0.0, 1.0)
        dragomir_mond_chain(EXP_X, 0.0, 1.0)
    assert len(passes) == 6


def test_threads_that_share_the_kept_means_get_the_serial_bits():
    # more threads than cores, switching often, each on its own f
    texts = ("exp(x^2)", "(x + 0.05)^-1.5", "exp(0.7*x - 0.3)", "2.5")
    rounds = 50

    def run(f):
        return bits((dragomir_mond_chain(f, 0.0, 1.0), theorem2_bound(f, 0.0, 1.0, 0.3, form="both")))

    serial = {text: run(parse(text)) for text in texts}
    results = {text: [] for text in texts}

    def worker(text):
        f = parse(text)
        for _ in range(rounds):
            results[text].append(run(f))

    threads = [threading.Thread(target=worker, args=(text,)) for text in texts]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for text in texts:
        assert results[text] == [serial[text]] * rounds


# --------------------------------------------------------------------------
# bit pins
# --------------------------------------------------------------------------

# float.hex of the Theorem 1 terms at c = 0, 0.3 and 7, the Dragomir-Mond
# terms, Theorem 2's rhs_corrected at the same c, and max_feasible_c, for a
# strictly log-convex f, a negative power, a log-affine f and a constant
_BIT_PINS = {
    ("exp(x^2)", 0.0, 1.0): """
        t1@0.0 0x1.48b5e3c3e8186p+0 0x1.6649359c771b2p+0 0x1.767058461bd06p+0
               0x1.b7e151628aed2p+0 0x1.dbf0a8b145769p+0
        t1@0.3 0x1.4f1c4a2a4e7ecp+0 0x1.6649359c771b2p+0 0x1.767058461bd06p+0
               0x1.ab148495be205p+0 0x1.cf23dbe478a9cp+0
        t1@7.0 0x1.de0b39193d6dcp+0 0x1.6649359c771b2p+0 0x1.767058461bd06p+0
               0x1.1a6d4d6fc084ep-1 0x1.628bfc0d3597cp-1
        dm 0x1.48b5e3c3e8186p+0 0x1.6546db1ba2d13p+0 0x1.6649359c771b2p+0
           0x1.767058461bd06p+0 0x1.b7e151628aed2p+0 0x1.dbf0a8b145769p+0
        t2 0x1.5bf0a8b145769p+1 0x1.46b028882d9aep+1 0x1.a1579ba1181c0p-2
        maxc 0x1.62e7d62f183e7p+0
    """,
    ("(x + 0.5)^-1.5", 0.0, 1.0): """
        t1@0.0 0x1.0000000000000p+0 0x1.12858f145f098p+0 0x1.3207f5cf24b5bp+0
               0x1.62d41f461a87bp+0 0x1.afb68a3d69882p+0
        t1@0.3 0x1.0666666666666p+0 0x1.12858f145f098p+0 0x1.3207f5cf24b5bp+0
               0x1.560752794dbaep+0 0x1.a2e9bd709cbb5p+0
        t1@7.0 0x1.9555555555556p+0 0x1.12858f145f098p+0 0x1.3207f5cf24b5bp+0
               0x1.c14ba4db7ee80p-3 0x1.0a17bf257dbaep-1
        dm 0x1.0000000000000p+0 0x1.11f875032d36dp+0 0x1.12858f145f098p+0
           0x1.3207f5cf24b5bp+0 0x1.62d41f461a87bp+0 0x1.afb68a3d69882p+0
        t2 0x1.8a2345cc04426p+0 0x1.68ee811076570p+0 0x1.38a9f0c7e9ea0p-4
        maxc 0x1.bc8569f8cd1d4p-1
    """,
    ("exp(0.7*x - 0.3)", -1.0, 2.0): """
        t1@0.0 0x1.0d201a422a433p+0 0x1.0d201a422a432p+0 0x1.41603a354968bp+0
               0x1.41603a354968ap+0 0x1.af9f2f90a7378p+0
        t1@0.3 0x1.46b9b3dbc3dccp+0 0x1.0d201a422a432p+0 0x1.41603a354968bp+0
               0x1.9c5a0e042c6aep-1 0x1.3c6bfc5d74045p+0
        t1@7.0 0x1.934806908a90dp+2 0x1.0d201a422a432p+0 0x1.41603a354968bp+0
               -0x1.27d3f8b956d2fp+3 -0x1.1a0c1a0deb191p+3
        dm 0x1.0d201a422a433p+0 0x1.0d201a422a432p+0 0x1.0d201a422a432p+0
           0x1.41603a354968bp+0 0x1.41603a354968ap+0 0x1.af9f2f90a7378p+0
        t2 0x1.1aec7b35a00d3p+0 0x1.2c911ecdce8f8p-2 0x1.b32fd333083acp+6
        maxc 0x1.ee58b06c7f0b7p-34
    """,
    ("2.5", 0.0, 1.0): """
        t1@0.0 0x1.4000000000000p+1 0x1.4000000000001p+1 0x1.4000000000001p+1
               0x1.4000000000000p+1 0x1.4000000000000p+1
        t1@0.3 0x1.4333333333333p+1 0x1.4000000000001p+1 0x1.4000000000001p+1
               0x1.399999999999ap+1 0x1.399999999999ap+1
        t1@7.0 0x1.8aaaaaaaaaaabp+1 0x1.4000000000001p+1 0x1.4000000000001p+1
               0x1.5555555555555p+0 0x1.5555555555555p+0
        dm 0x1.4000000000000p+1 0x1.4000000000000p+1 0x1.4000000000001p+1
           0x1.4000000000001p+1 0x1.4000000000000p+1 0x1.4000000000000p+1
        t2 0x1.9000000000000p+2 0x1.803126e978d50p+2 0x1.0666666666666p+1
        maxc 0x1.9c50bdc3fca94p-30
    """,
}


def _bit_record(text, a, b):
    """The words of ``_BIT_PINS[text, a, b]``, computed afresh."""
    f = parse(text)
    words = []
    for c in (0.0, 0.3, 7.0):
        words += [f"t1@{c!r}"] + [v.hex() for v in values(theorem1_chain(f, a, b, c))]
    words += ["dm"] + [v.hex() for v in values(dragomir_mond_chain(f, a, b))]
    words += ["t2"] + [theorem2_bound(f, a, b, c).rhs_corrected.hex() for c in (0.0, 0.3, 7.0)]
    return words + ["maxc", max_feasible_c(f, a, b).hex()]


@pytest.mark.parametrize("case", list(_BIT_PINS), ids=lambda case: case[0])
def test_chain_terms_and_maxc_keep_their_bits(case):
    assert _bit_record(*case) == _BIT_PINS[case].split()
