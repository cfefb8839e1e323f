"""Evaluate the Hermite-Hadamard-type inequality chains and their margins.

Four checks are provided, each producing a report with the chain terms in
left-to-right order, the consecutive margins term[i+1] - term[i], and a
verdict:

* ``classical_hh_terms``: midpoint value <= mean integral <= endpoint mean
  (needs plain convexity, so no positivity requirement);
* ``dragomir_mond_chain``: the six-term refinement for log-convex f through
  exp(mean ln f), the geometric-mean integral, and the logarithmic mean;
* ``theorem1_chain``: the strengthened five-term chain for strongly
  log-convex f with modulus c, where the midpoint term gains c(b-a)^2/12
  and the two right-hand terms lose c(b-a)^2/6 (``_THEOREM1_TERMS`` holds
  these corrections once, for the verdict and for ``max_feasible_c``);
* ``theorem2_bound``: the product-integral bound
  (1/(b-a)) int f(x) f(a+b-x) dx <= f(a) f(b) + c^2 (b-a)^4 / 30
  - c (b-a)^2 [f(b) J(f(a)/f(b)) + f(a) J(f(b)/f(a))]
  with J(u) = int_0^1 t(1-t) u^t dt in closed form.

``closed_form_J`` evaluates J(u) = (u(k-2) + k + 2)/k^3, k = ln u, derived
by integrating by parts twice; for |k| < 0.25 the series
J = sum_n k^n / (n! (n+2)(n+3)) = 1/6 + k/12 + k^2/40 + k^3/180 + ...
is used instead, because the closed form cancels to O(k^3) and loses
roughly 3*log10(1/|k|) digits near u = 1.  The bracket above equals
4 (A(f(a),f(b)) - L(f(a),f(b))) / ln(f(a)/f(b))^2 when f(a) != f(b); the
J route is used because the series branch is uniformly accurate through
f(a) = f(b).  An "as printed" variant of the product bound (with
ln(f(b) - f(a)) and A + L in place of the derived bracket) is computed
behind an explicit flag for documentation purposes; its logarithm is only
defined for f(b) - f(a) > 0 and nonzero only away from f(b) - f(a) = 1.

Every integral of the last three checks is a mean over [a, b] of a function
of f(x) and f(a+b-x): mean f, mean ln f, mean sqrt(f(x) f(a+b-x)) and mean
f(x) f(a+b-x).  ``_means`` computes all four in one quadrature pass of four
rows that evaluates f twice per node, and each check builds its terms from
that result.  The strengthened chain at c = 0 therefore equals terms 1, 3,
4, 5, 6 of the six-term chain bit for bit by construction: the same
numbers, plus exact additions of 0.0.  ``_means`` also keeps its last
result, keyed by the canonical text ``str(f)`` and the float.hex bits of a,
b and tol (so -0.0 and 0.0 stay apart), and returns it to the next call
with the same key, so checks of one f on one interval run one after another
share one pass, as a sweep case's checks and ``max_feasible_c``'s calls of
``theorem1_chain`` do.  It keeps that one entry and no refusal, so a
refused input is refused again.  The classical chain needs no positivity
and integrates f alone, but reads f(a), f(b) and f((a+b)/2) as ``_means``
does, by ``expr._positive_values`` (finite only), so both report the same
bits and refuse a bad point by the same error.  An integral whose error
estimate misses its tolerance, both as an integral and as a mean (the depth
cap or the roundoff floor stopped it), raises ``Refused`` naming the rows
that missed, so no verdict rests on it.

Verdicts (the product bound's as the chain lhs <= rhs) use a margin
tolerance scaled by max(1, largest |term|), and each quadrature row scales
its absolute tolerance by a bound on the row's magnitude, so the one-digit
gap between integral accuracy and verdict tolerance survives functions of
any size.  A non-finite term would make that tolerance infinite and pass
any margin, so it raises ``Refused`` naming the term and c instead, and c
itself must be finite, as must (b-a)^2 where a correction scales with it.
A margin tolerance must be positive and finite, or it would pass or fail
every margin whatever the terms.  Every input the checks refuse raises
``expr.Refused``, which the CLI and the sweep catch by type.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple

import numpy as np

from . import means
from .expr import Expression, Refused, _positive_values
from .quadrature import (
    DEFAULT_TOL,
    IntegrandError,
    _require_converged,
    _validate_interval,
    integrate,
    mean_integral,
)

__all__ = [
    "ChainReport",
    "Theorem2Report",
    "NotLogConvexError",
    "classical_hh_terms",
    "dragomir_mond_chain",
    "theorem1_chain",
    "closed_form_J",
    "theorem2_bound",
    "max_feasible_c",
]

DEFAULT_MARGIN_TOL = 1e-9

_THEOREM2_FORMS = ("corrected", "as_printed", "both")
# the product bound's two sides as chain terms, read by the harness and the CLI
_THEOREM2_PAIR = ("mean_product_integral", "rhs_corrected")


class NotLogConvexError(Refused):
    """The chain fails already at c = 0, so f is not numerically log-convex."""

    def __init__(self, message: str, report: "ChainReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class ChainReport:
    function_text: str
    a: float
    b: float
    c: float
    terms: Tuple[Tuple[str, float], ...]
    margins: Tuple[float, ...]
    holds: bool
    min_margin: float
    tol: float  # effective margin tolerance the verdict used


@dataclass(frozen=True)
class Theorem2Report:
    function_text: str
    a: float
    b: float
    c: float
    lhs: float
    rhs_corrected: float
    rhs_as_printed: Optional[float]
    holds_corrected: bool
    holds_as_printed: Optional[bool]
    printed_applicable: bool
    bracket_value: float
    k: float  # ln(f(a)/f(b))
    margin_corrected: float
    margin_as_printed: Optional[float]
    tol: float


class _Means(NamedTuple):
    """f at the ends and the middle of [a, b], and every c-independent term."""

    fa: float
    fb: float
    fm: float
    mean_f: float
    exp_mean_log: float
    mean_geometric: float  # mean of sqrt(f(x) f(a+b-x))
    mean_product: float  # mean of f(x) f(a+b-x)
    log_mean: float  # L(f(a), f(b))
    end_avg: float  # A(f(a), f(b))


# the integrands of _means's rows, as errors name them
_MEANS_ROWS = ("f(x)", "ln f(x)", "sqrt(f(x)*f(a+b-x))", "f(x)*f(a+b-x)")


# The last result of _means as one (key, value) tuple: a reader takes both
# from one tuple, so threads never pair one call's key with another's value.
_last_means: Tuple[tuple, Optional[_Means]] = ((), None)


def _means(f: Expression, a: float, b: float, tol: float) -> _Means:
    """The quantities of the positive chains, with one quadrature pass.

    The pass integrates the rows f, ln f, sqrt(f f_r) and f f_r, where
    f_r(x) = f(a+b-x), and evaluates f twice per node; f must be positive at
    every node and at a, b and (a+b)/2.  Each row's absolute tolerance is
    ``tol`` times a bound on its magnitude: log-convex f is convex, so its
    maximum over [a, b] sits at an endpoint, and fm is a cheap hedge for
    inputs that are not log-convex.  A call with the key of the last call
    that returned (the text of f and the bits of a, b, tol) returns its
    result again without a pass.
    """
    global _last_means
    key = (str(f), float(a).hex(), float(b).hex(), float(tol).hex())
    last_key, last = _last_means
    if last_key == key:
        return last
    fa, fb, fm = _positive_values(f, np.array([a, b, (a + b) / 2.0])).tolist()
    scale = max(1.0, fa, fb, fm)
    log_scale = max(1.0, abs(math.log(fa)), abs(math.log(fb)), abs(math.log(fm)))

    def rows(xs):
        fx, fr = _positive_values(f, np.concatenate((xs, a + b - xs))).reshape(2, -1)
        product = fx * fr
        return np.array((fx, np.log(fx), np.sqrt(product), product))

    # the product row is checked finite, so the largest double bounds it too
    tols = tol * np.array([scale, log_scale, scale, min(scale * scale, sys.float_info.max)])
    try:
        result = integrate(rows, a, b, tols)
    except IntegrandError as exc:  # rows has checked f itself, so the product overflowed
        raise Refused(f"f(x)*f(a+b-x) overflows at x={exc.x!r}") from exc
    _require_converged(result, _MEANS_ROWS, tols, a, b)
    mean_f, mean_log, mean_geo, mean_prod = (result.value / (b - a)).tolist()
    log_mean, end_avg = means.logarithmic_mean(fa, fb), means.arithmetic_mean(fa, fb)
    m = _Means(fa, fb, fm, mean_f, math.exp(mean_log), mean_geo, mean_prod, log_mean, end_avg)
    _last_means = (key, m)
    return m


def _modulus(c: float) -> float:
    c = float(c)
    if not c >= 0.0:
        raise Refused(f"modulus must be nonnegative, got {c!r}")
    if c == math.inf:
        raise Refused(f"modulus must be finite, got {c!r}")
    return c


def _squared_width(a: float, b: float) -> float:
    """(b - a)^2, refused by name where it overflows."""
    try:
        return (b - a) ** 2
    except OverflowError:
        raise Refused(f"(b - a)^2 overflows for a={a!r}, b={b!r}") from None


def _require_finite(named_terms, c: float) -> None:
    """Refuse a verdict on a non-finite term, whose tolerance would pass any margin.

    A term that is None was not computed and is skipped.
    """
    for name, value in named_terms:
        if value is not None and not math.isfinite(value):
            raise Refused(f"term {name} is {value!r} at c={c!r}; no verdict can rest on it")


def _validate_margin_tol(margin_tol: float) -> None:
    """Refuse a margin tolerance that is not positive and finite: inf passes
    every margin, and nan or a negative one fails a chain that holds."""
    if not 0.0 < margin_tol < math.inf:
        raise Refused(f"margin_tol must be positive and finite, got {margin_tol!r}")


def _report(f, a, b, c, named_terms, margin_tol) -> ChainReport:
    _validate_margin_tol(margin_tol)
    _require_finite(named_terms, c)
    values = [v for _, v in named_terms]
    margins = tuple(values[i + 1] - values[i] for i in range(len(values) - 1))
    tol_eff = margin_tol * max(1.0, max(abs(v) for v in values))
    min_margin = min(margins)
    return ChainReport(
        function_text=str(f),
        a=a,
        b=b,
        c=c,
        terms=tuple(named_terms),
        margins=margins,
        holds=bool(min_margin >= -tol_eff),
        min_margin=min_margin,
        tol=tol_eff,
    )


# --------------------------------------------------------------------------
# Chains
# --------------------------------------------------------------------------

def classical_hh_terms(
    f: Expression,
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    margin_tol: float = DEFAULT_MARGIN_TOL,
) -> ChainReport:
    """midpoint value <= mean integral <= endpoint average (convex f)."""
    a, b = _validate_interval(a, b)
    fa, fb, fm = _positive_values(f, np.array([a, b, (a + b) / 2.0]), positive=False).tolist()
    scale = max(1.0, abs(fa), abs(fb), abs(fm))
    terms = [
        ("midpoint_value", fm),
        ("mean_integral", mean_integral(f, a, b, tol * scale)),
        ("endpoint_average", (fa + fb) / 2.0),
    ]
    return _report(f, a, b, 0.0, terms, margin_tol)


def dragomir_mond_chain(
    f: Expression,
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    margin_tol: float = DEFAULT_MARGIN_TOL,
) -> ChainReport:
    """Six-term chain for log-convex f:

    f((a+b)/2) <= exp(mean ln f) <= mean G(f(x), f(a+b-x)) <= mean f
               <= L(f(a), f(b)) <= (f(a)+f(b))/2.
    """
    a, b = _validate_interval(a, b)
    m = _means(f, a, b, tol)
    terms = [
        ("midpoint_value", m.fm),
        ("exp_mean_log", m.exp_mean_log),
        ("mean_geometric_reflected", m.mean_geometric),
        ("mean_integral", m.mean_f),
        ("log_mean_endpoints", m.log_mean),
        ("endpoint_average", m.end_avg),
    ]
    return _report(f, a, b, 0.0, terms, margin_tol)


# Theorem 1's five terms: (name, _Means field, d), each term the field plus
# c (b-a)^2 / d.  The two terms that do not move have d = inf, which adds an
# exact 0.0, and x + y / -6.0 rounds as x - y / 6.0 does.
_THEOREM1_TERMS = (
    ("midpoint_plus_correction", "fm", 12.0),
    ("mean_geometric_reflected", "mean_geometric", math.inf),
    ("mean_integral", "mean_f", math.inf),
    ("log_mean_minus_correction", "log_mean", -6.0),
    ("endpoint_average_minus_correction", "end_avg", -6.0),
)


def theorem1_chain(
    f: Expression,
    a: float,
    b: float,
    c: float,
    tol: float = DEFAULT_TOL,
    margin_tol: float = DEFAULT_MARGIN_TOL,
) -> ChainReport:
    """Five-term strengthened chain for strongly log-convex f with modulus c.

    With c = 0 the five terms are bitwise equal to terms 1, 3, 4, 5, 6 of
    :func:`dragomir_mond_chain` (the same ``_means`` pass, plus exact
    additions of 0.0).  Any c >= 0 is accepted without certifying it first:
    hunting for violations requires evaluating infeasible moduli.
    """
    a, b = _validate_interval(a, b)
    c = _modulus(c)
    m = _means(f, a, b, tol)
    q2 = c * _squared_width(a, b)
    terms = [(name, getattr(m, field) + q2 / d) for name, field, d in _THEOREM1_TERMS]
    return _report(f, a, b, c, terms, margin_tol)


# --------------------------------------------------------------------------
# Product bound machinery
# --------------------------------------------------------------------------

# Series coefficients 1/(n! (n+2)(n+3)) of J(e^k) around k = 0; at the
# switch point |k| = 0.25 the n=15 tail is ~1e-26, far below double noise.
_J_SERIES_SWITCH = 0.25
_J_COEFFS = tuple(
    1.0 / (math.factorial(n) * (n + 2) * (n + 3)) for n in range(16)
)


def closed_form_J(u: float) -> float:
    """J(u) = integral of t(1-t) u^t over t in (0, 1).

    Closed form (u(k-2) + k + 2)/k^3 with k = ln u, evaluated as
    (k(u+1) - 2 expm1(k))/k^3 away from u = 1 and by series near it.
    J(1) = 1/6 exactly, and u*J(1/u) = J(u) (substitute t -> 1-t).
    """
    u = float(u)
    if not u > 0.0 or not math.isfinite(u):
        raise Refused(f"J needs positive finite u, got {u!r}")
    return _J(u, math.log(u))


def _J(u: float, k: float) -> float:
    """J(u) from u and k = ln u; u may underflow to 0 where k is very negative."""
    if abs(k) < _J_SERIES_SWITCH:
        acc = _J_COEFFS[-1]
        for coeff in reversed(_J_COEFFS[:-1]):
            acc = acc * k + coeff
        return acc
    return (k * (u + 1.0) - 2.0 * math.expm1(k)) / k**3


def theorem2_bound(
    f: Expression,
    a: float,
    b: float,
    c: float,
    tol: float = DEFAULT_TOL,
    margin_tol: float = DEFAULT_MARGIN_TOL,
    form: str = "corrected",
) -> Theorem2Report:
    """Check the product-integral bound for strongly log-convex f.

    ``form`` selects which right-hand side(s) to evaluate: "corrected"
    (default, the bracket derived by integration by parts), "as_printed"
    (the typeset variant with ln(f(b)-f(a)) and A+L, only defined when
    f(b)-f(a) is positive and not 1), or "both".
    """
    a, b = _validate_interval(a, b)
    c = _modulus(c)
    if form not in _THEOREM2_FORMS:
        raise Refused(f"form must be one of {_THEOREM2_FORMS}, got {form!r}")
    m = _means(f, a, b, tol)
    fa, fb, lhs = m.fa, m.fb, m.mean_product
    bracket, k = _theorem2_bracket(fa, fb)
    q2 = c * _squared_width(a, b)
    rhs_corrected = fa * fb + q2 * q2 / 30.0 - q2 * bracket

    diff = fb - fa
    printed_applicable = bool(diff > 0.0 and diff != 1.0)
    rhs_as_printed: Optional[float] = None
    if form in ("as_printed", "both") and printed_applicable:
        log_diff = math.log(diff)
        rhs_as_printed = fa * fb + q2 * q2 / 30.0 - (4.0 * q2 / log_diff**2) * (
            m.end_avg + m.log_mean
        )

    corrected = _report(f, a, b, c, list(zip(_THEOREM2_PAIR, (lhs, rhs_corrected))), margin_tol)
    _require_finite([("rhs_as_printed", rhs_as_printed)], c)
    margin_as_printed = None if rhs_as_printed is None else rhs_as_printed - lhs
    return Theorem2Report(
        function_text=str(f),
        a=a,
        b=b,
        c=c,
        lhs=lhs,
        rhs_corrected=rhs_corrected,
        rhs_as_printed=rhs_as_printed,
        holds_corrected=corrected.holds,
        holds_as_printed=(
            None if margin_as_printed is None else bool(margin_as_printed >= -corrected.tol)
        ),
        printed_applicable=printed_applicable,
        bracket_value=bracket,
        k=k,
        margin_corrected=corrected.min_margin,
        margin_as_printed=margin_as_printed,
        tol=corrected.tol,
    )


def _theorem2_bracket(fa: float, fb: float) -> Tuple[float, float]:
    """f(b) J(f(a)/f(b)) + f(a) J(f(b)/f(a)), and k = ln(f(a)/f(b)).

    Where a ratio leaves the doubles (f(a)/f(b) underflows as f(b)/f(a)
    overflows), or J of one overflows, u J(1/u) = J(u) makes the two terms
    equal, so the bracket is twice the term whose ratio is at most 1, with J
    written in k = ln f(a) - ln f(b).
    """
    u, v = fa / fb, fb / fa
    if math.isfinite(u) and math.isfinite(v):  # u underflows to 0 only as v overflows
        bracket = fb * closed_form_J(u) + fa * closed_form_J(v)
        if math.isfinite(bracket):
            return bracket, math.log(u)
    k = math.log(fa) - math.log(fb)
    if k <= 0.0:
        return 2.0 * fb * _J(math.exp(k), k), k
    return 2.0 * fa * _J(math.exp(-k), -k), k


def max_feasible_c(f: Expression, a: float, b: float, tol: float = DEFAULT_TOL) -> float:
    """Largest c for which the strengthened chain still holds, in closed form.

    Each term is affine in c, p + c w^2/d with w = b - a, and reads its p and
    d from ``_THEOREM1_TERMS``, the one place that holds the corrections.  The
    verdict tolerance tol*max(1, |term_k|) is the largest of the pieces tol,
    +-tol*term_k, so a margin holds at c iff some line margin + piece is >= 0.
    A margin holds on [0, end], end the largest root of its falling lines,
    unless a line that does not fall holds at end; c_max is the smallest end.
    For tol < 1 it is finite: L - M falls at the right-hand terms' rate, faster
    than tol*|term| can rise (tol times that rate), and where it holds the
    largest piece rises at most tol times the midpoint's rate, slower than
    G - f_m falls, so the feasible set is [0, c_max] unless M - G or A - L
    lies below -tol.  The root is checked with the chain's verdict and walked
    down by ulps of the binding margin if rounding put it past.  Raises
    NotLogConvexError when the chain fails at c = 0, and Refused when no
    margin bounds c (tol >= 1, or w^2 too small to move any term) or when the
    root or its ulp step is not a finite double (w^2 deep among the subnormals,
    as for b - a = 1e-160).  Margins are judged at the integral-accuracy ``tol``: a
    verdict slack would add spurious c of order slack/w^2 to a constant's 0.

    That tolerance still adds about 6*tol/w^2 to the answer, so where w^2 is
    not far above tol the result is the tolerance's, not the chain's: for
    exp(x^2) on [0, w], whose answer tends to 1, it returns 1.06 at w = 1e-4,
    7.0 at 1e-5 and 601 at 1e-6.
    """
    a, b = _validate_interval(a, b)
    report = theorem1_chain(f, a, b, 0.0, tol, margin_tol=tol)
    if not report.holds:
        raise NotLogConvexError(
            "chain fails already at c = 0; f is not log-convex on the interval "
            f"(min margin {report.min_margin!r})",
            report=report,
        )

    m = _means(f, a, b, tol)  # the pass theorem1_chain just kept
    w2 = _squared_width(a, b)
    terms = [(getattr(m, field), w2 / d) for _, field, d in _THEOREM1_TERMS]  # p + q c
    pieces = [(tol, 0.0)]
    pieces += [(s * tol * p, s * tol * q) for p, q in terms for s in (1.0, -1.0)]
    ends = []  # (end of the margin's stretch, one ulp of the margin in units of c)
    for (p0, q0), (p1, q1) in zip(terms, terms[1:]):
        lines = [(p1 - p0 + p, q1 - q0 + q) for p, q in pieces]
        falling = [(p / -q, q) for p, q in lines if q < 0.0 <= p]
        end, slope = max(falling, default=(0.0, -math.inf))
        if not any(q >= 0.0 and p + q * end >= 0.0 for p, q in lines):
            scale = max(1.0, abs(p0 + q0 * end), abs(p1 + q1 * end))
            ends.append((end, math.ulp(scale) / -slope))
    if not ends and tol >= 1.0:
        raise Refused(f"tol={tol!r} lets the chain hold for every c; need tol < 1")
    if not ends:
        raise Refused(
            f"b - a = {b - a!r} is too narrow for tol={tol!r}: c*(b - a)^2 never moves "
            "a term past its tolerance, so no c bounds the chain"
        )
    c_max, ulp = min(ends)
    if not (math.isfinite(c_max) and math.isfinite(ulp)):
        raise Refused(
            f"b - a = {b - a!r} is too narrow for tol={tol!r}: the solved c_max={c_max!r} "
            f"or its ulp step {ulp!r} is not a finite double"
        )
    for c in (max(0.0, c_max - ulps * ulp) for ulps in (0, 1, 2, 4, 8, 16)):
        if theorem1_chain(f, a, b, c, tol, margin_tol=tol).holds:
            return float(c)
    raise ArithmeticError(f"solved modulus {c_max!r} fails the chain beyond rounding")
