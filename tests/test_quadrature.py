"""Adaptive quadrature tests against independent oracles.

Polynomial integrals are checked against exact rational arithmetic
(fractions.Fraction over the float endpoints), and the running example
integral of e^{x^2} against its Maclaurin series sum_n 1/(n! (2n+1)).
"""

from fractions import Fraction

import math
import warnings

import numpy as np
import pytest

from hhcert import quadrature
from hhcert.expr import DomainError, Refused, parse
from hhcert.quadrature import IntegrandError, QuadratureResult, integrate, mean_integral


def exact_poly_integral(coeffs, a, b) -> float:
    """Exact rational integral of sum_k coeffs[k] x^k over [a, b]."""
    fa, fb = Fraction(a), Fraction(b)
    total = Fraction(0)
    for k, c in enumerate(coeffs):
        total += Fraction(c) * (fb ** (k + 1) - fa ** (k + 1)) / (k + 1)
    return float(total)


def poly_integrand(coeffs):
    def g(xs):
        acc = np.zeros_like(xs) + coeffs[-1]
        for c in reversed(coeffs[:-1]):
            acc = acc * xs + c
        return acc

    return g


def exp_x2_series(terms: int = 25) -> float:
    """Independent oracle for the integral of e^{x^2} over [0, 1]."""
    total = 0.0
    for n in reversed(range(terms)):
        total += 1.0 / (math.factorial(n) * (2 * n + 1))
    return total


def test_x_squared_unit_interval():
    res = integrate(lambda xs: xs**2, 0.0, 1.0, tol=1e-12)
    assert res.converged
    assert abs(res.value - 1.0 / 3.0) <= 1e-12


def test_constant_one_is_exact():
    for a, b in [(0.0, 1.0), (0.3, 1.7), (-2.0, 2.0), (-1.25, -0.5)]:
        res = integrate(lambda xs: np.ones_like(xs), a, b)
        assert res.value == b - a


def test_exp_x2_matches_series_oracle():
    res = integrate(lambda xs: np.exp(xs**2), 0.0, 1.0, tol=1e-10)
    assert res.converged
    assert abs(res.value - exp_x2_series()) <= 1e-9
    # frozen value of the series, for the record
    assert exp_x2_series() == pytest.approx(1.4626517459071816, rel=1e-15)


@pytest.mark.parametrize("degree", range(11))
def test_polynomials_to_degree_ten(degree):
    rng = np.random.default_rng(100 + degree)
    coeffs = list(rng.uniform(0.1, 2.0, size=degree + 1))
    for a, b in [(0.0, 1.0), (-1.0, 2.0)]:
        exact = exact_poly_integral(coeffs, a, b)
        res = integrate(poly_integrand(coeffs), a, b, tol=1e-12)
        assert abs(res.value - exact) <= 1e-13 * abs(exact)


def test_linearity():
    g = lambda xs: np.exp(xs**2)
    h = lambda xs: np.sin(xs) + 2.0
    tol = 1e-10
    alpha, beta = 1.7, -0.4
    combined = integrate(lambda xs: alpha * g(xs) + beta * h(xs), 0.0, 1.0, tol)
    separate = alpha * integrate(g, 0.0, 1.0, tol).value + beta * integrate(h, 0.0, 1.0, tol).value
    assert abs(combined.value - separate) <= 2 * tol * (1 + abs(alpha) + abs(beta))


def test_interval_additivity():
    g = lambda xs: np.exp(xs**2)
    tol = 1e-10
    whole = integrate(g, 0.0, 1.0, tol).value
    for m in [0.1, 0.37, 0.5, 0.93]:
        split = integrate(g, 0.0, m, tol).value + integrate(g, m, 1.0, tol).value
        assert abs(whole - split) <= 2 * tol


def test_reflection_identity():
    tol = 1e-10
    for text, a, b in [
        ("exp(x^2)", 0.0, 1.0),
        ("exp(0.5*x^2 - x + 0.2)", -1.0, 1.5),
        ("(x + 2.5)^-1.25", -1.0, 1.0),
    ]:
        f = parse(text)
        direct = integrate(f.eval_array, a, b, tol).value
        reflected = integrate(lambda xs: f.eval_array(a + b - xs), a, b, tol).value
        assert abs(direct - reflected) <= 2 * tol


def test_error_estimate_bounds_true_error():
    """The estimate must dominate the true error on a smooth reference set."""
    rng = np.random.default_rng(5)
    cases = []
    for _ in range(60):
        degree = int(rng.integers(0, 11))
        coeffs = list(rng.uniform(-2.0, 2.0, size=degree + 1))
        a = float(rng.uniform(-2.0, 1.0))
        b = a + float(rng.uniform(0.2, 2.0))
        cases.append((poly_integrand(coeffs), exact_poly_integral(coeffs, a, b), a, b))
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    for _ in range(20):
        a = float(rng.uniform(-1.5, 0.5))
        b = a + float(rng.uniform(0.2, 2.0))
        cases.append((lambda xs: np.exp(xs), float(mp.quad(mp.exp, [a, b])), a, b))
        cases.append(
            (
                lambda xs: np.exp(xs**2),
                float(mp.quad(lambda t: mp.exp(t**2), [a, b])),
                a,
                b,
            )
        )
    covered = 0
    for g, exact, a, b in cases:
        res = integrate(g, a, b, tol=1e-10)
        if abs(res.value - exact) <= max(res.error_estimate, 1e-15 * abs(exact)):
            covered += 1
    assert covered >= 0.99 * len(cases)


def test_non_convergence_reports_best_estimate():
    # kink at an irrational-ish point, depth capped so the split budget runs out
    g = lambda xs: np.sqrt(np.abs(xs - 1.0 / 3.0))
    res = integrate(g, 0.0, 1.0, tol=1e-14, max_depth=4)
    assert not res.converged
    assert res.error_estimate > 1e-14
    exact = ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5) / 1.5
    assert res.value == pytest.approx(exact, rel=1e-3)


def test_result_invariants():
    res = integrate(lambda xs: np.cos(xs), 0.0, 2.0, tol=1e-11)
    assert isinstance(res, QuadratureResult)
    assert res.error_estimate >= 0.0
    assert res.evaluations % 15 == 0
    assert res.converged and res.error_estimate <= 1e-11


def test_integrand_domain_error_carries_abscissa():
    # a raw lambda, yet no numpy warning: the error names the abscissa instead
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrandError) as err:
            integrate(lambda xs: np.log(xs), -1.0, 1.0, tol=1e-8)
    assert -1.0 <= err.value.x <= 1.0


@pytest.mark.parametrize("rows", [1, 2])
def test_an_overflowing_integral_names_its_first_panel(rows):
    # every panel's K15 sum overflows, so its error is inf - inf = nan and no
    # split could ever accept it; refinement once ran down to the depth cap
    def g(xs):
        big = np.full_like(xs, 1e150)
        return big if rows == 1 else np.array((np.ones_like(xs), big))

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as err:
            integrate(g, -1e160, 1e160)
    # plain floats, one per row, and the first panel: the whole interval
    sums = "inf, error estimate nan" if rows == 1 else "[2e+160, inf], error estimate [0.0, nan]"
    assert str(err.value) == (
        f"the integral overflows on the panel [-1e+160, 1e+160]: K15 sum {sums}"
    )


def test_invalid_interval_and_tolerance():
    with pytest.raises(ValueError, match=r"^need a < b, got a=1\.0, b=0\.0$"):
        integrate(lambda xs: xs, 1.0, 0.0)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, [1e-10, math.inf]])
def test_a_tolerance_that_is_not_positive_and_finite_is_refused(tol):
    with pytest.raises(ValueError, match=r"^tolerance must be positive and finite, got "):
        integrate(lambda xs: xs, 0.0, 1.0, tol=tol)


def test_an_empty_tolerance_array_is_refused_by_name():
    # numpy once refused it as a zero-size array in a reduction
    with pytest.raises(ValueError, match=r"^need at least one tolerance, got \[\]$"):
        integrate(lambda xs: xs, 0.0, 1.0, tol=[])


@pytest.mark.parametrize("rows", [1, 3])
def test_a_tolerance_count_that_matches_no_row_count_is_refused_by_name(rows):
    # three rows with two tolerances once failed in a numpy broadcast, and
    # one row with two was silently accepted
    def g(xs):
        return xs if rows == 1 else np.array([xs] * rows)

    with pytest.raises(Refused, match=rf"^2 tolerances for {rows} integrand rows$"):
        integrate(g, 0.0, 1.0, tol=[1e-10, 1e-10])
    assert integrate(g, 0.0, 1.0, tol=[1e-10] * rows).converged
    assert integrate(g, 0.0, 1.0, tol=[1e-10]).converged


def test_scalar_returning_integrand_is_rejected():
    with pytest.raises(ValueError, match="one value per abscissa"):
        integrate(lambda xs: 1.0, 0.0, 1.0)


def test_determinism():
    g = lambda xs: np.exp(np.sin(3.0 * xs)) / (1.1 + xs)
    first = integrate(g, 0.0, 2.0, tol=1e-11)
    second = integrate(g, 0.0, 2.0, tol=1e-11)
    assert first == second


def test_rows_meet_their_own_tolerances_in_one_pass():
    tols = np.array([1e-12, 1e-6])
    rows = integrate(lambda xs: np.array((np.exp(xs**2), np.sqrt(np.abs(xs - 0.3)))), 0.0, 1.0, tols)
    assert rows.converged and np.all(rows.error_estimate <= tols)
    assert rows.value.shape == (2,)
    assert abs(rows.value[0] - exp_x2_series()) <= 1e-12
    exact = (0.3**1.5 + 0.7**1.5) / 1.5
    assert abs(rows.value[1] - exact) <= 1e-6
    # one pass: every row is integrated on the nodes the hardest row needs
    alone = integrate(lambda xs: np.sqrt(np.abs(xs - 0.3)), 0.0, 1.0, 1e-6)
    assert rows.evaluations == alone.evaluations


def test_results_do_not_depend_on_the_chunk_size(monkeypatch):
    g = lambda xs: np.array((np.sqrt(np.abs(np.sin(20.0 * xs))), np.cos(300.0 * xs)))
    tols = np.array([1e-13, 1e-12])
    widest = []
    reference = integrate(lambda xs: widest.append(xs.size) or g(xs), 0.0, 1.0, tols, max_depth=12)
    assert max(widest) > 15 * 64  # one level outgrows every chunk below
    for chunk in (1, 3, 64):
        sizes = []
        monkeypatch.setattr(quadrature, "_CHUNK_PANELS", chunk)
        result = integrate(lambda xs: sizes.append(xs.size) or g(xs), 0.0, 1.0, tols, max_depth=12)
        assert max(sizes) <= 15 * chunk
        assert result.value.tobytes() == reference.value.tobytes()
        assert result.error_estimate.tobytes() == reference.error_estimate.tobytes()
        assert result.evaluations == reference.evaluations


@pytest.mark.parametrize(
    "text, evaluations, calls, value, error",
    [
        # accepted at the root: the one panel, in one call
        ("exp(x)", 15, 1, "0x1.b7e151628aed2p+0", "0x1.57a80794fc894p-46"),
        # a tree of 13 levels in 7 rounds; the halves of passing panels are
        # evaluated too, so 1005 evaluations where one level per call took 675
        ("(x + 0.001)^-1.5", 1005, 7, "0x1.e9f8f07e3527cp+5", "0x1.2e1d4311078d6p-40"),
    ],
)
def test_work_counts_and_bits_are_pinned(text, evaluations, calls, value, error):
    g = parse(text).eval_array
    seen = []
    result = integrate(lambda xs: seen.append(xs.size) or g(xs), 0.0, 1.0)
    assert (result.evaluations, len(seen), sum(seen)) == (evaluations, calls, evaluations)
    assert (result.value.hex(), result.error_estimate.hex()) == (value, error)


def test_a_half_of_a_passing_panel_is_checked_at_its_nodes():
    # [0.375, 0.5] meets its share at depth 3, so walking one level per call
    # never evaluated its left half, and a nan at a node c of that half went
    # unseen; the half now goes with its panel, and c is refused by name
    g = lambda xs: (xs + 0.001) ** -1.5
    _, raw, floor = quadrature._panels(g, np.array([0.375]), np.array([0.5]))
    assert raw[0] <= max(1e-10 * 0.5**3, floor[0])
    c = float(0.40625 + 0.03125 * quadrature._NODES[3])
    with pytest.raises(IntegrandError, match=r"^integrand is not finite at x=") as err:
        integrate(lambda xs: g(xs) + 0.0 / (xs - c), 0.0, 1.0)
    assert err.value.x == c


@pytest.mark.parametrize(
    "max_depth, message",
    [
        (None, "max_depth must be an integer, got None"),
        ("a", "max_depth must be an integer, got 'a'"),
        (2.5, "max_depth must be an integer, got 2.5"),
        (-5, "max_depth must be nonnegative, got -5"),
    ],
)
def test_a_max_depth_that_is_not_a_nonnegative_integer_is_refused_by_name(max_depth, message):
    # None and 'a' once raised a bare TypeError, and -5 and 2.5 were taken
    with pytest.raises(Refused) as err:
        integrate(lambda xs: xs, 0.0, 1.0, max_depth=max_depth)
    assert str(err.value) == message
    assert integrate(lambda xs: xs, 0.0, 1.0, max_depth=np.int64(0)).converged


def test_the_evaluation_budget_is_checked_before_each_chunk(monkeypatch):
    # a call that fits its budget exactly runs; with one evaluation less it is
    # refused before the chunk that would pass the budget reaches the integrand
    g = lambda xs: np.sqrt(np.abs(xs - 0.3))
    needed = integrate(g, 0.0, 1.0, 1e-12).evaluations
    for budget in (needed, needed - 1):
        monkeypatch.setattr(quadrature, "EVALUATION_BUDGET", budget)
        seen = []
        run = lambda: integrate(lambda xs: seen.append(xs.size) or g(xs), 0.0, 1.0, 1e-12)
        if budget == needed:
            assert run().evaluations == needed
        else:
            with pytest.raises(ValueError, match=f"above the budget of {budget} evaluations"):
                run()
        assert sum(seen) <= budget


def test_an_integral_past_the_evaluation_budget_is_refused_by_name():
    # exp(sin(1/x)) oscillates ever faster towards 0: it once took 24.4M
    # evaluations and 109 MB before the depth cap stopped it
    f = parse("exp(sin(1/x))")
    with pytest.raises(ValueError) as err:
        integrate(f.eval_array, 1e-6, 1.0)
    message = str(err.value)
    assert "integrating over [1e-06, 1.0] would take" in message
    assert f"above the budget of {2**20} evaluations" in message
    count = int(message.split("would take ")[1].split(" ")[0])
    assert 2**20 < count <= 2**20 + 15 * quadrature._CHUNK_PANELS


def test_mean_integral_examples():
    assert mean_integral(parse("4.25"), -1.0, 3.0) == pytest.approx(4.25, rel=1e-15)
    assert mean_integral(parse("x"), 0.0, 2.0) == pytest.approx(1.0, rel=1e-14)
    assert mean_integral(parse("exp(x^2)"), 0.0, 1.0, tol=1e-10) == pytest.approx(
        exp_x2_series(), abs=1e-9
    )


def test_mean_integral_propagates_domain_error():
    with pytest.raises(DomainError):
        mean_integral(parse("ln(x)"), -1.0, 1.0)


def test_mean_integral_refuses_an_unconverged_mean_by_name():
    # the integral of exp(x) on [0, 1] stops at an error estimate of about
    # 1.9e-14, which misses 1e-300 as an integral and as a mean; the mean
    # was once returned as 1.718281828459045 all the same
    f = parse("exp(x)")
    assert not integrate(f.eval_array, 0.0, 1.0, tol=1e-300).converged
    with pytest.raises(Refused, match=r"did not converge for f\(x\) \(error estimate "):
        mean_integral(f, 0.0, 1.0, tol=1e-300)


def test_mean_integral_accepts_a_mean_that_meets_its_tolerance_as_a_mean():
    # the roundoff floor of f = 1 on [-1e160, 1e160] misses 1e-10 as an
    # integral, but not once divided by the width
    f = parse("1")
    assert not integrate(f.eval_array, -1e160, 1e160).converged
    assert mean_integral(f, -1e160, 1e160) == 1.0
