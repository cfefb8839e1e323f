"""Sweep harness tests: generation ranges, determinism, tallies, soundness."""

import math

import numpy as np
import pytest

from hhcert import chains, harness
from hhcert.certify import CertStatus, ModulusBracket
from hhcert.expr import Refused
from hhcert.harness import (
    ALL_FAMILIES,
    CHAIN_KINDS,
    KIND_DM,
    KIND_T1,
    KIND_T2,
    KIND_T2_PRINTED,
    CaseSpec,
    generate_case,
    run_case,
    sweep,
)


def constant_case() -> CaseSpec:
    # log_affine with beta = gamma = 0 degenerates to the constant 1
    return CaseSpec(
        family="log_affine",
        parameters=(0.0, 0.0),
        a=0.0,
        b=1.0,
        seed=0,
        function_text="exp(0.0*x + 0.0)",
    )


# --------------------------------------------------------------------------
# case generation
# --------------------------------------------------------------------------

def test_generated_cases_are_positive_by_construction_without_an_evaluator_call(monkeypatch):
    import hhcert.expr

    evaluate_array, calls = hhcert.expr.evaluate_array, []
    monkeypatch.setattr(
        hhcert.expr, "evaluate_array", lambda f, xs: calls.append(f) or evaluate_array(f, xs)
    )
    rng = np.random.default_rng(20260809)
    cases = [generate_case(family, rng) for family in ALL_FAMILIES for _ in range(300)]
    assert calls == []
    for case in cases:
        values = case.expression().eval_array(np.linspace(case.a, case.b, 1025))
        assert np.all(np.isfinite(values)) and np.all(values > 0.0), case


def test_an_evaluator_fault_inside_a_sweep_is_raised_not_recorded(monkeypatch):
    # eval_array reports domain problems as nan/inf and does not raise for
    # them, so an exception is a fault: it must leave the sweep instead of
    # being tallied as a not_applicable case
    import hhcert.expr

    calls = []

    def faulty_evaluator(f, xs):
        calls.append(f)
        raise RuntimeError("evaluator fault")

    monkeypatch.setattr(hhcert.expr, "evaluate_array", faulty_evaluator)
    with pytest.raises(RuntimeError, match="evaluator fault"):
        sweep(3, seed=1)
    assert len(calls) == 1


def test_degenerate_log_affine_draw_is_constant_one():
    f = constant_case().expression()
    assert f(0.3) == 1.0 and f(0.9) == 1.0


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_generated_cases_respect_documented_ranges(family):
    rng = np.random.default_rng(2024)
    for _ in range(40):
        case = generate_case(family, rng)
        assert -2.0 <= case.a < case.b <= 2.0
        assert case.b - case.a >= 0.1
        f = case.expression()
        xs = np.linspace(case.a, case.b, 17)
        assert np.all(f.eval_array(xs) > 0.0)
        if family == "exp_quadratic":
            alpha, beta, gamma = case.parameters
            assert 0.0 <= alpha <= 3.0 and -2.0 <= beta <= 2.0 and -1.0 <= gamma <= 1.0
        elif family == "log_affine":
            beta, gamma = case.parameters
            assert -2.0 <= beta <= 2.0 and -1.0 <= gamma <= 1.0
        else:
            s, p = case.parameters
            assert case.a + s >= 0.1 - 1e-12
            assert -2.0 <= p <= 2.0


def test_generation_is_deterministic_per_stream():
    one = generate_case("exp_quadratic", np.random.default_rng(99))
    two = generate_case("exp_quadratic", np.random.default_rng(99))
    assert one == two


def test_generate_rejects_custom_and_unknown_families():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        generate_case("custom", rng)
    with pytest.raises(ValueError):
        generate_case("mystery", rng)


# --------------------------------------------------------------------------
# forced cases
# --------------------------------------------------------------------------

def test_forced_constant_with_small_modulus_violates_theorem1():
    result = run_case(constant_case(), c=0.1)
    assert result.outcomes[KIND_T1] == "violated"
    assert result.outcomes[KIND_DM] == "holds"
    # worst link is mean_integral -> log_mean, which drops by c/6
    assert result.min_margins[KIND_T1] == pytest.approx(-0.1 / 6.0, abs=1e-12)


def test_forced_constant_reproduces_direct_chain_margin():
    result = run_case(constant_case(), c=1.0)
    rep = chains.theorem1_chain(constant_case().expression(), 0.0, 1.0, 1.0)
    assert result.min_margins[KIND_T1] == rep.min_margin


def test_run_case_makes_one_quadrature_pass(monkeypatch):
    calls = []
    integrate = chains.integrate
    monkeypatch.setattr(chains, "integrate", lambda *args: calls.append(args) or integrate(*args))
    case = CaseSpec("custom", (), -0.5, 1.2, 0, "exp(1.3*x^2 - 0.7*x + 0.2)")
    result = run_case(case, c=0.5)
    assert len(calls) == 1
    assert all(result.outcomes[kind] == "holds" for kind in (KIND_DM, KIND_T1, KIND_T2))

    # the sweep's verdicts are the public checks', each run on a pass of its own
    def fresh(check, *args, **kwargs):
        chains._last_means = ((), None)
        return check(case.expression(), case.a, case.b, *args, **kwargs)

    def outcome(holds, margin):
        return ("holds" if holds else "violated"), margin.hex()

    dm = fresh(chains.dragomir_mond_chain)
    t1 = fresh(chains.theorem1_chain, 0.5)
    t2 = fresh(chains.theorem2_bound, 0.5, form="both")
    assert len(calls) == 4
    assert {kind: (result.outcomes[kind], result.min_margins[kind].hex())
            for kind in CHAIN_KINDS} == {
        KIND_DM: outcome(dm.holds, dm.min_margin),
        KIND_T1: outcome(t1.holds, t1.min_margin),
        KIND_T2: outcome(t2.holds_corrected, t2.margin_corrected),
        KIND_T2_PRINTED: outcome(t2.holds_as_printed, t2.margin_as_printed),
    }


def test_case_without_modulus_skips_strengthened_checks():
    result = run_case(constant_case(), c=None)
    assert result.outcomes[KIND_T1] == "not_applicable"
    assert result.outcomes[KIND_T2] == "not_applicable"
    assert result.outcomes[KIND_DM] == "holds"


def test_a_case_with_a_non_finite_term_is_not_applicable(monkeypatch):
    # an infinite term would pass any margin; the case gets no verdict instead
    means = chains._means
    monkeypatch.setattr(chains, "_means", lambda *args: means(*args)._replace(mean_f=np.inf))
    result = run_case(constant_case(), c=0.1)
    assert all(result.outcomes[kind] == "not_applicable" for kind in CHAIN_KINDS)


def test_a_case_whose_integrals_did_not_converge_is_not_applicable():
    # absolute 1e-20 is below the roundoff floor of exp(x^2)'s integrals on [0, 1]
    case = CaseSpec(
        family="custom", parameters=(), a=0.0, b=1.0, seed=0, function_text="exp(x^2)"
    )
    result = run_case(case, c=0.5, tol=1e-20)
    assert all(result.outcomes[kind] == "not_applicable" for kind in CHAIN_KINDS)
    assert run_case(case, c=0.5).outcomes[KIND_DM] == "holds"


def test_custom_case_with_non_positive_function_is_not_applicable():
    case = CaseSpec(
        family="custom", parameters=(), a=-1.0, b=1.0, seed=0, function_text="x"
    )
    result = run_case(case, c=0.5)
    assert all(result.outcomes[kind] == "not_applicable" for kind in CHAIN_KINDS)


_REFUSAL_ORDER = ("dragomir_mond_chain", "theorem1_chain", "theorem2_bound")


@pytest.mark.parametrize("refusing", _REFUSAL_ORDER)
def test_a_refused_check_stops_the_later_checks_of_its_case(monkeypatch, refusing):
    # the checks run in the order dm, t1, t2 and a refusal ends the case:
    # the kinds already judged keep their outcomes, every later kind is
    # not_applicable with no margin or pair, and no later check is called
    case = CaseSpec("custom", (), 0.0, 1.0, 0, "exp(x^2)")
    full = run_case(case, c=0.5)
    assert "not_applicable" not in full.outcomes.values()
    called = []

    def refuse(*args, **kwargs):
        raise Refused("refused")

    for name in _REFUSAL_ORDER:
        check = refuse if name == refusing else getattr(chains, name)
        monkeypatch.setattr(
            chains, name, lambda *a, _n=name, _c=check, **k: called.append(_n) or _c(*a, **k)
        )
    result = run_case(case, c=0.5)
    position = _REFUSAL_ORDER.index(refusing)
    assert called == list(_REFUSAL_ORDER[: position + 1])
    judged = CHAIN_KINDS[:position]  # dm, t1, then both product-bound kinds
    for kind in CHAIN_KINDS:
        got = (result.outcomes[kind], result.min_margins[kind], result.witness_pairs[kind])
        if kind in judged:
            assert got == (full.outcomes[kind], full.min_margins[kind], full.witness_pairs[kind])
        else:
            assert got == ("not_applicable", None, None), kind


# --------------------------------------------------------------------------
# sweeps
# --------------------------------------------------------------------------

def test_sweep_counts_partition_cases_per_kind():
    report = sweep(40, ("exp_quadratic", "scaled_power"), seed=5)
    assert report.cases_run == 40
    for kind in CHAIN_KINDS:
        total = report.holds[kind] + report.violated[kind] + report.not_applicable[kind]
        assert total == 40


def test_sweep_is_bit_identical_across_reruns():
    first = sweep(25, ("exp_quadratic", "log_affine"), seed=17)
    second = sweep(25, ("exp_quadratic", "log_affine"), seed=17)
    assert first == second


def test_different_seeds_differ():
    assert sweep(10, ("exp_quadratic",), seed=1) != sweep(10, ("exp_quadratic",), seed=2)


def test_log_affine_family_satisfies_the_six_term_chain():
    report = sweep(60, ("log_affine",), seed=8)
    assert report.violated[KIND_DM] == 0
    assert report.holds[KIND_DM] == 60


def test_violation_entries_reproduce_when_rerun_individually():
    # scaled_power with p > 0 is log-concave, so six-term violations exist
    report = sweep(40, ("scaled_power",), seed=33)
    dm_violations = [v for v in report.violations if v.kind == KIND_DM]
    assert dm_violations, "expected at least one genuine six-term violation"
    for v in dm_violations[:5]:
        rep = chains.dragomir_mond_chain(v.case.expression(), v.case.a, v.case.b)
        assert abs(rep.min_margin - v.min_margin) <= 1e-12
        assert not rep.holds


def test_printed_form_failures_are_kept_out_of_violations():
    report = sweep(60, ("exp_quadratic",), seed=12)
    assert all(v.kind != KIND_T2_PRINTED for v in report.violations)
    assert report.violated[KIND_T2_PRINTED] == len(report.as_printed_failures)


def test_sweep_parses_each_case_once(monkeypatch):
    texts = []
    parse = harness.parse
    monkeypatch.setattr(harness, "parse", lambda text: texts.append(text) or parse(text))
    report = sweep(12, ALL_FAMILIES, seed=3)
    assert report.cases_run == 12
    assert len(texts) == 12


def _no_grid(*args, **kwargs):
    raise AssertionError("the grid certifier ran")


def test_a_sweep_runs_each_case_through_run_case_and_brackets_it_once(monkeypatch):
    # the bracket is the sweep's one route to a modulus, so no sweep walks the grid
    runs, bracketed = [], []
    run_case, modulus_bracket = harness.run_case, harness.modulus_bracket
    monkeypatch.setattr(harness, "run_case", lambda c, *a: runs.append(c) or run_case(c, *a))
    monkeypatch.setattr(
        harness, "modulus_bracket", lambda f, *a: bracketed.append(f) or modulus_bracket(f, *a)
    )
    monkeypatch.setattr("hhcert.certify._min_over_grid", _no_grid)
    report = sweep(60, ALL_FAMILIES, seed=3)
    assert report.cases_run == 60
    assert [case.seed for case in runs] == list(range(60))
    assert bracketed == [case.expression() for case in runs]


def test_a_case_with_an_open_bracket_gets_no_modulus(monkeypatch):
    # a bracket that proves no positive c_lo leaves the case without a c, so
    # the strengthened checks do not run and no grid is walked in its place
    open_bracket = ModulusBracket(c_lo=-math.inf, c_up=math.inf, status=None)
    monkeypatch.setattr(harness, "modulus_bracket", lambda f, a, b: open_bracket)
    monkeypatch.setattr("hhcert.certify._min_over_grid", _no_grid)
    (result,) = harness.sweep_results(1, ("exp_quadratic",), seed=3)
    assert result.bracket is open_bracket
    assert result.c is None
    assert result.outcomes[KIND_T1] == result.outcomes[KIND_T2] == "not_applicable"
    assert result.outcomes[KIND_DM] == "holds"


def test_a_case_whose_bracket_is_refused_gets_no_modulus(monkeypatch):
    # a refusal from the bracket is recorded as no bracket, not a sweep error,
    # and the checks that need no modulus are still judged
    def refused(f, a, b):
        raise Refused("refused")

    monkeypatch.setattr(harness, "modulus_bracket", refused)
    (result,) = harness.sweep_results(1, ("exp_quadratic",), seed=3)
    assert result.bracket is None and result.c is None
    assert result.outcomes[KIND_T1] == result.outcomes[KIND_T2] == "not_applicable"
    assert result.outcomes[KIND_DM] == "holds"


def _closed_form_modulus(case: CaseSpec) -> float:
    # c* from the draw's parameters alone: g'' = 2 alpha for exp_quadratic, and
    # f and g'' of (x + s)^p with p < 0 both reach their minimum at b
    if case.family == "exp_quadratic":
        alpha, beta, gamma = case.parameters
        t = min(max(-beta / (2.0 * alpha), case.a), case.b) if alpha > 0.0 else case.a
        lowest = min(alpha * x * x + beta * x + gamma for x in (case.a, case.b, t))
        return alpha * math.exp(lowest)
    s, p = case.parameters
    return (-p / 2.0) * (case.b + s) ** (p - 2.0)


def test_every_sweep_modulus_is_conservative_by_proof():
    # Theorems 1 and 2 hold only for c <= c*, so a sweep confirms them only if
    # every c it draws is proved; log_affine (c* = 0) and scaled_power with
    # p >= 0 get none
    results = harness.sweep_results(300, ALL_FAMILIES, seed=20260809)
    assert {result.case.family for result in results} == set(ALL_FAMILIES)
    drawn = 0
    for result in results:
        case = result.case
        proved = result.bracket.status is CertStatus.CERTIFIED_POSITIVE
        assert (result.c is None) == (not proved), case
        if result.c is None:
            continue
        drawn += 1
        assert case.family == "exp_quadratic" or (
            case.family == "scaled_power" and case.parameters[1] < 0.0
        ), case
        assert 0.0 < result.c <= _closed_form_modulus(case), case
    assert drawn >= 100


def test_sweep_validates_arguments():
    with pytest.raises(ValueError):
        sweep(0, ("exp_quadratic",), seed=1)
    with pytest.raises(ValueError):
        sweep(1, (), seed=1)
    with pytest.raises(ValueError):
        sweep(1, ("nope",), seed=1)


def test_a_sweep_refuses_its_tolerance_before_drawing_a_case(monkeypatch):
    def draw(*args, **kwargs):
        raise AssertionError("a case was drawn")

    monkeypatch.setattr(harness, "generate_case", draw)
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        sweep(3, tol=0.0)


@pytest.mark.parametrize("margin_tol", [math.inf, math.nan, -1e-9, 0.0])
def test_a_sweep_refuses_its_margin_tol_before_drawing_a_case(monkeypatch, margin_tol):
    # an infinite margin_tol once tallied 0 Dragomir-Mond violations where the
    # default tallies 6, and nan or a negative one fails chains that hold
    def draw(*args, **kwargs):
        raise AssertionError("a case was drawn")

    monkeypatch.setattr(harness, "generate_case", draw)
    with pytest.raises(Refused, match=r"^margin_tol must be positive and finite, got "):
        sweep(30, seed=5, margin_tol=margin_tol)


def test_a_sweep_refuses_a_negative_seed_by_name_before_drawing_a_case(monkeypatch):
    # numpy's SeedSequence once refused it as "expected non-negative integer"
    def draw(*args, **kwargs):
        raise AssertionError("a case was drawn")

    monkeypatch.setattr(harness, "generate_case", draw)
    with pytest.raises(ValueError, match=r"^seed must be non-negative, got -1$"):
        sweep(3, seed=-1)


@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1e-9])
@pytest.mark.parametrize("name", ["tol", "margin_tol"])
def test_run_case_refuses_its_own_tolerances(name, bad):
    # each check refuses such a tolerance, and run_case once recorded that
    # refusal as the case's, tallying all four kinds not_applicable
    case = CaseSpec("custom", (), 0.0, 1.0, 0, "exp(x^2)")
    with pytest.raises(Refused, match=r"^(tolerance|margin_tol) must be positive and finite"):
        run_case(case, 0.5, **{name: bad})


@pytest.mark.parametrize("seed", [0, 5, 20260809])
def test_a_sweep_case_depends_on_its_seed_and_index_alone(seed):
    # case i draws from child i of SeedSequence(seed).spawn, built on its own:
    # a longer sweep begins with the cases of a shorter one
    for index in (0, 3, 9):
        child = np.random.SeedSequence(seed).spawn(10)[index]
        alone = np.random.SeedSequence(seed, spawn_key=(index,))
        assert np.array_equal(child.generate_state(8), alone.generate_state(8))
    assert harness.sweep_results(10, seed=seed)[:4] == harness.sweep_results(4, seed=seed)


def test_the_500_case_sweep_is_pinned():
    # every tally, every violation's kind and witness pair, and the case
    # indices of both lists, at the seed the CLI's byte-identity rows use
    report = sweep(500, ALL_FAMILIES, seed=20260809)
    assert report.cases_run == 500
    assert {kind: (report.holds[kind], report.violated[kind], report.not_applicable[kind])
            for kind in CHAIN_KINDS} == {
        KIND_DM: (412, 88, 0),
        KIND_T1: (231, 0, 269),
        KIND_T2: (231, 0, 269),
        KIND_T2_PRINTED: (42, 35, 423),
    }
    assert {(v.kind, v.witness) for v in report.violations} == {
        (KIND_DM, ("mean_integral", "log_mean_endpoints"))
    }
    assert [v.case_index for v in report.violations] == [
        0, 6, 20, 25, 27, 50, 54, 55, 63, 67, 76, 80, 81, 91, 92, 94, 95, 97, 109, 116,
        124, 137, 139, 146, 148, 149, 153, 160, 167, 170, 185, 188, 191, 198, 199, 201,
        212, 223, 224, 234, 237, 245, 246, 249, 265, 270, 277, 283, 289, 290, 299, 312,
        316, 319, 321, 329, 331, 335, 340, 343, 357, 373, 375, 380, 387, 404, 413, 417,
        421, 422, 425, 426, 430, 431, 434, 438, 442, 451, 458, 459, 460, 465, 467, 477,
        478, 484, 492, 496,
    ]
    assert {(v.kind, v.witness) for v in report.as_printed_failures} == {
        (KIND_T2_PRINTED, ("mean_product_integral", "rhs_as_printed"))
    }
    assert [v.case_index for v in report.as_printed_failures] == [
        4, 26, 38, 44, 47, 73, 78, 98, 100, 158, 189, 190, 203, 220, 243, 244, 259, 266,
        274, 281, 298, 303, 307, 309, 324, 325, 337, 338, 339, 363, 367, 381, 396, 457, 472,
    ]
    for v in report.violations + report.as_printed_failures:
        assert v.case.seed == v.case_index and v.min_margin < 0.0
