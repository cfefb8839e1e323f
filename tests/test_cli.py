"""CLI tests: exit codes, report formats, determinism."""

import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from collections import Counter

import pytest

import hhcert
from hhcert import chains, harness
from hhcert.certify import NotPositiveError
from hhcert.chains import NotLogConvexError
from hhcert.cli import _fmt, main
from hhcert.expr import DomainError, ParseError, Refused, parse
from hhcert.quadrature import IntegrandError, mean_integral
from hhcert.report import dumps_canonical


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------------
# exit codes
# --------------------------------------------------------------------------

def test_dm_chain_holds_exits_zero(capsys):
    code, out, _ = run(capsys, "chain", "--f", "exp(x^2)", "--a", "0", "--b", "1",
                       "--c", "0", "--which", "dm")
    assert code == 0
    assert "holds" in out


def test_violated_chain_exits_one(capsys):
    code, out, _ = run(capsys, "chain", "--f", "1", "--a", "0", "--b", "1",
                       "--c", "1", "--which", "t1")
    assert code == 1
    assert "VIOLATED" in out


def test_syntax_error_exits_two(capsys):
    code, _, err = run(capsys, "chain", "--f", "exp(", "--a", "0", "--b", "1",
                       "--which", "dm")
    assert code == 2
    assert "position" in err


def test_domain_error_exits_two(capsys):
    code, _, err = run(capsys, "integrate", "--f", "ln(x)", "--a", "-1", "--b", "1")
    assert code == 2
    assert err.startswith("error:")


_POLE = "division by zero at x=0.5"
_LN_NODE = "ln of non-positive value -0.4957276855604063 at x=0.004272314439593694"
_LN_END = "ln of non-positive value -0.5 at x=0.0"


@pytest.mark.parametrize(
    "text, route, message",
    [
        ("1/(x-0.5)", "integrate", _POLE),
        ("1/(x-0.5)", "mean_integral", _POLE),
        ("1/(x-0.5)", "dm", _POLE),
        ("1/(x-0.5)", "classical", _POLE),
        ("ln(x-0.5)", "integrate", _LN_NODE),
        ("ln(x-0.5)", "mean_integral", _LN_NODE),
        ("ln(x-0.5)", "dm", _LN_END),
        ("ln(x-0.5)", "classical", _LN_END),
    ],
)
def test_a_failure_over_a_point_set_names_its_node_and_its_abscissa(capsys, text, route, message):
    # the integral's error once replaced the abscissa it carried with the
    # scalar walk's message, so each of these printed no x
    if route == "mean_integral":
        with pytest.raises(DomainError) as err:
            mean_integral(parse(text), 0.0, 1.0)
        assert str(err.value) == message
        return
    argv = ["integrate"] if route == "integrate" else ["chain", "--which", route]
    code, out, err = run(capsys, *argv, "--f", text, "--a", "0", "--b", "1")
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "--which", "dm"],
        ["chain", "--which", "t1", "--c", "0.5"],
        ["theorem2", "--c", "0.5", "--form", "both"],
        ["maxc"],
        ["chain", "--which", "classical"],
        ["integrate"],
        ["certify"],  # the bracket settles exp(x^2), so no grid is walked
    ],
    ids=["dm", "t1", "theorem2", "maxc", "classical", "integrate", "certify"],
)
def test_good_inputs_never_reach_the_checked_walk(capsys, monkeypatch, argv):
    # every check evaluates f by the array walk, and walks a point with the
    # checks on only to name a failure
    def unreachable(f, x):
        raise AssertionError(f"f was walked with the checks on at x={x!r}")

    monkeypatch.setattr("hhcert.expr.evaluate", unreachable)
    code, out, err = run(capsys, *argv, "--f", "exp(x^2)", "--a", "0", "--b", "1")
    assert (code, err) == (0, "") and out


def test_trig_of_an_overflowed_argument_exits_two_with_a_named_error(capsys):
    # sin(x*1e308*10) is sin(inf) = NaN on all of [0.5, 1]
    code, out, err = run(capsys, "integrate", "--f", "sin(x*1e308*10)", "--a", "0.5",
                         "--b", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: non-finite result at x=")
    assert "math domain error" not in err


def test_bad_interval_exits_two(capsys):
    code, _, err = run(capsys, "certify", "--f", "exp(x)", "--a", "1", "--b", "0")
    assert code == 2


def _force_open(monkeypatch):
    """Leave every modulus bracket open, so certify walks its grid."""
    import numpy as np

    from hhcert import certify

    def open_bracket(f, a, b):
        return certify._OPEN, np.linspace(a, b, certify._BRACKET_PIECES + 1), 0

    monkeypatch.setattr(certify, "_bracket", open_bracket)


@pytest.mark.parametrize("extra", [[], ["--json"], ["--grid", "200"]])
def test_certify_on_an_underflowing_interval_exits_two(capsys, monkeypatch, extra):
    # lam*(1-lam)*(x-y)^2 underflows to 0 on [0, 1e-160]: a named error, not
    # a "certified" nan, wherever the grid decides c_star (under an open
    # bracket; a settled bracket answers with no grid)
    _force_open(monkeypatch)
    code, out, err = run(capsys, "certify", "--f", "exp(-x^2)", "--a", "0", "--b", "1e-160",
                         *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "too narrow" in err


def test_certify_beyond_the_triple_budget_exits_two(capsys, monkeypatch):
    # 2000^3 triples in each of 4 grids, which an open bracket would walk:
    # refused before f is sampled at all
    import hhcert.expr

    _force_open(monkeypatch)

    def unreachable(f, xs):
        raise AssertionError("f was sampled before the budget check")

    monkeypatch.setattr(hhcert.expr, "evaluate_array", unreachable)
    code, out, err = run(capsys, "certify", "--f", "exp(-x^2)", "--a", "0", "--b", "1",
                         "--grid", "2000")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "32000000000 triples" in err and str(2**28) in err


def formats(capsys, *argv):
    """(exit code, stdout, stderr) of argv as text, as --json and as --csv."""
    return [run(capsys, *argv, *flag) for flag in ([], ["--json"], ["--csv"])]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["chain", "--f", "exp(x^2)", "--a", "0", "--b", "2", "--which", "t1", "--c", "1e308"],
         "term midpoint_plus_correction is inf at c=1e+308"),
        (["chain", "--f", "exp(x^2)", "--a", "0", "--b", "1", "--which", "t1", "--c", "inf"],
         "modulus must be finite, got inf"),
        (["theorem2", "--f", "exp(x^2)", "--a", "0", "--b", "1", "--c", "1e200"],
         "term rhs_corrected is inf at c=1e+200"),
        (["theorem2", "--f", "exp(x^2)", "--a", "0", "--b", "1", "--c", "inf"],
         "modulus must be finite, got inf"),
        (["certify", "--f", "exp(x)", "--a", "0", "--b", "inf"], "need a < b"),
        (["certify", "--f", "exp(x)", "--a", "-1e308", "--b", "1e308"], "need a finite width"),
        # c_star overflows: text once printed inf and exited 0
        (["certify", "--f", "1e300*exp(-1e20*x^2)", "--a", "0", "--b", "1e-10", "--grid", "16"],
         "the sampled modulus c_star is -inf"),
        (["integrate", "--f", "x", "--a", "1", "--b", "0"], "need a < b, got a=1.0, b=0.0"),
        (["integrate", "--f", "x", "--a", "-1e308", "--b", "1e308"], "need a finite width"),
        # the first panels overflow: the report once failed only on serializing inf
        (["integrate", "--f", "1e150", "--a", "-1e160", "--b", "1e160"],
         "the integral overflows on the panel [-1e+160, 1e+160]: K15 sum inf"),
        # (b - a)^2 overflows: these once crashed with exit 1, the code of a violation
        (["chain", "--f", "1", "--a", "-1e160", "--b", "1e160", "--which", "t1", "--c", "1"],
         "(b - a)^2 overflows for a=-1e+160, b=1e+160"),
        (["theorem2", "--f", "1", "--a", "-1e160", "--b", "1e160", "--c", "1"],
         "(b - a)^2 overflows for a=-1e+160, b=1e+160"),
        (["maxc", "--f", "1", "--a", "-1e160", "--b", "1e160"],
         "(b - a)^2 overflows for a=-1e+160, b=1e+160"),
        # so did text nested deeper than the stack allows
        (["chain", "--f", "(" * 5000 + "x" + ")" * 5000, "--a", "0", "--b", "1", "--which", "dm"],
         "parentheses nested deeper than 100 levels (position 100)"),
        # f is finite; the product row f(x)*f(a+b-x) = 1e400 is not
        (["chain", "--f", "1e200", "--a", "0", "--b", "1", "--which", "dm"],
         "f(x)*f(a+b-x) overflows at x="),
        # (b - a)^2 is subnormal and the solved c overflows: this once printed 0.0
        (["maxc", "--f", "exp(x^2)", "--a", "0", "--b", "1e-160"],
         "b - a = 1e-160 is too narrow for tol=1e-10: the solved c_max=inf"),
        # this once took 24.4M evaluations and 109 MB
        (["integrate", "--f", "exp(sin(1/x))", "--a", "1e-6", "--b", "1"],
         f"above the budget of {2**20} evaluations"),
    ],
)
def test_a_report_that_fails_exits_two_alike_in_every_format(capsys, monkeypatch, argv, message):
    if message == "the sampled modulus c_star is -inf":
        _force_open(monkeypatch)  # the grid decides c_star only under an open bracket
    results = formats(capsys, *argv)
    for code, out, err in results:
        assert (code, out, err) == (2, "", results[0][2])
    assert results[0][2].startswith("error: ") and message in results[0][2]


def test_the_dm_chain_needs_no_squared_width_and_holds_on_a_wide_interval(capsys):
    for code, out, err in formats(capsys, "chain", "--f", "1", "--a", "-1e160", "--b", "1e160",
                                  "--which", "dm"):
        assert (code, err) == (0, "") and out


_REFUSALS = [
    ParseError("refused", 0),
    NotPositiveError("refused"),
    NotLogConvexError("refused", report=None),
    IntegrandError("refused", x=0.5),
    Refused("refused"),
]


@pytest.mark.parametrize("error", _REFUSALS, ids=lambda error: type(error).__name__)
def test_a_sweep_case_and_the_cli_refuse_the_same_errors(capsys, monkeypatch, error):
    def refuse(*args):
        raise error

    monkeypatch.setattr(chains, "_means", refuse)
    result = harness.run_case(harness.CaseSpec("custom", (), 0.0, 1.0, 0, "exp(x^2)"), c=0.5)
    kinds = (harness.KIND_DM, harness.KIND_T1, harness.KIND_T2)
    assert [result.outcomes[kind] for kind in kinds] == ["not_applicable"] * 3
    code, out, err = run(capsys, "chain", "--f", "exp(x^2)", "--a", "0", "--b", "1",
                         "--which", "dm")
    assert (code, out) == (2, "") and err.startswith("error: refused")


def test_an_internal_error_is_raised_by_a_sweep_and_exits_three(capsys, monkeypatch):
    # a ValueError that no input check raised is a defect: bare ValueError was
    # once a refusal, so the sweep tallied such a case not_applicable and the
    # CLI exited 2 as if the input were refused
    def broken(*args):
        raise ValueError("operands could not be broadcast together")

    monkeypatch.setattr(chains, "_means", broken)
    with pytest.raises(ValueError, match="could not be broadcast") as raised:
        harness.sweep(3, ("exp_quadratic",), seed=3)
    assert not isinstance(raised.value, Refused)
    code, out, err = run(capsys, "chain", "--f", "exp(x^2)", "--a", "0", "--b", "1",
                         "--which", "dm")
    assert (code, out) == (3, "")
    assert err.startswith("Traceback") and "could not be broadcast" in err


def test_maxc_whose_root_fails_the_chain_beyond_rounding_exits_three(capsys, monkeypatch):
    # the ArithmeticError of max_feasible_c is a defect, not a violation (1)
    real = chains.theorem1_chain

    def failing_above_zero(f, a, b, c, *args, **kwargs):
        report = real(f, a, b, c, *args, **kwargs)
        return report if c == 0.0 else dataclasses.replace(report, holds=False)

    monkeypatch.setattr(chains, "theorem1_chain", failing_above_zero)
    code, out, err = run(capsys, "maxc", "--f", "exp(x^2)", "--a", "0", "--b", "1")
    assert (code, out) == (3, "")
    assert err.startswith("Traceback") and "fails the chain beyond rounding" in err


def test_a_negative_value_may_use_exponent_notation(capsys):
    argv = ["certify", "--f", "exp(x^2)", "--b", "1", "--grid", "16", "--json"]
    spaced = run(capsys, *argv, "--a", "-1e-3")
    assert spaced == run(capsys, *argv, "--a=-1e-3")
    assert spaced[0] == 0 and json.loads(spaced[1])["inputs"]["a"] == -1e-3
    code, out, err = run(capsys, "theorem2", "--f", "exp(x^2)", "--a", "0", "--b", "1",
                         "--c", "-1e-3")
    assert (code, out, err) == (2, "", "error: modulus must be nonnegative, got -0.001\n")


@pytest.mark.parametrize("text", ["-x^2", "-exp(x)"])
def test_an_expression_may_start_with_a_minus_after_a_space(capsys, text):
    argv = ["--a", "0", "--b", "1", "--json"]
    spaced = run(capsys, "integrate", "--f", text, *argv)
    assert spaced == run(capsys, "integrate", f"--f={text}", *argv)
    assert spaced[0] == 0 and json.loads(spaced[1])["inputs"]["f"] == text


def test_help_still_follows_a_subcommand(capsys):
    code, out, _ = run(capsys, "chain", "-h")
    assert code == 0 and out.startswith("usage: hhcert chain")


def test_sweep_refuses_a_zero_tolerance_before_any_case(capsys):
    code, out, err = run(capsys, "sweep", "--families", "exp_quadratic", "--cases", "4",
                         "--seed", "3", "--tol", "0")
    assert (code, out) == (2, "")
    assert err == "error: tolerance must be positive and finite, got 0.0\n"


def test_an_unwritable_out_path_exits_two_naming_it(tmp_path, capsys):
    path = tmp_path / "missing" / "r.json"
    code, out, err = run(capsys, "sweep", "--families", "exp_quadratic", "--cases", "2",
                         "--seed", "3", "--json", "--out", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {path}: ")


def test_usage_error_exits_two(capsys):
    assert main(["chain", "--f", "x"]) == 2  # missing required flags


def test_one_parser_per_process_answers_as_fresh_parsers_do(capsys, monkeypatch):
    import hhcert.cli

    sequence = [
        ["chain", "--f", "x"],
        ["--help"],
        ["sweep", "--families", "exp_quadratic,log_affine", "--cases", "3", "--seed", "5",
         "--json"],
        ["maxc", "--f", "exp(x^2)", "--a", "0", "--b", "1", "--json"],
        ["certify", "--help"],
        ["maxc", "--f", "-x^2", "--a", "0", "--b", "1"],
    ]
    hhcert.cli._parser.cache_clear()
    cached = [run(capsys, *argv) for argv in sequence]
    assert hhcert.cli._parser.cache_info().misses == 1
    assert hhcert.cli.build_parser() is not hhcert.cli.build_parser()
    monkeypatch.setattr(hhcert.cli, "_parser", hhcert.cli.build_parser)
    fresh = [run(capsys, *argv) for argv in sequence]
    assert cached == fresh
    assert [code for code, _, _ in cached] == [2, 0, 0, 0, 0, 2]


# --------------------------------------------------------------------------
# JSON reports
# --------------------------------------------------------------------------

def test_chain_json_shape(capsys):
    code, out, _ = run(capsys, "chain", "--f", "exp(x^2)", "--a", "0", "--b", "1",
                       "--which", "dm", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "chain"
    assert list(doc) == ["command", "version", "inputs", "outputs", "violations"]
    assert len(doc["outputs"]["terms"]) == 6
    assert len(doc["outputs"]["margins"]) == 5
    assert doc["outputs"]["holds"] is True
    assert doc["violations"] == []


def test_json_reserializes_byte_identically(capsys):
    for argv in [
        ["chain", "--f", "exp(x^2)", "--a", "0", "--b", "1", "--which", "t1",
         "--c", "0.5", "--json"],
        ["certify", "--f", "exp(x^2)", "--a", "0", "--b", "1", "--grid", "16",
         "--refine", "1", "--json"],
        ["integrate", "--f", "exp(x^2)", "--a", "0", "--b", "1", "--json"],
    ]:
        code = main(argv)
        out = capsys.readouterr().out
        assert out.endswith("\n")
        assert dumps_canonical(json.loads(out)) + "\n" == out


@pytest.mark.parametrize(
    "f, a, b, status",
    [("exp(0.5*x + 0.25)", "-1", "1", "certified_zero"),
     ("(x+0.5)^-1", "0", "1e-4", "certified_positive")],
    ids=["log_affine", "narrow_power"],
)
def test_certify_reports_the_bracket_verdict(capsys, f, a, b, status):
    # the grid once called the first not_log_convex at c* ~ -1e-8 and the
    # second at c* = -25.27, both from rounding noise in its ratios
    code, out, _ = run(capsys, "certify", "--f", f, "--a", a, "--b", b, "--json")
    outputs = json.loads(out)["outputs"]
    assert (code, outputs["status"]) == (0, status)
    assert outputs["c_star"] == 0.0 if status == "certified_zero" else outputs["c_star"] > 3.99


def test_certify_json_fields(capsys, monkeypatch):
    # under an open bracket exp(-(x-0.4)^2)'s c_star is the grid's and every
    # round is searched; exp(x^2)'s proved modulus leaves the rounds nothing
    # to move
    for f, status, rounds in [("exp(-(x-0.4)^2)", "not_log_convex", 2),
                              ("exp(x^2)", "certified_positive", 0)]:
        with monkeypatch.context() as m:
            if rounds:
                _force_open(m)
            code, out, _ = run(capsys, "certify", "--f", f, "--a", "0", "--b", "1",
                               "--grid", "32", "--refine", "2", "--json")
        assert code == 0
        doc = json.loads(out)
        outputs = doc["outputs"]
        assert outputs["status"] == status
        assert (outputs["c_star"] > 0) == (status == "certified_positive")
        assert len(outputs["witness"]) == 3
        assert outputs["grid_size"] == 32 and outputs["refinement_rounds"] == rounds


def test_certify_reports_its_bracket_after_the_status(capsys):
    # a bracket-settled certificate rests on the bracket alone, so the report
    # shows both ends; exp(x^2) on [0, 1] has c* = 1
    code, out, _ = run(capsys, "certify", "--f", "exp(x^2)", "--a", "0", "--b", "1", "--json")
    outputs = json.loads(out)["outputs"]
    assert list(outputs) == ["c_star", "witness", "grid_size", "refinement_rounds", "status",
                             "c_lo", "c_up"]
    assert code == 0 and outputs["c_lo"] == outputs["c_star"] <= 1.0 <= outputs["c_up"]
    # an unbounded end is null: c_up of a modulus near 1e320
    code, out, _ = run(capsys, "certify", "--f", "1e300*exp(1e20*x^2)", "--a", "0", "--b",
                       "1e-10", "--json")
    outputs = json.loads(out)["outputs"]
    assert code == 0 and outputs["c_lo"] == outputs["c_star"] and outputs["c_up"] is None


def test_theorem2_printed_not_applicable_is_marked(capsys):
    # decreasing on [0,1] (so f(b)-f(a) < 0 and the printed log is undefined)
    # yet strongly log-convex, so the corrected bound holds at a small c
    code, out, _ = run(capsys, "theorem2", "--f", "exp(x^2 - 2*x)", "--a", "0", "--b", "1",
                       "--c", "0.05", "--form", "printed", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["printed_applicable"] is False
    assert doc["outputs"]["rhs_as_printed"] is None
    assert doc["outputs"]["holds_corrected"] is True


def test_integrate_json_value(capsys):
    code, out, _ = run(capsys, "integrate", "--f", "x^2", "--a", "0", "--b", "1",
                       "--tol", "1e-12", "--json")
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["outputs"]["value"] - 1.0 / 3.0) <= 1e-12
    assert doc["outputs"]["converged"] is True


def test_theorem2_violation_exits_one(capsys):
    # e^x is log-affine (maximal modulus 0), so any forced positive modulus
    # breaks the corrected bound
    code, out, _ = run(capsys, "theorem2", "--f", "exp(x)", "--a", "0", "--b", "1",
                       "--c", "0.5", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["outputs"]["holds_corrected"] is False
    assert len(doc["violations"]) == 1
    assert doc["violations"][0]["margin"] < 0


def test_integrate_non_convergence_is_reported_not_fatal(capsys):
    # absolute 1e-14 on an e^20-magnitude integral is below one ulp; the best
    # estimate comes back with converged=false and a clean exit
    code, out, _ = run(capsys, "integrate", "--f", "exp(20*x)", "--a", "0", "--b", "1",
                       "--tol", "1e-14", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["outputs"]["converged"] is False
    expected = (math.exp(20.0) - 1.0) / 20.0
    assert doc["outputs"]["value"] == pytest.approx(expected, rel=1e-12)


def test_maxc_constant(capsys):
    code, out, _ = run(capsys, "maxc", "--f", "1", "--a", "0", "--b", "1", "--json")
    assert code == 0
    assert abs(json.loads(out)["outputs"]["max_c"]) <= 1e-9


def test_maxc_non_log_convex_exits_two(capsys):
    code, _, err = run(capsys, "maxc", "--f", "exp(-x^2)", "--a", "0", "--b", "1")
    assert code == 2
    assert "log-convex" in err


# --------------------------------------------------------------------------
# CSV reports
# --------------------------------------------------------------------------

def test_chain_csv_rows(capsys):
    code, out, _ = run(capsys, "chain", "--f", "exp(x)", "--a", "0", "--b", "1",
                       "--which", "classical", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "term_index,term_name,value,margin_to_next"
    assert len(lines) == 4  # header + 3 terms
    last = lines[-1].split(",")
    assert last[0] == "2" and last[-1] == ""  # final term has no next margin


def test_sweep_csv_rows(capsys):
    code, out, _ = run(capsys, "sweep", "--families", "exp_quadratic", "--cases", "3",
                       "--seed", "9", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "case_index,family,a,b,c,chain_kind,holds,min_margin"
    assert len(lines) == 1 + 3 * 4  # header + cases x chain kinds


def test_sweep_csv_exit_code_tracks_violations(capsys):
    code, out, _ = run(capsys, "sweep", "--families", "scaled_power", "--cases", "8",
                       "--seed", "33", "--csv")
    assert code == 1
    assert any(",false," in line for line in out.splitlines())


# --------------------------------------------------------------------------
# one document, three formats
# --------------------------------------------------------------------------

@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "--f", "exp(x^2)", "--a", "0", "--b", "1", "--which", "classical"],
        ["chain", "--f", "exp(-x^2)", "--a", "0", "--b", "1", "--which", "dm"],
        ["chain", "--f", "1", "--a", "0", "--b", "1", "--which", "t1", "--c", "1"],
        ["certify", "--f", "exp(x^2)", "--a", "0", "--b", "1", "--grid", "16", "--refine", "1"],
        ["theorem2", "--f", "exp(x^2)", "--a", "0", "--b", "1", "--c", "0.25", "--form", "both"],
        ["theorem2", "--f", "exp(x)", "--a", "0", "--b", "1", "--c", "0.5", "--form", "both"],
        ["integrate", "--f", "x^2", "--a", "0", "--b", "1"],
        ["maxc", "--f", "exp(x^2)", "--a", "0", "--b", "1"],
        ["sweep", "--families", "scaled_power", "--cases", "8", "--seed", "33"],
        # an unbounded bracket end: c_up here, both ends where abs crosses 0
        ["certify", "--f", "1e300*exp(1e20*x^2)", "--a", "0", "--b", "1e-10"],
        ["certify", "--f", "exp(abs(x))", "--a", "-1", "--b", "1", "--grid", "16"],
    ],
)
def test_every_format_renders_the_one_document(capsys, argv):
    (text_code, text, _), (code, out, _), (csv_code, csv_out, _) = formats(capsys, *argv)
    assert text_code == code == csv_code and text
    outputs = json.loads(out)["outputs"]
    rows = list(csv.reader(io.StringIO(csv_out)))
    if argv[0] == "chain":
        margins = outputs["margins"] + [None]
        assert rows == [["term_index", "term_name", "value", "margin_to_next"]] + [
            [str(i), name, _fmt(value), _fmt(margin)]
            for i, ((name, value), margin) in enumerate(zip(outputs["terms"], margins))
        ]
    elif argv[0] == "sweep":
        outcome = {"true": "holds", "false": "violated", "na": "not_applicable"}
        tally = Counter((outcome[row[6]], row[5]) for row in rows[1:])
        counts = {(key, kind): n for key in outcome.values() for kind, n in outputs[key].items()}
        assert tally == +Counter(counts) and sum(tally.values()) == 4 * outputs["cases_run"]
    else:
        expected = [["key", "value"]]
        for key, value in outputs.items():
            if key == "witness":
                expected += [[f"witness_{n}", _fmt(v)] for n, v in zip(("x", "y", "lam"), value)]
            else:
                expected.append([key, _fmt(value)])
        assert rows == expected


# --------------------------------------------------------------------------
# sweeps and determinism
# --------------------------------------------------------------------------

def test_sweep_json_and_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, out, _ = run(capsys, "sweep", "--families", "exp_quadratic,log_affine",
                       "--cases", "5", "--seed", "3", "--json", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text(encoding="utf-8") == out
    doc = json.loads(out)
    assert doc["outputs"]["cases_run"] == 5
    counts = doc["outputs"]
    for kind in ["dragomir_mond", "theorem1", "theorem2_corrected", "theorem2_as_printed"]:
        total = counts["holds"][kind] + counts["violated"][kind] + counts["not_applicable"][kind]
        assert total == 5


def test_sweep_with_violations_exits_one(capsys):
    # scaled_power draws log-concave functions, so six-term violations happen
    code, out, _ = run(capsys, "sweep", "--families", "scaled_power", "--cases", "12",
                       "--seed", "33", "--json")
    doc = json.loads(out)
    assert (code == 1) == (len(doc["violations"]) >= 1)
    assert code == 1  # seed chosen so violations exist


@pytest.mark.parametrize(
    "argv",
    [
        ["chain", "--f", "exp(x^2)", "--a", "0", "--b", "1", "--which", "dm", "--json"],
        ["sweep", "--families", "exp_quadratic", "--cases", "4", "--seed", "7", "--json"],
        ["sweep", "--families", "exp_quadratic", "--cases", "4", "--seed", "7", "--csv"],
        ["certify", "--f", "exp(x^2)", "--a", "0", "--b", "1", "--json"],
    ],
)
def test_identical_invocations_are_byte_identical(argv, capsys):
    main(list(argv))
    first = capsys.readouterr().out
    main(list(argv))
    second = capsys.readouterr().out
    assert first == second


# --------------------------------------------------------------------------
# human-readable and key,value outputs (smoke level)
# --------------------------------------------------------------------------

def test_certify_csv_and_human(capsys):
    code, out, _ = run(capsys, "certify", "--f", "exp(x^2)", "--a", "0", "--b", "1",
                       "--grid", "16", "--refine", "1", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("c_star,") for line in lines)
    assert any(line == "status,certified_positive" for line in lines)

    code, out, _ = run(capsys, "certify", "--f", "exp(x^2)", "--a", "0", "--b", "1",
                       "--grid", "16", "--refine", "1")
    assert code == 0
    assert "c_star" in out and "witness" in out and "certified_positive" in out


def test_theorem2_csv_and_human(capsys):
    code, out, _ = run(capsys, "theorem2", "--f", "exp(x^2)", "--a", "0", "--b", "1",
                       "--c", "0.25", "--form", "both", "--csv")
    assert code == 0
    assert out.splitlines()[0] == "key,value"
    assert any(line.startswith("lhs,") for line in out.splitlines())

    code, out, _ = run(capsys, "theorem2", "--f", "exp(x^2 - 2*x)", "--a", "0", "--b", "1",
                       "--c", "0.05", "--form", "both")
    assert code == 0
    assert "not applicable" in out  # the printed variant's marker


def test_integrate_and_maxc_csv(capsys):
    code, out, _ = run(capsys, "integrate", "--f", "x^2", "--a", "0", "--b", "1", "--csv")
    assert code == 0
    assert any(line.startswith("value,") for line in out.splitlines())
    code, out, _ = run(capsys, "maxc", "--f", "exp(x^2)", "--a", "0", "--b", "1", "--csv")
    assert code == 0
    assert out.splitlines()[1].startswith("max_c,")


def test_sweep_human_summary_mentions_violations(capsys):
    code, out, _ = run(capsys, "sweep", "--families", "scaled_power", "--cases", "8",
                       "--seed", "33")
    assert code == 1
    assert "VIOLATION" in out
    assert "dragomir_mond" in out


def test_sweep_text_notes_the_as_printed_failures(capsys):
    # the as-printed product bound is a typeset discrepancy: noted, not a violation
    code, out, _ = run(capsys, "sweep", "--families", "exp_quadratic", "--cases", "4",
                       "--seed", "0")
    assert code == 0
    assert "VIOLATION" not in out
    assert out.splitlines()[-1] == (
        "  note: 1 as-printed product-bound failures (documented typeset discrepancy;"
        " not counted as violations)"
    )


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "hhcert" in capsys.readouterr().out


def test_the_package_runs_as_a_module():
    src = os.path.dirname(os.path.dirname(hhcert.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-m", "hhcert", "--version"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == f"hhcert {hhcert.__version__}\n"
