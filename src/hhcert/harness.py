"""Randomized sweep harness: generate cases, bracket their moduli, check every chain.

Case families (parameter ranges in brackets, intervals drawn with endpoints
in [-2, 2] and b - a >= 0.1; every generated f is positive by construction):

* ``exp_quadratic``: f = exp(alpha x^2 + beta x + gamma), alpha in [0, 3],
  beta in [-2, 2], gamma in [-1, 1] — strongly log-convex for alpha > 0;
* ``log_affine``: f = exp(beta x + gamma) — the log-convex equality family;
* ``scaled_power``: f = (x + s)^p with x + s >= 0.1 on the interval and
  p in [-2, 2] — log-convex for p <= 0, a counterexample family otherwise;
* ``custom``: caller-provided expression text (never generated).

Each sweep case gets its own substream spawned from one seed, so reports
are bit-identical across reruns and independent of execution order.  A
sweep makes three passes: it draws every case, brackets each case's
modulus once with ``modulus_bracket``, then runs ``run_case`` on each; as
no state crosses cases, the results equal the cases run one at a time.  It
takes c = c_lo * u with u in (0, 1] where the bracket proves c_lo > 0,
which is conservative by proof; every other case gets no c.  It passes c
and the bracket to ``run_case``, which parses the expression once and calls
the public chain checks, which share the one quadrature pass ``chains``
keeps.
The Dragomir-Mond chain runs for every case (it only needs positivity);
the strengthened chain and the product bound run when c is given and it
was not refused.  A check that refuses its case (``Refused``, on which the
CLI exits 2) ends it, and every kind not yet judged records
not_applicable; any other error is a defect and propagates.
Failures of the "as printed" product bound are tallied separately and
never fail a sweep: they document a typeset discrepancy, not a property of f.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import chains
from .certify import CertStatus, ModulusBracket, modulus_bracket
from .expr import Expression, Refused, parse
from .quadrature import _count, _validate_tolerance

__all__ = [
    "ALL_FAMILIES",
    "CHAIN_KINDS",
    "KIND_DM",
    "KIND_T1",
    "KIND_T2",
    "KIND_T2_PRINTED",
    "CaseSpec",
    "CaseResult",
    "SweepViolation",
    "SweepReport",
    "generate_case",
    "run_case",
    "sweep",
    "sweep_results",
    "aggregate_results",
]

ALL_FAMILIES = ("exp_quadratic", "log_affine", "scaled_power")

KIND_DM = "dragomir_mond"
KIND_T1 = "theorem1"
KIND_T2 = "theorem2_corrected"
KIND_T2_PRINTED = "theorem2_as_printed"
CHAIN_KINDS = (KIND_DM, KIND_T1, KIND_T2, KIND_T2_PRINTED)

HOLDS = "holds"
VIOLATED = "violated"
NOT_APPLICABLE = "not_applicable"


@dataclass(frozen=True)
class CaseSpec:
    family: str
    parameters: Tuple[float, ...]
    a: float
    b: float
    seed: int
    function_text: str

    def expression(self) -> Expression:
        return self._expression

    @cached_property
    def _expression(self) -> Expression:
        # cached_property writes the instance dict directly, so the frozen
        # case still compares and hashes by its fields alone
        return parse(self.function_text)


@dataclass(frozen=True)
class CaseResult:
    case: CaseSpec
    c: Optional[float]
    outcomes: Dict[str, str]
    min_margins: Dict[str, Optional[float]]
    witness_pairs: Dict[str, Optional[Tuple[str, str]]]
    bracket: Optional[ModulusBracket] = None  # the proof a sweep's c rests on


@dataclass(frozen=True)
class SweepViolation:
    case_index: int
    case: CaseSpec
    kind: str
    min_margin: float
    witness: Tuple[str, str]


@dataclass(frozen=True)
class SweepReport:
    cases_run: int
    seed: int
    families: Tuple[str, ...]
    holds: Dict[str, int]
    violated: Dict[str, int]
    not_applicable: Dict[str, int]
    violations: Tuple[SweepViolation, ...]
    as_printed_failures: Tuple[SweepViolation, ...] = field(default_factory=tuple)


def _draw_interval(rng: np.random.Generator) -> Tuple[float, float]:
    while True:
        lo, hi = sorted(rng.uniform(-2.0, 2.0, size=2))
        if hi - lo >= 0.1:
            return float(lo), float(hi)


def generate_case(family: str, rng: np.random.Generator, seed: int = 0) -> CaseSpec:
    """Draw one CaseSpec; deterministic given the generator state.

    The ranges keep f finite and positive (exponents in [-5, 17]; x + s in
    [0.1, 5] with |p| <= 2), so f is not evaluated and no draw is redrawn.
    """
    if family == "custom":
        raise Refused("custom cases are constructed directly, not generated")
    if family not in ALL_FAMILIES:
        raise Refused(f"unknown family {family!r}")
    a, b = _draw_interval(rng)
    if family == "exp_quadratic":
        alpha = float(rng.uniform(0.0, 3.0))
        beta = float(rng.uniform(-2.0, 2.0))
        gamma = float(rng.uniform(-1.0, 1.0))
        params: Tuple[float, ...] = (alpha, beta, gamma)
        text = f"exp({alpha!r}*x^2 + {beta!r}*x + {gamma!r})"
    elif family == "log_affine":
        beta = float(rng.uniform(-2.0, 2.0))
        gamma = float(rng.uniform(-1.0, 1.0))
        params = (beta, gamma)
        text = f"exp({beta!r}*x + {gamma!r})"
    else:  # scaled_power
        s = float(rng.uniform(0.1 - a, 3.0))
        p = float(rng.uniform(-2.0, 2.0))
        params = (s, p)
        text = f"(x + {s!r})^{p!r}"
    return CaseSpec(family=family, parameters=params, a=a, b=b, seed=seed, function_text=text)


def _chain_outcome(report) -> Tuple[str, float, Tuple[str, str]]:
    idx = min(range(len(report.margins)), key=lambda i: report.margins[i])
    pair = (report.terms[idx][0], report.terms[idx + 1][0])
    return (HOLDS if report.holds else VIOLATED), report.min_margin, pair


def run_case(
    case: CaseSpec,
    c: Optional[float] = None,
    tol: float = chains.DEFAULT_TOL,
    margin_tol: float = chains.DEFAULT_MARGIN_TOL,
    bracket: Optional[ModulusBracket] = None,
) -> CaseResult:
    """Run every applicable chain check of one case at modulus ``c``.

    It fills one table of (outcome, min margin, term pair) per kind from
    ``dragomir_mond_chain``, then, when ``c`` is given, ``theorem1_chain``
    and ``theorem2_bound(form="both")``, which reuse the first one's
    quadrature pass.  The first refusal ends the case; a kind it left out
    of the table is (not_applicable, None, None).  A sweep passes c = c_lo
    * u where the bracket proves c_lo > 0; tests may force any c, and
    ``bracket`` is only recorded.  A tolerance or margin_tol that every
    check would refuse is refused here, not recorded as not_applicable.
    """
    _validate_tolerance(tol)
    chains._validate_margin_tol(margin_tol)
    f = case.expression()
    a, b = case.a, case.b
    table: Dict[str, tuple] = {}  # kind -> (outcome, min margin, term pair)
    try:
        table[KIND_DM] = _chain_outcome(chains.dragomir_mond_chain(f, a, b, tol, margin_tol))
        if c is not None:
            table[KIND_T1] = _chain_outcome(chains.theorem1_chain(f, a, b, c, tol, margin_tol))
            t2 = chains.theorem2_bound(f, a, b, c, tol, margin_tol, form="both")
            lhs = chains._THEOREM2_PAIR[0]
            corrected = HOLDS if t2.holds_corrected else VIOLATED
            table[KIND_T2] = corrected, t2.margin_corrected, chains._THEOREM2_PAIR
            if t2.holds_as_printed is not None:
                printed = HOLDS if t2.holds_as_printed else VIOLATED
                table[KIND_T2_PRINTED] = printed, t2.margin_as_printed, (lhs, "rhs_as_printed")
    except Refused:
        pass
    rows = [table.get(kind, (NOT_APPLICABLE, None, None)) for kind in CHAIN_KINDS]
    outcomes, margins, pairs = (dict(zip(CHAIN_KINDS, column)) for column in zip(*rows))
    return CaseResult(
        case=case,
        c=c,
        outcomes=outcomes,
        min_margins=margins,
        witness_pairs=pairs,
        bracket=bracket,
    )


def sweep_results(
    n_cases: int,
    families: Sequence[str] = ALL_FAMILIES,
    seed: int = 0,
    tol: float = chains.DEFAULT_TOL,
    margin_tol: float = chains.DEFAULT_MARGIN_TOL,
) -> Tuple[CaseResult, ...]:
    """Run ``n_cases`` generated cases and return their results in order.

    Case i draws from substream i of SeedSequence(seed) and stores i in
    CaseSpec.seed, so any case can be reproduced from (seed, index) alone.
    One pass draws every case (its family, u and ``generate_case``), the
    next runs ``modulus_bracket`` on each and the last ``run_case``; each
    case has its own substream and no state crosses cases, so the results
    equal the cases run one at a time.
    A case's refusals are recorded as not_applicable outcomes and never
    abort the sweep, while any other error does; a tolerance or margin_tol
    that every case would refuse is refused before any case is drawn.
    """
    n_cases, seed = _count(n_cases, "n_cases"), _count(seed, "seed")
    if n_cases < 1:
        raise Refused(f"n_cases must be at least 1, got {n_cases}")
    if seed < 0:
        raise Refused(f"seed must be non-negative, got {seed}")
    families = tuple(families)
    if not families:
        raise Refused("need at least one family")
    for family in families:
        if family not in ALL_FAMILIES:
            raise Refused(f"unknown family {family!r}")
    _validate_tolerance(tol)
    chains._validate_margin_tol(margin_tol)

    drawn = []  # (case, u) per case
    for index in range(n_cases):
        # child i of SeedSequence(seed).spawn, built on its own so that the
        # sweep never holds the streams of every case at once
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
        family = families[int(rng.integers(len(families)))] if len(families) > 1 else families[0]
        u = 1.0 - float(rng.random())  # in (0, 1]
        drawn.append((generate_case(family, rng, seed=index), u))
    brackets = []
    for case, _ in drawn:
        try:
            brackets.append(modulus_bracket(case.expression(), case.a, case.b))
        except Refused:
            brackets.append(None)
    results = []
    for (case, u), bracket in zip(drawn, brackets):
        proved = bracket is not None and bracket.status is CertStatus.CERTIFIED_POSITIVE
        c = bracket.c_lo * u if proved else None
        results.append(run_case(case, c, tol, margin_tol, bracket))
    return tuple(results)


def aggregate_results(
    results: Sequence[CaseResult], families: Sequence[str], seed: int
) -> SweepReport:
    """Count each kind's outcomes in one table, and list each violation
    under its kind's list (in case-index order): the "as printed" product
    bound's in ``as_printed_failures``, every other in ``violations``."""
    counts = {o: dict.fromkeys(CHAIN_KINDS, 0) for o in (HOLDS, VIOLATED, NOT_APPLICABLE)}
    violations = []
    printed_failures = []
    for index, result in enumerate(results):
        for kind in CHAIN_KINDS:
            outcome = result.outcomes[kind]
            counts[outcome][kind] += 1
            if outcome == VIOLATED:
                entry = SweepViolation(
                    case_index=index,
                    case=result.case,
                    kind=kind,
                    min_margin=float(result.min_margins[kind]),
                    witness=result.witness_pairs[kind],
                )
                (printed_failures if kind == KIND_T2_PRINTED else violations).append(entry)
    return SweepReport(
        cases_run=len(results),
        seed=seed,
        families=tuple(families),
        holds=counts[HOLDS],
        violated=counts[VIOLATED],
        not_applicable=counts[NOT_APPLICABLE],
        violations=tuple(violations),
        as_printed_failures=tuple(printed_failures),
    )


def sweep(
    n_cases: int,
    families: Sequence[str] = ALL_FAMILIES,
    seed: int = 0,
    tol: float = chains.DEFAULT_TOL,
    margin_tol: float = chains.DEFAULT_MARGIN_TOL,
) -> SweepReport:
    """Run ``n_cases`` generated cases and aggregate verdicts by chain kind.

    Rerunning with the same arguments reproduces the report bit-identically.
    """
    results = sweep_results(n_cases, families, seed, tol, margin_tol)
    return aggregate_results(results, tuple(families), seed)

