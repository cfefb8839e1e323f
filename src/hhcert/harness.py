"""Randomized sweep harness: generate cases, certify, check every chain.

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
sweep certifies each case once, draws c = c_star * u with u in (0, 1] for a
strictly positive modulus, and passes c and the certificate to
``run_case``, which parses the expression once and assembles every chain
from one quadrature pass.  The Dragomir-Mond chain runs for every case (it
only needs positivity); the strengthened chain and the product bound run
when c is given.  A check that refuses its case (an error of
``chains._REFUSALS``, on which the CLI exits 2) records not_applicable.
Failures of the "as printed" product bound are tallied separately and
never fail a sweep: they document a typeset discrepancy, not a property
of f.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from . import chains
from .certify import CertStatus, ModulusCertificate, estimate_modulus
from .expr import Expression, parse
from .quadrature import _validate_tolerance

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

# Certifier resolution used inside sweeps; coarser than the certify-module
# defaults so 500-case sweeps stay inside the desk-scale budget.  The grid
# minimum is evidence, not a bound: it can land above the true modulus
# (1188 such overshoots in the benchmark's 48-seed sweep cycle), so a drawn
# modulus c = c_star * u is not guaranteed conservative.
SWEEP_GRID_N = 16
SWEEP_REFINE_ROUNDS = 3


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
    certificate: Optional[ModulusCertificate]
    c: Optional[float]
    outcomes: Dict[str, str]
    min_margins: Dict[str, Optional[float]]
    witness_pairs: Dict[str, Optional[Tuple[str, str]]]


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
        raise ValueError("custom cases are constructed directly, not generated")
    if family not in ALL_FAMILIES:
        raise ValueError(f"unknown family {family!r}")
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


def _certify(case: CaseSpec, grid_n: int, refine_rounds: int) -> Optional[ModulusCertificate]:
    """The case's modulus certificate, or None where the certifier refuses the case."""
    f = case.expression()
    try:
        return estimate_modulus(f, case.a, case.b, grid_n, refine_rounds)
    except chains._REFUSALS:
        return None


def run_case(
    case: CaseSpec,
    c: Optional[float] = None,
    tol: float = chains.DEFAULT_TOL,
    margin_tol: float = chains.DEFAULT_MARGIN_TOL,
    grid_n: int = SWEEP_GRID_N,
    refine_rounds: int = SWEEP_REFINE_ROUNDS,
    certificate: Optional[ModulusCertificate] = None,
) -> CaseResult:
    """Certify one case and run every applicable chain check.

    The strengthened chain and the product bound run only when ``c`` is
    given: a sweep passes c = c_star * u for a certified-positive case, with
    its certificate, and tests may force any c, including infeasible ones.
    Without a certificate the case is certified here.
    """
    outcomes: Dict[str, str] = {kind: NOT_APPLICABLE for kind in CHAIN_KINDS}
    margins: Dict[str, Optional[float]] = {kind: None for kind in CHAIN_KINDS}
    pairs: Dict[str, Optional[Tuple[str, str]]] = {kind: None for kind in CHAIN_KINDS}

    f = case.expression()
    a, b = case.a, case.b
    if certificate is None:
        certificate = _certify(case, grid_n, refine_rounds)

    try:
        m = chains._means(f, a, b, tol)
        dm = chains._dm_assemble(f, a, b, m, margin_tol)
        outcomes[KIND_DM], margins[KIND_DM], pairs[KIND_DM] = _chain_outcome(dm)
    except chains._REFUSALS:
        m = None
    if m is not None and c is not None:
        try:
            modulus = chains._modulus(c)
            t1 = chains._theorem1_assemble(f, a, b, modulus, m, margin_tol)
            outcomes[KIND_T1], margins[KIND_T1], pairs[KIND_T1] = _chain_outcome(t1)
            t2 = chains._theorem2_assemble(f, a, b, modulus, m, margin_tol, "both")
            outcomes[KIND_T2] = HOLDS if t2.holds_corrected else VIOLATED
            margins[KIND_T2] = t2.margin_corrected
            pairs[KIND_T2] = chains._THEOREM2_PAIR
            if t2.holds_as_printed is not None:
                outcomes[KIND_T2_PRINTED] = HOLDS if t2.holds_as_printed else VIOLATED
                margins[KIND_T2_PRINTED] = t2.margin_as_printed
                pairs[KIND_T2_PRINTED] = (chains._THEOREM2_PAIR[0], "rhs_as_printed")
        except chains._REFUSALS:
            pass

    return CaseResult(
        case=case,
        certificate=certificate,
        c=c,
        outcomes=outcomes,
        min_margins=margins,
        witness_pairs=pairs,
    )


def sweep_results(
    n_cases: int,
    families: Sequence[str] = ALL_FAMILIES,
    seed: int = 0,
    tol: float = chains.DEFAULT_TOL,
    margin_tol: float = chains.DEFAULT_MARGIN_TOL,
    grid_n: int = SWEEP_GRID_N,
    refine_rounds: int = SWEEP_REFINE_ROUNDS,
) -> Tuple[CaseResult, ...]:
    """Run ``n_cases`` generated cases and return their results in order.

    Case i draws from substream i of SeedSequence(seed) and stores i in
    CaseSpec.seed, so any case can be reproduced from (seed, index) alone.
    Individual case errors are recorded as not_applicable outcomes and
    never abort the sweep; a tolerance that every case would refuse is
    refused before any case is drawn.
    """
    if n_cases < 1:
        raise ValueError(f"n_cases must be at least 1, got {n_cases}")
    families = tuple(families)
    if not families:
        raise ValueError("need at least one family")
    for family in families:
        if family not in ALL_FAMILIES:
            raise ValueError(f"unknown family {family!r}")
    _validate_tolerance(tol)

    results = []
    streams = np.random.SeedSequence(seed).spawn(n_cases)
    for index in range(n_cases):
        rng = np.random.default_rng(streams[index])
        family = families[int(rng.integers(len(families)))] if len(families) > 1 else families[0]
        u = 1.0 - float(rng.random())  # in (0, 1]
        case = generate_case(family, rng, seed=index)
        certificate = _certify(case, grid_n, refine_rounds)
        positive = certificate is not None and certificate.status is CertStatus.CERTIFIED_POSITIVE
        c = certificate.c_star * u if positive else None
        results.append(run_case(case, c, tol, margin_tol, grid_n, refine_rounds, certificate))
    return tuple(results)


def aggregate_results(
    results: Sequence[CaseResult], families: Sequence[str], seed: int
) -> SweepReport:
    """Tally per-kind verdicts over case results (in case-index order)."""
    holds = {kind: 0 for kind in CHAIN_KINDS}
    violated = {kind: 0 for kind in CHAIN_KINDS}
    not_applicable = {kind: 0 for kind in CHAIN_KINDS}
    violations = []
    printed_failures = []
    for index, result in enumerate(results):
        for kind in CHAIN_KINDS:
            outcome = result.outcomes[kind]
            if outcome == HOLDS:
                holds[kind] += 1
            elif outcome == VIOLATED:
                violated[kind] += 1
                entry = SweepViolation(
                    case_index=index,
                    case=result.case,
                    kind=kind,
                    min_margin=float(result.min_margins[kind]),
                    witness=result.witness_pairs[kind],
                )
                if kind == KIND_T2_PRINTED:
                    printed_failures.append(entry)
                else:
                    violations.append(entry)
            else:
                not_applicable[kind] += 1
    return SweepReport(
        cases_run=len(results),
        seed=seed,
        families=tuple(families),
        holds=holds,
        violated=violated,
        not_applicable=not_applicable,
        violations=tuple(violations),
        as_printed_failures=tuple(printed_failures),
    )


def sweep(
    n_cases: int,
    families: Sequence[str] = ALL_FAMILIES,
    seed: int = 0,
    tol: float = chains.DEFAULT_TOL,
    margin_tol: float = chains.DEFAULT_MARGIN_TOL,
    grid_n: int = SWEEP_GRID_N,
    refine_rounds: int = SWEEP_REFINE_ROUNDS,
) -> SweepReport:
    """Run ``n_cases`` generated cases and aggregate verdicts by chain kind.

    Rerunning with the same arguments reproduces the report bit-identically.
    """
    results = sweep_results(
        n_cases, families, seed, tol, margin_tol, grid_n, refine_rounds
    )
    return aggregate_results(results, tuple(families), seed)

