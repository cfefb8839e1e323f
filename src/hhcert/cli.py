"""Command-line front end.

Subcommands:

* ``chain``      evaluate one inequality chain (classical | dm | t1)
* ``certify``    estimate the strong log-convexity modulus on an interval
* ``theorem2``   check the product-integral bound (corrected / printed / both)
* ``sweep``      run a randomized family sweep and aggregate verdicts
* ``integrate``  raw adaptive quadrature of an expression
* ``maxc``       largest modulus for which the strengthened chain holds

Every subcommand builds one report and ``main`` alone writes it, as the
canonical JSON document (``--json``: 17-significant-digit numbers, fixed
key order), as CSV rows (``--csv``: one per chain term, per sweep case and
chain kind, or per output key) or as text.  The document is serialized in
every format, so the exit code never depends on the format flag: 0 all
checks hold, 1 at least one inequality violation was found (still a
successful run), 2 usage errors, a refused input (``chains._REFUSALS``) or
a non-finite number, or an unwritable ``--out`` path (message on stderr,
nothing on stdout).  Intervals must be finite with a finite width b - a,
and tolerances positive and finite; an option value may start with '-'
(``--a -1e-3``, ``--f -x^2``).  Output is byte-identical across identical
invocations.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from typing import Iterable, List, NamedTuple, Optional, Sequence

from . import __version__, chains, harness
from .certify import estimate_modulus
from .expr import parse
from .quadrature import _integrate_expression
from .report import dumps_canonical, format_float

__all__ = ["main", "build_parser"]

# the --form choices, in help order, and the chains form each one selects
_THEOREM2_FORMS = {"corrected": "corrected", "printed": "as_printed", "both": "both"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hhcert",
        description="Certify strong log-convexity and verify Hermite-Hadamard-type chains.",
    )
    parser.add_argument("--version", action="version", version=f"hhcert {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_c=False, with_tol=True):
        p.add_argument("--f", required=True, metavar="EXPR", help="function of x, e.g. 'exp(x^2)'")
        p.add_argument("--a", required=True, type=float)
        p.add_argument("--b", required=True, type=float)
        if with_c:
            p.add_argument("--c", type=float, default=0.0, help="strong log-convexity modulus")
        if with_tol:
            p.add_argument("--tol", type=float, default=chains.DEFAULT_TOL)
        fmt = p.add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", help="emit the canonical JSON report")
        fmt.add_argument("--csv", action="store_true", help="emit CSV rows")

    p_chain = sub.add_parser("chain", help="evaluate one inequality chain")
    add_common(p_chain, with_c=True)
    p_chain.add_argument("--which", required=True, choices=("classical", "dm", "t1"))

    p_certify = sub.add_parser("certify", help="estimate the modulus of strong log-convexity")
    add_common(p_certify, with_tol=False)
    p_certify.add_argument("--grid", type=int, default=64)
    p_certify.add_argument("--refine", type=int, default=3)

    p_t2 = sub.add_parser("theorem2", help="check the product-integral bound")
    add_common(p_t2, with_c=True)
    p_t2.add_argument("--form", choices=tuple(_THEOREM2_FORMS), default="corrected")

    p_sweep = sub.add_parser("sweep", help="randomized family sweep")
    p_sweep.add_argument("--families", required=True, help="comma-separated family names")
    p_sweep.add_argument("--cases", required=True, type=int)
    p_sweep.add_argument("--seed", required=True, type=int)
    p_sweep.add_argument("--tol", type=float, default=chains.DEFAULT_TOL)
    p_sweep.add_argument("--out", metavar="PATH", help="also write the JSON report to PATH")
    fmt = p_sweep.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")

    p_int = sub.add_parser("integrate", help="adaptive quadrature of an expression")
    add_common(p_int)

    p_maxc = sub.add_parser("maxc", help="largest feasible modulus for the strengthened chain")
    add_common(p_maxc, with_tol=False)

    return parser


# --------------------------------------------------------------------------
# The report and its shared parts
# --------------------------------------------------------------------------

class _Output(NamedTuple):
    """One run's report: the canonical document, its two other views, the exit code.

    ``rows`` are CSV rows of raw values, which ``main`` formats with ``_fmt``;
    ``lines`` are the text lines.  Both are generators, so a run builds only
    the view it prints.
    """

    doc: dict
    rows: Iterable[Sequence]
    lines: Iterable[str]
    code: int


def _doc(command: str, inputs: dict, outputs: dict, violations: Iterable = ()) -> dict:
    return {"command": command, "version": __version__, "inputs": inputs, "outputs": outputs,
            "violations": list(violations)}


def _violations(names: Sequence[str], margins: Sequence[float], tol: float) -> list:
    """One entry per margin below -tol, naming the terms on either side of it."""
    return [{"term_pair": [names[i], names[i + 1]], "margin": margin}
            for i, margin in enumerate(margins) if margin < -tol]


def _key_value_rows(outputs: dict):
    """``key,value`` rows of a flat report; certify's witness becomes three rows."""
    yield "key", "value"
    for key, value in outputs.items():
        if key == "witness":
            yield from zip(("witness_x", "witness_y", "witness_lam"), value)
        else:
            yield key, value


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format_float(value)
    if value is None:
        return ""
    return str(value)


# --------------------------------------------------------------------------
# Subcommand drivers; each returns its _Output
# --------------------------------------------------------------------------

def _run_chain(args) -> _Output:
    f = parse(args.f)
    if args.which == "classical":
        rep = chains.classical_hh_terms(f, args.a, args.b, args.tol)
    elif args.which == "dm":
        rep = chains.dragomir_mond_chain(f, args.a, args.b, args.tol)
    else:
        rep = chains.theorem1_chain(f, args.a, args.b, args.c, args.tol)
    violations = _violations([name for name, _ in rep.terms], rep.margins, rep.tol)
    inputs = {"f": args.f, "a": args.a, "b": args.b, "c": rep.c, "tol": args.tol,
              "which": args.which}
    outputs = {
        "terms": [[name, value] for name, value in rep.terms],
        "margins": list(rep.margins),
        "holds": rep.holds,
        "min_margin": rep.min_margin,
        "margin_tol": rep.tol,
    }
    doc = _doc("chain", inputs, outputs, violations)
    return _Output(doc, _chain_rows(rep), _chain_lines(rep), 0 if rep.holds else 1)


def _chain_rows(rep: chains.ChainReport):
    yield "term_index", "term_name", "value", "margin_to_next"
    for i, (name, value) in enumerate(rep.terms):
        yield i, name, value, rep.margins[i] if i < len(rep.margins) else None


def _chain_lines(rep: chains.ChainReport):
    yield f"function : {rep.function_text}"
    yield f"interval : [{rep.a:g}, {rep.b:g}]   c = {rep.c:g}"
    width = max(len(name) for name, _ in rep.terms)
    for i, (name, value) in enumerate(rep.terms):
        margin = f"   margin {rep.margins[i]: .12g}" if i < len(rep.margins) else ""
        yield f"  {name:<{width}} = {value:.15g}{margin}"
    verdict = "holds" if rep.holds else "VIOLATED"
    yield f"chain {verdict}: min margin {rep.min_margin:.12g} (tol {rep.tol:.3g})"


def _run_certify(args) -> _Output:
    cert = estimate_modulus(parse(args.f), args.a, args.b, args.grid, args.refine)
    inputs = {"f": args.f, "a": args.a, "b": args.b, "grid": args.grid, "refine": args.refine}
    outputs = {"c_star": cert.c_star, "witness": list(cert.witness), "grid_size": cert.grid_size,
               "refinement_rounds": cert.refinement_rounds, "status": cert.status.value}
    doc = _doc("certify", inputs, outputs)
    return _Output(doc, _key_value_rows(outputs), _certify_lines(args, cert), 0)


def _certify_lines(args, cert):
    x, y, lam = cert.witness
    yield f"function : {args.f}"
    yield f"interval : [{args.a:g}, {args.b:g}]"
    yield f"c_star   : {cert.c_star:.15g}"
    yield f"witness  : x={x:.12g}  y={y:.12g}  lam={lam:.12g}"
    yield (f"status   : {cert.status.value} (grid {cert.grid_size}, "
           f"{cert.refinement_rounds} refinement rounds)")


def _run_theorem2(args) -> _Output:
    form = _THEOREM2_FORMS[args.form]
    rep = chains.theorem2_bound(parse(args.f), args.a, args.b, args.c, args.tol, form=form)
    violations = _violations(chains._THEOREM2_PAIR, [rep.margin_corrected], rep.tol)
    inputs = {"f": args.f, "a": args.a, "b": args.b, "c": rep.c, "tol": args.tol, "form": form}
    outputs = {
        "lhs": rep.lhs, "rhs_corrected": rep.rhs_corrected, "rhs_as_printed": rep.rhs_as_printed,
        "holds_corrected": rep.holds_corrected, "holds_as_printed": rep.holds_as_printed,
        "printed_applicable": rep.printed_applicable, "bracket_value": rep.bracket_value,
        "k": rep.k, "margin_corrected": rep.margin_corrected,
        "margin_as_printed": rep.margin_as_printed, "margin_tol": rep.tol,
    }
    doc = _doc("theorem2", inputs, outputs, violations)
    code = 0 if rep.holds_corrected else 1
    return _Output(doc, _key_value_rows(outputs), _theorem2_lines(rep, form), code)


def _theorem2_lines(rep: chains.Theorem2Report, form: str):
    yield f"function : {rep.function_text}"
    yield f"interval : [{rep.a:g}, {rep.b:g}]   c = {rep.c:g}"
    yield f"lhs  (mean product integral) = {rep.lhs:.15g}"
    yield (f"rhs  (corrected)             = {rep.rhs_corrected:.15g}"
           f"   margin {rep.margin_corrected:.12g}")
    if rep.rhs_as_printed is not None:
        yield (f"rhs  (as printed)            = {rep.rhs_as_printed:.15g}"
               f"   margin {rep.margin_as_printed:.12g}")
    elif form in ("as_printed", "both"):
        yield "rhs  (as printed)            : not applicable (needs f(b)-f(a) > 0 and != 1)"
    verdict = "holds" if rep.holds_corrected else "VIOLATED"
    yield f"corrected bound {verdict} (tol {rep.tol:.3g})"


def _sweep_entry(v: harness.SweepViolation) -> dict:
    case = v.case
    return {"case_index": v.case_index, "family": case.family, "f": case.function_text,
            "a": case.a, "b": case.b, "kind": v.kind, "min_margin": v.min_margin,
            "term_pair": list(v.witness)}


def _run_sweep(args) -> _Output:
    families = tuple(name.strip() for name in args.families.split(",") if name.strip())
    results = harness.sweep_results(args.cases, families, seed=args.seed, tol=args.tol)
    rep = harness.aggregate_results(results, families, args.seed)
    inputs = {"families": list(rep.families), "cases": rep.cases_run, "seed": rep.seed,
              "tol": args.tol}
    outputs = {"cases_run": rep.cases_run, "holds": dict(rep.holds),
               "violated": dict(rep.violated), "not_applicable": dict(rep.not_applicable)}
    doc = _doc("sweep", inputs, outputs, map(_sweep_entry, rep.violations))
    doc["as_printed_failures"] = list(map(_sweep_entry, rep.as_printed_failures))
    code = 0 if not rep.violations else 1
    return _Output(doc, _sweep_rows(results), _sweep_lines(rep), code)


_HOLDS_CELL = {"holds": "true", "violated": "false", "not_applicable": "na"}


def _sweep_rows(results: Sequence[harness.CaseResult]):
    yield "case_index", "family", "a", "b", "c", "chain_kind", "holds", "min_margin"
    for index, result in enumerate(results):
        case = result.case
        for kind in harness.CHAIN_KINDS:
            holds = _HOLDS_CELL[result.outcomes[kind]]
            yield (index, case.family, case.a, case.b, result.c, kind, holds,
                   result.min_margins[kind])


def _sweep_lines(rep: harness.SweepReport):
    yield f"sweep    : {rep.cases_run} cases, families {', '.join(rep.families)}, seed {rep.seed}"
    for kind in harness.CHAIN_KINDS:
        yield (f"  {kind:<22} holds {rep.holds[kind]:>5}   violated {rep.violated[kind]:>3}"
               f"   not_applicable {rep.not_applicable[kind]:>3}")
    for v in rep.violations:
        yield (f"  VIOLATION case {v.case_index} [{v.case.family}] {v.case.function_text}"
               f" on [{v.case.a:g}, {v.case.b:g}]: {v.kind} margin {v.min_margin:.6g}"
               f" at {v.witness[0]} -> {v.witness[1]}")
    if rep.as_printed_failures:
        yield (f"  note: {len(rep.as_printed_failures)} as-printed product-bound failures"
               " (documented typeset discrepancy; not counted as violations)")


def _run_integrate(args) -> _Output:
    res = _integrate_expression(parse(args.f), args.a, args.b, args.tol)
    outputs = {"value": res.value, "error_estimate": res.error_estimate,
               "evaluations": res.evaluations, "converged": res.converged}
    doc = _doc("integrate", {"f": args.f, "a": args.a, "b": args.b, "tol": args.tol}, outputs)
    return _Output(doc, _key_value_rows(outputs), _integrate_lines(args, res), 0)


def _integrate_lines(args, res):
    yield f"integral of {args.f} over [{args.a:g}, {args.b:g}]"
    yield f"value          = {res.value:.15g}"
    yield f"error_estimate = {res.error_estimate:.3g}"
    yield f"evaluations    = {res.evaluations}"
    yield f"converged      = {res.converged}"


def _run_maxc(args) -> _Output:
    value = chains.max_feasible_c(parse(args.f), args.a, args.b)
    outputs = {"max_c": value}
    doc = _doc("maxc", {"f": args.f, "a": args.a, "b": args.b}, outputs)
    return _Output(doc, _key_value_rows(outputs), _maxc_lines(args, value), 0)


def _maxc_lines(args, value: float):
    yield f"max feasible c for {args.f} on [{args.a:g}, {args.b:g}]: {value:.15g}"


_DRIVERS = {"chain": _run_chain, "certify": _run_certify, "theorem2": _run_theorem2,
            "sweep": _run_sweep, "integrate": _run_integrate, "maxc": _run_maxc}


def _join_negative_values(argv: List[str]) -> List[str]:
    """Spell ``--opt -x^2`` as ``--opt=-x^2``: argparse takes a token that starts
    with '-' for an option unless it is a plain decimal such as -1 or -0.5, but
    no hhcert option is spelt with one dash except -h."""
    joined: List[str] = []
    for token in argv:
        option = joined[-1] if joined else ""
        if (option.startswith("--") and "=" not in option and token.startswith("-")
                and not token.startswith("--") and token != "-h"):
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        out = _DRIVERS[args.command](args)
        report = dumps_canonical(out.doc) + "\n"
        if args.json:
            text = report
        elif args.csv:
            buffer = io.StringIO()
            writer = csv.writer(buffer, lineterminator="\n")
            writer.writerows([_fmt(value) for value in row] for row in out.rows)
            text = buffer.getvalue()
        else:
            text = "".join(line + "\n" for line in out.lines)
    except chains._REFUSALS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "out", None):
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(report)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 2
    sys.stdout.write(text)
    return out.code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
