"""Workloads of the hhcert benchmark: seeded inputs, the ops, and their oracles.

A workload is a fixed cycle of ops built from the benchmark seed; a run
repeats the cycle.  Every oracle works from the parameters the benchmark
drew, with numpy and math only: none calls hhcert, so an hhcert defect
cannot vouch for itself.  An oracle returns None for a correct output and
a one-line reason otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import hhcert.chains
import hhcert.cli
import hhcert.expr
import hhcert.quadrature

# Distinct sweep seeds per cycle; each op sweeps SWEEP_CASES cases.
SWEEP_SEEDS = 48
SWEEP_CASES = 50
SWEEP_FAMILIES = "exp_quadratic,log_affine,scaled_power"
SWEEP_KINDS = ("dragomir_mond", "theorem1", "theorem2_corrected", "theorem2_as_printed")

# Functions per modulus cycle, by class; each gets a maxc op, and all but the
# log_affine ones a certify op.
MODULUS_MIX = (("exp_quadratic", 8), ("log_affine", 8), ("power_neg", 4), ("power_pos", 4))
# Functions per chains cycle: half near-singular powers, half steep exponentials.
CHAINS_FUNCTIONS = 80

CERTIFY_REL_TOL = 1e-3
INTEGRATE_TOL = 1e-10  # hhcert's DEFAULT_TOL, the accuracy its integrals promise
BISECTION_STEP = 1e-9

# The certifier calls exp(beta x + gamma) not_log_convex at the default grid:
# rounding in its defect ratios makes c_star a small negative number.  Every
# such certify op would fail, so they are not timed ops of the modulus cycle;
# they run as defect probes instead, whose count each run reports.  A probe
# that fails in any other way still makes the run incorrect.
KNOWN_LOG_AFFINE = "known defect: log_affine certified not_log_convex at grid 64"
_LOG_AFFINE_NOISE = 1e-4  # |c_star| / max f below which the defect is the rounding one

_WORKLOAD_TAG = {"sweep": 1, "modulus": 2, "chains": 3}


# --------------------------------------------------------------------------
# Reference numerics (numpy only)
# --------------------------------------------------------------------------

_GL_X, _GL_W = np.polynomial.legendre.leggauss(20)


def gauss_legendre(g: Callable, a: float, b: float, panels: int = 128) -> float:
    """Composite 20-point Gauss-Legendre integral of g over [a, b]."""
    edges = np.linspace(a, b, panels + 1)
    lo, hi = edges[:-1, None], edges[1:, None]
    half = 0.5 * (hi - lo)
    return float(np.sum(g(0.5 * (lo + hi) + half * _GL_X) * _GL_W * half))


def log_mean(p: float, q: float) -> float:
    """Logarithmic mean (p - q)/(ln p - ln q), by series when p is near q."""
    if p == q:
        return p
    p, q = max(p, q), min(p, q)
    u = math.log(p / q)
    if u < 1e-3:
        return q * (1 + u / 2 + u * u / 6 + u**3 / 24 + u**4 / 120 + u**5 / 720)
    return (p - q) / u


# --------------------------------------------------------------------------
# Test functions
# --------------------------------------------------------------------------

_EXP_QUADRATIC_RE = re.compile(r"exp\((\S+)\*x\^2 \+ (\S+)\*x \+ (\S+)\)$")
_LOG_AFFINE_RE = re.compile(r"exp\((\S+)\*x \+ (\S+)\)$")
_POWER_RE = re.compile(r"\(x \+ (\S+)\)\^(\S+)$")


@dataclass
class Fn:
    """One test function, in the text format of hhcert's sweep families.

    ``params`` is (alpha, beta, gamma) for exp_quadratic, (beta, gamma) for
    log_affine and (s, p) for scaled_power.
    """

    family: str
    params: Tuple[float, ...]
    a: float
    b: float
    _cache: Dict[str, object] = field(default_factory=dict, repr=False)

    @property
    def text(self) -> str:
        if self.family == "exp_quadratic":
            alpha, beta, gamma = self.params
            return f"exp({alpha!r}*x^2 + {beta!r}*x + {gamma!r})"
        if self.family == "log_affine":
            beta, gamma = self.params
            return f"exp({beta!r}*x + {gamma!r})"
        s, p = self.params
        return f"(x + {s!r})^{p!r}"

    def __call__(self, x):
        if self.family == "exp_quadratic":
            alpha, beta, gamma = self.params
            return np.exp(alpha * x * x + beta * x + gamma)
        if self.family == "log_affine":
            beta, gamma = self.params
            return np.exp(beta * x + gamma)
        s, p = self.params
        return (x + s) ** p

    def endpoint_values(self) -> Tuple[float, float, float]:
        a, b = self.a, self.b
        return float(self(a)), float(self(b)), float(self((a + b) / 2.0))

    @property
    def scale(self) -> float:
        """max(1, |f(a)|, |f(b)|, |f(mid)|), the scale hhcert's chains use."""
        return max(1.0, *(abs(v) for v in self.endpoint_values()))

    @property
    def log_convex(self) -> bool:
        return self.family != "scaled_power" or self.params[1] <= 0.0

    def local_modulus(self) -> float:
        """min over [a, b] of f (ln f)''/2, the exact modulus of these families."""
        a, b = self.a, self.b
        if self.family == "exp_quadratic":
            alpha, beta, gamma = self.params
            t = min(max(-beta / (2.0 * alpha), a), b) if alpha > 0 else a
            return alpha * math.exp(alpha * t * t + beta * t + gamma)
        if self.family == "log_affine":
            return 0.0
        s, p = self.params
        # (-p/2)(t+s)^(p-2) is monotone in t, so its minimum is at an endpoint.
        return min((-p / 2.0) * (a + s) ** (p - 2.0), (-p / 2.0) * (b + s) ** (p - 2.0))

    def cached(self, key: str, compute: Callable):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


def fn_from_text(text: str, a: float, b: float) -> Optional[Fn]:
    """Recover a test function from its text; None for any other text."""
    for family, pattern in (
        ("exp_quadratic", _EXP_QUADRATIC_RE),
        ("log_affine", _LOG_AFFINE_RE),
        ("scaled_power", _POWER_RE),
    ):
        match = pattern.match(text)
        if match:
            return Fn(family, tuple(float(g) for g in match.groups()), a, b)
    return None


# --------------------------------------------------------------------------
# Ops
# --------------------------------------------------------------------------

@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


def call_cli(argv: List[str]) -> Tuple[int, str, str]:
    """hhcert.cli.main in-process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hhcert.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _interval(rng: np.random.Generator) -> Tuple[float, float]:
    while True:
        lo, hi = sorted(rng.uniform(-2.0, 2.0, size=2))
        if hi - lo >= 0.1:
            return float(lo), float(hi)


def _strata(rng: np.random.Generator, n: int) -> List[float]:
    """n draws in [0, 1), one per stratum, in shuffled order."""
    return [float(u) for u in rng.permutation((np.arange(n) + rng.random(n)) / n)]


# ---- sweep ---------------------------------------------------------------

def check_sweep(output, first=None) -> Optional[str]:
    """Oracle for one sweep op; ``first`` is the seed's earlier (code, stdout)."""
    code, out, err = output
    if first is not None and (code, out) != first:
        return "rerun of the same seed changed the output bytes"
    try:
        doc = json.loads(out)
    except ValueError:
        return f"exit {code}, no JSON report: {err.strip()[:200]}"
    o = doc["outputs"]
    if o["cases_run"] != SWEEP_CASES:
        return f"cases_run {o['cases_run']}"
    for kind in SWEEP_KINDS:
        total = o["holds"][kind] + o["violated"][kind] + o["not_applicable"][kind]
        if total != SWEEP_CASES:
            return f"{kind}: holds + violated + not_applicable = {total}"
    for kind in ("theorem1", "theorem2_corrected"):
        if o["violated"][kind]:
            return f"{o['violated'][kind]} {kind} violations"
    violations = doc["violations"]
    if len(violations) != sum(o["violated"][k] for k in SWEEP_KINDS[:3]):
        return "violation list does not match the tallies"
    for v in violations:
        fn = fn_from_text(v["f"], v["a"], v["b"])
        if v["kind"] != "dragomir_mond" or v["family"] != "scaled_power" or fn is None or fn.log_convex:
            return f"unexpected violation {v['kind']} on {v['family']} {v['f']}"
    expected_code = 1 if violations else 0
    if code != expected_code:
        return f"exit {code}, expected {expected_code}"
    return None


def sweep_ops(seed: int) -> List[Op]:
    rng = np.random.default_rng([seed, _WORKLOAD_TAG["sweep"]])
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=SWEEP_SEEDS)]
    first: Dict[int, Tuple[int, str]] = {}
    ops = []
    for s in seeds:
        argv = ["sweep", "--families", SWEEP_FAMILIES, "--cases", str(SWEEP_CASES),
                "--seed", str(s), "--json"]

        def check(output, s=s):
            reason = check_sweep(output, first.get(s))
            first.setdefault(s, (output[0], output[1]))
            return reason

        ops.append(Op(f"sweep seed={s}", lambda argv=argv: call_cli(argv), check))
    return ops


# ---- modulus -------------------------------------------------------------

def modulus_functions(rng: np.random.Generator) -> List[Fn]:
    """Stratified draws over hhcert's sweep ranges, one list per class.

    alpha and |p| stay at or above 0.25, away from the log-affine limit,
    where the 1e-3 relative modulus check would only measure rounding; the
    log-affine limit itself is exercised by the log_affine functions.
    """
    by_class = []
    for klass, count in MODULUS_MIX:
        fns = []
        for u in _strata(rng, count):
            a, b = _interval(rng)
            if klass == "exp_quadratic":
                params = (0.25 + 2.75 * u, float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1)))
                fns.append(Fn("exp_quadratic", params, a, b))
            elif klass == "log_affine":
                fns.append(Fn("log_affine", (-2.0 + 4.0 * u, float(rng.uniform(-1, 1))), a, b))
            else:
                s = float(rng.uniform(0.1 - a, 3.0))
                p = 0.25 + 1.75 * u
                fns.append(Fn("scaled_power", (s, -p if klass == "power_neg" else p), a, b))
        by_class.append(fns)
    # interleave the classes so every stretch of a cycle mixes them
    out = []
    for i in range(max(len(fns) for fns in by_class)):
        out.extend(fns[i] for fns in by_class if i < len(fns))
    return out


def check_certify(fn: Fn, output) -> Optional[str]:
    code, out, err = output
    if code != 0:
        return f"certify exit {code}: {err.strip()[:200]}"
    o = json.loads(out)["outputs"]
    status, c_star = o["status"], o["c_star"]
    if fn.family == "log_affine":
        if status == "certified_zero":
            return None
        if status == "not_log_convex" and -_LOG_AFFINE_NOISE * fn.scale <= c_star < 0.0:
            return KNOWN_LOG_AFFINE
        return f"log_affine certified {status} with c_star {c_star!r}"
    if not fn.log_convex:
        return None if status == "not_log_convex" else f"p > 0 certified {status}"
    bound = fn.local_modulus()
    if status != "certified_positive":
        return f"{fn.family} certified {status}, expected certified_positive"
    if abs(c_star - bound) > CERTIFY_REL_TOL * bound:
        return f"c_star {c_star!r} vs analytic {bound!r}: relative error {(c_star - bound) / bound:.2e}"
    return None


def maxc_window(fn: Fn) -> Tuple[float, float]:
    """Interval that hhcert.max_feasible_c's answer must lie in.

    The strengthened chain's c-dependent margins are G - (f_m + c w^2/12)
    and (L - c w^2/6) - M with w = b - a, so the exact answer is
    min(12(G - f_m), 6(L - M))/w^2.  hhcert judges margins at
    tau = tol max(1, |terms|) and integrates G and M to tol * scale; both
    widen the interval, and the bisection stops within its 1e-9 step.
    """
    a, b = fn.a, fn.b
    w = b - a
    fa, fb, fm = fn.endpoint_values()
    G = gauss_legendre(lambda x: np.sqrt(fn(x) * fn(a + b - x)), a, b) / w
    M = gauss_legendre(fn, a, b) / w
    L = log_mean(fa, fb)
    exact = min(12.0 * (G - fm), 6.0 * (L - M)) / w**2
    e = INTEGRATE_TOL * fn.scale / w + 1e-13 * fn.scale  # hhcert's and the reference's error
    terms = max(1.0, fm + max(exact, 0.0) * w**2 / 12.0 + 12.0 * e, G, M, L, (fa + fb) / 2.0)
    tau = INTEGRATE_TOL * terms
    lo = min(12.0 * (G - fm - e), 6.0 * (L - M - e)) / w**2 - BISECTION_STEP
    hi = min(12.0 * (G - fm + e + tau), 6.0 * (L - M + e + tau)) / w**2
    return lo, hi


def check_maxc(fn: Fn, output) -> Optional[str]:
    code, out, err = output
    if not fn.log_convex:
        if code == 2 and "not log-convex" in err:
            return None
        return f"p > 0 maxc exit {code}, expected 2 with the not-log-convex message"
    if code != 0:
        return f"maxc exit {code}: {err.strip()[:200]}"
    max_c = json.loads(out)["outputs"]["max_c"]
    lo, hi = fn.cached("maxc_window", lambda: maxc_window(fn))
    if not lo <= max_c <= hi:
        return f"max_c {max_c!r} outside the reference window [{lo!r}, {hi!r}]"
    return None


def _certify_op(fn: Fn) -> Op:
    argv = ["certify", "--f", fn.text, "--a", repr(fn.a), "--b", repr(fn.b), "--json"]
    return Op(f"certify {fn.text} on [{fn.a!r}, {fn.b!r}]", lambda: call_cli(argv),
              lambda output: check_certify(fn, output))


def _maxc_op(fn: Fn) -> Op:
    argv = ["maxc", "--f", fn.text, "--a", repr(fn.a), "--b", repr(fn.b), "--json"]
    return Op(f"maxc {fn.text} on [{fn.a!r}, {fn.b!r}]", lambda: call_cli(argv),
              lambda output: check_maxc(fn, output))


def _modulus_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, _WORKLOAD_TAG["modulus"]])


def modulus_ops(seed: int) -> List[Op]:
    """certify then maxc on every function; log_affine ones get maxc only."""
    ops = []
    for fn in modulus_functions(_modulus_rng(seed)):
        if fn.family != "log_affine":
            ops.append(_certify_op(fn))
        ops.append(_maxc_op(fn))
    return ops


def modulus_probes(seed: int) -> List[Op]:
    """certify on the cycle's log_affine functions, where the known defect shows."""
    return [_certify_op(fn) for fn in modulus_functions(_modulus_rng(seed))
            if fn.family == "log_affine"]


# ---- chains --------------------------------------------------------------

def chains_functions(rng: np.random.Generator) -> List[Fn]:
    """Near-singular powers and steep exponentials, alternating.

    Powers: (x + s)^p with p in [-2, -0.25] and a + s = 10^[-3, -1], on an
    interval of width 0.5 to 2.  Exponentials: alpha in [1.5, 3] on
    [a, b] with a in [-2, -1] and b in [1, 2].
    """
    n = CHAINS_FUNCTIONS // 2
    powers, exps = [], []
    for u, v in zip(_strata(rng, n), _strata(rng, n)):
        a = float(rng.uniform(-2.0, 0.0))
        s = 10.0 ** (-3.0 + 2.0 * v) - a
        b = a + float(rng.uniform(0.5, 2.0))
        powers.append(Fn("scaled_power", (s, -2.0 + 1.75 * u), a, b))
    for u in _strata(rng, n):
        params = (1.5 + 1.5 * u, float(rng.uniform(-2, 2)), float(rng.uniform(-1, 1)))
        exps.append(Fn("exp_quadratic", params, float(rng.uniform(-2, -1)), float(rng.uniform(1, 2))))
    return [fn for pair in zip(powers, exps) for fn in pair]


def integral_reference(fn: Fn) -> float:
    if fn.family == "scaled_power":
        s, p = fn.params
        lo, hi = fn.a + s, fn.b + s
        q = p + 1.0
        if q == 0.0:
            return math.log(hi / lo)
        return lo**q * math.expm1(q * math.log(hi / lo)) / q
    return gauss_legendre(fn, fn.a, fn.b, panels=256)


def check_chains(fn: Fn, output) -> Optional[str]:
    quad, classical, dm, t1, t2 = output
    ref = fn.cached("integral", lambda: integral_reference(fn))
    allowed = quad.error_estimate + INTEGRATE_TOL * fn.scale + 1e-13 * abs(ref)
    if not abs(quad.value - ref) <= allowed:
        return f"integral {float(quad.value)!r} vs reference {ref!r}, allowed {allowed:.3g}"
    for name, holds in (("classical", classical.holds), ("dragomir_mond", dm.holds),
                        ("theorem1", t1.holds), ("theorem2_corrected", t2.holds_corrected)):
        if not holds:
            return f"{name} verdict fails at c = {t1.c!r}"
    return None


def chains_ops(seed: int) -> List[Op]:
    rng = np.random.default_rng([seed, _WORKLOAD_TAG["chains"]])
    ops = []
    for fn in chains_functions(rng):
        f = hhcert.expr.parse(fn.text)
        c = fn.local_modulus() / 2.0
        tol = INTEGRATE_TOL * fn.scale

        def run(f=f, a=fn.a, b=fn.b, c=c, tol=tol):
            # Module attributes are looked up per call, so a traced run sees them.
            ch = hhcert.chains
            return (
                hhcert.quadrature.integrate(f.eval_array, a, b, tol),
                ch.classical_hh_terms(f, a, b),
                ch.dragomir_mond_chain(f, a, b),
                ch.theorem1_chain(f, a, b, c),
                ch.theorem2_bound(f, a, b, c, form="both"),
            )

        ops.append(Op(f"chains {fn.text} on [{fn.a!r}, {fn.b!r}]", run,
                      lambda output, fn=fn: check_chains(fn, output)))
    return ops


def build(workload: str, seed: int) -> List[Op]:
    """The op cycle of ``workload`` for ``seed``."""
    return {"sweep": sweep_ops, "modulus": modulus_ops, "chains": chains_ops}[workload](seed)


def probes(workload: str, seed: int) -> List[Op]:
    """Untimed ops of ``workload`` for ``seed`` that show a known defect."""
    return modulus_probes(seed) if workload == "modulus" else []
