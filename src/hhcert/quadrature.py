"""Deterministic adaptive quadrature with an embedded Gauss/Kronrod pair.

Each panel is evaluated with the 7-point Gauss rule and its 15-point
Kronrod extension; |K15 - G7| is the panel error estimate.  A panel whose
estimate exceeds its share of the tolerance is bisected, each half
inheriting half the share, so the accepted panels' estimates sum to at
most the requested tolerance.  The 15-point rule integrates polynomials
up to degree 22 exactly, far beyond the degree-10 single-panel requirement.

The panel tree is walked breadth-first in rounds.  The root panel [a, b]
is judged alone; each later round evaluates the active panels together
with their two halves.  A panel is judged at its depth's share; where it
misses, its halves are judged at once at the next depth's share, and only
the halves that miss theirs are split into the next round's active
panels.  A tree of L levels thus takes 1 + ceil((L - 1)/2) rounds, not L.
The halves of a panel that passes are evaluated and dropped, so
``evaluations`` counts every abscissa evaluated, theirs included; an
integral accepted at the root evaluates nothing more.

A round's panels, active ones and halves together, go to the integrand as
one flat array of abscissae, in chunks of ``_CHUNK_PANELS`` panels so one
call's memory is bounded, and are judged once every chunk has returned.
The K15, G7 and absolute sums are numpy reductions over each panel's
nodes, in an order that does not depend on the batch, so neither the
chunk size nor the rounds move a bit: the accepted panels and their sums
are those of a walk that evaluates one level per call.  An integrand may
return k rows, one per function, with k tolerances; a panel is then
accepted only when every row meets its own share (or roundoff floor).

Four guards keep the refinement honest and bounded:

* a panel whose K15 sum or error estimate is not finite (the integral
  overflows; no split could accept it) raises ``Refused``, not a warning,
  and so does a non-finite value at any node evaluated, a dropped half's
  included, and ``mean_integral`` names f's bad node and its x;
* a panel whose raw estimate is already below ~50 eps times the panel's
  absolute integral is roundoff-limited and is not split further
  (bisection cannot beat double precision);
* refinement depth is capped (``max_depth``, a nonnegative integer,
  default 50); panels cut off there still contribute their best estimate
  and the result reports converged=False whenever the summed estimate
  misses the tolerance;
* a call that would evaluate more than ``EVALUATION_BUDGET`` abscissae is
  refused with ``Refused`` before the chunk that would pass it, so no
  integrand buys unbounded time or memory below the depth cap.

Accepted panels are summed in ascending abscissa order, whatever round
accepted them, so results are bit-reproducible.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .expr import Expression, Refused, _positive_values

__all__ = ["EVALUATION_BUDGET", "QuadratureResult", "IntegrandError", "integrate", "mean_integral"]

_EPS = sys.float_info.epsilon

# Absolute tolerance of an integral when the caller names none; the chains,
# the CLI and the sweep read it from here too.
DEFAULT_TOL = 1e-10

# Kronrod-15 abscissae (positive half) and weights; Gauss-7 weights.
_XGK_POS = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
)
_WGK_POS = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG_POS = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
)
_WG_CENTER = 0.417959183673469387755102040816327  # 512/1225

# Ascending 15-node layout; Gauss nodes sit at odd indices 1,3,...,13.
_NODES = np.array(
    [-x for x in _XGK_POS] + [0.0] + [x for x in reversed(_XGK_POS)], dtype=float
)
_WGK = [w for w in _WGK_POS] + [_WGK_CENTER] + [w for w in reversed(_WGK_POS)]
_WG = [w for w in _WG_POS] + [_WG_CENTER] + [w for w in reversed(_WG_POS)]
_WG = [_WG[i // 2] if i % 2 else 0.0 for i in range(15)]  # zero at Kronrod-only nodes


def _normalize(weights: list) -> np.ndarray:
    # Nudge the central weight (node 7) so the panel reduction's sum of the
    # weights is exactly 2.0; this makes the integral of 1 bitwise exact.
    weights = np.array(weights)
    weights[7] += 2.0 - np.add.reduce(weights)
    return weights


# Row 0 holds the K15 weights, row 1 the G7 weights, so one reduction over a
# panel's 15 nodes yields both sums.
_WEIGHTS = np.array([_normalize(_WGK), _normalize(_WG)])

# Panels per integrand call.  At 512 panels one call sees 7,680 abscissae,
# so a 4-row integrand's values take 240 kB however many panels a round has.
_CHUNK_PANELS = 512

# Most abscissae one integrate call may evaluate: 69,905 panels, some 1,270
# times the 825 evaluations (dropped halves included) of the largest
# integral in the benchmark's workloads at seed 101, where exp(sin(1/x)) on
# [1e-6, 1] once took 24.4M evaluations and 109 MB.
EVALUATION_BUDGET = 2**20


@dataclass(frozen=True)
class QuadratureResult:
    value: float  # an array of k values for a k-row integrand
    error_estimate: float  # likewise
    evaluations: int  # abscissae evaluated, 15 per panel, dropped halves included
    converged: bool  # every row within its tolerance


def _require_converged(result: QuadratureResult, rows, tols, a: float, b: float) -> None:
    """Refuse a mean whose integral missed its tolerance.

    The chains and ``mean_integral`` read means, so a row passes when its
    error estimate meets its tolerance as an integral (``converged``) or,
    divided by b - a, as a mean: on an interval wider than 1 the roundoff floor alone can keep an
    integral above an absolute tolerance that its mean meets, as for f = 1
    on [-1e160, 1e160].  ``rows`` names the integrand of each row.
    """
    width = max(1.0, b - a)
    errs = np.atleast_1d(result.error_estimate)
    passed = errs / width <= tols
    if passed.all():
        return
    missed = [
        f"{row} (error estimate {err!r} > tolerance {row_tol * width!r})"
        for row, err, row_tol, ok in zip(rows, errs.tolist(), np.atleast_1d(tols).tolist(), passed)
        if not ok
    ]
    raise Refused(
        f"the integral over [{a!r}, {b!r}] did not converge for {', '.join(missed)}; "
        "no verdict can rest on it"
    )


class IntegrandError(Refused):
    """The integrand produced a non-finite value; ``x`` is the abscissa."""

    def __init__(self, message: str, x: float):
        super().__init__(message)
        self.x = x


def _validate_interval(a: float, b: float) -> Tuple[float, float]:
    """a and b as floats; refused unless a < b are finite and so is the width b - a."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)) or not a < b:
        raise Refused(f"need a < b, got a={a!r}, b={b!r}")
    if not math.isfinite(b - a):
        raise Refused(f"need a finite width b - a, got a={a!r}, b={b!r}")
    return a, b


def _validate_tolerance(tol) -> np.ndarray:
    """tol as a 1-D array of tolerances; refused unless each is positive and finite."""
    tols = np.array(tol, dtype=float, ndmin=1)
    if tols.size == 0:
        raise Refused(f"need at least one tolerance, got {tol!r}")
    if tols.ndim > 1 or not all(0.0 < t < math.inf for t in tols.tolist()):
        raise Refused(f"tolerance must be positive and finite, got {tol!r}")
    return tols


def _panels(g: Callable, lo: np.ndarray, hi: np.ndarray) -> tuple:
    """K15 values, |K15 - G7| estimates and roundoff floors of the panels [lo, hi].

    Each result has one entry per panel, preceded by the row axis when
    ``g`` returns rows.
    """
    center = 0.5 * (lo + hi)
    halfw = 0.5 * (hi - lo)
    nodes = (center[:, None] + halfw[:, None] * _NODES).ravel()
    vals = np.asarray(g(nodes), dtype=float)
    if vals.ndim not in (1, 2) or vals.shape[-1] != nodes.size:
        raise ValueError("integrand must return one value per abscissa")
    finite = np.isfinite(vals)
    if not finite.all():
        x = float(nodes[int(np.argmin(finite.reshape(-1, nodes.size).all(axis=0)))])
        raise IntegrandError(f"integrand is not finite at x={x!r}", x=x)
    terms = vals.reshape(vals.shape[:-1] + (lo.size, 1, 15)) * _WEIGHTS
    sums = np.add.reduce(terms, axis=-1) * halfw[:, None]
    k15, g7 = sums[..., 0], sums[..., 1]
    raw = np.abs(k15 - g7)
    resabs = np.add.reduce(np.abs(terms[..., 0, :]), axis=-1) * halfw
    # |K15 - G7| is not finite where K15 is not; only a failure locates the panel
    if not math.isfinite(np.add.reduce(raw, axis=None)):
        finite = np.isfinite(raw).reshape(-1, lo.size).all(axis=0)
        i = int(np.argmin(finite))
        if not finite[i]:  # else finite estimates overflowed only in their sum
            raise Refused(
                f"the integral overflows on the panel [{float(lo[i])!r}, {float(hi[i])!r}]: "
                f"K15 sum {k15[..., i].tolist()!r}, error estimate {raw[..., i].tolist()!r}"
            )
    return k15, raw, 50.0 * _EPS * resabs


def _count(value, name: str) -> int:
    """``value`` as an int (numpy integers pass); refused by name otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise Refused(f"{name} must be an integer, got {value!r}") from None


def _halves(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The two halves of each panel [lo, hi], in abscissa order."""
    mid = 0.5 * (lo + hi)
    los, his = np.empty((2, 2 * lo.size))
    los[0::2], los[1::2] = lo, mid
    his[0::2], his[1::2] = mid, hi
    return los, his


@np.errstate(all="ignore")  # each non-finite value is named by an error instead
def integrate(
    g: Callable,
    a: float,
    b: float,
    tol: float = DEFAULT_TOL,
    max_depth: int = 50,
) -> QuadratureResult:
    """Integrate ``g`` over [a, b] to absolute tolerance ``tol``.

    ``g`` receives a 1-D numpy array of abscissae and must return the
    matching array of values (plain ufunc arithmetic in a lambda is
    enough).  It may instead return a (k, n) array, one row per integrand;
    ``tol`` then holds k tolerances (or one for all rows), and ``value``
    and ``error_estimate`` of the result are arrays of k entries.

    The root panel [a, b] is judged alone.  Each later round evaluates the
    active panels together with their two halves, in one integrand call per
    chunk: a panel that misses its share has its halves judged at once, so
    a tree of L levels takes 1 + ceil((L - 1)/2) rounds.  ``evaluations``
    counts every abscissa evaluated, the halves of panels that passed
    included.

    Raises Refused on an overflow, on more than ``EVALUATION_BUDGET``
    evaluations, a ``max_depth`` that is not a nonnegative integer, a
    tolerance refused by ``_validate_tolerance``, a count of tolerances
    that is neither 1 nor k, or an interval refused by
    ``_validate_interval``, the rule of the certifier and of every chain.
    An integrand that returns no value per abscissa raises a plain
    ValueError: it is a defect of the caller, not a refused input.
    """
    a, b = _validate_interval(a, b)
    tols = _validate_tolerance(tol)
    max_depth = _count(max_depth, "max_depth")
    if max_depth < 0:
        raise Refused(f"max_depth must be nonnegative, got {max_depth}")

    tols_by_row = tols[:, None]
    evaluations = 0

    def share(depth):
        # the depth cap keeps every panel: its estimate is finite, below inf
        return tols_by_row * (0.5**depth if depth < max_depth else math.inf)

    kept = []  # lo and (value, error) of each round's accepted panels
    lo, hi = np.array([a]), np.array([b])  # the root is judged alone
    depth = 0
    while True:
        n = lo.size
        halves = 0 < depth < max_depth  # the active panels go with their halves
        if halves:
            half_lo, half_hi = _halves(lo, hi)
            lo, hi = np.concatenate((lo, half_lo)), np.concatenate((hi, half_hi))
        parts = []
        for start in range(0, lo.size, _CHUNK_PANELS):
            chunk = slice(start, start + _CHUNK_PANELS)
            evaluations += 15 * lo[chunk].size
            if evaluations > EVALUATION_BUDGET:
                raise Refused(
                    f"integrating over [{a!r}, {b!r}] would take {evaluations} evaluations by "
                    f"depth {depth + halves}, above the budget of {EVALUATION_BUDGET} evaluations"
                )
            parts.append(_panels(g, lo[chunk], hi[chunk]))
        # the round is judged once every chunk has returned
        value, raw, floor = parts[0]
        if len(parts) > 1:
            value, raw, floor = (np.concatenate(part, axis=-1) for part in zip(*parts))
        # the root is one panel, so value holds one entry per row
        if depth == 0 and tols.size not in (1, value.size):
            raise Refused(f"{tols.size} tolerances for {value.size} integrand rows")
        limit = np.maximum(floor, share(depth))
        if halves:
            limit[:, n:] = np.maximum(floor[..., n:], share(depth + 1))
        done = np.logical_and.reduce(raw <= limit)
        split = ~done
        if halves:  # a half is judged only where its panel missed its share
            split = split[:n].repeat(2)
            done[n:] &= split
            split &= ~done[n:]
        sums = np.array((value, np.maximum(raw, floor)))
        kept.append((lo.compress(done), sums.compress(done, axis=-1)))
        deepest = lo.size - split.size  # the panels that split start here
        lo, hi = lo[deepest:].compress(split), hi[deepest:].compress(split)
        if not lo.size:
            break
        lo, hi = _halves(lo, hi)
        depth += 1 + halves

    lo, sums = kept[0]
    if len(kept) > 1:  # rounds and depths interleave in abscissa
        lo, sums = (np.concatenate(parts, axis=-1) for parts in zip(*kept))
        sums = sums[..., np.argsort(lo, kind="stable")]
    value, err = np.add.reduce(sums, axis=-1)
    return QuadratureResult(value, err, evaluations, bool((err <= tols).all()))


def _integrate_expression(f: Expression, a: float, b: float, tol: float) -> QuadratureResult:
    """``integrate`` of f; a non-finite value raises the error behind it, named at its abscissa."""
    return integrate(lambda xs: _positive_values(f, xs, positive=False), a, b, tol)


def mean_integral(f: Expression, a: float, b: float, tol: float = DEFAULT_TOL) -> float:
    """(1/(b-a)) * integral of f over [a, b].

    Refused, naming f(x), when the error estimate meets ``tol`` neither as
    an integral nor as a mean, the rule of ``_require_converged``.
    """
    result = _integrate_expression(f, a, b, tol)
    _require_converged(result, ("f(x)",), tol, a, b)
    return result.value / (b - a)
