"""Grid certification of (strong) log-convexity on an interval.

A positive f is strongly log-convex with modulus c on [a, b] when

    f(lam*x + (1-lam)*y)  <=  f(x)^lam * f(y)^(1-lam) - c*lam*(1-lam)*(x-y)^2

for all x, y in [a, b] and lam in (0, 1).  The defect ratio of a triple,

    (f(x)^lam * f(y)^(1-lam) - f(lam*x + (1-lam)*y)) / (lam*(1-lam)*(x-y)^2),

is the largest c for which the inequality holds at that triple, so the
maximal modulus c* is the infimum of the ratio over admissible triples.
``estimate_modulus`` answers from ``modulus_bracket`` wherever the bracket
settles a status (below); only under an open bracket does it estimate that
infimum by a uniform grid search, followed by local refinement around the
running minimizer.

The numerator is evaluated in the log domain as

    f(t) * expm1(lam*(ln f(x) - ln f(t)) + (1-lam)*(ln f(y) - ln f(t)))

which keeps the cancellation structural: for constant f the grouped log
differences are exactly zero, so the sampled defect is exactly 0.0 rather
than rounding noise amplified by 1/(lam*(1-lam)*(x-y)^2).

The grid is walked in chunks of at most 65,536 triples, whole (x, y)
pairs in C order that may end mid-row, so each float64 buffer is 0.5 MB,
the working set stays in a per-core L2 cache and memory is flat at any
grid size.  Once per grid, lam is clipped to (0, 1) and f is evaluated on
xs and ys in one call; each chunk evaluates f once on its interior
points.  Positivity is read off the finiteness of the ln f values the
ratios need anyway; the precise error for the first offender is computed
only on failure.  Time grows as N^3 in the
grid size N, so a call whose grids would sample more than TRIPLE_BUDGET
triples is refused with ``Refused`` before the first grid; each grid
counts as at least 2**13 triples, the cost of its fixed work.  The budget
bounds only the grids that run, so it never refuses a call that the
bracket answers.  An interval so narrow (or wide) that
lam*(1-lam)*(x-y)^2 leaves (0, inf) at some admissible triple raises
``Refused`` naming the grid instead of returning a nan or infinite ratio.

A grid infimum is evidence, not proof: every sampled ratio, and so the
infimum, is an upper estimate of c*.  ``modulus_bracket`` gives the proof:
a lower bound c_lo and an upper bound c_up on c* from g = ln f, its
symbolic derivatives and their outward-rounded interval enclosures, with
the verdict they settle; its c_up is the least of two limits of the
ratio, as x and y meet and as lam tends to 0, at 17 edges.  Wherever the
bracket settles a status, ``estimate_modulus`` answers from it and samples
no grid at all: c_star is the proved c_lo for certified_positive and
certified_zero, and the proved c_up < 0 for not_log_convex, and the
witness is the edge where the local term's upper enclosure is least, the
nearest other edge and lam = 1/2.  So a constant on [0, 1e-160],
exp(x^2) there, exp(-x^2) on [0, 1] at any grid and 1e300*exp(1e20*x^2) on
[0, 1e-10] are answered, where the grid would refuse a denominator that
underflows, a budget it exceeds or a minimum that overflows.  Under an
open bracket it clips the grid infimum into the bracket.  A
certified_positive c_star from the bracket never exceeds c*, up to the
one ulp of libm error the enclosures assume; one from the grid is an
upper estimate, and can exceed c* where the bracket leaves the verdict
open.  The certificate carries c_lo and c_up, grid_size and
refinement_rounds, the rounds actually searched, so callers can judge how
hard the box was searched.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .expr import Expression, Refused
from .quadrature import _validate_interval

__all__ = [
    "ZERO_TOLERANCE",
    "TRIPLE_BUDGET",
    "ConvexityKind",
    "CertStatus",
    "NotPositiveError",
    "ModulusCertificate",
    "ModulusCheck",
    "ModulusBracket",
    "log_defect",
    "modulus_bracket",
    "estimate_modulus",
    "check_modulus",
]

# |c_star| at or below this (with no negative sample) certifies modulus zero.
ZERO_TOLERANCE = 1e-12


class ConvexityKind(enum.Enum):
    LOG_CONVEX = "log_convex"
    STRONGLY_LOG_CONVEX = "strongly_log_convex"


class CertStatus(enum.Enum):
    CERTIFIED_POSITIVE = "certified_positive"
    CERTIFIED_ZERO = "certified_zero"
    NOT_LOG_CONVEX = "not_log_convex"


class NotPositiveError(Refused):
    """f left (0, inf) at a sampled point; the check does not apply."""

    def __init__(self, message: str, x: Optional[float] = None, value: Optional[float] = None):
        super().__init__(message)
        self.x = x
        self.value = value


@dataclass(frozen=True)
class ModulusCertificate:
    c_star: float
    # (x, y, lam) attaining the sampled minimum where the grid decides c_star;
    # where the bracket settles the status, (the edge where the local term's
    # upper enclosure is least, the nearest other edge, 1/2), with no grid
    # sampled
    witness: Tuple[float, float, float]
    grid_size: int
    refinement_rounds: int
    status: CertStatus
    c_lo: float  # modulus_bracket's proved c_lo <= c* <= c_up, which the status rests on
    c_up: float

    @property
    def kind(self) -> Optional[ConvexityKind]:
        if self.status is CertStatus.CERTIFIED_POSITIVE:
            return ConvexityKind.STRONGLY_LOG_CONVEX
        if self.status is CertStatus.CERTIFIED_ZERO:
            return ConvexityKind.LOG_CONVEX
        return None


@dataclass(frozen=True)
class ModulusCheck:
    ok: bool
    witness: Tuple[float, float, float]
    defect: float


def _positive_values(f: Expression, pts: np.ndarray) -> np.ndarray:
    """Evaluate f over pts, requiring finite positive values everywhere.

    The values that pass take two reductions (a NaN fails the first); the
    first failing point is then located for the error.
    """
    vals = f.eval_array(pts)
    if vals.min() > 0.0 and vals.max() < np.inf:
        return vals
    flat_vals = vals.ravel()
    flat_pts = np.asarray(pts, dtype=float).ravel()
    finite = np.isfinite(flat_vals)
    if not finite.all():
        bad = float(flat_pts[int(np.argmin(finite))])
        f(bad)  # raises the precise DomainError / EvaluationError
        raise NotPositiveError(f"non-finite value at x={bad!r}", x=bad)  # pragma: no cover
    idx = int(np.argmax(flat_vals <= 0.0))
    bad, value = float(flat_pts[idx]), float(flat_vals[idx])
    raise NotPositiveError(
        f"f(x) = {value!r} <= 0 at x={bad!r}; log-convexity does not apply", x=bad, value=value
    )


def log_defect(f: Expression, x: float, y: float, lam: float) -> float:
    """Defect ratio of f at the triple (x, y, lam): the grid walk on that 1x1x1 grid.

    Exactly symmetric under (x, lam) <-> (y, 1-lam) whenever 1-lam is exact,
    and exactly c-homogeneous under f -> t*f up to the rounding of t*f itself.
    """
    x = float(x)
    y = float(y)
    lam = float(lam)
    if x == y:
        raise Refused("log_defect needs x != y")
    if not 0.0 < lam < 1.0:
        raise Refused(f"lam must lie strictly inside (0, 1), got {lam!r}")
    value, _ = _min_over_grid(f, np.array([x]), np.array([y]), np.array([lam]))
    return value


def _spacing(grid: np.ndarray) -> float:
    return float(grid[1] - grid[0]) if grid.size > 1 else 0.0


def _check_denominators(
    sq: np.ndarray, lam_mu: np.ndarray, xs: np.ndarray, ys: np.ndarray, n_lams: int
) -> None:
    """Raise unless every product of an ``sq`` and a ``lam_mu`` lies in (0, inf).

    fl(a*b) is monotone in each positive factor, so the extremes bound every
    product exactly.  The error names the whole xs x ys x (n_lams lam) grid.
    """
    if not (sq.size and lam_mu.size):
        return
    if sq.min() * lam_mu.min() > 0.0 and sq.max() * lam_mu.max() < np.inf:
        return
    raise Refused(
        "the defect ratio's denominator lam*(1-lam)*(x-y)^2 leaves (0, inf) on the "
        f"{xs.size}x{ys.size}x{n_lams} grid over x in [{float(xs[0])!r}, "
        f"{float(xs[-1])!r}], y in [{float(ys[0])!r}, {float(ys[-1])!r}]: the "
        "interval is too narrow or too wide for this grid"
    )


def _defect_chunks(f: Expression, xs: np.ndarray, ys: np.ndarray, lams: np.ndarray):
    """Defect ratios over xs x ys x lams, one chunk of (x, y) pairs at a time.

    Yields (x, y, lams, ratios) per chunk: its pairs, taken in C order over
    xs x ys, the admissible lam and a row of ratios per pair, +inf where the
    pair is skipped.  Only the ends of a clipped refinement grid leave
    (0, 1), so the inadmissible lam are dropped once per grid.  A pair is
    skipped when |x - y| is below half the coarser grid spacing: refined x
    and y boxes have incommensurate spacings, and such a near-coincidence
    sits below the grids' own resolution, where the ratio's numerator
    cancels to under one ulp of f and the sample carries no information.

    A chunk holds at most _TILE_TRIPLES triples and at least one pair, and
    is computed in three buffers that every chunk reuses, so ``ratios`` is
    valid only until the next.  Each step is the same ufunc on the same
    operands as the defect formula written out in full, so the bits do not
    depend on the chunking.  Callers ignore floating-point errors.
    """
    n_lams = lams.size  # the size before clipping, which errors name
    mu = 1.0 - lams
    lam_mu = lams * mu
    # lam*(1-lam) > 0 exactly when 0 < lam < 1: inside, 1-lam is at least
    # 2**-53, and it rounds to 1 wherever lam is small enough to underflow
    if not lam_mu.min(initial=np.inf) > 0.0:
        inner = lam_mu > 0.0
        lams, mu, lam_mu = lams[inner], mu[inner], lam_mu[inner]
    pts = xs if ys is xs else np.concatenate((xs, ys))
    lf = np.log(f.eval_array(pts))
    # |ln v| < 745 for every positive double, so the sum is finite exactly
    # when f is finite and positive at every point
    if not math.isfinite(lf.sum()):
        _positive_values(f, xs)
        _positive_values(f, ys)
    lfx, lfy = lf[: xs.size], lf[pts.size - ys.size :]
    threshold = 0.49 * max(_spacing(xs), _spacing(ys))
    # the two terms of t = lam*x + (1-lam)*y, once per grid
    lam_x, mu_y = lams * xs[:, None], mu * ys[:, None]
    n_pairs = xs.size * ys.size
    step = max(1, _TILE_TRIPLES // lams.size)
    bufs = np.empty((3, min(step, n_pairs) * lams.size))
    for start in range(0, n_pairs, step):
        i, j = np.divmod(np.arange(start, min(start + step, n_pairs)), ys.size)
        t, work, ratios = bufs[:, : i.size * lams.size].reshape(3, i.size, lams.size)
        # the indices are in range; "clip" spares take its buffered copy
        np.take(lam_x, i, axis=0, out=t, mode="clip")
        np.take(mu_y, j, axis=0, out=work, mode="clip")
        t += work
        fT = f.eval_array(t)  # may be t itself (f = x), so t is not reused below
        np.log(fT, out=work)
        if not math.isfinite(work.sum()):
            _positive_values(f, t)
        x, y = xs[i], ys[j]
        diff = x - y
        pair_ok = np.abs(diff) > threshold
        sq = diff**2
        _check_denominators(sq[pair_ok], lam_mu, xs, ys, n_lams)
        np.subtract(lfx[i, None], work, out=ratios)
        ratios *= lams
        np.subtract(lfy[j, None], work, out=work)
        work *= mu
        ratios += work
        np.expm1(ratios, out=ratios)
        ratios *= fT
        del fT  # so the next chunk's evaluation reuses its memory
        np.multiply(lam_mu, sq[:, None], out=work)
        ratios /= work
        ratios[~pair_ok] = np.inf
        yield x, y, lams, ratios


# Triples per chunk of the grid walk: each float64 chunk buffer is 0.5 MB,
# so the three buffers and the evaluator's temporaries stay in a 2 MB
# per-core L2 cache, where one block of up to 2M triples streamed 16 MB
# temporaries through memory.
_TILE_TRIPLES = 65_536

# Most (x, y, lam) triples one estimate_modulus or check_modulus call may
# sample: about 5 s at 21 ns a triple, 256 times a default grid-64 run.
TRIPLE_BUDGET = 2**28

# Triples each grid is charged at least: a round's fixed cost (about 140 us)
# is that of some 8,000 triples, so many rounds of a tiny grid cannot slip
# past the budget.
_GRID_TRIPLES_FLOOR = 2**13


def _check_budget(grid_n: int, grids: int) -> None:
    triples = max(grid_n**3, _GRID_TRIPLES_FLOOR) * grids
    if triples > TRIPLE_BUDGET:
        raise Refused(
            f"{grids} grid(s) of {grid_n}^3 (x, y, lam) triples, each charged at least "
            f"{_GRID_TRIPLES_FLOOR}, ask for {triples} triples, above the certifier's "
            f"budget of {TRIPLE_BUDGET} triples"
        )


def _min_over_grid(f: Expression, xs: np.ndarray, ys: np.ndarray, lams: np.ndarray) -> tuple:
    """Smallest defect ratio over xs x ys x lams and the (x, y, lam) attaining it.

    Each chunk's C-order argmin is its first minimum and the strict < keeps
    the earliest chunk on ties, so the witness is the lexicographically
    first minimizer over the ascending grids, at any chunk size.
    """
    best, witness = np.inf, None
    with np.errstate(all="ignore"):
        for x, y, kept, ratios in _defect_chunks(f, xs, ys, lams):
            p, k = divmod(int(ratios.argmin()), kept.size)
            if witness is None or ratios[p, k] < best:
                best, witness = float(ratios[p, k]), (float(x[p]), float(y[p]), float(kept[k]))
    return best, witness


# --------------------------------------------------------------------------
# The modulus bracket: bounds on c* from g = ln f and its derivatives
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ModulusBracket:
    """Bounds c_lo <= c* <= c_up on the maximal modulus, and the verdict they settle.

    ``status`` is None where the bracket leaves the verdict open.
    """

    c_lo: float
    c_up: float
    status: Optional[CertStatus]


_OPEN = ModulusBracket(-math.inf, math.inf, None)

# Pieces of [a, b] on which modulus_bracket encloses f and g''; their
# 17 edges are the points at which it samples f*g''/2 and the tangents of g.
_BRACKET_PIECES = 16


def modulus_bracket(f: Expression, a: float, b: float) -> ModulusBracket:
    """Bracket the maximal strong log-convexity modulus c* of f on [a, b] from g = ln f.

    With x and y tending to t, the defect ratio tends to f(t) g''(t) / 2, so
    c* <= c_up, the least upper enclosure of f g''/2 at the edges of 16
    equal pieces of [a, b].  Where c_lo <= 0, c_up also takes the edge
    term: with lam tending to 0 at fixed x != y, the ratio tends to
    B(x, y) = f(y) (g(x) - g(y) - g'(y) (x - y)) / (x - y)^2, enclosed at
    each pair of edges (see ``_edge_term_up``).  On a log-concave
    (x + s)^p the ratio is often least at a corner of the box, as lam
    tends to 0 or 1, well below the local term, and c_up is then B at
    that corner.  Where g'' >= kappa on [a, b], the exponent of the
    defect ratio is at least kappa lam (1-lam) (x-y)^2 / 2 and
    e^D - 1 >= D, so c* >= c_lo = (min f) kappa / 2 for kappa >= 0, and
    (max f) kappa / 2 otherwise.  kappa is the least lower enclosure of g''
    over the pieces.  min f is bounded below by the pieces and, for
    kappa >= 0, by the tangents of the convex g at the edges:
    g(t) >= g(m) + g'(m)(t - m) + kappa (t - m)^2 / 2.  Both ends are
    rounded outward, and each enclosure assumes at most one ulp of libm
    error (see ``calculus.enclose``).

    The status is certified_zero where g'' folds to 0 symbolically (as for
    exp(b*x + c)), certified_positive where c_lo > 0, not_log_convex where
    c_up < 0, and None where the bracket leaves the verdict open: f not
    provably positive, g not provably twice differentiable on [a, b], the
    bounds straddling 0, or derivative trees past ``calculus.NODE_BUDGET``
    nodes.  The work is bounded: three trees of at most that many nodes,
    each enclosed once over 33 boxes.  Raises Refused unless a < b are
    finite with a finite width b - a.
    """
    a, b = _validate_interval(a, b)
    return _bracket(f, a, b)[0]


def _bracket(f: Expression, a: float, b: float) -> Tuple[ModulusBracket, np.ndarray, int]:
    """``modulus_bracket`` on a validated [a, b], with its 17 edges.

    Also the index of the edge where the local term's upper enclosure is
    least (0 if none is finite), from which ``_edge_witness`` builds a
    settled certificate's witness.  Where c_up takes the edge term, c_up
    need not be attained there.
    """
    # loaded on first use, so a process that never brackets a modulus (a
    # chain check, an integral) does not load it
    from .calculus import OverBudget, _constant, _down, _up, enclose, log_derivatives

    edges = np.linspace(a, b, _BRACKET_PIECES + 1)
    try:
        g1, g2 = log_derivatives(f)
        lo = np.concatenate((edges[:-1], edges))
        hi = np.concatenate((edges[1:], edges))
        (f_lo, f_hi), (d_lo, d_hi), (k_lo, k_hi) = enclose((f.root, g1, g2), lo, hi)
    except OverBudget:
        return _OPEN, edges, 0
    pieces, points = slice(None, _BRACKET_PIECES), slice(_BRACKET_PIECES, None)
    if not f_lo[pieces].min() > 0.0:
        return _OPEN, edges, 0
    if _constant(g2) == 0.0:
        return ModulusBracket(0.0, 0.0, CertStatus.CERTIFIED_ZERO), edges, 0
    with np.errstate(all="ignore"):
        # the upper end of [f] * [g''] at each edge, where [f] > 0; inf * 0
        # says nothing
        h_up = _up(np.where(k_hi >= 0.0, f_hi, f_lo)[points] * k_hi[points])
        h_up = np.where(np.isnan(h_up), math.inf, h_up)
        edge = int(h_up.argmin())
        c_up = float(_up(h_up[edge] * 0.5))
        kappa = float(k_lo[pieces].min())
        g_lo = _down(np.log(f_lo[points]))  # the lower end of g at the edges, for both bounds
        if kappa >= 0.0:
            f_min = max(float(f_lo[pieces].min()), _tangent_floor(
                edges, a, b, kappa, g_lo, d_lo[points], d_hi[points]))
            c_lo = float(_down(_down(f_min * kappa) * 0.5))
        else:
            c_lo = float(_down(_down(float(f_hi[pieces].max()) * kappa) * 0.5))
        if c_lo <= 0.0:
            c_up = min(c_up, _edge_term_up(edges, f_lo[points], f_hi[points], g_lo,
                                           d_lo[points], d_hi[points]))
    if c_lo > 0.0:
        status = CertStatus.CERTIFIED_POSITIVE
    elif c_up < 0.0:
        status = CertStatus.NOT_LOG_CONVEX
    else:
        status = None
    return ModulusBracket(c_lo, c_up, status), edges, edge


def _edge_witness(edges: np.ndarray, edge: int) -> Tuple[float, float, float]:
    """(t, s, 1/2): t the bracket's edge of that index, s the nearest other edge.

    The index is ``_bracket``'s, the edge where the upper enclosure of the
    local term f g''/2 is least.

    Edges can coincide on an interval a few ulps wide, so s is the nearest
    edge distinct from t (the lower one on a tie); a < b makes one exist.
    """
    t = edges[edge]
    others = edges[edges != t]
    return float(t), float(others[np.abs(others - t).argmin()]), 0.5


def _edge_term_up(t, f_lo, f_hi, g_lo, d_lo, d_hi) -> float:
    """The least upper enclosure of the edge term B(x, y) over pairs of distinct points t.

    With lam tending to 0 at fixed x != y, the defect ratio tends to
    B(x, y) = f(y) (g(x) - g(y) - g'(y) (x - y)) / (x - y)^2, so c* <= B(x, y)
    at every pair.  Only pairs whose numerator is provably negative are
    bounded, by f_lo(y) times its upper end over the upper end of (x - y)^2,
    each step rounded up; any other pair bounds c* by nothing below 0.
    """
    from .calculus import _down, _i_mul, _up

    g_hi = _up(np.log(f_hi))
    # x runs down the rows and y across the columns
    d = t[:, None] - t[None, :]
    s_lo, s_hi = _down(d), _up(d)
    slope_lo = _i_mul((d_lo, d_hi), (s_lo, s_hi))[0]
    numerator = _up(_up(g_hi[:, None] - g_lo) - slope_lo)
    square = _up(np.maximum(s_lo * s_lo, s_hi * s_hi))
    bound = _up(_up(f_lo * numerator) / square)
    bound = np.where((numerator < 0.0) & (s_lo * s_hi > 0.0) & ~np.isnan(bound), bound, math.inf)
    return float(bound.min())


def _tangent_floor(m, a, b, kappa, g_lo, d_lo, d_hi) -> float:
    """A lower bound on min f over [a, b] from the tangents of g = ln f at the points m.

    For g'' >= kappa >= 0, g(t) >= g(m) + d (t - m) + kappa (t - m)^2 / 2
    with d = g'(m) in [d_lo, d_hi].  Its last two terms are at least
    -d^2 / (2 kappa) for kappa > 0, and at least d (t - m), whose least value
    over t in [a, b] sits at a corner, for kappa >= 0.  Each step is rounded
    outward, so for a quadratic g the floor is min f up to a few ulps.
    """
    from .calculus import _down, _i_mul, _up

    s_lo, s_hi = _down(a - m), _up(b - m)
    linear = _i_mul((d_lo, d_hi), (s_lo, s_hi))[0]
    square = _up(np.maximum(d_lo * d_lo, d_hi * d_hi))
    quadratic = -_up(square / _down(2.0 * kappa))  # 2 kappa may overflow
    floor = _down(g_lo + np.maximum(linear, quadratic))
    floor = np.where(np.isnan(floor), -math.inf, floor)
    return float(_down(np.exp(floor.max())))


def _count(value, name: str) -> int:
    """``value`` as an int (numpy integers pass); refused by name otherwise."""
    try:
        return operator.index(value)
    except TypeError:
        raise Refused(f"{name} must be an integer, got {value!r}") from None


def estimate_modulus(
    f: Expression,
    a: float,
    b: float,
    grid_n: int = 64,
    refine_rounds: int = 3,
) -> ModulusCertificate:
    """Estimate the maximal strong log-convexity modulus of f on [a, b].

    Brackets the modulus with ``modulus_bracket`` first.  Wherever the
    bracket settles a status, the certificate is the bracket's and no grid
    is sampled: c_star is the proved c_lo for certified_positive and
    certified_zero, and the proved c_up < 0 for not_log_convex.  The witness
    is then the edge where the local term's upper enclosure is least, the
    nearest other edge and lam = 1/2, and refinement_rounds is 0.

    Only under an open bracket does it sample x and y on a uniform grid
    over [a, b] and lam on the uniform interior grid j/(grid_n+1), then
    perform ``refine_rounds`` rounds of local search in boxes centered on
    the running witness, each box half the width of the previous one
    (clipped to the domain).  c_star is the running minimum over everything
    sampled, which extra rounds never raise, clipped into [c_lo, c_up]; the
    status follows its sign, with |c_star| <= ZERO_TOLERANCE as zero.
    Raises Refused unless a < b are finite with a finite width b - a and
    grid_n >= 3 and refine_rounds >= 0 are integers (numpy integers pass),
    and, under an open bracket only, when the refine_rounds + 1 grids of
    grid_n^3 triples, each counted as at least 2**13, exceed TRIPLE_BUDGET
    (charged before the first grid) and when the grid minimum is not
    finite.
    """
    a, b = _validate_interval(a, b)
    grid_n, refine_rounds = _count(grid_n, "grid_n"), _count(refine_rounds, "refine_rounds")
    if grid_n < 3:
        raise Refused(f"grid_n must be at least 3, got {grid_n}")
    if refine_rounds < 0:
        raise Refused(f"refine_rounds must be nonnegative, got {refine_rounds}")

    bracket, edges, edge = _bracket(f, a, b)
    if bracket.status is not None:
        c_star = bracket.c_up if bracket.status is CertStatus.NOT_LOG_CONVEX else bracket.c_lo
        return ModulusCertificate(c_star, _edge_witness(edges, edge), grid_n, 0,
                                  bracket.status, bracket.c_lo, bracket.c_up)

    _check_budget(grid_n, refine_rounds + 1)
    xs = np.linspace(a, b, grid_n)
    lams = np.arange(1, grid_n + 1, dtype=float) / (grid_n + 1)
    best, witness = _min_over_grid(f, xs, xs, lams)
    for round_index in range(1, refine_rounds + 1):
        wx, wy, wl = witness
        half_x = (b - a) * 0.5 ** (round_index + 1)
        half_l = 0.5 ** (round_index + 1)
        xs_r = np.linspace(max(a, wx - half_x), min(b, wx + half_x), grid_n)
        ys_r = np.linspace(max(a, wy - half_x), min(b, wy + half_x), grid_n)
        lams_r = np.linspace(max(0.0, wl - half_l), min(1.0, wl + half_l), grid_n)
        value, candidate = _min_over_grid(f, xs_r, ys_r, lams_r)
        if value < best:
            best, witness = value, candidate

    if not math.isfinite(best):
        raise Refused(f"the sampled modulus c_star is {best!r}; no certificate can rest on it")
    c_star = min(max(best, bracket.c_lo), bracket.c_up)
    if c_star < 0.0:
        status = CertStatus.NOT_LOG_CONVEX
    elif c_star <= ZERO_TOLERANCE:
        status = CertStatus.CERTIFIED_ZERO
    else:
        status = CertStatus.CERTIFIED_POSITIVE
    return ModulusCertificate(c_star, witness, grid_n, refine_rounds, status,
                              bracket.c_lo, bracket.c_up)


def check_modulus(
    f: Expression,
    a: float,
    b: float,
    c: float,
    grid_n: int = 64,
) -> ModulusCheck:
    """Check whether c is at most the certified modulus, with no slack.

    The certificate is ``estimate_modulus``'s without refinement, so where
    the bracket settles the verdict the defect is its proved c_lo (c_up
    under not_log_convex), with no grid sampled, no budget charged and the
    bracket edge witness; only under an open bracket is it the
    bracket-clipped minimum of the first grid, with the worst sampled
    triple.  c_lo is already the proved bound, so c is compared with no
    slack: ok=False means c exceeds what the certificate stands behind,
    even by one ulp.  Raises Refused as ``estimate_modulus`` does.
    """
    c = float(c)
    if not c > 0.0:
        raise Refused(f"modulus must be positive, got {c!r}")
    cert = estimate_modulus(f, a, b, grid_n, refine_rounds=0)
    return ModulusCheck(ok=bool(cert.c_star >= c), witness=cert.witness, defect=cert.c_star)
