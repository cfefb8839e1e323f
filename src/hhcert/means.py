"""Special means of positive reals: arithmetic A, geometric G, logarithmic L.

For positive p != q the logarithmic mean is L(p, q) = (p - q)/(ln p - ln q),
with the convention L(p, p) = p.  The direct quotient loses roughly half of
its significant digits to cancellation once p and q agree to a few digits,
so near p = q the implementation switches to the expansion

    L(p, p e^u) = p (e^u - 1)/u = p (1 + u/2 + u^2/6 + u^3/24 + ...)

which is uniformly accurate for small |u| = |ln(p/q)|.
"""

from __future__ import annotations

import math

from .expr import Refused

__all__ = ["arithmetic_mean", "geometric_mean", "logarithmic_mean"]

# Below this value of |ln(p/q)| the series branch is used.
_SERIES_SWITCH = 1e-4

# Horner coefficients of (e^u - 1)/u = sum_n u^n / (n+1)!; truncation error
# at |u| < 1e-4 is ~u^7/8! ~ 2.5e-33, far below double precision.
_L_SERIES = (1.0, 1.0 / 2, 1.0 / 6, 1.0 / 24, 1.0 / 120, 1.0 / 720, 1.0 / 5040)


def _require_positive(p: float, q: float, name: str) -> None:
    if not (p > 0.0 and q > 0.0 and math.isfinite(p) and math.isfinite(q)):
        raise Refused(f"{name} requires positive finite arguments, got {p!r} and {q!r}")


def arithmetic_mean(p: float, q: float) -> float:
    """A(p, q) = (p + q)/2 for positive p, q."""
    _require_positive(p, q, "arithmetic_mean")
    return (p + q) / 2.0


def geometric_mean(p: float, q: float) -> float:
    """G(p, q) = sqrt(p q), evaluated as sqrt(p)*sqrt(q) to dodge overflow."""
    _require_positive(p, q, "geometric_mean")
    return math.sqrt(p) * math.sqrt(q)


def logarithmic_mean(p: float, q: float) -> float:
    """L(p, q) = (p - q)/(ln p - ln q) with L(p, p) = p.

    Symmetric by construction (arguments are ordered before computing), and
    continuous through p = q via the series branch.
    """
    _require_positive(p, q, "logarithmic_mean")
    if p == q:
        return p
    if p < q:
        p, q = q, p
    # u = ln(p/q) > 0; log1p on the exact-ish difference avoids the
    # cancellation that ln(p) - ln(q) suffers for nearby arguments.
    if p < 2.0 * q:
        u = math.log1p((p - q) / q)
    else:
        u = math.log(p) - math.log(q)
    if u < _SERIES_SWITCH:
        acc = _L_SERIES[-1]
        for coeff in reversed(_L_SERIES[:-1]):
            acc = acc * u + coeff
        return q * acc
    return (p - q) / u
