"""Symbolic d/dx and outward-rounded interval enclosures of expression trees.

``certify.modulus_bracket`` needs g' and g'' of g = ln f, and bounds on f
and g'' over boxes.  ``_RULES`` holds a d/dx rule and an interval rule for
each node kind of ``expr._OPS``.  The d/dx rule builds a derivative tree
through constructors that fold exact constants, and ``log_derivatives``
takes g' and g'' so that ln(exp(u)) and ln(u^p) cancel.  The interval rule
maps enclosures of a node's arguments to one of its value, rounded outward,
and ``enclose`` walks trees over many boxes at once.  Derivative trees
share subtrees; both walks visit each distinct node once, keep their own
stack, and stop at ``NODE_BUDGET`` nodes.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .expr import _CONSTANTS, Apply, Expression, Node, Num, Var

__all__ = ["NODE_BUDGET", "OverBudget", "derivative", "log_derivatives", "enclose"]

# --------------------------------------------------------------------------
# d/dx: each kind's rule builds its derivative through constructors that fold
# constants, so a derivative that vanishes identically folds to a literal 0
# --------------------------------------------------------------------------

_ZERO, _HALF, _ONE, _TWO = Num(0.0), Num(0.5), Num(1.0), Num(2.0)


def _constant(node: Node) -> Optional[float]:
    """The value of a literal or a negated literal, else None."""
    if type(node) is Num:
        return node.value
    if type(node) is Apply and node.kind == "neg" and type(node.args[0]) is Num:
        return -node.args[0].value
    return None


def _folded(op, u: Node, v: Node) -> Optional[Num]:
    """op over two constants where its double result is exact, else None.

    Only exact folds keep the interval enclosures rigorous: a rounded constant
    would stand for a slightly different function.
    """
    left, right = _constant(u), _constant(v)
    if left is None or right is None:
        return None
    try:
        value = op(left, right)
        exact = op(Fraction(left), Fraction(right))
    except ZeroDivisionError:
        return None
    return Num(value) if math.isfinite(value) and exact == value else None


def _add(u: Node, v: Node) -> Node:
    if _constant(u) == 0.0:
        return v
    if _constant(v) == 0.0:
        return u
    return _folded(operator.add, u, v) or Apply("+", (u, v))


def _sub(u: Node, v: Node) -> Node:
    if _constant(v) == 0.0:
        return u
    if _constant(u) == 0.0:
        return _neg(v)
    return _folded(operator.sub, u, v) or Apply("-", (u, v))


def _neg(u: Node) -> Node:
    if type(u) is Num:
        return Num(-u.value)
    if type(u) is Apply and u.kind == "neg":
        return u.args[0]
    return Apply("neg", (u,))


def _mul(u: Node, v: Node) -> Node:
    if _constant(u) == 0.0 or _constant(v) == 0.0:
        return _ZERO
    if _constant(u) == 1.0:
        return v
    if _constant(v) == 1.0:
        return u
    return _folded(operator.mul, u, v) or Apply("*", (u, v))


def _div(u: Node, v: Node) -> Node:
    if _constant(u) == 0.0:
        return _ZERO
    if _constant(v) == 1.0:
        return u
    return _folded(operator.truediv, u, v) or Apply("/", (u, v))


def _pow(u: Node, v: Node) -> Node:
    if _constant(v) == 1.0:
        return u
    if _constant(v) == 0.0:
        return _ONE
    return Apply("^", (u, v))


def _d_quotient(node: Apply, args, dargs) -> Node:
    (u, v), (du, dv) = args, dargs
    if _constant(dv) == 0.0:
        return _div(du, v)
    return _div(_sub(_mul(du, v), _mul(u, dv)), _pow(v, _TWO))


def _d_power(node: Apply, args, dargs) -> Node:
    (u, v), (du, dv) = args, dargs
    if _constant(dv) == 0.0:
        # the power rule keeps u^2 smooth where u crosses 0
        return _mul(_mul(v, _pow(u, _sub(v, _ONE))), du)
    return _mul(node, _add(_mul(dv, Apply("ln", (u,))), _mul(v, _div(du, u))))


# --------------------------------------------------------------------------
# Interval enclosures: each kind maps enclosures (lo, hi) of its arguments,
# arrays or floats, to one of its value, rounded outward
# --------------------------------------------------------------------------

def _down(v):
    return np.nextafter(v, -math.inf)


def _up(v):
    return np.nextafter(v, math.inf)


def _hull(*values):
    """The outward-rounded hull of candidate values; a NaN among them stays NaN."""
    return _down(functools.reduce(np.minimum, values)), _up(functools.reduce(np.maximum, values))


def _whole_unless(ok, lo, hi):
    """(lo, hi) where ok holds and the whole line elsewhere."""
    return np.where(ok, lo, -math.inf), np.where(ok, hi, math.inf)


def _i_mul(x, y):
    (xl, xh), (yl, yh) = x, y
    if xl is xh:  # a literal factor: two candidates
        return _hull(xl * yl, xl * yh)
    if yl is yh:
        return _hull(xl * yl, xh * yl)
    return _hull(xl * yl, xl * yh, xh * yl, xh * yh)


def _i_div(x, y):
    (xl, xh), (yl, yh) = x, y
    quotients = (np.divide(xl, yl), np.divide(xl, yh), np.divide(xh, yl), np.divide(xh, yh))
    return _whole_unless((yl > 0.0) | (yh < 0.0), *_hull(*quotients))


def _i_pow(x, y):
    (bl, bh), (el, eh) = x, y
    if np.ndim(el) == 0 and el == eh and math.isfinite(el):  # a constant exponent k
        lo, hi = _hull(np.power(bl, el), np.power(bh, el))
        if el != math.floor(el):
            return _whole_unless(bl > 0.0, lo, hi)
        if el < 0.0:
            return _whole_unless((bl > 0.0) | (bh < 0.0), lo, hi)
        if el % 2.0 == 0.0:  # an even power of a base that crosses 0 has its minimum 0 there
            lo = np.where((bl < 0.0) & (bh > 0.0), 0.0, lo)
        return lo, hi
    corners = (np.power(bl, el), np.power(bl, eh), np.power(bh, el), np.power(bh, eh))
    return _whole_unless(bl > 0.0, *_hull(*corners))


def _i_increasing(fn, domain_lo=None):
    """The rule of an increasing fn, defined and smooth where its argument exceeds domain_lo."""
    def rule(x):
        lo, hi = _down(fn(x[0])), _up(fn(x[1]))
        return (lo, hi) if domain_lo is None else _whole_unless(x[0] > domain_lo, lo, hi)
    return rule


def _i_exp(x):
    return np.maximum(_down(np.exp(x[0])), 0.0), _up(np.exp(x[1]))


def _i_cosh(x):
    lo, hi = _hull(np.cosh(x[0]), np.cosh(x[1]))
    return np.where((x[0] < 0.0) & (x[1] > 0.0), 1.0, lo), hi


def _i_abs(x):
    (xl, xh) = x
    positive, negative = xl > 0.0, xh < 0.0
    # |u| is not smooth where u = 0, so an argument touching 0 gets the whole line
    lo, hi = np.where(positive, xl, -xh), np.where(positive, xh, -xl)
    return _whole_unless(positive | negative, lo, hi)


_TWO_PI = 2.0 * math.pi


def _reaches(lo, hi, phase):
    """Whether some phase + 2*pi*k may lie in [lo, hi]: never False when one does.

    The slack far exceeds the rounding of the reduction, so an extremum just
    outside the interval can only be counted in, which widens the enclosure.
    """
    slack = 1e-9 * (1.0 + np.abs(lo) + np.abs(hi))
    k = np.ceil((lo - slack - phase) / _TWO_PI)
    near = phase + _TWO_PI * k <= hi + slack
    # np.logical_not, not ~: on a literal the comparisons are Python bools, and ~True is -2
    return near | np.logical_not(hi - lo < _TWO_PI) | np.logical_not(np.abs(lo) + np.abs(hi) < 1e6)


def _i_periodic(fn, peak, trough):
    """The rule of sin or cos: maxima 1 at peak + 2*pi*k, minima -1 at trough + 2*pi*k."""
    def rule(x):
        lo, hi = _hull(fn(x[0]), fn(x[1]))
        lo = np.where(_reaches(x[0], x[1], trough), -1.0, np.maximum(lo, -1.0))
        hi = np.where(_reaches(x[0], x[1], peak), 1.0, np.minimum(hi, 1.0))
        return lo, hi
    return rule


# Node kind (each key of expr._OPS) -> (d/dx rule, interval rule).  The d/dx
# rule maps (node, args, their derivatives) to the node's derivative.  The
# interval rule maps enclosures of the args to one of the node's value, and
# returns the whole line wherever the node is not smooth on its args'
# enclosure.
_RULES = {
    "+": (lambda n, a, d: _add(d[0], d[1]), lambda x, y: (_down(x[0] + y[0]), _up(x[1] + y[1]))),
    "-": (lambda n, a, d: _sub(d[0], d[1]), lambda x, y: (_down(x[0] - y[1]), _up(x[1] - y[0]))),
    "*": (lambda n, a, d: _add(_mul(d[0], a[1]), _mul(a[0], d[1])), _i_mul),
    "neg": (lambda n, a, d: _neg(d[0]), lambda x: (-x[1], -x[0])),
    "/": (_d_quotient, _i_div),
    "^": (_d_power, _i_pow),
    "exp": (lambda n, a, d: _mul(n, d[0]), _i_exp),
    "ln": (lambda n, a, d: _div(d[0], a[0]), _i_increasing(np.log, 0.0)),
    "sqrt": (lambda n, a, d: _div(d[0], _mul(_TWO, n)), _i_increasing(np.sqrt, 0.0)),
    "sin": (lambda n, a, d: _mul(Apply("cos", a), d[0]),
            _i_periodic(np.sin, 0.5 * math.pi, -0.5 * math.pi)),
    "cos": (lambda n, a, d: _neg(_mul(Apply("sin", a), d[0])), _i_periodic(np.cos, 0.0, math.pi)),
    "sinh": (lambda n, a, d: _mul(Apply("cosh", a), d[0]), _i_increasing(np.sinh)),
    "cosh": (lambda n, a, d: _mul(Apply("sinh", a), d[0]), _i_cosh),
    "abs": (lambda n, a, d: _mul(_div(a[0], n), d[0]), _i_abs),
}


# --------------------------------------------------------------------------
# The walks: derivative trees and their enclosures
# --------------------------------------------------------------------------

# Most nodes one derivative walk or enclosure walk may visit.  Derivative
# trees share subtrees, so each walk visits every distinct node once and
# grows linearly with the tree; the budget bounds even a 100-level tower.
NODE_BUDGET = 20_000


class OverBudget(Exception):
    """A derivative or enclosure walk would visit more than NODE_BUDGET nodes."""


def _fold_dag(roots: Sequence[Node], leaf, apply, memo: dict) -> List:
    """Fold every node reachable from roots, children first, each distinct node once.

    ``memo`` maps id(node) to (node, value); holding the node keeps its id
    from being reused while the memo lives.  The walk keeps its own stack, so
    a derivative tree deeper than Python's recursion limit folds too.
    """
    stack = list(roots)
    while stack:
        node = stack[-1]
        if id(node) in memo:
            stack.pop()
            continue
        if type(node) is Apply:
            pending = [arg for arg in node.args if id(arg) not in memo]
            if pending:
                stack.extend(pending)
                continue
            if len(memo) >= NODE_BUDGET:
                raise OverBudget(f"more than {NODE_BUDGET} nodes")
            value = apply(node, [memo[id(arg)][1] for arg in node.args])
        else:
            value = leaf(node)
        memo[id(node)] = (node, value)
        stack.pop()
    return [memo[id(root)][1] for root in roots]


def derivative(node: Node, memo: dict) -> Node:
    """d/dx of node, built by the d/dx rules of _RULES; memo is shared across calls."""
    return _fold_dag(
        (node,),
        lambda leaf: _ONE if type(leaf) is Var else _ZERO,
        lambda n, dargs: _RULES[n.kind][0](n, n.args, dargs),
        memo,
    )[0]


def _log_derivative(node: Node, memo: dict) -> Node:
    """(ln |node|)', taken through products, quotients, powers, sqrt and exp.

    ln(exp(u))' is u' and ln(u^v)' is v' ln u + v (ln u)', so the second
    derivative of ln f is 0 exactly for f = exp(b*x + c), and -p/(x + s)^2 for
    f = (x + s)^p.  Every identity holds wherever the nodes it uses are
    defined and nonzero.  The recursion follows f's own tree, whose depth
    ``parse`` bounds.
    """
    if type(node) is Var:
        return _div(_ONE, node)
    if type(node) is not Apply:
        return _ZERO
    kind, args = node.kind, node.args
    if kind == "*":
        return _add(_log_derivative(args[0], memo), _log_derivative(args[1], memo))
    if kind == "/":
        return _sub(_log_derivative(args[0], memo), _log_derivative(args[1], memo))
    if kind in ("neg", "abs"):
        return _log_derivative(args[0], memo)
    if kind == "sqrt":
        return _mul(_HALF, _log_derivative(args[0], memo))
    if kind == "exp":
        return derivative(args[0], memo)
    if kind == "^":
        u, v = args
        dv, du_over_u = derivative(v, memo), _log_derivative(u, memo)
        return _add(_mul(dv, Apply("ln", (u,))), _mul(v, du_over_u))
    return _div(derivative(node, memo), node)


def log_derivatives(f: Expression) -> Tuple[Node, Node]:
    """The trees of g' and g'' for g = ln f.

    g'' folds to a literal 0 where it vanishes identically.  Raises
    OverBudget where either walk would pass NODE_BUDGET nodes.
    """
    memo: dict = {}
    g1 = _log_derivative(f.root, memo)
    return g1, derivative(g1, memo)


def enclose(
    roots: Sequence[Node], lo: np.ndarray, hi: np.ndarray
) -> List[Tuple[np.ndarray, np.ndarray]]:
    """Enclosures of each root's value over the boxes [lo[i], hi[i]], as (lower, upper) arrays.

    The pairs are read-only views of one (roots, 2, boxes) block, so a
    literal root's ends are broadcast to every box.

    Every operation rounds to nearest and then widens outward by one step of
    ``np.nextafter``, so the enclosure holds if each libm result (exp, ln,
    sqrt, power, sin, cos, sinh, cosh) lies within one ulp step of the true
    value.  Literals and the constants e and pi stand for their doubles.  A
    node that is not smooth on its arguments' enclosure (abs across or at 0;
    sqrt, ln or a divisor touching 0; a power whose base touches 0, unless the
    exponent is a nonnegative integer) encloses as the whole line, and so
    does anything NaN, such as 0 * inf: a wider enclosure is never a wrong
    one.  Shared subtrees are enclosed once; raises OverBudget past
    NODE_BUDGET nodes.
    """
    def leaf(node):
        if type(node) is Var:
            return lo, hi
        value = node.value if type(node) is Num else _CONSTANTS[node.name]
        return value, value

    with np.errstate(all="ignore"):
        enclosures = _fold_dag(roots, leaf, lambda n, args: _RULES[n.kind][1](*args), {})
    block = np.empty((len(enclosures), 2) + lo.shape)
    for ends, (low, high) in zip(block, enclosures):
        ends[0], ends[1] = low, high  # a literal root's ends broadcast
    unknown = np.isnan(block).any(axis=1, keepdims=True)
    block = np.where(unknown, np.array([[-math.inf], [math.inf]]), block)
    block.flags.writeable = False
    return [(low, high) for low, high in block]
