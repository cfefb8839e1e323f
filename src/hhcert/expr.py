"""Parse, evaluate, and serialize a small univariate expression language.

The language defines the functions f(x) that the rest of the package
certifies and integrates: decimal literals, the variable ``x``, the
constants ``e`` and ``pi``, the operators ``+ - * / ^`` and the calls
``exp, ln, sqrt, sin, cos, sinh, cosh, abs``.  ``^`` is right-associative
and binds tighter than unary minus, so ``-x^2`` is ``-(x^2)`` and
``x^2^3`` is ``x^(2^3)``.  ``log`` is rejected on purpose: its base is
ambiguous, and a loud failure beats a silent guess.

A tree has three leaf kinds (``Num``, ``Var``, ``Const``) and one interior
kind, ``Apply(kind, args)``: ``kind`` is a key of ``_OPS`` (an operator, a
call name or ``"neg"``) and ``args`` holds its one or two children.
``_OPS`` maps each kind to its operation and its domain rules, and one walk
over the tree evaluates it, with numpy's ufuncs, so numpy defines f
everywhere.  ``evaluate_array`` maps an array and leaves domain
violations NaN or infinite.  ``evaluate`` (``f(x)``) walks the one-point
array ``[x]``, checks each node's domain rules in evaluation order and
raises a named error for the first node that leaves its domain; where it
returns, it returns ``f.eval_array([x])[0]`` bit for bit.  The other modules
take f over a point set from ``_positive_values``: one array walk, and the
checked walk only to name a failure by node and x (``division by zero at x=0.5``).

Trees are immutable after parsing and evaluation is pure, so expressions
are safe to share across threads without locking.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Tuple, Union

import numpy as np

__all__ = [
    "Expression",
    "Refused",
    "ExpressionError",
    "ParseError",
    "DomainError",
    "EvaluationError",
    "NotPositiveError",
    "parse",
    "evaluate",
    "evaluate_array",
    "serialize",
]


class Refused(ValueError):
    """An input outside what hhcert can judge, refused by name instead of judged."""


class ExpressionError(Refused):
    """Base class of ParseError, DomainError and EvaluationError."""


class ParseError(ExpressionError):
    """Syntax or identifier error, with the 0-based offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class DomainError(ExpressionError):
    """ln of a non-positive value, sqrt of a negative value, division by zero, ..."""


class EvaluationError(ExpressionError):
    """Evaluation left the finite doubles (overflow / non-finite result)."""


class NotPositiveError(Refused):
    """f left (0, inf) at a sampled point; the check does not apply."""

    def __init__(self, message: str, x: Optional[float] = None, value: Optional[float] = None):
        super().__init__(message)
        self.x = x
        self.value = value


# --------------------------------------------------------------------------
# Syntax tree
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Const:
    name: str  # "e" | "pi"


@dataclass(frozen=True)
class Apply:
    kind: str  # an _OPS key: one of + - * / ^, a call name or "neg"
    args: Tuple["Node", ...]  # one child, or two for an operator


Node = Union[Num, Var, Const, Apply]

_CONSTANTS = {"e": math.e, "pi": math.pi}
_FUNCTIONS = ("exp", "ln", "sqrt", "sin", "cos", "sinh", "cosh", "abs")


@dataclass(frozen=True)
class Expression:
    """Immutable parsed function of one real variable."""

    root: Node

    def __call__(self, x: float) -> float:
        return evaluate(self, x)

    def eval_array(self, xs) -> np.ndarray:
        return evaluate_array(self, xs)

    def __str__(self) -> str:
        return serialize(self)

    @cached_property
    def _canonical_text(self) -> str:
        # cached_property writes the instance dict directly, so the frozen
        # expression still compares and hashes by its tree alone
        return _text(self.root)


# --------------------------------------------------------------------------
# Parser: recursive descent over the raw string, whitespace-insensitive
#
#   expr   := term (('+'|'-') term)*
#   term   := factor (('*'|'/') factor)*
#   factor := '-' factor | atom ('^' factor)?
#   atom   := NUMBER | 'x' | 'e' | 'pi' | FUNC '(' expr ')' | '(' expr ')'
#
# expr and term are one loop, parse_expr, over the levels of _LEVELS.
# --------------------------------------------------------------------------

_LEVELS = (("+", "-"), ("*", "/"))  # left-associative operators, loosest first

_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# Deepest parenthesis nesting, and deepest tree, that ``parse`` accepts.  The
# parser takes at most 5 stack frames a level (parse_expr at each of its three
# levels, parse_factor, parse_atom) and every tree walk (_walk, _text, the
# dataclass __eq__, __hash__ and __repr__) at most 4, counting the comparisons
# and reprs of the args tuple, which Python counts against the same limit; so
# each needs about 500 frames at most, half of Python's default recursion
# limit.  The canonical text of a tree has one parenthesis per node above a
# leaf, so every tree that parses serializes to text that parses.
_MAX_DEPTH = 100


def _too_deep(what: str, position: int) -> ParseError:
    return ParseError(f"{what} deeper than {_MAX_DEPTH} levels", position)


def _height(position: int, left: int, right: int = 0) -> int:
    """The height of a node over subtrees of heights ``left`` and ``right``; a leaf has 0."""
    height = 1 + max(left, right)
    if height > _MAX_DEPTH:
        raise _too_deep("expression tree", position)
    return height


class _Parser:
    """Each parse method returns (node, height).

    ``parens`` counts the parentheses open at ``pos`` and ``above`` the "neg"
    and ``^`` nodes that will hold what is parsed there, so recursion stops
    before either passes _MAX_DEPTH, and every node checks its height as it is
    built.
    """

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.parens = 0
        self.above = 0

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.peek() != ch:
            got = repr(self.peek()) if self.peek() else "end of input"
            raise ParseError(f"expected {ch!r}, got {got}", self.pos)
        self.pos += 1

    def descend(self, parens: int, above: int, position: int) -> None:
        self.parens += parens
        self.above += above
        if self.parens > _MAX_DEPTH:
            raise _too_deep("parentheses nested", position)
        if self.above > _MAX_DEPTH:
            raise _too_deep("expression tree", position)

    def parse_expr(self, level: int = 0) -> Tuple[Node, int]:
        """Operands of _LEVELS[level], joined left to right by its operators."""
        if level == len(_LEVELS):
            return self.parse_factor()
        node, height = self.parse_expr(level + 1)
        while True:
            self.skip_ws()
            op = self.peek()
            if op not in _LEVELS[level]:
                return node, height
            start = self.pos
            self.pos += 1
            right, right_height = self.parse_expr(level + 1)
            node, height = Apply(op, (node, right)), _height(start, height, right_height)

    def parse_factor(self) -> Tuple[Node, int]:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.descend(0, 1, start)
            self.pos += 1
            arg, height = self.parse_factor()
            self.above -= 1
            return Apply("neg", (arg,)), _height(start, height)
        base, base_height = self.parse_atom()
        self.skip_ws()
        if self.peek() != "^":
            return base, base_height
        start = self.pos
        self.descend(0, 1, start)
        self.pos += 1
        exponent, height = self.parse_factor()
        self.above -= 1
        return Apply("^", (base, exponent)), _height(start, base_height, height)

    def parse_atom(self) -> Tuple[Node, int]:
        self.skip_ws()
        ch = self.peek()
        if not ch:
            raise ParseError("unexpected end of input", self.pos)
        if ch == "(":
            self.descend(1, 0, self.pos)
            self.pos += 1
            parsed = self.parse_expr()
            self.expect(")")
            self.parens -= 1
            return parsed
        if ch.isdigit() or ch == ".":
            m = _NUMBER_RE.match(self.text, self.pos)
            if m is None:
                raise ParseError(f"malformed number starting with {ch!r}", self.pos)
            start = self.pos
            self.pos = m.end()
            value = float(m.group())
            if not math.isfinite(value):
                raise ParseError("number literal out of double range", start)
            return Num(value), 0
        m = _IDENT_RE.match(self.text, self.pos)
        if m is None:
            raise ParseError(f"unexpected character {ch!r}", self.pos)
        name = m.group()
        start = self.pos
        self.pos = m.end()
        if name == "x":
            return Var(), 0
        if name in _CONSTANTS:
            return Const(name), 0
        if name in _FUNCTIONS:
            self.expect("(")
            self.descend(1, 0, self.pos - 1)
            arg, height = self.parse_expr()
            self.expect(")")
            self.parens -= 1
            return Apply(name, (arg,)), _height(start, height)
        if name == "log":
            raise ParseError("ambiguous 'log' (write 'ln' for the natural logarithm)", start)
        raise ParseError(f"unknown identifier {name!r}", start)


def parse(text: str) -> Expression:
    """Parse ``text`` into an immutable :class:`Expression`.

    Text that nests parentheses, or builds a tree, deeper than 100 levels is
    refused with a ParseError.
    """
    if not isinstance(text, str):
        raise TypeError("expression text must be a string")
    if not text.strip():
        raise ParseError("empty expression", 0)
    parser = _Parser(text)
    root, _ = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise ParseError(f"unexpected character {text[parser.pos]!r}", parser.pos)
    return Expression(root)


# --------------------------------------------------------------------------
# Evaluation: one walk, unchecked over an array, checked on one point
# --------------------------------------------------------------------------

def _escaped(out, *args) -> bool:  # finite operands, non-finite result
    return not math.isfinite(out) and all(map(math.isfinite, args))


# Node kind (operator, call name or "neg") -> (operation, domain rules).  On
# one point, the walk raises error(message.format(out, *args)) for the first
# rule (error, message, broken) whose broken(out, *args) holds.  + - * and
# unary minus are Python operators: constant subtrees stay Python floats.
_OPS = {
    "+": (operator.add, ()),
    "-": (operator.sub, ()),
    "*": (operator.mul, ()),
    "neg": (operator.neg, ()),
    "/": (np.divide, ((DomainError, "division by zero", lambda out, left, right: right == 0.0),)),
    "^": (np.power, (
        (DomainError, "invalid power {1!r} ^ {2!r}",
         lambda out, left, right: _escaped(out, left, right) and (math.isnan(out) or left == 0.0)),
        (EvaluationError, "overflow in power {1!r} ^ {2!r}", _escaped),
    )),
    "exp": (np.exp, ((EvaluationError, "overflow in exp({1!r})", _escaped),)),
    "ln": (np.log, ((DomainError, "ln of non-positive value {1!r}", lambda out, v: v <= 0.0),)),
    "sqrt": (np.sqrt, ((DomainError, "sqrt of negative value {1!r}", lambda out, v: v < 0.0),)),
    "sin": (np.sin, ()),
    "cos": (np.cos, ()),
    "sinh": (np.sinh, ((EvaluationError, "overflow in sinh({1!r})", _escaped),)),
    "cosh": (np.cosh, ((EvaluationError, "overflow in cosh({1!r})", _escaped),)),
    "abs": (np.abs, ()),
}


def _walk(node: Node, xs, checked: bool):
    if isinstance(node, Apply):
        # two explicit arities: a generic map over args slows every call
        if len(node.args) == 2:
            args = (_walk(node.args[0], xs, checked), _walk(node.args[1], xs, checked))
        else:
            args = (_walk(node.args[0], xs, checked),)
    elif isinstance(node, Var):
        return xs
    elif isinstance(node, Num):
        return node.value
    else:
        return _CONSTANTS[node.name]
    op, rules = _OPS[node.kind]
    out = op(*args)
    if checked and rules:
        point = [_item(v) for v in (out, *args)]
        for error, message, broken in rules:
            if broken(*point):
                raise error(message.format(*point))
    return out


def _item(value) -> float:  # the value of a walk over one point
    return value if type(value) is float else value.item()


def evaluate(f: Expression, x: float) -> float:
    """Evaluate ``f`` at the finite real ``x``: ``f.eval_array([x])[0]`` bit for bit.

    The walk checks each node's domain rules and raises a DomainError or
    EvaluationError naming the first node out of its domain or a non-finite result.
    """
    x = float(x)
    if not math.isfinite(x):
        raise Refused(f"evaluation point must be finite, got {x!r}")
    with np.errstate(all="ignore"):
        out = _item(_walk(f.root, np.array([x]), True))
    if not math.isfinite(out):
        raise EvaluationError(f"non-finite result at x={x!r}")
    return out


def evaluate_array(f: Expression, xs) -> np.ndarray:
    """Evaluate ``f`` elementwise over ``xs`` (any shape).

    Domain violations are not raised here: the offending entries come back
    NaN or infinite, for ``_positive_values`` to name the first of them.
    """
    xs = np.asarray(xs, dtype=float)
    with np.errstate(all="ignore"):
        out = _walk(f.root, xs, False)
    out = np.asarray(out, dtype=float)
    if out.shape != xs.shape:
        out = np.broadcast_to(out, xs.shape).copy()
    return out


def _positive_values(f: Expression, pts, positive: bool = True) -> np.ndarray:
    """f over ``pts`` by one array walk; each value finite, and positive if ``positive``.

    Values that pass take two reductions (a NaN fails the first).  Else the
    first non-finite point is walked with ``evaluate``'s checks, whose error
    gains ``at x=...``, or, where all are finite, the first <= 0 is refused.
    """
    vals = f.eval_array(pts)
    if vals.min() > (0.0 if positive else -math.inf) and vals.max() < math.inf:
        return vals
    flat_vals, finite = vals.ravel(), np.isfinite(vals).ravel()
    i = int(np.argmax(flat_vals <= 0.0) if finite.all() else np.argmin(finite))
    x, value = float(np.ravel(pts)[i]), float(flat_vals[i])
    if math.isfinite(value):
        raise NotPositiveError(
            f"f(x) = {value!r} <= 0 at x={x!r}; log-convexity does not apply", x=x, value=value
        )
    try:
        with np.errstate(all="ignore"):
            _walk(f.root, np.array([x]), True)
    except ExpressionError as exc:
        raise type(exc)(f"{exc} at x={x!r}") from None
    raise EvaluationError(f"non-finite result at x={x!r}")


# --------------------------------------------------------------------------
# Canonical serialization: fully parenthesized, round-trip exact
# --------------------------------------------------------------------------

def _text(node: Node) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return "x"
    if isinstance(node, Const):
        return node.name
    args = [_text(arg) for arg in node.args]
    if node.kind == "neg":
        return f"(-{args[0]})"
    if len(args) == 2:
        return f"({args[0]} {node.kind} {args[1]})"
    return f"{node.kind}({args[0]})"


def serialize(f: Expression) -> str:
    """Emit canonical fully parenthesized text; ``parse`` inverts it exactly.

    The text is built once per expression and cached on it.
    """
    return f._canonical_text
