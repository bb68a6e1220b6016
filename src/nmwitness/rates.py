"""Time-dependent rate functions and a small expression language for them.

Grammar (whitespace ignored, '^' right-associative, no implicit
multiplication):

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := unary ('^' factor)?
    unary  := '-'? atom
    atom   := number | 't' | ident '(' expr ')' | '(' expr ')'

Known functions: sin, cos, exp, tanh, abs. Known constants: pi, e
(identifiers without call syntax). The only variable is t.

Every Rate evaluates at one time (`rate(t)`, the reference path) or on a
whole time grid at once (`rate.on_grid(ts)`). The grid path is bit-identical
to calling the rate at each t: an expression is walked once per grid, with
numpy for + - * /, negation and abs (correctly rounded, as Python floats
are) and the `math` function itself mapped over the elements for sin, cos,
exp, tanh and '^' (numpy's own exp and tanh can differ from libm in the last
bit). Where the point path would raise at some t of the grid (division by
zero, a `math` overflow or domain error, a non-finite value or a table
lookup outside its domain), `on_grid` falls back to the point loop, so the
error is the one the point path gives at the first failing t.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np


class RateParseError(ValueError):
    """Expression text is malformed; offset is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class RateEvalError(ValueError):
    """Expression could not be evaluated to a finite real number."""


FUNCTIONS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "tanh": math.tanh,
    "abs": abs,
}

CONSTANTS = {"pi": math.pi, "e": math.e}


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Literal:
    value: float
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class TimeVar:
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Const:
    name: str
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Neg:
    operand: "Node"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: "Node"
    right: "Node"
    pos: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Call:
    func: str
    arg: "Node"
    pos: int = field(default=0, compare=False)


Node = Literal | TimeVar | Const | Neg | BinOp | Call


@dataclass(frozen=True)
class RateExpression:
    """Parsed rate expression; evaluate with expression(t) or evaluate()."""

    root: Node
    source: str = field(default="", compare=False)

    def __call__(self, t: float) -> float:
        return evaluate(self, t)


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
)


@dataclass(frozen=True)
class _Token:
    kind: str          # 'num', 'ident', 'op', 'end'
    text: str
    pos: int


def _tokenize(src: str) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(src)
    while i < n:
        if src[i].isspace():
            i += 1
            continue
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise RateParseError(f"unexpected character {src[i]!r}", i)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(), i))
        i = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def at_op(self, *ops: str) -> bool:
        return self.cur.kind == "op" and self.cur.text in ops

    def expr(self) -> Node:
        node = self.term()
        while self.at_op("+", "-"):
            tok = self.advance()
            node = BinOp(tok.text, node, self.term(), pos=tok.pos)
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.at_op("*", "/"):
            tok = self.advance()
            node = BinOp(tok.text, node, self.factor(), pos=tok.pos)
        return node

    def factor(self) -> Node:
        node = self.unary()
        if self.at_op("^"):
            tok = self.advance()
            node = BinOp("^", node, self.factor(), pos=tok.pos)
        return node

    def unary(self) -> Node:
        if self.at_op("-"):
            tok = self.advance()
            return Neg(self.atom(), pos=tok.pos)
        return self.atom()

    def atom(self) -> Node:
        tok = self.cur
        if tok.kind == "num":
            self.advance()
            return Literal(float(tok.text), pos=tok.pos)
        if tok.kind == "ident":
            self.advance()
            if tok.text == "t":
                return TimeVar(pos=tok.pos)
            if self.at_op("("):
                if tok.text not in FUNCTIONS:
                    raise RateParseError(f"unknown function {tok.text!r}", tok.pos)
                self.advance()
                arg = self.expr()
                if not self.at_op(")"):
                    raise RateParseError("unbalanced parentheses", self.cur.pos)
                self.advance()
                return Call(tok.text, arg, pos=tok.pos)
            if tok.text in CONSTANTS:
                return Const(tok.text, pos=tok.pos)
            raise RateParseError(f"unknown identifier {tok.text!r}", tok.pos)
        if self.at_op("("):
            self.advance()
            node = self.expr()
            if not self.at_op(")"):
                raise RateParseError("unbalanced parentheses", self.cur.pos)
            self.advance()
            return node
        raise RateParseError(
            f"expected a number, 't', function or '(', got {tok.text or 'end of input'!r}",
            tok.pos)


def parse(src: str) -> RateExpression:
    """Parse expression text; raises RateParseError with a byte offset."""
    parser = _Parser(_tokenize(src))
    root = parser.expr()
    if parser.cur.kind != "end":
        raise RateParseError(f"trailing input {parser.cur.text!r}", parser.cur.pos)
    return RateExpression(root=root, source=src)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def _eval(node: Node, t: float) -> float:
    match node:
        case Literal(value=v):
            return v
        case TimeVar():
            return t
        case Const(name=name):
            return CONSTANTS[name]
        case Neg(operand=x):
            return -_eval(x, t)
        case Call(func=f, arg=a):
            try:
                return float(FUNCTIONS[f](_eval(a, t)))
            except OverflowError as exc:
                raise RateEvalError(f"{f}: overflow (at byte {node.pos})") from exc
        case BinOp(op=op, left=l, right=r):
            a = _eval(l, t)
            b = _eval(r, t)
            if op == "+":
                return a + b
            if op == "-":
                return a - b
            if op == "*":
                return a * b
            if op == "/":
                if b == 0.0:
                    raise RateEvalError(f"division by zero (at byte {node.pos})")
                return a / b
            try:
                return math.pow(a, b)
            except ValueError as exc:
                raise RateEvalError(
                    f"invalid power {a!r} ^ {b!r} (at byte {node.pos})") from exc
            except OverflowError as exc:
                raise RateEvalError(f"power overflow (at byte {node.pos})") from exc
    raise TypeError(f"unknown node {node!r}")


def evaluate(expr: RateExpression, t: float) -> float:
    """Evaluate at time t; raises RateEvalError on division by zero etc."""
    value = _eval(expr.root, t)
    if not math.isfinite(value):
        raise RateEvalError(f"non-finite value {value!r} at t={t}")
    return value


_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _map(f, *columns: np.ndarray) -> np.ndarray:
    """f applied to the Python floats of equal-length columns, element by element."""
    return np.fromiter(map(f, *(c.tolist() for c in columns)), dtype=float,
                       count=len(columns[0]))


def _eval_grid(node: Node, ts: np.ndarray) -> np.ndarray:
    """_eval at every t of ts; raises where _eval would raise at some t."""
    match node:
        case Literal(value=v):
            return np.full(ts.shape, v)
        case TimeVar():
            return ts
        case Const(name=name):
            return np.full(ts.shape, CONSTANTS[name])
        case Neg(operand=x):
            return -_eval_grid(x, ts)
        case Call(func="abs", arg=a):
            return np.abs(_eval_grid(a, ts))
        case Call(func=f, arg=a):
            return _map(FUNCTIONS[f], _eval_grid(a, ts))
        case BinOp(op="^", left=l, right=r):
            return _map(math.pow, _eval_grid(l, ts), _eval_grid(r, ts))
        case BinOp(op=op, left=l, right=r):
            a = _eval_grid(l, ts)
            b = _eval_grid(r, ts)
            if op == "/" and (b == 0.0).any():
                raise RateEvalError(f"division by zero (at byte {node.pos})")
            return _ARITHMETIC[op](a, b)
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Pretty printer (inverse of parse, up to whitespace)
# ---------------------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 3}


def _render(node: Node) -> tuple[str, int]:
    """Return (text, precedence); atoms have precedence 9."""
    match node:
        case Literal(value=v):
            return repr(v), 9
        case TimeVar():
            return "t", 9
        case Const(name=name):
            return name, 9
        case Call(func=f, arg=a):
            return f"{f}({_render(a)[0]})", 9
        case Neg(operand=x):
            text, prec = _render(x)
            if prec < 9:
                text = f"({text})"
            return f"-{text}", 4
        case BinOp(op=op, left=l, right=r):
            my = _PREC[op]
            lt, lp = _render(l)
            rt, rp = _render(r)
            # '+,-,*,/' are left-associative, '^' is right-associative.
            if op == "^":
                if lp <= my:
                    lt = f"({lt})"
                if rp < my:
                    rt = f"({rt})"
            else:
                if lp < my:
                    lt = f"({lt})"
                if rp <= my:
                    rt = f"({rt})"
            return f"{lt} {op} {rt}", my
    raise TypeError(f"unknown node {node!r}")


def pretty(expr: RateExpression) -> str:
    """Render back to parseable source text."""
    return _render(expr.root)[0]


# ---------------------------------------------------------------------------
# Rate function wrappers
# ---------------------------------------------------------------------------

class Rate:
    """A scalar rate of time; call with t to evaluate, or use on_grid."""

    def __call__(self, t: float) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def on_grid(self, ts: np.ndarray) -> np.ndarray:
        """The rate at every t of a 1-d float array, as rate(t) gives it."""
        return np.array([self(t) for t in ts.tolist()], dtype=float)


@dataclass(frozen=True)
class ConstantRate(Rate):
    value: float

    def __call__(self, t: float) -> float:
        return self.value

    def on_grid(self, ts: np.ndarray) -> np.ndarray:
        return np.full(ts.shape, self.value)


@dataclass(frozen=True)
class ExpressionRate(Rate):
    expression: RateExpression

    def __call__(self, t: float) -> float:
        return evaluate(self.expression, t)

    def on_grid(self, ts: np.ndarray) -> np.ndarray:
        try:
            with np.errstate(all="ignore"):
                values = _eval_grid(self.expression.root, ts)
            if np.isfinite(values).all():
                return values
        except (OverflowError, ValueError):
            pass
        return super().on_grid(ts)


@dataclass(frozen=True)
class TableRate(Rate):
    """Sorted (t, value) samples with linear interpolation in between."""

    times: tuple[float, ...]
    values: tuple[float, ...]

    def __post_init__(self):
        if len(self.times) != len(self.values) or not self.times:
            raise ValueError("TableRate: need equally many times and values, at least one")
        ts = np.asarray(self.times, dtype=float)
        vs = np.asarray(self.values, dtype=float)
        if not (np.all(np.isfinite(ts)) and np.all(np.isfinite(vs))):
            raise ValueError("TableRate: non-finite entries")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("TableRate: times must be strictly increasing")

    def __call__(self, t: float) -> float:
        if t < self.times[0] or t > self.times[-1]:
            raise self._outside(t)
        return float(np.interp(t, self.times, self.values))

    def on_grid(self, ts: np.ndarray) -> np.ndarray:
        outside = (ts < self.times[0]) | (ts > self.times[-1])
        if outside.any():
            raise self._outside(float(ts[outside.argmax()]))
        return np.interp(ts, self.times, self.values)

    def _outside(self, t: float) -> RateEvalError:
        return RateEvalError(
            f"t={t} outside table domain [{self.times[0]}, {self.times[-1]}]")


RateLike = Rate | RateExpression | float | int | str


def as_rate(x: RateLike) -> Rate:
    """Coerce a number, expression text or RateExpression to a Rate."""
    if isinstance(x, Rate):
        return x
    if isinstance(x, RateExpression):
        return ExpressionRate(x)
    if isinstance(x, bool):
        raise TypeError("as_rate: bool is not a rate")
    if isinstance(x, (int, float)):
        if not math.isfinite(float(x)):
            raise ValueError(f"as_rate: non-finite constant {x!r}")
        return ConstantRate(float(x))
    if isinstance(x, str):
        return ExpressionRate(parse(x))
    raise TypeError(f"as_rate: cannot interpret {type(x).__name__} as a rate")
