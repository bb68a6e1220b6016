"""Time-dependent rate functions and a small expression language for them.

Grammar (whitespace ignored, no implicit multiplication), one `_Parser`
method per rule:

    binary(0) := binary(1) (('+'|'-') binary(1))*     folded from the left
    binary(1) := factor (('*'|'/') factor)*           folded from the left
    factor    := unary ('^' unary)*                   folded from the right
    unary     := '-'? atom
    atom      := number | 't' | constant | function '(' group | '(' group
    group     := binary(0) ')'

Known functions: sin, cos, exp, tanh, abs. Known constants: pi, e
(identifiers without call syntax). The only variable is t. `parse` refuses
(RateParseError) more than MAX_DEPTH = 64 parentheses open at once or 64
operators and calls on one path down the tree ("t+t+t" has 2). The parser
recurses seven frames per open parenthesis (binary at levels 0, 1 and 2,
factor, unary, atom, group) and the evaluator one per level, so the limit,
not the caller's stack, decides what parses.

Every Rate evaluates on a whole time grid at once (`rate.on_grid(ts)`);
its value at one time (`rate(t)`) is the one-point grid's. One walker,
`_eval_grid`, evaluates an expression: it visits each node once per grid,
operands left first, with numpy for + - * /, negation and abs (correctly
rounded, as Python floats are) and the `math` function itself mapped over
the elements for sin, cos, exp, tanh and '^' (numpy's own exp and tanh can
differ from libm in the last bit). It raises RateEvalError where a node
fails: division by zero or a `math` overflow or domain error, each naming
the innermost failing node by its byte offset; a non-finite value or a table
lookup outside its domain also raises. On a one-point grid the error is the
first failure of a left-to-right evaluation at that t; on a longer grid it
names some failing t, and `LindbladGenerator.rate_grid` finds the first.
"""

from __future__ import annotations

import math
import operator
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

MAX_DEPTH = 64  # parentheses open at once, and levels of operators and calls


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


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()])"
    r"|(?P<bad>\S))"  # \S, not '.': trailing whitespace makes no token
)

Token = tuple[str, str, int]  # (kind, text, pos); kind is 'num', 'ident', 'op' or 'end'


def _tokenize(src: str) -> list[Token]:
    tokens: list[Token] = []
    depth = 0
    for m in _TOKEN_RE.finditer(src):
        kind = m.lastgroup
        text, pos = m[kind], m.start(kind)
        if kind == "bad":
            raise RateParseError(f"unexpected character {text!r}", pos)
        depth += (text == "(") - (text == ")")
        if depth > MAX_DEPTH:
            raise RateParseError(f"more than {MAX_DEPTH} parentheses open", pos)
        tokens.append((kind, text, pos))
    tokens.append(("end", "end of input", len(src)))
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------

_LEVELS = ("+-", "*/")  # left-associative operators, loosest first; '^' is factor's


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    def take(self, ops: str) -> Token:
        """The current token, consumed if it is one of the operators in ops (no
        other token's text, 'end of input' included, is a substring of ops)."""
        tok = self.tokens[self.i]
        self.i += tok[1] in ops
        return tok

    def binary(self, level: int = 0) -> Node:
        if level == len(_LEVELS):
            return self.factor()
        ops = _LEVELS[level]
        node = self.binary(level + 1)
        while (tok := self.take(ops))[1] in ops:
            node = BinOp(tok[1], node, self.binary(level + 1), pos=tok[2])
        return node

    def factor(self) -> Node:
        # unary ('^' unary)*, folded from the right in a loop, not by recursion.
        operands, carets = [self.unary()], []
        while (tok := self.take("^"))[1] == "^":
            carets.append(tok[2])
            operands.append(self.unary())
        node = operands.pop()
        for pos in reversed(carets):
            node = BinOp("^", operands.pop(), node, pos=pos)
        return node

    def unary(self) -> Node:
        _, text, pos = self.take("-")
        return Neg(self.atom(), pos=pos) if text == "-" else self.atom()

    def atom(self) -> Node:
        kind, text, pos = self.take("(")
        if text == "(":
            return self.group()
        if kind not in ("num", "ident"):
            raise RateParseError(f"expected a number, 't', function or '(', got {text!r}", pos)
        self.i += 1
        if kind == "num":
            return Literal(float(text), pos=pos)
        if text == "t":
            return TimeVar(pos=pos)
        if self.take("(")[1] == "(":
            if text not in FUNCTIONS:
                raise RateParseError(f"unknown function {text!r}", pos)
            return Call(text, self.group(), pos=pos)
        if text in CONSTANTS:
            return Const(text, pos=pos)
        raise RateParseError(f"unknown identifier {text!r}", pos)

    def group(self) -> Node:
        # binary(0) ')', its '(' already taken: a parenthesised expression or an argument.
        node = self.binary()
        _, text, pos = self.take(")")
        if text != ")":
            raise RateParseError("unbalanced parentheses", pos)
        return node


def parse(src: str) -> ExpressionRate:
    """Parse expression text into its Rate; raises RateParseError with a byte offset."""
    parser = _Parser(_tokenize(src))
    root = parser.binary()
    kind, text, pos = parser.tokens[parser.i]
    if kind != "end":
        raise RateParseError(f"trailing input {text!r}", pos)
    # Each operator and call is a token, so only a longer expression can be too deep.
    below = [(root, 0)] if len(parser.tokens) > MAX_DEPTH else []
    while below:
        node, depth = below.pop()
        if depth > MAX_DEPTH:
            raise RateParseError(f"more than {MAX_DEPTH} nested operators and calls", node.pos)
        below += [(child, depth + 1) for child in vars(node).values() if isinstance(child, Node)]
    return ExpressionRate(root)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.divide}


def _map(node: Call | BinOp, f, *columns: np.ndarray) -> np.ndarray:
    """f applied to the Python floats of equal-length columns, element by element.

    A `math` error of f raises RateEvalError for node, which is a Call or a '^'.
    """
    args = [c.tolist() for c in columns]
    first = iter(args[0])
    try:
        return np.fromiter(map(f, first, *args[1:]), dtype=float, count=len(args[0]))
    except (OverflowError, ValueError) as exc:
        if isinstance(node, Call):
            what = f"{node.func}: {'overflow' if isinstance(exc, OverflowError) else exc}"
        elif isinstance(exc, OverflowError):
            what = "power overflow"
        else:
            # map pulls all of f's arguments before calling it, so the failing
            # ones are the last that `first` gave out.
            k = len(args[0]) - 1 - operator.length_hint(first)
            what = f"invalid power {args[0][k]!r} ^ {args[1][k]!r}"
        raise RateEvalError(f"{what} (at byte {node.pos})") from exc


def _eval_grid(node: Node, ts: np.ndarray) -> np.ndarray:
    """The subexpression node at every t of ts; RateEvalError where it fails.

    Every node evaluates its operands left first, then itself, so on a
    one-point grid the error names the first node to fail at that t.
    """
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
            return _map(node, FUNCTIONS[f], _eval_grid(a, ts))
        case BinOp(op="^", left=l, right=r):
            return _map(node, math.pow, _eval_grid(l, ts), _eval_grid(r, ts))
        case BinOp(op=op, left=l, right=r):
            a = _eval_grid(l, ts)
            b = _eval_grid(r, ts)
            if op == "/" and (b == 0.0).any():
                raise RateEvalError(f"division by zero (at byte {node.pos})")
            return _ARITHMETIC[op](a, b)
    raise TypeError(f"unknown node {node!r}")


# ---------------------------------------------------------------------------
# Rate function wrappers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConstantRate:
    value: float

    def __call__(self, t: float) -> float:
        return self.value

    def on_grid(self, ts: np.ndarray) -> np.ndarray:
        return np.full(ts.shape, self.value)


@dataclass(frozen=True)
class ExpressionRate:
    """A parsed expression (`parse` builds one); RateEvalError where it fails
    or is not finite."""

    root: Node

    def __call__(self, t: float) -> float:
        return self.on_grid(np.array([t], dtype=float))[0].item()

    def on_grid(self, ts: np.ndarray) -> np.ndarray:
        with np.errstate(all="ignore"):
            values = _eval_grid(self.root, ts)
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            k = bad[0]
            raise RateEvalError(f"non-finite value {values[k].item()!r} at t={ts[k].item()}")
        return values


@dataclass(frozen=True)
class TableRate:
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
        return self.on_grid(np.array([t], dtype=float))[0].item()

    def on_grid(self, ts: np.ndarray) -> np.ndarray:
        outside = (ts < self.times[0]) | (ts > self.times[-1])
        if outside.any():
            raise RateEvalError(f"t={ts[outside.argmax()].item()} outside table domain "
                                f"[{self.times[0]}, {self.times[-1]}]")
        return np.interp(ts, self.times, self.values)


Rate = ConstantRate | ExpressionRate | TableRate
RateLike = Rate | float | int | str


def as_rate(x: RateLike) -> Rate:
    """Coerce a number or expression text to a Rate."""
    if isinstance(x, Rate):
        return x
    if isinstance(x, bool):
        raise TypeError("as_rate: bool is not a rate")
    if isinstance(x, (int, float)):
        if not math.isfinite(float(x)):
            raise ValueError(f"as_rate: non-finite constant {x!r}")
        return ConstantRate(float(x))
    if isinstance(x, str):
        return parse(x)
    raise TypeError(f"as_rate: cannot interpret {type(x).__name__} as a rate")
