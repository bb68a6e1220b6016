import math
import sys

import numpy as np
import pytest

from nmwitness.rates import (
    BinOp,
    Call,
    ConstantRate,
    ExpressionRate,
    Literal,
    Neg,
    RateEvalError,
    RateParseError,
    TableRate,
    TimeVar,
    Const,
    MAX_DEPTH,
    as_rate,
    parse,
)
from nmwitness.channels import LindbladGenerator, builtin_dephasing
from golden_expressions import GOLDEN_EXPRESSIONS, INNERMOST_ERRORS, MALFORMED_EXPRESSIONS
from oracles import pretty, shunting_yard_eval


def test_constant():
    assert parse("1.5")(0.0) == 1.5


def test_tanh_at_zero():
    assert parse("-tanh(t)")(0.0) == 0.0


def test_analytic_value():
    rate = parse("cos(2*t) + 0.5")
    assert isinstance(rate, ExpressionRate)
    assert rate(0.0) == pytest.approx(1.5)


def test_power_right_associative():
    assert parse("2^3^2")(0.0) == 512.0


def test_linear():
    assert parse("1 - 2*t")(0.25) == pytest.approx(0.5)


def test_division_by_zero():
    expr = parse("sin(t)/t")
    with pytest.raises(RateEvalError):
        expr(0.0)
    assert expr(1.0) == pytest.approx(math.sin(1.0))


def test_zero_to_negative_power():
    with pytest.raises(RateEvalError):
        parse("0^-1")(0.0)
    with pytest.raises(RateEvalError):
        parse("(t - 1)^0.5")(0.0)


def test_math_domain_error_names_function_and_offset():
    with pytest.raises(RateEvalError, match=r"sin: math domain error \(at byte 2\)"):
        parse("1+sin(exp(700)*exp(700))")(0.0)


@pytest.mark.parametrize("src, message", INNERMOST_ERRORS,
                         ids=[src for src, _ in INNERMOST_ERRORS])
def test_error_names_only_the_innermost_failing_node(src, message):
    with pytest.raises(RateEvalError) as point:
        parse(src)(0.0)
    assert str(point.value) == message
    with pytest.raises(RateEvalError) as grid:
        builtin_dephasing(src).rate_grid([0.0, 0.5])
    assert str(grid.value) == f"rate 0 failed at t=0.0: {message}"


def test_golden_corpus():
    assert len(GOLDEN_EXPRESSIONS) >= 50
    for src, t, expected in GOLDEN_EXPRESSIONS:
        value = parse(src)(t)
        assert value == pytest.approx(expected, abs=1e-12), src
        assert parse(src).on_grid(np.array([t, t])).tolist() == [value] * 2, src


def test_malformed_corpus_offsets():
    for src in MALFORMED_EXPRESSIONS:
        with pytest.raises(RateParseError) as info:
            parse(src)
        assert isinstance(info.value.offset, int), src
        assert 0 <= info.value.offset <= len(src), src
        assert "byte" in str(info.value)


def test_error_offset_positions():
    with pytest.raises(RateParseError) as info:
        parse("1 + foo(2)")
    assert info.value.offset == 4
    with pytest.raises(RateParseError) as info:
        parse("cos(1")
    assert info.value.offset == 5
    with pytest.raises(RateParseError) as info:
        parse("1 2")
    assert info.value.offset == 2


def test_pretty_fixed_point_on_golden():
    for src, _, _ in GOLDEN_EXPRESSIONS:
        first = parse(src)
        rendered = pretty(first)
        second = parse(rendered)
        assert first.root == second.root, (src, rendered)
        assert pretty(second) == rendered


def _random_node(rng, depth):
    if depth <= 0:
        kind = rng.integers(0, 4)
        if kind == 0:
            return Literal(float(f"{rng.uniform(0.1, 5.0):.4g}"))
        if kind == 1:
            return TimeVar()
        if kind == 2:
            return Const("pi")
        return Const("e")
    kind = rng.integers(0, 8)
    if kind == 0:
        return Neg(_random_node(rng, 0))
    if kind == 1:
        func = ["sin", "cos", "exp", "tanh", "abs"][int(rng.integers(0, 5))]
        return Call(func, _random_node(rng, depth - 1))
    if kind == 2:
        # keep powers tame: small nonnegative literal exponent
        return BinOp("^", _random_node(rng, depth - 1),
                     Literal(float(rng.integers(0, 4))))
    op = "+-*/"[int(rng.integers(0, 4))]
    return BinOp(op, _random_node(rng, depth - 1), _random_node(rng, depth - 1))


def test_random_expressions_match_shunting_yard_oracle():
    rng = np.random.default_rng(20260810)
    checked = 0
    for _ in range(1000):
        expr_src = pretty(ExpressionRate(_random_node(rng, int(rng.integers(1, 4)))))
        expr = parse(expr_src)
        # printer round trip holds on random trees too
        assert parse(pretty(expr)).root == expr.root
        ts = rng.uniform(-3.0, 3.0, 10)
        values = []
        for t in ts:
            try:
                mine = expr(float(t))
            except RateEvalError:
                with pytest.raises((ZeroDivisionError, ValueError, OverflowError)):
                    shunting_yard_eval(expr_src, float(t))
                continue
            theirs = shunting_yard_eval(expr_src, float(t))
            assert mine == theirs, expr_src
            values.append(mine)
            checked += 1
        if len(values) == len(ts):
            assert expr.on_grid(ts).tolist() == values, expr_src
        else:
            with pytest.raises(RateEvalError):
                expr.on_grid(ts)
    assert checked > 5000


def _failing_node(rng, depth):
    """Random tree that fails at some times: large literals under exp and '^',
    untamed powers and t - t divisors."""
    if depth <= 0:
        kind = rng.integers(0, 4)
        if kind == 0:
            return Literal(float(f"{rng.uniform(0.1, 800.0):.4g}"))
        if kind == 1:
            return BinOp("-", TimeVar(), TimeVar())
        return TimeVar()
    kind = rng.integers(0, 6)
    if kind == 0:
        return Neg(_failing_node(rng, depth - 1))
    if kind == 1:
        func = ["sin", "cos", "exp", "tanh", "abs"][int(rng.integers(0, 5))]
        return Call(func, _failing_node(rng, depth - 1))
    if kind == 2:
        return BinOp("^", _failing_node(rng, depth - 1), _failing_node(rng, depth - 1))
    op = "+-*/"[int(rng.integers(0, 4))]
    return BinOp(op, _failing_node(rng, depth - 1), _failing_node(rng, depth - 1))


def _oracle_failure(src, t):
    """How the oracle fails at t: an exception type, "non-finite", or None."""
    try:
        value = shunting_yard_eval(src, t)
    except (ZeroDivisionError, ValueError, OverflowError) as exc:
        return type(exc)
    return None if math.isfinite(value) else "non-finite"


# The failure each RateEvalError message names, in the oracle's terms.
_FAILURE_OF_MESSAGE = {"division by zero": ZeroDivisionError, "overflow": OverflowError,
                       "invalid power": ValueError, "math domain error": ValueError,
                       "non-finite value": "non-finite"}


def test_rate_grid_error_names_first_failing_time_and_rate():
    rng = np.random.default_rng(20261018)
    ts = np.linspace(-3.0, 3.0, 13)
    ops = (np.diag([1.0, -1.0]),) * 2
    partial = 0
    for _ in range(300):
        srcs = [pretty(ExpressionRate(_failing_node(rng, int(rng.integers(1, 4)))))
                for _ in ops]
        gen = LindbladGenerator(dim=2, ops=ops, rates=srcs)
        failing = [(t, i, failure) for t in ts.tolist() for i, src in enumerate(srcs)
                   if (failure := _oracle_failure(src, t)) is not None]
        if not failing:
            gen.rate_grid(ts)
            continue
        t, i, failure = failing[0]
        partial += t != ts[0]
        with pytest.raises(RateEvalError) as info:
            gen.rate_grid(ts)
        message = str(info.value)
        assert message.startswith(f"rate {i} failed at t={t}: "), srcs
        named = [kind for text, kind in _FAILURE_OF_MESSAGE.items() if text in message]
        assert named == [failure], (srcs, message)
    assert partial > 20


DEEP = {
    "parentheses": "(" * 3000 + "t" + ")" * 3000,
    "powers": "t" + "^t" * 3000,
    "sum": "+".join(["t"] * 20_000),
}


@pytest.mark.parametrize("src, offset", [
    (DEEP["parentheses"], 64),  # the 65th '('
    (DEEP["powers"], 131),      # the 65th '^' from the left, its right operand's level
    (DEEP["sum"], 39_870),      # the 65th '+' from the right
    ("(" * 65 + "t" + ")" * 65, 64),
    ("-sin(" * 32 + "-t" + ")" * 32, 161),  # t, below 65 levels
], ids=["parentheses", "powers", "sum", "65-parentheses", "negated-calls"])
def test_parse_refuses_expressions_deeper_than_the_limit(src, offset):
    assert MAX_DEPTH == 64
    with pytest.raises(RateParseError, match=r"more than 64 ") as info:
        parse(src)
    assert info.value.offset == offset


def _sin_63_times(x):
    for _ in range(63):
        x = math.sin(x)
    return x


@pytest.mark.parametrize("src, want", [
    ("(" * 64 + "t" + ")" * 64, 0.5),
    ("+".join(["t"] * 65), 32.5),
    ("2" + "^1" * 64, 2.0),
    ("sin(" * 63 + "-t" + ")" * 63, _sin_63_times(-0.5)),
    ("(" * 63 + "+".join(["t"] * 65) + ")" * 63, 32.5),
], ids=["64-parentheses", "65-term-sum", "64-powers", "63-calls-and-a-negation",
        "63-parentheses-over-a-64-level-sum"])
def test_expressions_at_the_limit_evaluate(src, want):
    expr = parse(src)
    assert expr(0.5) == want
    assert expr.on_grid(np.array([0.5, 0.5])).tolist() == [want, want]


def test_the_depth_limit_does_not_depend_on_the_callers_stack():
    # At the limit the parser and evaluator use about 460 frames; from a stack
    # 300 frames deeper the expression still parses, and one level more is
    # refused at any depth.
    def at_depth(frames, run):
        return run() if frames == 0 else at_depth(frames - 1, run)

    limit, beyond = "(" * 64 + "t" + ")" * 64, "(" * 65 + "t" + ")" * 65
    assert at_depth(300, lambda: parse(limit)(0.25)) == 0.25
    for frames in (0, 300):
        with pytest.raises(RateParseError, match="more than 64 parentheses open"):
            at_depth(frames, lambda: parse(beyond))


def test_the_deepest_call_nest_parses_from_a_caller_400_frames_deep():
    # 64 nested calls is as deep as parse accepts: seven parser frames per
    # open parenthesis still fit under the default limit below 400 frames.
    assert sys.getrecursionlimit() == 1000

    def at_depth(frames, run):
        return run() if frames == 0 else at_depth(frames - 1, run)

    src = "abs(" * 64 + "t" + ")" * 64
    assert at_depth(400, lambda: parse(src)) == parse(src)
    assert parse(src)(-0.25) == 0.25


def test_table_rate():
    table = TableRate(times=(0.0, 1.0, 2.0), values=(0.0, 2.0, 0.0))
    assert table(0.5) == pytest.approx(1.0)
    assert table(1.0) == pytest.approx(2.0)
    ts = np.linspace(0.0, 2.0, 41)
    assert table.on_grid(ts).tolist() == [table(t) for t in ts.tolist()]
    with pytest.raises(RateEvalError, match="t=2.5 outside"):
        table.on_grid(np.array([0.5, 2.5, -0.1]))
    with pytest.raises(RateEvalError):
        table(-0.1)
    with pytest.raises(RateEvalError):
        table(2.5)
    with pytest.raises(ValueError):
        TableRate(times=(0.0, 0.0), values=(1.0, 2.0))


def test_as_rate_coercions():
    assert isinstance(as_rate(1.5), ConstantRate)
    assert as_rate(2)(0.0) == 2.0
    expr_rate = as_rate("cos(t)")
    assert isinstance(expr_rate, ExpressionRate)
    assert expr_rate(0.0) == pytest.approx(1.0)
    assert as_rate(expr_rate) is expr_rate
    with pytest.raises(TypeError):
        as_rate(None)
    with pytest.raises(TypeError, match=r"^as_rate: bool is not a rate$"):
        as_rate(True)
    with pytest.raises(ValueError):
        as_rate(float("nan"))
