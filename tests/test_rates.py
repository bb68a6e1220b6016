import math

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
    RateExpression,
    RateParseError,
    TableRate,
    TimeVar,
    Const,
    as_rate,
    evaluate,
    parse,
    pretty,
)
from golden_expressions import GOLDEN_EXPRESSIONS, MALFORMED_EXPRESSIONS
from oracles import shunting_yard_eval


def test_constant():
    assert evaluate(parse("1.5"), 0.0) == 1.5


def test_tanh_at_zero():
    assert evaluate(parse("-tanh(t)"), 0.0) == 0.0


def test_analytic_value():
    assert evaluate(parse("cos(2*t) + 0.5"), 0.0) == pytest.approx(1.5)


def test_power_right_associative():
    assert evaluate(parse("2^3^2"), 0.0) == 512.0


def test_linear():
    assert evaluate(parse("1 - 2*t"), 0.25) == pytest.approx(0.5)


def test_division_by_zero():
    expr = parse("sin(t)/t")
    with pytest.raises(RateEvalError):
        evaluate(expr, 0.0)
    assert evaluate(expr, 1.0) == pytest.approx(math.sin(1.0))


def test_zero_to_negative_power():
    with pytest.raises(RateEvalError):
        evaluate(parse("0^-1"), 0.0)
    with pytest.raises(RateEvalError):
        evaluate(parse("(t - 1)^0.5"), 0.0)


def test_golden_corpus():
    assert len(GOLDEN_EXPRESSIONS) >= 50
    for src, t, expected in GOLDEN_EXPRESSIONS:
        value = evaluate(parse(src), t)
        assert value == pytest.approx(expected, abs=1e-12), src
        assert ExpressionRate(parse(src)).on_grid(np.array([t, t])).tolist() == [value] * 2, src


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
        expr_src = pretty(RateExpression(root=_random_node(rng, int(rng.integers(1, 4)))))
        expr = parse(expr_src)
        # printer round trip holds on random trees too
        assert parse(pretty(expr)).root == expr.root
        ts = rng.uniform(-3.0, 3.0, 10)
        values = []
        for t in ts:
            try:
                mine = evaluate(expr, float(t))
            except RateEvalError:
                with pytest.raises((ZeroDivisionError, ValueError, OverflowError)):
                    shunting_yard_eval(expr_src, float(t))
                continue
            theirs = shunting_yard_eval(expr_src, float(t))
            assert mine == pytest.approx(theirs, rel=1e-12, abs=1e-12), expr_src
            values.append(mine)
            checked += 1
        if len(values) == len(ts):
            assert ExpressionRate(expr).on_grid(ts).tolist() == values, expr_src
        else:
            with pytest.raises(RateEvalError):
                ExpressionRate(expr).on_grid(ts)
    assert checked > 5000


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
    with pytest.raises(ValueError):
        as_rate(float("nan"))
