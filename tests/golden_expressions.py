"""Golden corpus for the rate-expression language.

Each entry is (source, t, analytic value). Values are written with math.*
so they are independent of the parser and evaluator under test.
"""

import math

GOLDEN_EXPRESSIONS = [
    ("1.5", 0.0, 1.5),
    ("-tanh(t)", 0.0, 0.0),
    ("cos(2*t) + 0.5", 0.0, 1.5),
    ("2^3^2", 0.0, 512.0),
    ("1 - 2*t", 0.25, 0.5),
    ("t", 3.5, 3.5),
    ("pi", 0.0, math.pi),
    ("e", 0.0, math.e),
    ("2*pi", 1.0, 2.0 * math.pi),
    ("sin(pi/2)", 0.0, 1.0),
    ("cos(pi)", 0.0, -1.0),
    ("exp(1)", 0.0, math.e),
    ("exp(-t)", 2.0, math.exp(-2.0)),
    ("abs(-3.5)", 0.0, 3.5),
    ("abs(t - 4)", 1.0, 3.0),
    ("tanh(1000)", 0.0, 1.0),
    ("2 + 3 * 4", 0.0, 14.0),
    ("(2 + 3) * 4", 0.0, 20.0),
    ("2 - 3 - 4", 0.0, -5.0),
    ("12 / 3 / 2", 0.0, 2.0),
    ("2 * 3 ^ 2", 0.0, 18.0),
    ("-2^2", 0.0, 4.0),          # unary minus binds to the atom before '^'
    ("2^-2", 0.0, 0.25),
    ("-(2^2)", 0.0, -4.0),
    ("10 - -3", 0.0, 13.0),
    ("0.5^2", 0.0, 0.25),
    (".5 + .25", 0.0, 0.75),
    ("1e-3", 0.0, 1e-3),
    ("1.5e2", 0.0, 150.0),
    ("2E3", 0.0, 2000.0),
    ("sin(t)^2 + cos(t)^2", 0.7, 1.0),
    ("sin(2*t) - 2*sin(t)*cos(t)", 0.3, 0.0),
    ("cos(t)*cos(t) - sin(t)*sin(t) - cos(2*t)", 0.9, 0.0),
    ("exp(t)*exp(-t)", 1.3, 1.0),
    ("tanh(t)", 0.5, math.tanh(0.5)),
    ("1/(1 + exp(-t))", 0.0, 0.5),
    ("abs(sin(-t))", 1.0, abs(math.sin(-1.0))),
    ("3*t^2 - 2*t + 1", 2.0, 9.0),
    ("(t + 1)*(t - 1) - t^2 + 1", 0.35, 0.0),
    ("2^(1/2)", 0.0, math.sqrt(2.0)),
    ("e^t", 1.0, math.e),
    ("pi*t/2", 1.0, math.pi / 2.0),
    ("sin(pi*t)", 0.5, 1.0),
    ("exp(cos(t))", 0.0, math.e),
    ("abs(2 - 3*t)", 1.0, 1.0),
    ("-t^2", 2.0, 4.0),          # grammar-forced: (-t)^2
    ("-(t^2)", 2.0, -4.0),
    ("1 + 2 + 3 + 4 + 5", 0.0, 15.0),
    ("((((t))))", 2.5, 2.5),
    ("cos(cos(cos(0)))", 0.0, math.cos(math.cos(math.cos(0.0)))),
    ("tanh(exp(t) - e)", 1.0, 0.0),
    ("4^0.5 + 9^0.5", 0.0, 5.0),
]

# Malformed inputs: every one must raise a parse error carrying a byte offset.
MALFORMED_EXPRESSIONS = [
    "",
    "2t",
    "1 +",
    "(1",
    "1)",
    "foo(1)",
    "sin",
    "q",
    "--1",
    "1 @ 2",
    "^2",
    "2^",
    "sin()",
    "pi(3)",
    "(1+2))",
    "abs 3",
    "1..2",
    "* 5",
    "cos(t",
    "t t",
]

# Failing expressions with a failing node inside function calls, and the
# error each gives at t = 0: it names only the innermost failing node.
INNERMOST_ERRORS = [
    ("exp(sin(exp(800)))", "exp: overflow (at byte 8)"),
    ("sin(2^2000)", "power overflow (at byte 5)"),
    ("abs(1/(t-t))", "division by zero (at byte 5)"),
    ("cos((0-1)^0.5)", "invalid power -1.0 ^ 0.5 (at byte 9)"),
]
