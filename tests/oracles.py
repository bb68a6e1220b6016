"""Independent oracles used only by the test suite.

These deliberately avoid the implementation paths they check: the expression
oracle is a shunting-yard evaluator with its own tokenizer, the projection
oracle is a dense grid search, the exponential oracle is a plain Taylor
series, the sampled-generator oracle sums one pure Choi state per jump, the
extreme-point oracle builds the full pairwise distance matrix, the
full-GKSL projection oracle is Dykstra's alternating projections, the
dissipator oracle goes through the np.kron superoperator, the Haar oracles are
a LAPACK QR with its phases fixed and the first batched Gram-Schmidt with its
draw formed out of place (and the sampler's draws built from the latter, out
of place), and the verification oracles form the whole
(n, d^2, d^2) stack of sampled states, out of place, and contract W with it.

The superoperator helpers (`apply_superop`, `channel_of_choi`), the trace
norm, the PSD projection and the random divisible generators serve only as
references here; the library itself works in Choi form. The expression
printer `pretty`, the inverse of `rates.parse`, is test-only too: the tests
write expression trees as source text with it, and the library prints none.
"""

import dataclasses
import math
import re

import numpy as np

from nmwitness.channels import LindbladGenerator, SuperOperator, haar_unitaries
from nmwitness.choi import (ChoiMatrix, choi_kets, dissipator_chois, hamiltonian_choi,
                            max_entangled_state)
from nmwitness.linalg import hermitian_eig
from nmwitness.rates import (BinOp, Call, Const, ConstantRate, ExpressionRate, Literal, Neg,
                             Node, TimeVar)

_FUNCS = {"sin": math.sin, "cos": math.cos, "exp": math.exp,
          "tanh": math.tanh, "abs": abs}
_CONSTS = {"pi": math.pi, "e": math.e}
# precedence, associativity; 'u' is unary minus and binds to the atom,
# i.e. tighter than '^'.
_OPS = {"+": (1, "L"), "-": (1, "L"), "*": (2, "L"), "/": (2, "L"),
        "^": (3, "R"), "u": (4, "R")}

_TOK = re.compile(
    r"\s*(?:(?P<num>(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))")


def shunting_yard_eval(src: str, t: float) -> float:
    """Evaluate an expression by shunting-yard conversion to RPN."""
    pos = 0
    rpn = []
    stack = []
    prev = "start"   # start | value | op | lparen | func
    while pos < len(src):
        m = _TOK.match(src, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"oracle: bad token at {pos}")
        pos = m.end()
        if m.group("num"):
            rpn.append(float(m.group("num")))
            prev = "value"
        elif m.group("ident"):
            name = m.group("ident")
            if name == "t":
                rpn.append(float(t))
                prev = "value"
            elif name in _CONSTS:
                rpn.append(_CONSTS[name])
                prev = "value"
            elif name in _FUNCS:
                stack.append(name)
                prev = "func"
            else:
                raise ValueError(f"oracle: unknown identifier {name}")
        else:
            op = m.group("op")
            if op == "(":
                stack.append("(")
                prev = "lparen"
            elif op == ")":
                while stack and stack[-1] != "(":
                    rpn.append(stack.pop())
                if not stack:
                    raise ValueError("oracle: unbalanced parentheses")
                stack.pop()
                if stack and stack[-1] in _FUNCS:
                    rpn.append(stack.pop())
                prev = "value"
            else:
                if op == "-" and prev in ("start", "op", "lparen", "func"):
                    op = "u"
                p, assoc = _OPS[op]
                while stack and stack[-1] in _OPS:
                    tp, _ = _OPS[stack[-1]]
                    if tp > p or (tp == p and assoc == "L"):
                        rpn.append(stack.pop())
                    else:
                        break
                stack.append(op)
                prev = "op"
    while stack:
        top = stack.pop()
        if top == "(":
            raise ValueError("oracle: unbalanced parentheses")
        rpn.append(top)

    vals = []
    for item in rpn:
        if isinstance(item, float):
            vals.append(item)
        elif item in _FUNCS:
            vals.append(float(_FUNCS[item](vals.pop())))
        elif item == "u":
            vals.append(-vals.pop())
        else:
            b = vals.pop()
            a = vals.pop()
            if item == "+":
                vals.append(a + b)
            elif item == "-":
                vals.append(a - b)
            elif item == "*":
                vals.append(a * b)
            elif item == "/":
                vals.append(a / b)
            else:
                vals.append(math.pow(a, b))
    if len(vals) != 1:
        raise ValueError("oracle: malformed RPN")
    return vals[0]


# ---------------------------------------------------------------------------
# Expression printer (inverse of rates.parse, up to whitespace)
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


def pretty(expr: ExpressionRate) -> str:
    """Render back to parseable source text."""
    return _render(expr.root)[0]


PAULI_GRAM = np.array([[2.0, 1.0, 1.0],
                       [1.0, 2.0, 1.0],
                       [1.0, 1.0, 2.0]])


def pauli_objective(rates: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """(rates - gamma)^T G (rates - gamma) for stacked rate vectors."""
    delta = rates - gamma
    return np.einsum("...a,ab,...b->...", delta, PAULI_GRAM, delta)


def pauli_grid_search(gamma, box: float = 1.2, coarse: float = 1e-2,
                      fine: float = 1e-3):
    """Two-stage dense grid search for the nearest nonnegative rate vector.

    Stage one sweeps [0, box]^3 at the coarse step; stage two refines a
    window of +-2*coarse around the coarse argmin at the fine step. The
    objective is convex, so the refinement cannot miss the global grid
    minimum at the fine resolution.
    """
    gamma = np.asarray(gamma, dtype=float)

    def best_on(axes):
        g1, g2, g3 = np.meshgrid(*axes, indexing="ij", sparse=True)
        stack = np.stack(np.broadcast_arrays(g1, g2, g3), axis=-1)
        values = pauli_objective(stack, gamma)
        flat = int(np.argmin(values))
        idx = np.unravel_index(flat, values.shape)
        point = np.array([axes[k][idx[k]] for k in range(3)])
        return point, float(values[idx])

    n_coarse = int(round(box / coarse)) + 1
    axes = [np.linspace(0.0, box, n_coarse)] * 3
    point, _ = best_on(axes)
    fine_axes = []
    for k in range(3):
        lo = max(0.0, point[k] - 2 * coarse)
        hi = min(box, point[k] + 2 * coarse)
        n = int(round((hi - lo) / fine)) + 1
        fine_axes.append(np.linspace(lo, hi, n))
    return best_on(fine_axes)


def taylor_expm(a: np.ndarray, terms: int = 50) -> np.ndarray:
    """Plain truncated Taylor series for the matrix exponential."""
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ a / k
        out = out + term
    return out


def per_jump_generators(dim: int, n: int, rng: np.random.Generator,
                        signed: bool = False) -> np.ndarray:
    """sum_a g_a (|u_a><u_a| - phi) of n random generators, one jump at a time.

    Same draws in the same order as the sampler (jump counts, Haar unitaries,
    rates, then signs when signed); builds the (jumps, d^2, d^2) stack of
    rate-scaled pure directions and sums each generator's run of it with
    np.add.reduceat.
    """
    counts = rng.integers(1, dim * dim + 1, size=n)
    us = haar_unitaries(dim, int(counts.sum()), rng)
    rates = rng.uniform(0.0, 1.0, size=us.shape[0])
    if signed:
        rates *= np.where(rng.random(rates.size) < 0.5, 1.0, -1.0)
    kets = choi_kets(us)
    pure = np.einsum("ni,nj->nij", kets, kets.conj())
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    dirs = rates[:, None, None] * (pure - max_entangled_state(dim))
    return np.add.reduceat(dirs, offsets, axis=0)


def sign_rates(gens, rng: np.random.Generator):
    """The sampled generators gens with a random sign per rate, drawn from rng
    as the references' signed option draws them. The sampler draws only
    divisible generators; signed rates serve the tests of the arithmetic that
    must hold for any rates, as a planted non-member's do. A draw without
    Hamiltonians ends with its rates, so signs drawn from its stream land
    where the references draw theirs."""
    signs = np.where(rng.random(gens.rates.size) < 0.5, 1.0, -1.0)
    return dataclasses.replace(gens, rates=gens.rates * signs)


def qr_haar_unitaries(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random unitaries from the same Ginibre draws as `haar_unitaries`,
    by np.linalg.qr with each column's phase fixed so that R has a positive
    real diagonal."""
    z = (rng.standard_normal((n, dim, dim))
         + 1.0j * rng.standard_normal((n, dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.einsum("nii->ni", r)
    return q * (diag / np.abs(diag))[:, None, :]


def reference_haar_unitaries(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """`haar_unitaries` as first written: the Ginibre draws formed as
    (a + 1j*b) / sqrt(2) and copied transposed into the column layout, then
    the same batched Gram-Schmidt. The in-place draw must match it byte for
    byte."""
    z = (rng.standard_normal((n, dim, dim))
         + 1.0j * rng.standard_normal((n, dim, dim))) / np.sqrt(2.0)
    cols = np.ascontiguousarray(z.transpose(2, 1, 0))
    for k in range(dim):
        v = cols[k]
        for _ in range(2 if k else 0):
            basis = cols[:k]
            v = v - np.einsum("kjn,kn->jn", basis, np.einsum("kjn,jn->kn", basis.conj(), v))
        v /= np.sqrt(np.einsum("jn,jn->n", v.real, v.real)
                     + np.einsum("jn,jn->n", v.imag, v.imag))
        cols[k] = v
    return np.ascontiguousarray(cols.transpose(2, 1, 0))


def reference_draw_generators(dim: int, n: int, rng: np.random.Generator,
                              signed: bool = False, hamiltonian: bool = False) -> dict:
    """The sampler's draws as first written: jump counts, Choi kets of
    `reference_haar_unitaries`, rates, signs, and when hamiltonian a mask and
    H = (Z + Z^dag)/2 with its trace removed, Z = a + 1j*b, every array
    formed out of place. The sampler must match it byte for byte."""
    counts = rng.integers(1, dim * dim + 1, size=n)
    kets = choi_kets(reference_haar_unitaries(dim, int(counts.sum()), rng))
    rates = rng.uniform(0.0, 1.0, size=kets.shape[0])
    if signed:
        rates *= np.where(rng.random(rates.size) < 0.5, 1.0, -1.0)
    draws = {"counts": counts, "kets": kets, "rates": rates}
    if hamiltonian:
        draws["mask"] = rng.random(n) < 0.5
        raw = (rng.standard_normal((n, dim, dim))
               + 1.0j * rng.standard_normal((n, dim, dim)))
        h = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
        draws["ham"] = h - (np.einsum("nii->n", h) / dim)[:, None, None].real * np.eye(dim)
    return draws


def gram_generators(dim: int, n: int, rng: np.random.Generator,
                    signed: bool = False) -> np.ndarray:
    """sum_a g_a (|u_a><u_a| - phi) by the zero-padded Gram product, written
    out of place: the expression the in-place sampler must reproduce bit for
    bit (np.array_equal) from the same draws."""
    d2 = dim * dim
    counts = rng.integers(1, d2 + 1, size=n)
    kets = choi_kets(haar_unitaries(dim, int(counts.sum()), rng))
    rates = rng.uniform(0.0, 1.0, size=kets.shape[0])
    if signed:
        rates *= np.where(rng.random(rates.size) < 0.5, 1.0, -1.0)
    slots = np.arange(d2) < counts[:, None]
    scaled = np.zeros((n, d2, d2), dtype=complex)
    bras = np.zeros((n, d2, d2), dtype=complex)
    scaled[slots] = rates[:, None] * kets
    bras[slots] = kets.conj()
    rate_sums = np.add.reduceat(rates, np.cumsum(counts) - counts)
    x = np.matmul(scaled.transpose(0, 2, 1), bras)
    return x - rate_sums[:, None, None] * max_entangled_state(dim)


def gram_sample_chois(dim: int, eps: float, n: int, seed: int,
                      include_hamiltonian: bool = True) -> np.ndarray:
    """phi + eps*X + (eps*mask)*C_H out of place, from the sampler's draws."""
    rng = np.random.default_rng(seed)
    d = dim
    chois = max_entangled_state(d) + eps * gram_generators(d, n, rng)
    if include_hamiltonian:
        mask = rng.random(n) < 0.5
        raw = (rng.standard_normal((n, d, d))
               + 1.0j * rng.standard_normal((n, d, d)))
        h = 0.5 * (raw + raw.conj().transpose(0, 2, 1))
        h -= (np.einsum("nii->n", h) / d)[:, None, None].real * np.eye(d)
        chois = chois + (eps * mask[:, None, None]) * hamiltonian_choi(h)
    return chois


def stack_verify_witness(w: np.ndarray, dim: int, eps: float, n: int, seed: int):
    """Verification on the formed stack: (values, violations, min_expectation,
    scales, slacks). values are Tr(W C_k); slacks are (d^4 + 2) u sum_ij
    |W_ij| |C_k,ji|, and a violation is a value below -(1e-8 eps ||W||_F +
    slack); scales are sum |W| times each sample's largest |entry|, a bound on
    |Tr(W C_k)|."""
    chois = gram_sample_chois(dim, eps, n, seed)
    values = np.einsum("ij,nji->n", w, chois).real
    slack = ((dim ** 4 + 2) * np.finfo(float).eps
             * np.einsum("ij,nji->n", np.abs(w), np.abs(chois)))
    violations = int(np.count_nonzero(values < -(1e-8 * eps * np.linalg.norm(w) + slack)))
    scales = np.abs(w).sum() * np.abs(chois).max(axis=(1, 2))
    return values, violations, float(values.min()), scales, slack


def stack_uniqueness_lhs(cn: np.ndarray, cm_star: np.ndarray, dim: int, eps: float,
                         n: int, seed: int, basis_ops):
    """Tr[D (C_M - C_M*)], D = C_N - C_M*, per sample on the formed stack of
    samples of the frozen family of basis_ops with rates uniform on [0, 2],
    and sum |D| times each sample's largest |entry| of C_M - C_M*, a bound
    on the value."""
    dirs = dissipator_chois(basis_ops)
    rates = np.random.default_rng(seed).uniform(0.0, 2.0, size=(n, dirs.shape[0]))
    chois = max_entangled_state(dim) + eps * np.einsum("na,aij->nij", rates, dirs)
    shifted = chois - cm_star
    diff = cn - cm_star
    return (np.einsum("ij,nji->n", diff, shifted).real,
            np.abs(diff).sum() * np.abs(shifted).max(axis=(1, 2)))


def pairwise_distance_census(uvec: np.ndarray) -> tuple[float, int]:
    """Smallest pairwise HS distance of the pure states |u><u| and the number
    of pairs closer than 1e-8, from the full n x n distance matrix."""
    overlaps = np.abs(uvec @ uvec.conj().T) ** 2
    dist_sq = np.clip(2.0 - 2.0 * overlaps, 0.0, None)
    np.fill_diagonal(dist_sq, np.inf)
    distances = np.sqrt(dist_sq)
    return float(distances.min()), int(np.count_nonzero(distances < 1e-8) // 2)


def dykstra_full_gksl(cn, max_iter: int = 100_000, tol: float = 1e-10):
    """Nearest point of {phi + eps X : Tr_2 X = 0, w_perp X w_perp >= 0} to cn.

    Dykstra's method alternates the two closed-form projections from
    Y = (C_N - phi) / eps: onto the trace-preserving subspace (subtract
    Tr_2 X (x) 1/d; no correction term) and onto the cone (replace the
    w_perp block by its PSD part; keeps its increment Q). Stops when
    d ||Tr_2 X|| <= tol * max(1, ||Y||) and returns the trace-preserving
    projection phi + eps X of the last cone iterate and the iteration count.
    """
    d, e = cn.dim, cn.eps
    n = d * d
    phi = max_entangled_state(d)
    w_perp = np.eye(n) - phi
    eye = np.eye(d)

    def tr2(z):
        return np.einsum("ikjk->ij", z.reshape(d, d, d, d))

    def tp_project(z, z_tr2):
        return z - np.einsum("ij,kl->ikjl", z_tr2, eye).reshape(n, n) / d

    y = (0.5 * (cn.matrix + cn.matrix.conj().T) - phi) / e
    bound = tol * max(1.0, float(np.linalg.norm(y)))
    x, x_tr2 = y, tr2(y)
    q = np.zeros_like(y)
    iterations = 0
    while iterations < max_iter:
        iterations += 1
        z = tp_project(x, x_tr2) + q
        block = w_perp @ z @ w_perp
        x = z - block + psd_project(block)
        q = z - x
        x_tr2 = tr2(x)
        if d * np.linalg.norm(x_tr2) <= bound:
            break
    return phi + e * tp_project(x, x_tr2), iterations


# ---------------------------------------------------------------------------
# superoperator and spectral references
# ---------------------------------------------------------------------------

def kron_dissipator_chois(ops) -> np.ndarray:
    """Choi directions Y_a by the superoperator route: the Choi rearrangement
    C[i*d+k, j*d+l] = S[l*d+k, j*d+i] / d of each np.kron-built dissipator
    conj(L) (x) L - 1/2 I (x) L^dag L - 1/2 (L^dag L)^T (x) I."""
    out = []
    for op in ops:
        d = op.shape[0]
        eye = np.eye(d, dtype=complex)
        ldl = op.conj().T @ op
        s = np.kron(op.conj(), op) - 0.5 * np.kron(eye, ldl) - 0.5 * np.kron(ldl.T, eye)
        out.append(np.einsum("lkji->ikjl", s.reshape(d, d, d, d)).reshape(d * d, d * d) / d)
    return np.stack(out)


def apply_superop(s: SuperOperator, rho: np.ndarray) -> np.ndarray:
    """S applied to rho under column stacking: unvec(S vec(rho))."""
    return (s.matrix @ rho.T.reshape(-1)).reshape(rho.shape).T


def channel_of_choi(c: ChoiMatrix) -> SuperOperator:
    """The unique superoperator whose Choi state is c: S[l*d+k, j*d+i] = d C[i*d+k, j*d+l]."""
    d = c.dim
    s = np.einsum("ikjl->lkji", c.matrix.reshape(d, d, d, d)).reshape(d * d, d * d) * d
    return SuperOperator(dim=d, matrix=s)


def trace_norm(a: np.ndarray) -> float:
    """Trace norm: sum of singular values, via the spectrum of a^dag a."""
    w = np.linalg.eigvalsh(a.conj().T @ a)
    return float(np.sqrt(np.clip(w, 0.0, None)).sum())


def psd_project(a: np.ndarray) -> np.ndarray:
    """Nearest (in HS norm) positive semidefinite matrix to Hermitian a:
    clamps negative eigenvalues to zero and reconstructs."""
    w, v = hermitian_eig(a)
    out = (v * np.clip(w, 0.0, None)) @ v.conj().T
    return 0.5 * (out + out.conj().T)


def random_markovian(dim: int, n_ops: int, seed: int,
                     rate_scale: float = 1.0) -> LindbladGenerator:
    """Random divisible generator: Haar-unitary jumps, nonnegative rates.

    Unitary jump operators keep the first-order Choi matrix exactly positive
    semidefinite (for a non-unitary jump the truncation leaks order eps^2
    negativity), so membership checks against the divisible set hold at
    machine precision. Same seed, same generator.
    """
    if not 1 <= n_ops <= dim * dim:
        raise ValueError(
            f"random_markovian: n_ops must be in [1, dim^2={dim*dim}], got {n_ops}")
    if rate_scale < 0:
        raise ValueError(f"random_markovian: rate_scale must be >= 0, got {rate_scale}")
    rng = np.random.default_rng(seed)
    ops = tuple(haar_unitaries(dim, n_ops, rng))
    rates = tuple(ConstantRate(float(g)) for g in rng.uniform(0.0, rate_scale, n_ops))
    return LindbladGenerator(dim=dim, ops=ops, rates=rates)
