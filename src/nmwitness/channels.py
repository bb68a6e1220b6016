"""Lindblad-type generators, their superoperators and small-time channels.

Vectorization is column-stacking throughout: vec(A X B) = (B^T (x) A) vec(X).
A generator with jump operators L_a, rates g_a(t) and optional Hamiltonian H
has the superoperator

    S(t) = -i (I (x) H - H^T (x) I)
           + sum_a g_a(t) [ conj(L_a) (x) L_a
                            - 1/2 I (x) (L_a^dag L_a)
                            - 1/2 (L_a^dag L_a)^T (x) I ],

which is traceless in the sense vec(I)^dag S = 0; the channels built from it
satisfy vec(I)^dag S = vec(I)^dag (trace preservation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import DEFAULT_HERM_TOL, ShapeError, as_matrix, dagger, require_hermitian
from .rates import ConstantRate, Rate, RateEvalError, RateLike, as_rate
from . import linalg


def vec(x: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: vec(X)[c*d + r] = X[r, c]."""
    return x.T.reshape(-1)


def unvec(v: np.ndarray) -> np.ndarray:
    """Inverse of vec for square matrices."""
    d = int(round(np.sqrt(v.size)))
    if d * d != v.size:
        raise ShapeError(f"unvec: length {v.size} is not a perfect square")
    return v.reshape(d, d).T


@dataclass(frozen=True)
class SuperOperator:
    """A linear map on vectorized density matrices of a dim-level system."""

    dim: int
    matrix: np.ndarray

    def __post_init__(self):
        m = as_matrix(self.matrix, "SuperOperator.matrix")
        d2 = self.dim * self.dim
        if m.shape != (d2, d2):
            raise ShapeError(
                f"SuperOperator: expected {d2}x{d2} matrix for dim={self.dim}, "
                f"got {m.shape}")
        object.__setattr__(self, "matrix", m)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Apply the map to a dim x dim matrix."""
        rho = as_matrix(rho, "rho")
        if rho.shape != (self.dim, self.dim):
            raise ShapeError(f"apply: expected {self.dim}x{self.dim}, got {rho.shape}")
        return unvec(self.matrix @ vec(rho))


@dataclass(frozen=True)
class LindbladGenerator:
    """Jump operators with time-dependent rates and an optional Hamiltonian."""

    dim: int
    ops: tuple[np.ndarray, ...]
    rates: tuple[Rate, ...]
    hamiltonian: np.ndarray | None = None

    def __post_init__(self):
        d = self.dim
        if d < 2:
            raise ValueError(f"LindbladGenerator: dim must be >= 2, got {d}")
        ops = tuple(as_matrix(op, f"ops[{i}]") for i, op in enumerate(self.ops))
        if not 1 <= len(ops) <= d * d:
            raise ValueError(
                f"LindbladGenerator: need between 1 and dim^2={d*d} jump operators, "
                f"got {len(ops)}")
        for i, op in enumerate(ops):
            if op.shape != (d, d):
                raise ShapeError(f"ops[{i}]: expected {d}x{d}, got {op.shape}")
        rates = tuple(as_rate(r) for r in self.rates)
        if len(rates) != len(ops):
            raise ValueError(
                f"LindbladGenerator: {len(ops)} jump operators but {len(rates)} rates")
        ham = self.hamiltonian
        if ham is not None:
            ham = as_matrix(ham, "hamiltonian")
            if ham.shape != (d, d):
                raise ShapeError(f"hamiltonian: expected {d}x{d}, got {ham.shape}")
            require_hermitian(ham, DEFAULT_HERM_TOL, "hamiltonian")
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "hamiltonian", ham)

    def rate_values(self, t: float) -> np.ndarray:
        """Evaluate every rate at time t."""
        return self.rate_grid([t])[0]

    def rate_grid(self, ts) -> np.ndarray:
        """Every rate at every time of ts, shape (len(ts), number of rates).

        Each rate is evaluated on the whole grid at once; a scalar value is
        the one-point grid. A rate error names the first t of ts at which
        some rate fails and, at that t, the first failing rate: after a
        failure on a longer grid, the grid is rerun one point at a time.
        """
        ts = np.asarray(ts, dtype=float)
        columns = []
        try:
            for rate in self.rates:
                columns.append(rate.on_grid(ts))
        except RateEvalError as exc:
            if ts.size == 1:
                raise RateEvalError(
                    f"rate {len(columns)} failed at t={ts[0].item()}: {exc}") from exc
            for k in range(ts.size):
                self.rate_grid(ts[k:k + 1])
            raise
        return np.stack(columns, axis=1)


def dissipator_superoperator(op: np.ndarray) -> np.ndarray:
    """Unit-rate dissipator of one jump operator L as a superoperator matrix:
    conj(L) (x) L - 1/2 I (x) L^dag L - 1/2 (L^dag L)^T (x) I."""
    eye = np.eye(op.shape[0], dtype=complex)
    ldl = dagger(op) @ op
    return (np.kron(op.conj(), op)
            - 0.5 * np.kron(eye, ldl)
            - 0.5 * np.kron(ldl.T, eye))


def gksl_superoperator(gen: LindbladGenerator, t: float) -> SuperOperator:
    """Generator superoperator at time t (column-stacking convention)."""
    d = gen.dim
    s = np.zeros((d * d, d * d), dtype=complex)
    eye = np.eye(d, dtype=complex)
    if gen.hamiltonian is not None:
        h = gen.hamiltonian
        s += -1.0j * (np.kron(eye, h) - np.kron(h.T, eye))
    for g, op in zip(gen.rate_values(t), gen.ops):
        s += g * dissipator_superoperator(op)
    return SuperOperator(dim=d, matrix=s)


def first_order_channel(gen: LindbladGenerator, t: float, eps: float) -> SuperOperator:
    """I + eps * S(t): the small-time channel truncated at first order."""
    if eps <= 0:
        raise ValueError(f"first_order_channel: eps must be > 0, got {eps}")
    s = gksl_superoperator(gen, t)
    d2 = gen.dim * gen.dim
    return SuperOperator(dim=gen.dim, matrix=np.eye(d2, dtype=complex) + eps * s.matrix)


def exact_channel(gen: LindbladGenerator, t: float, eps: float) -> SuperOperator:
    """exp(eps * S) with the rates frozen at the midpoint t + eps/2."""
    if eps <= 0:
        raise ValueError(f"exact_channel: eps must be > 0, got {eps}")
    s = gksl_superoperator(gen, t + 0.5 * eps)
    return SuperOperator(dim=gen.dim, matrix=linalg.matrix_exp(eps * s.matrix))


def builtin_dephasing(gamma: RateLike) -> LindbladGenerator:
    """Pure dephasing qubit: d rho/dt = gamma(t) (sz rho sz - rho)."""
    return LindbladGenerator(dim=2, ops=(linalg.SIGMA_Z,), rates=(as_rate(gamma),))


def builtin_pauli(gx: RateLike, gy: RateLike, gz: RateLike) -> LindbladGenerator:
    """Qubit Pauli channel: sum_i gamma_i(t) (s_i rho s_i - rho)."""
    return LindbladGenerator(
        dim=2,
        ops=linalg.PAULIS,
        rates=(as_rate(gx), as_rate(gy), as_rate(gz)),
    )


def haar_unitaries(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random unitaries via QR of complex Ginibre, phases fixed."""
    z = (rng.standard_normal((n, dim, dim))
         + 1.0j * rng.standard_normal((n, dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.einsum("nii->ni", r)
    q = q * (diag / np.abs(diag))[:, None, :]
    return q


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


def random_unitary_channel(dim: int, seed: int) -> SuperOperator:
    """Haar-random unitary conjugation channel conj(U) (x) U."""
    if dim < 2:
        raise ValueError(f"random_unitary_channel: dim must be >= 2, got {dim}")
    rng = np.random.default_rng(seed)
    u = haar_unitaries(dim, 1, rng)[0]
    return SuperOperator(dim=dim, matrix=np.kron(u.conj(), u))
