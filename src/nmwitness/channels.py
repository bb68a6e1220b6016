"""Lindblad-type generators, Haar unitaries and the reference superoperator route.

The library works with a generator (jumps L_a, rates g_a(t), Hamiltonian H)
in Choi form only. `SuperOperator`, `gksl_superoperator`, `first_order_channel`
and `exact_channel` are the independent superoperator formula the tests check
the Choi layer against; no library path calls them. They use column-stacking,
vec(A X B) = (B^T (x) A) vec(X), and the generator

    S(t) = -i (I (x) H - H^T (x) I)
           + sum_a g_a(t) [ conj(L_a) (x) L_a
                            - 1/2 I (x) (L_a^dag L_a)
                            - 1/2 (L_a^dag L_a)^T (x) I ],

traceless in the sense vec(I)^dag S = 0.

`haar_unitaries` draws the members of the extreme-point census only: complex
Ginibre matrices orthonormalised by batched Gram-Schmidt, no LAPACK call.
The samplers draw Ginibre jumps, not unitaries (`witness._draw_generators`).
`_blocks` sizes the blocks of samples and of census rows by one budget,
`_BLOCK_BYTES`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (ShapeError, as_matrix, dagger, require_eps, require_hermitian,
                     require_jumps)
from .rates import Rate, RateEvalError, RateLike, as_rate
from . import linalg


@dataclass(frozen=True)
class SuperOperator:
    """A linear map on column-stacked dim x dim matrices (test reference)."""

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


@dataclass(frozen=True)
class LindbladGenerator:
    """Jump operators with time-dependent rates and an optional Hamiltonian."""

    dim: int
    ops: tuple[np.ndarray, ...]
    rates: tuple[Rate, ...]
    hamiltonian: np.ndarray | None = None

    def __post_init__(self):
        d = self.dim
        ops = require_jumps(self.ops, d, "LindbladGenerator", "ops")
        rates = tuple(as_rate(r) for r in self.rates)
        if len(rates) != len(ops):
            raise ValueError(
                f"LindbladGenerator: {len(ops)} jump operators but {len(rates)} rates")
        ham = self.hamiltonian
        if ham is not None:
            ham = as_matrix(ham, "hamiltonian")
            if ham.shape != (d, d):
                raise ShapeError(f"hamiltonian: expected {d}x{d}, got {ham.shape}")
            require_hermitian(ham, "hamiltonian")
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "hamiltonian", ham)

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


def gksl_superoperator(gen: LindbladGenerator, t: float) -> SuperOperator:
    """S(t) of the module docstring by np.kron (test reference for the Choi layer)."""
    d = gen.dim
    s = np.zeros((d * d, d * d), dtype=complex)
    eye = np.eye(d, dtype=complex)
    if gen.hamiltonian is not None:
        h = gen.hamiltonian
        s += -1.0j * (np.kron(eye, h) - np.kron(h.T, eye))
    ls = np.stack(gen.ops)
    for g, op, ldl in zip(gen.rate_grid([t])[0], ls, dagger(ls) @ ls):
        s += g * (np.kron(op.conj(), op) - 0.5 * np.kron(eye, ldl)
                  - 0.5 * np.kron(ldl.T, eye))
    return SuperOperator(dim=d, matrix=s)


def first_order_channel(gen: LindbladGenerator, t: float, eps: float) -> SuperOperator:
    """I + eps * S(t): the first-order small-time channel (test reference)."""
    require_eps(eps, "first_order_channel")
    s = gksl_superoperator(gen, t)
    d2 = gen.dim * gen.dim
    return SuperOperator(dim=gen.dim, matrix=np.eye(d2, dtype=complex) + eps * s.matrix)


def exact_channel(gen: LindbladGenerator, t: float, eps: float) -> SuperOperator:
    """exp(eps * S), rates frozen at the midpoint t + eps/2 (test reference)."""
    require_eps(eps, "exact_channel")
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


_BLOCK_BYTES = 1 << 20


def _blocks(n: int, item_bytes: int, multiple: int = 1) -> list[tuple[int, int]]:
    """Consecutive ranges (a, b) covering items 0..n-1 in order, each of as many
    items as _BLOCK_BYTES holds, in whole multiples of `multiple`, at least one."""
    step = multiple * max(1, _BLOCK_BYTES // item_bytes // multiple)
    return [(a, min(a + step, n)) for a in range(0, n, step)]


def haar_unitaries(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random unitaries, a C-contiguous (n, dim, dim) array: the Q of
    complex Ginibre draws Z = QR.

    Z = (a + 1j*b) / sqrt(2), a and b drawn as (n, dim, dim) standard
    normals, is copied into (dim, n) columns, which batched classical
    Gram-Schmidt with one reorthogonalisation orthonormalises in order. R
    then has a positive real diagonal, the phase convention that makes Q
    Haar distributed (Mezzadri, Notices AMS 54, 592 (2007)); it is the Q of
    a LAPACK QR with its phases fixed the same way.
    """
    z = (rng.standard_normal((n, dim, dim))
         + 1.0j * rng.standard_normal((n, dim, dim))) / np.sqrt(2.0)
    # cols[k] is column k of every Z, then of every Q, as a (dim, n) array.
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
