"""Channel-state duality, instantaneous divisibility checks and time scans.

The Choi state of a channel S acting on the second tensor factor of the
maximally entangled state |phi> = (1/sqrt(d)) sum_i |ii> is

    <ik| C |jl> = (1/d) <k| S(|i><j|) |l>,

a Hermitian trace-one matrix. It is positive semidefinite exactly when the
small-time step is completely positive; a negative eigenvalue is the
divisibility-breaking (non-Markovianity) signal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import LindbladGenerator, SuperOperator, exact_channel, first_order_channel
from .linalg import ShapeError, as_matrix, hermitian_eig, hermiticity_defect


def default_classification_tol(eps: float) -> float:
    """Eigenvalue tolerance: first-order truncation leaves O(eps^2) artifacts."""
    return max(1e-9, 10.0 * eps * eps)


def max_entangled_state(dim: int) -> np.ndarray:
    """Projector onto (1/sqrt(d)) sum_i |ii>, as a d^2 x d^2 matrix."""
    if dim < 2:
        raise ValueError(f"max_entangled_state: dim must be >= 2, got {dim}")
    v = max_entangled_ket(dim)
    return np.outer(v, v.conj())


def max_entangled_ket(dim: int) -> np.ndarray:
    """The unit vector (1/sqrt(d)) sum_i |ii>."""
    v = np.zeros(dim * dim, dtype=complex)
    v[:: dim + 1] = 1.0 / np.sqrt(dim)
    return v


@dataclass(frozen=True)
class ChoiMatrix:
    """Choi state of a trace-preserving small-time step, tagged with (t, eps).

    Hermitian with unit trace by construction; positivity is deliberately not
    required, its failure is the signal everything downstream looks for.
    """

    dim: int
    matrix: np.ndarray
    t: float
    eps: float

    def __post_init__(self):
        m = as_matrix(self.matrix, "ChoiMatrix.matrix")
        d2 = self.dim * self.dim
        if m.shape != (d2, d2):
            raise ShapeError(
                f"ChoiMatrix: expected {d2}x{d2} for dim={self.dim}, got {m.shape}")
        defect = hermiticity_defect(m)
        if defect > 1e-10:
            raise ValueError(f"ChoiMatrix: not Hermitian, defect {defect:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > 1e-10:
            raise ValueError(f"ChoiMatrix: trace {tr!r} differs from 1")
        object.__setattr__(self, "matrix", m)


def unitary_chois(us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Choi kets vec(U)/sqrt(d) and pure Choi states of a stack of unitaries.

    Returns the (n, d^2) kets and the (n, d^2, d^2) projectors onto them.
    """
    n, d = us.shape[0], us.shape[1]
    kets = us.transpose(0, 2, 1).reshape(n, d * d) / np.sqrt(d)
    return kets, np.einsum("ni,nj->nij", kets, kets.conj())


def _superop_to_choi(s: np.ndarray, dim: int) -> np.ndarray:
    # C[i*d+k, j*d+l] = S[l*d+k, j*d+i] / d
    t = s.reshape(dim, dim, dim, dim)
    return np.einsum("lkji->ikjl", t).reshape(dim * dim, dim * dim) / dim


def _choi_to_superop(c: np.ndarray, dim: int) -> np.ndarray:
    # S[l*d+k, j*d+i] = d * C[i*d+k, j*d+l]
    t = c.reshape(dim, dim, dim, dim)
    return np.einsum("ikjl->lkji", t).reshape(dim * dim, dim * dim) * dim


def choi_of_channel(s: SuperOperator, t: float = 0.0, eps: float = 0.0) -> ChoiMatrix:
    """Choi state of a channel; (t, eps) are carried along as tags."""
    return ChoiMatrix(dim=s.dim, matrix=_superop_to_choi(s.matrix, s.dim), t=t, eps=eps)


def channel_of_choi(c: ChoiMatrix) -> SuperOperator:
    """The unique superoperator whose Choi state is c (inverse rearrangement)."""
    return SuperOperator(dim=c.dim, matrix=_choi_to_superop(c.matrix, c.dim))


def choi_of_generator(gen: LindbladGenerator, t: float, eps: float,
                      exact: bool = False) -> ChoiMatrix:
    """Choi state of the small-time step of gen at time t.

    First-order step by default; exact=True exponentiates instead.
    """
    channel = exact_channel(gen, t, eps) if exact else first_order_channel(gen, t, eps)
    return choi_of_channel(channel, t=t, eps=eps)


@dataclass(frozen=True)
class NMClassification:
    """Instantaneous divisibility verdict for one Choi state."""

    min_eigenvalue: float
    negative_eigenvalues: np.ndarray
    trace_norm_deficit: float
    is_markovian: bool


def classify(c: ChoiMatrix, tol: float | None = None) -> NMClassification:
    """Eigenvalue test: Markovian iff the spectrum is >= -tol.

    trace_norm_deficit is sum|lambda| - 1, zero exactly on states.
    """
    if tol is None:
        tol = default_classification_tol(c.eps)
    w = hermitian_eig(c.matrix).eigenvalues
    deficit = float(np.abs(w).sum() - 1.0)
    min_eig = float(w[0])
    return NMClassification(
        min_eigenvalue=min_eig,
        negative_eigenvalues=w[w < -tol],
        trace_norm_deficit=deficit,
        is_markovian=bool(min_eig >= -tol),
    )


@dataclass(frozen=True)
class ScanReport:
    """Divisibility scan over a time grid of small-time steps.

    The grid holds the left edges of `steps` half-open cells of width dt;
    nm_intervals are maximal runs of non-Markovian cells as (start, end)
    with end the right edge of the last cell in the run. integrated_measure
    is sum max(0, deficit) * dt / eps.
    """

    grid: np.ndarray
    classifications: tuple[NMClassification, ...]
    nm_intervals: tuple[tuple[float, float], ...]
    integrated_measure: float
    dt: float
    eps: float
    tol: float


def scan(gen: LindbladGenerator, t0: float, t1: float, steps: int, eps: float,
         tol: float | None = None) -> ScanReport:
    """Classify the small-time step at each grid point of [t0, t1]."""
    if t1 <= t0:
        raise ValueError(f"scan: need t1 > t0, got [{t0}, {t1}]")
    if steps < 1:
        raise ValueError(f"scan: steps must be >= 1, got {steps}")
    if tol is None:
        tol = default_classification_tol(eps)
    dt = (t1 - t0) / steps
    grid = t0 + dt * np.arange(steps)
    classifications = []
    for t in grid:
        c = choi_of_generator(gen, float(t), eps)
        classifications.append(classify(c, tol))
    intervals: list[tuple[float, float]] = []
    run_start: float | None = None
    for t, cl in zip(grid, classifications):
        if not cl.is_markovian:
            if run_start is None:
                run_start = float(t)
        elif run_start is not None:
            intervals.append((run_start, float(t)))
            run_start = None
    if run_start is not None:
        intervals.append((run_start, float(grid[-1]) + dt))
    measure = float(sum(max(0.0, cl.trace_norm_deficit) for cl in classifications)
                    * dt / eps)
    return ScanReport(
        grid=grid,
        classifications=tuple(classifications),
        nm_intervals=tuple(intervals),
        integrated_measure=measure,
        dt=dt,
        eps=eps,
        tol=tol,
    )
