"""Channel-state duality, instantaneous divisibility checks and time scans.

The Choi state of a channel S acting on the second tensor factor of the
maximally entangled state |phi> = (1/sqrt(d)) sum_i |ii> is

    <ik| C |jl> = (1/d) <k| S(|i><j|) |l>,

a Hermitian trace-one matrix. It is positive semidefinite exactly when the
small-time step is completely positive; a negative eigenvalue is the
divisibility-breaking (non-Markovianity) signal.

The first-order step I + eps*L has the Choi state phi + eps*(C_H + sum_a
g_a Y_a), affine in the rates g_a; every caller builds C_H and the Y_a with
`hamiltonian_choi` and `dissipator_chois`. `scan` evaluates the rates on
its whole grid at once (`LindbladGenerator.rate_grid`), assembles the grid
as one stack and classifies it with one stacked eigensolve; its report holds
the per-point minimum eigenvalues, deficits and verdicts as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channels import LindbladGenerator, SuperOperator, dissipator_superoperator
from .linalg import ShapeError, as_matrix


def default_classification_tol(eps: float) -> float:
    """Eigenvalue tolerance: first-order truncation leaves O(eps^2) artifacts."""
    return max(1e-9, 10.0 * eps * eps)


def max_entangled_state(dim: int) -> np.ndarray:
    """Projector onto (1/sqrt(d)) sum_i |ii>, as a d^2 x d^2 matrix."""
    if dim < 2:
        raise ValueError(f"max_entangled_state: dim must be >= 2, got {dim}")
    v = np.eye(dim, dtype=complex).reshape(-1) / np.sqrt(dim)
    return np.outer(v, v.conj())


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
        _require_states(m[None], [self.t])
        object.__setattr__(self, "matrix", m)


def _require_states(stack: np.ndarray, ts) -> None:
    """ChoiMatrix's checks on a stack of states at times ts: Hermitian, trace one."""
    defect = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    trace = np.einsum("nii->n", stack)
    bad = np.flatnonzero(~((defect <= 1e-10) & (np.abs(trace - 1.0) <= 1e-10)))
    if bad.size:
        k = bad[0]
        raise ValueError(f"Choi state at t={ts[k]}: Hermiticity defect {defect[k]:.3e}, "
                         f"trace {complex(trace[k])!r}; need Hermitian with trace 1")


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


def dissipator_chois(ops) -> np.ndarray:
    """(m, d^2, d^2) stack of the Choi directions Y_a of unit-rate dissipators."""
    return np.stack([_superop_to_choi(dissipator_superoperator(op), op.shape[0])
                     for op in ops])


def hamiltonian_choi(h: np.ndarray) -> np.ndarray:
    """C_H = -i(|h><phi| - |phi><h|), |h> = (1 (x) H)|phi>, for one H or a stack."""
    d = h.shape[-1]
    hket = np.swapaxes(h, -1, -2).reshape(h.shape[:-2] + (d * d,)) / np.sqrt(d)
    outer = np.einsum("...i,j->...ij", hket, np.eye(d).reshape(-1) / np.sqrt(d))
    return -1.0j * (outer - np.swapaxes(outer, -1, -2).conj())


def _first_order_chois(gen: LindbladGenerator, ts, eps: float) -> np.ndarray:
    """phi + eps * (C_H + g(t) @ Y) at each time t in ts, shape (len(ts), d^2, d^2)."""
    if not eps > 0:
        raise ValueError(f"first-order Choi state: eps must be > 0, got {eps}")
    c_l = np.tensordot(gen.rate_grid(ts), dissipator_chois(gen.ops), axes=1)
    if gen.hamiltonian is not None:
        c_l += hamiltonian_choi(gen.hamiltonian)
    return max_entangled_state(gen.dim) + eps * c_l


def choi_of_channel(s: SuperOperator, t: float = 0.0, eps: float = 0.0) -> ChoiMatrix:
    """Choi state of a channel; (t, eps) are carried along as tags."""
    return ChoiMatrix(dim=s.dim, matrix=_superop_to_choi(s.matrix, s.dim), t=t, eps=eps)


def channel_of_choi(c: ChoiMatrix) -> SuperOperator:
    """The unique superoperator whose Choi state is c (inverse rearrangement)."""
    return SuperOperator(dim=c.dim, matrix=_choi_to_superop(c.matrix, c.dim))


def choi_of_generator(gen: LindbladGenerator, t: float, eps: float) -> ChoiMatrix:
    """Choi state of the first-order small-time step I + eps*L(t) of gen."""
    return ChoiMatrix(dim=gen.dim, matrix=_first_order_chois(gen, [t], eps)[0], t=t, eps=eps)


@dataclass(frozen=True)
class NMClassification:
    """Instantaneous divisibility verdict for one Choi state."""

    min_eigenvalue: float
    negative_eigenvalues: np.ndarray
    trace_norm_deficit: float
    is_markovian: bool


def _verdicts(chois: np.ndarray, tol: float) -> tuple[np.ndarray, ...]:
    """One stacked eigensolve of the Hermitian parts of a (n, d^2, d^2) stack.

    Returns the ascending spectra and three columns: minimum eigenvalues,
    trace-norm deficits sum|lambda| - 1 and the Markovian verdicts, true
    where no eigenvalue is below -tol.
    """
    spectra = np.linalg.eigvalsh(0.5 * (chois + chois.conj().transpose(0, 2, 1)))
    mins = spectra[:, 0]
    return spectra, mins, np.abs(spectra).sum(axis=1) - 1.0, mins >= -tol


def classify(c: ChoiMatrix, tol: float | None = None) -> NMClassification:
    """Eigenvalue test: Markovian iff no eigenvalue is below -tol.

    trace_norm_deficit is sum|lambda| - 1, zero exactly on states.
    """
    if tol is None:
        tol = default_classification_tol(c.eps)
    spectra, mins, deficits, markovian = _verdicts(c.matrix[None], tol)
    return NMClassification(min_eigenvalue=float(mins[0]),
                            negative_eigenvalues=spectra[0][spectra[0] < -tol],
                            trace_norm_deficit=float(deficits[0]),
                            is_markovian=bool(markovian[0]))


@dataclass(frozen=True)
class ScanReport:
    """Divisibility scan over a time grid of small-time steps.

    The grid holds the left edges of `steps` half-open cells of width dt;
    min_eigenvalues, deficits and is_markovian hold classify's verdict of
    each cell as arrays over the grid. nm_intervals are maximal runs of
    non-Markovian cells as (start, end) with end the right edge of the last
    cell in the run. integrated_measure is sum max(0, deficit) * dt / eps.
    """

    grid: np.ndarray
    min_eigenvalues: np.ndarray
    deficits: np.ndarray
    is_markovian: np.ndarray
    nm_intervals: tuple[tuple[float, float], ...]
    integrated_measure: float
    dt: float
    eps: float
    tol: float


def scan(gen: LindbladGenerator, t0: float, t1: float, steps: int, eps: float,
         tol: float | None = None) -> ScanReport:
    """Classify the first-order small-time step at each grid point of [t0, t1]."""
    if t1 <= t0:
        raise ValueError(f"scan: need t1 > t0, got [{t0}, {t1}]")
    if steps < 1:
        raise ValueError(f"scan: steps must be >= 1, got {steps}")
    if tol is None:
        tol = default_classification_tol(eps)
    dt = (t1 - t0) / steps
    grid = t0 + dt * np.arange(steps)
    chois = _first_order_chois(gen, grid, eps)
    _require_states(chois, grid)
    _, mins, deficits, markovian = _verdicts(chois, tol)
    # Runs of non-Markovian cells open and close where the zero-padded verdicts flip.
    flips = np.flatnonzero(np.diff(np.pad(~markovian, 1)))
    edges = np.append(grid, grid[-1] + dt)
    # Python's left-to-right sum, not np.sum's pairwise one, keeps the
    # reported measure bit-for-bit stable.
    measure = float(sum(np.maximum(deficits, 0.0).tolist()) * dt / eps)
    return ScanReport(
        grid=grid,
        min_eigenvalues=mins,
        deficits=deficits,
        is_markovian=markovian,
        nm_intervals=tuple((float(edges[a]), float(edges[b]))
                           for a, b in zip(flips[::2], flips[1::2])),
        integrated_measure=measure,
        dt=dt,
        eps=eps,
        tol=tol,
    )
