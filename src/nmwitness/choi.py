"""Channel-state duality, instantaneous divisibility checks and time scans.

The Choi state of a channel S acting on the second tensor factor of the
maximally entangled state |phi> = (1/sqrt(d)) sum_i |ii> is

    <ik| C |jl> = (1/d) <k| S(|i><j|) |l>,

a Hermitian trace-one matrix. It is positive semidefinite exactly when the
small-time step is completely positive; a negative eigenvalue is the
divisibility-breaking (non-Markovianity) signal.

The first-order step I + eps*L has the Choi state phi + eps*(C_H + sum_a
g_a Y_a), affine in the rates g_a. A generator's C_H and Y_a come from
`hamiltonian_choi` and `dissipator_chois`. The Monte-Carlo sampler
(`witness._SampledGenerators.dissipators`) draws unitary jumps only, whose
Y_a is the special case |u_a><u_a| - phi for the Choi ket |u_a> of a Haar
unitary, and forms sum_a g_a Y_a from the kets in one batched product.
`first_order_state` is the one place that forms phi + eps*X. `scan`
evaluates the rates on its whole grid at once (`LindbladGenerator.rate_grid`),
assembles the grid as one stack and classifies it with one stacked
eigensolve; its report holds the per-point minimum eigenvalues, deficits and
verdicts as arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import LindbladGenerator, SuperOperator
from .linalg import (DEFAULT_HERM_TOL, ShapeError, as_matrix, gell_mann_basis,
                     hermitian_part, hermiticity_defect)


def default_classification_tol(eps: float) -> float:
    """Eigenvalue tolerance: first-order truncation leaves O(eps^2) artifacts."""
    return max(1e-9, 10.0 * eps * eps)


def choi_kets(a: np.ndarray, overwrite_a: bool = False) -> np.ndarray:
    """The Choi ket (1 (x) A)|phi> = vec(A)/sqrt(d) of one d x d matrix, or the
    (..., d^2) kets of a stack: one fresh C-contiguous array, scaled in place.

    With overwrite_a, a writable float or complex stack that is already in
    the ket layout (its last two axes swapped are C-contiguous, as
    `channels.haar_unitaries` returns its draws) is scaled in place and the
    kets are a view of it; any other stack is copied as without it."""
    d = a.shape[-1]
    scale = np.sqrt(d)
    kets = np.swapaxes(a, -1, -2)
    dtype = np.result_type(a, scale)
    if not (overwrite_a and kets.flags.c_contiguous and kets.flags.writeable
            and kets.dtype == dtype):
        kets = np.array(kets, dtype=dtype, order="C")
    kets /= scale
    return kets.reshape(a.shape[:-2] + (d * d,))


def max_entangled_state(dim: int) -> np.ndarray:
    """Projector onto (1/sqrt(d)) sum_i |ii>, as a d^2 x d^2 matrix."""
    if dim < 2:
        raise ValueError(f"max_entangled_state: dim must be >= 2, got {dim}")
    v = choi_kets(np.eye(dim, dtype=complex))
    return np.outer(v, v.conj())


def add_phi(stack: np.ndarray, weights: np.ndarray) -> None:
    """stack[k] += weights[k] * phi for a (n, d^2, d^2) stack, in place on the
    d x d block of phi's nonzero entries, rows and columns i*(d+1)."""
    d = math.isqrt(stack.shape[-1])
    block = max_entangled_state(d)[::d + 1, ::d + 1]
    stack[:, ::d + 1, ::d + 1] += weights[:, None, None] * block


@functools.cache
def perp_isometry(dim: int) -> np.ndarray:
    """The d^2 x (d^2 - 1) isometry U onto w_perp = 1 - phi, cached and read-only:
    its columns are vec(F_j^T) of the traceless `linalg.gell_mann_basis` F_j."""
    u = np.stack([f.T.reshape(-1) for f in gell_mann_basis(dim)], axis=1)
    u.flags.writeable = False
    return u


def partial_trace_2(x: np.ndarray) -> np.ndarray:
    """Tr_2 x, the trace over the second factor of a d^2 x d^2 matrix."""
    d = math.isqrt(x.shape[-1])
    return np.einsum("ikjk->ij", x.reshape(d, d, d, d))


def lift(m: np.ndarray) -> np.ndarray:
    """m (x) 1 for a d x d matrix m."""
    return (m[:, None, :, None] * np.eye(len(m))[:, None]).reshape(m.size, m.size)


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
        _require_states(m[None], [self.t], self.eps)
        object.__setattr__(self, "matrix", m)


def _require_states(stack: np.ndarray, ts, eps: float) -> None:
    """ChoiMatrix's checks on a stack of states at times ts: Hermitian, trace one.

    A failing state is blamed on eps * C_L, not on its Hermiticity or trace,
    when its Hermiticity defect is not finite (entries beyond the double
    range, or near enough its edge that their differences are) or when its
    largest |entry| is so large that rounding alone can break the trace
    test: d^2 * u * max|entry| > trace_tol, with u the machine epsilon. Then
    eps * C_L has swamped phi, whose entries are at most 1/d.
    """
    trace_tol = 1e-10
    defect = hermiticity_defect(stack)
    trace = np.einsum("nii->n", stack)
    bad = np.flatnonzero(~((defect <= DEFAULT_HERM_TOL) & (np.abs(trace - 1.0) <= trace_tol)))
    if bad.size:
        k = bad[0]
        largest = np.abs(stack[k]).max()
        if (not np.isfinite(defect[k])
                or stack.shape[-1] * np.finfo(float).eps * largest > trace_tol):
            raise ValueError(f"Choi state at t={ts[k]}, eps={eps}: eps*C_L swamps phi or "
                             f"overflows the double range (largest |entry| {largest:.3e})")
        raise ValueError(f"Choi state at t={ts[k]}: Hermiticity defect {defect[k]:.3e}, "
                         f"trace {complex(trace[k])!r}; need Hermitian with trace 1")


def unitary_chois(us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Choi kets and pure Choi states of a stack of unitaries.

    Returns the (n, d^2) kets of `choi_kets` and the (n, d^2, d^2)
    projectors onto them.
    """
    kets = choi_kets(us)
    return kets, np.einsum("ni,nj->nij", kets, kets.conj())


def dissipator_chois(ops) -> np.ndarray:
    """(m, d^2, d^2) stack of the Choi directions Y_a of unit-rate dissipators:
    <ik|Y_a|jl> = (conj(L_lj) L_ki - 1/2 delta_lj (L^dag L)_ki - 1/2 (L^dag L)_jl
    delta_ki) / d with L = L_a. Products keep np.kron's operand order and the
    sum precedes the division, so this is bit for bit the superoperator route."""
    ls = np.asarray(ops, dtype=complex)
    m, d = ls.shape[0], ls.shape[-1]
    eye = np.eye(d, dtype=complex)
    ldl = ls.conj().transpose(0, 2, 1) @ ls
    lt, ldl_t = ls.transpose(0, 2, 1), ldl.transpose(0, 2, 1)
    # Axes (a, i, k, j, l).
    y = (lt.conj()[:, None, None] * lt[..., None, None]
         - 0.5 * (eye * ldl_t[..., None, None])
         - 0.5 * (ldl[:, None, None] * eye[:, :, None, None]))
    return y.reshape(m, d * d, d * d) / d


def hamiltonian_choi(h: np.ndarray) -> np.ndarray:
    """C_H = -i(|h><phi| - |phi><h|), |h> = (1 (x) H)|phi>, for one H or a stack."""
    outer = np.einsum("...i,j->...ij", choi_kets(h), choi_kets(np.eye(h.shape[-1])))
    return -1.0j * (outer - np.swapaxes(outer, -1, -2).conj())


def first_order_state(x: np.ndarray, eps: float) -> np.ndarray:
    """phi + eps * x for a d^2 x d^2 generator Choi direction x, or for each
    matrix of a (n, d^2, d^2) stack."""
    return max_entangled_state(math.isqrt(x.shape[-1])) + eps * x


def _first_order_chois(gen: LindbladGenerator, ts, eps: float) -> np.ndarray:
    """phi + eps * (C_H + g(t) @ Y) at each time t in ts, shape (len(ts), d^2, d^2)."""
    if not eps > 0:
        raise ValueError(f"first-order Choi state: eps must be > 0, got {eps}")
    c_l = np.tensordot(gen.rate_grid(ts), dissipator_chois(gen.ops), axes=1)
    if gen.hamiltonian is not None:
        c_l += hamiltonian_choi(gen.hamiltonian)
    return first_order_state(c_l, eps)


def choi_of_channel(s: SuperOperator, t: float = 0.0, eps: float = 0.0) -> ChoiMatrix:
    """Choi state of a test-reference superoperator; (t, eps) are tags."""
    d = s.dim
    # C[i*d+k, j*d+l] = S[l*d+k, j*d+i] / d
    c = np.einsum("lkji->ikjl", s.matrix.reshape(d, d, d, d)).reshape(d * d, d * d) / d
    return ChoiMatrix(dim=d, matrix=c, t=t, eps=eps)


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


def _verdicts(chois: np.ndarray, tol: float, caller: str,
              where: str) -> tuple[np.ndarray, ...]:
    """One stacked eigensolve of the Hermitian parts of a (n, d^2, d^2) stack.

    Returns the ascending spectra and three columns: minimum eigenvalues,
    trace-norm deficits sum|lambda| - 1 and the Markovian verdicts, true
    where no eigenvalue is below -tol. Where the Hermitian part overflows
    (entries near the largest double), it does so without a warning and the
    eigensolve fails: a ValueError naming the caller and `where` the states are.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            spectra = np.linalg.eigvalsh(hermitian_part(chois))
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{caller}: eigensolve failed {where} (largest |entry| of the "
                         f"Choi stack {np.abs(chois).max():.3e}): {exc}") from exc
    mins = spectra[:, 0]
    return spectra, mins, np.abs(spectra).sum(axis=1) - 1.0, mins >= -tol


def classify(c: ChoiMatrix, tol: float | None = None) -> NMClassification:
    """Eigenvalue test: Markovian iff no eigenvalue is below -tol.

    trace_norm_deficit is sum|lambda| - 1, zero exactly on states.
    """
    if tol is None:
        tol = default_classification_tol(c.eps)
    spectra, mins, deficits, markovian = _verdicts(
        c.matrix[None], tol, "classify", f"at t={c.t}, eps={c.eps}")
    return NMClassification(min_eigenvalue=float(mins[0]),
                            negative_eigenvalues=spectra[0][spectra[0] < -tol],
                            trace_norm_deficit=float(deficits[0]),
                            is_markovian=bool(markovian[0]))


class MarkovianTargetError(ValueError):
    """A witness or separation target that is Markovian: nothing to witness."""


def require_non_markovian(c: ChoiMatrix, tol: float | None = None) -> NMClassification:
    """classify(c, tol) of a non-Markovian c; a Markovian c raises MarkovianTargetError."""
    verdict = classify(c, tol)
    if verdict.is_markovian:
        raise MarkovianTargetError(
            f"Choi state at t={c.t}, eps={c.eps} classifies as Markovian "
            f"(min eigenvalue {verdict.min_eigenvalue:.3e}); nothing to witness")
    return verdict


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
    """Classify the first-order small-time step at each grid point of [t0, t1].

    The steps + 1 cell edges t0 + k*dt must be finite and strictly
    increasing; a window too wide or too narrow for that is a ValueError.
    """
    if t1 <= t0:
        raise ValueError(f"scan: need t1 > t0, got [{t0}, {t1}]")
    if steps < 1:
        raise ValueError(f"scan: steps must be >= 1, got {steps}")
    if tol is None:
        tol = default_classification_tol(eps)
    dt = (t1 - t0) / steps
    if not math.isfinite(dt):
        raise ValueError(f"scan: window [{t0}, {t1}] is too wide: (t1 - t0) / steps "
                         f"is {dt}")
    grid = t0 + dt * np.arange(steps)
    edges = np.append(grid, grid[-1] + dt)
    if not (np.diff(edges) > 0).all():
        raise ValueError(f"scan: window [{t0}, {t1}] is too narrow for {steps} steps: "
                         f"the cell edges t0 + k*dt, dt = {dt}, are not strictly increasing")
    # No overflow warnings: an overflowing stack fails the state check, the
    # eigensolve or the finite-measure check, each an error naming eps and
    # the time or window.
    with np.errstate(over="ignore", invalid="ignore"):
        chois = _first_order_chois(gen, grid, eps)
        _require_states(chois, grid, eps)
        _, mins, deficits, markovian = _verdicts(chois, tol, "scan",
                                                 f"on [{t0}, {t1}] with {steps} steps")
    # Runs of non-Markovian cells open and close where the zero-padded verdicts flip.
    flips = np.flatnonzero(np.diff(np.pad(~markovian, 1)))
    # Python's left-to-right sum, not np.sum's pairwise one, keeps the
    # reported measure bit-for-bit stable.
    measure = float(sum(np.maximum(deficits, 0.0).tolist()) * dt / eps)
    if not np.isfinite(measure):
        raise ValueError(f"scan: integrated_measure on [{t0}, {t1}] is {measure}; "
                         f"sum max(0, deficit) * dt / eps is not finite")
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
