"""Channel-state duality, instantaneous divisibility checks and time scans.

The Choi state of a channel S acting on the second tensor factor of the
maximally entangled state |phi> = (1/sqrt(d)) sum_i |ii> is

    <ik| C |jl> = (1/d) <k| S(|i><j|) |l>,

a Hermitian trace-one matrix. It is positive semidefinite exactly when the
small-time step is completely positive; a negative eigenvalue is the
divisibility-breaking (non-Markovianity) signal.

The first-order step I + eps*L has the Choi state phi + eps*C_L, C_L = C_H +
sum_a g_a Y_a affine in the rates g_a, with C_H and Y_a from
`hamiltonian_choi` and `dissipator_chois`. `first_order_state` is the one
place that forms phi + eps*X; a state built from a generator also carries
its C_L (`ChoiMatrix.direction`). `scan` evaluates the rates on its whole
grid at once (`LindbladGenerator.rate_grid`), assembles the grid as one
stack and classifies it with one stacked eigensolve; its report holds the
per-point minimum eigenvalues, deficits and verdicts as arrays.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channels import LindbladGenerator, SuperOperator, haar_unitaries, require_eps
from .linalg import (DEFAULT_HERM_TOL, ShapeError, as_matrix, dagger, gell_mann_basis,
                     hermitian_part, hermiticity_defect)


def default_classification_tol(eps: float) -> float:
    """Eigenvalue tolerance: first-order truncation leaves O(eps^2) artifacts."""
    return max(1e-9, 10.0 * eps * eps)


def choi_kets(a: np.ndarray) -> np.ndarray:
    """The Choi ket (1 (x) A)|phi> = vec(A)/sqrt(d) of one d x d matrix, or the
    (..., d^2) kets of a stack: one fresh C-contiguous array, scaled in place."""
    d = a.shape[-1]
    scale = np.sqrt(d)
    kets = np.array(np.swapaxes(a, -1, -2), dtype=np.result_type(a, scale), order="C")
    kets /= scale
    return kets.reshape(a.shape[:-2] + (d * d,))


def haar_kets(dim: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """The (n, d^2) Choi kets of n Haar unitaries drawn by `haar_unitaries`.

    That draw lands in the ket layout (column k of a unitary is one
    contiguous row), so it is scaled by 1/sqrt(d) in place: the kets are the
    draw's only array, bit for bit `choi_kets` of it."""
    kets = np.swapaxes(haar_unitaries(dim, n, rng), -1, -2)
    kets /= np.sqrt(dim)
    return kets.reshape(n, dim * dim)


@functools.cache
def max_entangled_state(dim: int) -> np.ndarray:
    """Projector onto (1/sqrt(d)) sum_i |ii>, as a d^2 x d^2 matrix, cached and read-only."""
    if dim < 2:
        raise ValueError(f"max_entangled_state: dim must be >= 2, got {dim}")
    v = choi_kets(np.eye(dim, dtype=complex))
    phi = np.outer(v, v.conj())
    phi.flags.writeable = False
    return phi


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


def perp_block(x: np.ndarray) -> np.ndarray:
    """U^dag x U, U = `perp_isometry`: the w_perp block of a d^2 x d^2 x or of
    each of a stack; a trace-preserving x is a divisible direction iff it is PSD."""
    u = perp_isometry(math.isqrt(x.shape[-1]))
    return u.conj().T @ x @ u


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

    The matrix must pass `_require_states`; matrix holds its Hermitian part,
    so it is exactly Hermitian. Positivity is deliberately not required, its
    failure is the signal everything downstream looks for.

    A state phi + eps*C_L built from a generator carries direction, the
    Hermitian part of C_L, for the projections to read: (matrix - phi)/eps
    loses about u/eps of it. A state built from a bare matrix has None.
    """

    dim: int
    matrix: np.ndarray
    t: float
    eps: float
    direction: np.ndarray | None = None

    def __post_init__(self):
        m = as_matrix(self.matrix, "ChoiMatrix.matrix")
        y = m if self.direction is None else as_matrix(self.direction, "ChoiMatrix.direction")
        d2 = self.dim * self.dim
        for a in (m, y):
            if a.shape != (d2, d2):
                raise ShapeError(
                    f"ChoiMatrix: expected {d2}x{d2} for dim={self.dim}, got {a.shape}")
        _require_states(m[None], [self.t], self.eps)
        object.__setattr__(self, "matrix", hermitian_part(m))
        if self.direction is not None:
            half = 0.5 * y  # halved first: C_L near the double range stays finite
            object.__setattr__(self, "direction", half + dagger(half))


def _require_states(stack: np.ndarray, ts, eps: float) -> None:
    """ChoiMatrix's checks on a (n, d^2, d^2) stack of states at times ts.

    With u the machine epsilon and m the largest |Re| or |Im| of any entry
    in the stack, r = d^2 * u * m bounds the rounding of a state's trace
    and Hermiticity. Where r > 1/d (or is not finite), rounding reaches the
    entries of phi, which are at most 1/d: eps * C_L has swamped phi, an
    error naming the first such state's t and eps. Otherwise every state
    must be Hermitian with trace one, each to DEFAULT_HERM_TOL + r.
    """
    d2 = stack.shape[-1]
    rounding, phi_entry = d2 * np.finfo(float).eps, 1.0 / math.isqrt(d2)
    v = np.ascontiguousarray(stack).view(float)
    r = rounding * max(v.max(), -v.min())
    if not r <= phi_entry:
        peaks = np.maximum(v.max(axis=(-2, -1)), -v.min(axis=(-2, -1)))
        k = np.flatnonzero(~(rounding * peaks <= phi_entry))[0]
        largest = np.abs(stack[k]).max()
        raise ValueError(f"Choi state at t={ts[k]}, eps={eps}: eps*C_L swamps phi or "
                         f"overflows the double range (largest |entry| {largest:.3e})")
    tol = DEFAULT_HERM_TOL + r
    defect = hermiticity_defect(stack)
    trace = np.einsum("nii->n", stack)
    bad = np.flatnonzero(~((defect <= tol) & (np.abs(trace - 1.0) <= tol)))
    if bad.size:
        k = bad[0]
        raise ValueError(f"Choi state at t={ts[k]}: Hermiticity defect {defect[k]:.3e}, "
                         f"trace {complex(trace[k])!r}; need Hermitian with trace 1")


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


def _first_order_chois(gen: LindbladGenerator, ts, eps: float) -> tuple[np.ndarray, np.ndarray]:
    """C_L = C_H + g(t) @ Y and the state phi + eps * C_L at each time t in ts,
    two stacks of shape (len(ts), d^2, d^2)."""
    require_eps(eps, "first-order Choi state")
    c_l = np.tensordot(gen.rate_grid(ts), dissipator_chois(gen.ops), axes=1)
    if gen.hamiltonian is not None:
        c_l += hamiltonian_choi(gen.hamiltonian)
    return c_l, first_order_state(c_l, eps)


def choi_of_channel(s: SuperOperator, t: float = 0.0, eps: float = 0.0) -> ChoiMatrix:
    """Choi state of a test-reference superoperator; (t, eps) are tags."""
    d = s.dim
    # C[i*d+k, j*d+l] = S[l*d+k, j*d+i] / d
    c = np.einsum("lkji->ikjl", s.matrix.reshape(d, d, d, d)).reshape(d * d, d * d) / d
    return ChoiMatrix(dim=d, matrix=c, t=t, eps=eps)


def choi_of_generator(gen: LindbladGenerator, t: float, eps: float) -> ChoiMatrix:
    """Choi state of the first-order small-time step I + eps*L(t) of gen, carrying C_L(t)."""
    c_l, chois = _first_order_chois(gen, [t], eps)
    return ChoiMatrix(gen.dim, chois[0], t, eps, c_l[0])


@dataclass(frozen=True)
class NMClassification:
    """Instantaneous divisibility verdict for one Choi state."""

    min_eigenvalue: float
    trace_norm_deficit: float
    is_markovian: bool


def _verdicts(chois: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One stacked eigensolve of the Hermitian parts of a (n, d^2, d^2) stack
    of states that pass `_require_states`: three columns, the minimum
    eigenvalues, the trace-norm deficits sum|lambda| - 1 and the Markovian
    verdicts, true where no eigenvalue is below -tol."""
    spectra = np.linalg.eigvalsh(hermitian_part(chois))
    mins = spectra[:, 0]
    return mins, np.abs(spectra).sum(axis=1) - 1.0, mins >= -tol


def classify(c: ChoiMatrix, tol: float | None = None) -> NMClassification:
    """Eigenvalue test: Markovian iff no eigenvalue is below -tol.

    trace_norm_deficit is sum|lambda| - 1, zero exactly on states.
    """
    if tol is None:
        tol = default_classification_tol(c.eps)
    mins, deficits, markovian = _verdicts(c.matrix[None], tol)
    return NMClassification(min_eigenvalue=float(mins[0]),
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
    if not math.isfinite(t0) or not math.isfinite(t1):
        raise ValueError(f"scan: t0 and t1 must be finite, got [{t0}, {t1}]")
    if t1 <= t0:
        raise ValueError(f"scan: need t1 > t0, got [{t0}, {t1}]")
    if steps < 1:
        raise ValueError(f"scan: need steps >= 1, got {steps}")
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
    # No overflow warnings: an overflowing stack fails the state check or
    # the finite-measure check, each an error naming eps and the time or
    # window.
    with np.errstate(over="ignore", invalid="ignore"):
        chois = _first_order_chois(gen, grid, eps)[1]
        _require_states(chois, grid, eps)
    mins, deficits, markovian = _verdicts(chois, tol)
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
