"""Linear non-Markovianity witnesses and nearest-divisible-state projections.

Two witness routes for a non-Markovian Choi state C_N:

* spectral: the orthogonal projectors onto negative eigenspaces of C_N, whose
  expectation on C_N is the (negative) eigenvalue itself;
* distance-based: W = c0 I + C_M* - C_N with c0 = Tr(C_M* (C_N - C_M*)),
  where C_M* is the Hilbert-Schmidt projection of C_N onto a convex family
  of divisible small-time Choi states. Then Tr(W C_S) =
  -Tr[(C_S - C_M*)(C_N - C_M*)] for every trace-one C_S, so
  Tr(W C_N) = -||C_N - C_M*||^2 < 0 while the projection's variational
  inequality keeps Tr(W C_M) >= 0 on the whole family.

Two families are supported: frozen jumps, {phi + eps sum_a g_a Y_a : g_a >= 0}
over the Choi directions Y_a of `choi.dissipator_chois` (nonnegative least
squares, by a Lawson-Hanson active set on the Gram system of the unit
directions Y_a / ||Y_a||), and the full family
{phi + eps X : Tr_2 X = 0, w_perp X w_perp >= 0}, the intersection of the
trace-preserving subspace with the conditionally completely positive cone K
(solved by semismooth Newton on the d^2 real dual variables of Tr_2 X = 0,
each step one closed-form projection onto K, from the layout pieces in `choi`).
Both project Y, the target in generator units: the direction C_L that C_N
carries (`choi.ChoiMatrix.direction`), so the projection C_M* = phi + eps X,
its residual and C_N - C_M* are all formed from eps (Y - X) and no step
subtracts phi from C_N. They share one relative KKT certificate, `_kkt_ok`.

Each witness is checked on the family it is guaranteed on: `verify_witness`
samples the full family, `uniqueness_check` a frozen one. Tr(W C) is affine
in the generator, so both contract W with the draws and never build the
stack of sampled states. Every value scales with eps and W, so a sample
violates W when its value is below -SAMPLED_TOL * eps * ||W||_F by more than
a rounding slack bounded from the same draws. Every consumer walks the draws
in the blocks of `_sample_blocks`, through range views of `_SampledGenerators`,
and a sample's arithmetic is the same in any block, so no result depends on
the block size.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .channels import _blocks, require_eps, require_jumps
from .choi import (ChoiMatrix, add_phi, choi_kets, default_classification_tol,
                   dissipator_chois, first_order_state, haar_kets, hamiltonian_choi, lift,
                   max_entangled_state, partial_trace_2, perp_block, perp_isometry)
from .linalg import (DEGENERACY_GAP, ShapeError, as_matrix, dagger, hermitian_part,
                     hs_inner, hs_norm)


@dataclass(frozen=True)
class WitnessOperator:
    """Hermitian witness with a record of how it was built."""

    matrix: np.ndarray
    kind: str  # 'spectral_projector' or 'theorem3'
    provenance: str
    c0: float | None = None  # identity offset of a theorem3_witness

    def __post_init__(self):
        m = as_matrix(self.matrix, "WitnessOperator.matrix")
        linalg.require_hermitian(m, name="WitnessOperator.matrix")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class MarkovianFamily:
    """Divisible small-time Choi states of frozen jumps with rates >= 0, at fixed (t, eps)."""

    dim: int
    basis_ops: tuple[np.ndarray, ...]
    eps: float
    t: float = 0.0

    def __post_init__(self):
        ops = require_jumps(self.basis_ops, self.dim, "MarkovianFamily", "basis_ops")
        require_eps(self.eps, "MarkovianFamily")
        object.__setattr__(self, "basis_ops", ops)


def fixed_basis_family(basis_ops, eps: float, t: float = 0.0) -> MarkovianFamily:
    """Family of Choi states reachable with the given frozen jump operators."""
    ops = tuple(basis_ops)
    return MarkovianFamily(dim=len(ops[0]) if ops else 0, basis_ops=ops, eps=eps, t=t)


def pauli_family(eps: float, t: float = 0.0) -> MarkovianFamily:
    """The qubit family frozen to the sigma_x, sigma_y, sigma_z jumps."""
    return fixed_basis_family(linalg.PAULIS, eps, t)


@dataclass(frozen=True)
class NearestMCSResult:
    """Projection of a Choi state onto a divisible family."""

    choi_star: ChoiMatrix
    residual: float
    kkt_ok: bool
    iterations: int
    rates: np.ndarray | None = None
    kossakowski: np.ndarray | None = None
    dual: np.ndarray | None = None  # full GKSL: multiplier Lambda of Tr_2 X = 0


@dataclass(frozen=True)
class VerificationResult:
    min_expectation: float
    violations: int
    values: np.ndarray


@dataclass(frozen=True)
class UniquenessResult:
    max_lhs: float
    holds: bool


# ---------------------------------------------------------------------------
# Witness construction
# ---------------------------------------------------------------------------

def spectral_witnesses(c: ChoiMatrix, tol: float | None = None) -> list[WitnessOperator]:
    """Projectors onto eigenspaces with eigenvalue below -tol.

    The ascending negative eigenvalues are split where one lies more than the
    degeneracy gap above the one before; one projector onto each whole
    cluster is emitted. Returns an empty list for a spectrum >= -tol.
    """
    if tol is None:
        tol = default_classification_tol(c.eps)
    w, v = linalg.hermitian_eig(c.matrix)
    negative = np.flatnonzero(w < -tol)
    clusters = np.split(negative, np.flatnonzero(np.diff(w[negative]) > DEGENERACY_GAP) + 1)
    return [_cluster_projector(c, w, v, cluster) for cluster in clusters if cluster.size]


def _cluster_projector(c: ChoiMatrix, w, v, cluster: np.ndarray) -> WitnessOperator:
    vectors = v[:, cluster]
    proj = hermitian_part(vectors @ dagger(vectors))
    values = ", ".join(f"{w[i]:.6e}" for i in cluster)
    return WitnessOperator(
        matrix=proj,
        kind="spectral_projector",
        provenance=(f"projector onto eigenvalue cluster [{values}] of Choi state "
                    f"at t={c.t}, eps={c.eps}"),
    )


def expectation(w: WitnessOperator, c: ChoiMatrix) -> float:
    """Tr(W C); the imaginary part must vanish and is checked.

    Rounding leaves an imaginary part in proportion to the terms the sum
    adds, so a value is refused only when |Im Tr(W C)| > 1e-10 * max(1,
    sum_ij |W_ij| |C_ij|).
    """
    value = hs_inner(w.matrix, c.matrix)
    if abs(value.imag) > 1e-10 * max(1.0, float(np.sum(np.abs(w.matrix) * np.abs(c.matrix)))):
        raise ValueError(f"expectation: non-real value {value!r}")
    return float(value.real)


def theorem3_witness(cn: ChoiMatrix, cm_star: ChoiMatrix) -> WitnessOperator:
    """W = c0 I + C_M* - C_N with c0 = Tr(C_M* (C_N - C_M*)).

    Satisfies Tr(W C_N) = -||C_N - C_M*||^2 for any trace-one C_N. C_N - C_M*
    is eps (Y - X) when both states carry directions Y and X at one eps.
    """
    if cn.matrix.shape != cm_star.matrix.shape:
        raise ShapeError(
            f"theorem3_witness: shapes differ, {cn.matrix.shape} vs {cm_star.matrix.shape}")
    carried = cn.direction is not None and cm_star.direction is not None and cn.eps == cm_star.eps
    diff = cn.eps * (cn.direction - cm_star.direction) if carried else cn.matrix - cm_star.matrix
    c0 = hs_inner(cm_star.matrix, diff).real
    w = c0 * np.eye(cn.matrix.shape[0], dtype=complex) - diff
    return WitnessOperator(
        matrix=w,
        kind="theorem3",
        provenance=(f"c0*I + nearest divisible Choi - target Choi; c0={c0:.6e}, "
                    f"t={cn.t}, eps={cn.eps}"),
        c0=c0,
    )


# ---------------------------------------------------------------------------
# Generator units and the certificate both projections share
# ---------------------------------------------------------------------------

# KKT tolerance of both projections, relative to the scale max(1, ||Y||).
KKT_TOL = 1e-12


def _generator_units(cn: ChoiMatrix) -> tuple[np.ndarray, float]:
    """Y, the target in generator units, and the scale max(1, ||Y||) of the
    certificate. Y is the direction C_L that cn carries, or (C_N - phi) / eps
    for a state built from a bare matrix. The certificate squares the scale,
    so a Y whose ||Y||^2 leaves the double range is a ValueError naming t,
    eps and Y's largest entry, raised before numpy overflows."""
    with np.errstate(over="ignore"):
        y = cn.direction
        if y is None:
            y = (cn.matrix - max_entangled_state(cn.dim)) / cn.eps
        norm = hs_norm(y)
        if not np.isfinite(norm):
            raise ValueError(f"Choi state at t={cn.t}, eps={cn.eps}: the generator C_L is "
                             f"too large to project, ||C_L||^2 leaves the double range "
                             f"(largest |entry| {np.abs(y).max():.3e})")
    return y, max(1.0, norm)


def _kkt_ok(q: np.ndarray, x: np.ndarray, polar: float, scale: float,
            primal: float = 0.0) -> bool:
    """The optimality certificate of a projection X of Y onto a family: a
    primal defect at most KKT_TOL * scale (0 when X lies in the family by
    construction); polar, the largest violation of Q lying in the family's
    polar cone, at most KKT_TOL * scale; and complementarity |<Q, X>| <=
    KKT_TOL * scale^2."""
    bound = KKT_TOL * scale
    return bool(primal <= bound and polar <= bound and abs(np.vdot(q, x)) <= bound * scale)


# ---------------------------------------------------------------------------
# Fixed-basis projection (nonnegative least squares on the Gram system)
# ---------------------------------------------------------------------------

def nnls_gram(q: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, int]:
    """Lawson-Hanson active set for min 1/2 x^T Q x - b^T x with x >= 0.

    Q is the (PSD) Gram matrix of the least-squares design; b the projected
    right-hand side. Sizes here are tiny, so the passive-set systems are
    solved densely; a singular passive block falls back to lstsq.
    """
    m = b.size
    max_iter = 50 * (m + 1)
    scale = max(1.0, float(np.abs(b).max()), float(np.abs(q).max()))
    tol = 1e-13 * scale
    x = np.zeros(m)
    passive = np.zeros(m, dtype=bool)
    iterations = 0
    w = b - q @ x
    while iterations < max_iter:
        candidates = ~passive & (w > tol)
        if not candidates.any():
            break
        j = int(np.argmax(np.where(candidates, w, -np.inf)))
        passive[j] = True
        while iterations < max_iter:
            iterations += 1
            idx = np.flatnonzero(passive)
            sub = q[np.ix_(idx, idx)]
            try:
                z = np.linalg.solve(sub, b[idx])
            except np.linalg.LinAlgError:
                z = np.linalg.lstsq(sub, b[idx], rcond=None)[0]
            if np.all(z > tol):
                x = np.zeros(m)
                x[idx] = z
                break
            shrink = z <= tol
            denom = x[idx][shrink] - z[shrink]
            with np.errstate(divide="ignore", invalid="ignore"):
                steps = np.where(denom > 0, x[idx][shrink] / denom, np.inf)
            alpha = float(np.min(steps))
            if not np.isfinite(alpha):
                alpha = 0.0
            moved = np.zeros(m)
            moved[idx] = x[idx] + alpha * (z - x[idx])
            x = np.clip(moved, 0.0, None)
            drop = idx[x[idx] <= tol]
            passive[drop] = False
            x[~passive] = 0.0
            if not passive.any():
                break
        w = b - q @ x
    return x, iterations


def nearest_mcs_fixed_basis(cn: ChoiMatrix, fam: MarkovianFamily) -> NearestMCSResult:
    """HS projection of cn onto the frozen-basis divisible family.

    The family is {phi + eps sum_a rate_a Y_a : rate_a >= 0}, so with Y
    from `_generator_units`, as `nearest_mcs_full_gksl` takes it, the projection is
    the nonnegative least-squares problem min ||Y - sum_a h_a U_a|| over h >=
    0 on the unit directions U_a = Y_a / ||Y_a||: the Gram matrix has a unit
    diagonal, so `nnls_gram`'s tolerance is in the units of Y, whatever the
    scale of the jumps or the unit of time. rates = h / ||Y_a||; a jump
    proportional to the identity has Y_a = 0 and gets rate 0. The family
    must carry cn's dim and its (t, eps) tags.

    kkt_ok is `_kkt_ok` with the polar test max_a <U_a, Y - X> for X = sum_a
    rate_a Y_a, and the returned state phi + eps X carries X.
    """
    for tag, error, got, want in (("dim", ShapeError, fam.dim, cn.dim),
                                  ("eps", ValueError, fam.eps, cn.eps),
                                  ("t", ValueError, fam.t, cn.t)):
        if got != want:
            raise error(f"nearest_mcs_fixed_basis: family {tag} {got} != Choi {tag} {want}")
    y, scale = _generator_units(cn)
    dirs = dissipator_chois(fam.basis_ops).reshape(len(fam.basis_ops), -1)
    norms = np.linalg.norm(dirs, axis=1)
    inverse = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0.0)
    bras = dirs.conj() * inverse[:, None]  # row a: the conjugate of U_a
    h, iterations = nnls_gram((bras @ bras.conj().T).real, (bras @ y.reshape(-1)).real)
    rates = h * inverse
    x = (rates @ dirs).reshape(y.shape)
    q = y - x
    polar = float((bras @ q.reshape(-1)).real.max())
    return NearestMCSResult(
        choi_star=ChoiMatrix(cn.dim, first_order_state(x, cn.eps), cn.t, cn.eps, x),
        residual=cn.eps * hs_norm(q),
        kkt_ok=_kkt_ok(q, x, polar, scale),
        iterations=iterations,
        rates=rates,
    )


# ---------------------------------------------------------------------------
# Full-generator projection (semismooth Newton on the trace-preserving dual)
# ---------------------------------------------------------------------------

# Newton step limit of nearest_mcs_full_gksl.
GKSL_MAX_ITER = 50


def nearest_mcs_full_gksl(cn: ChoiMatrix) -> NearestMCSResult:
    """HS projection of cn onto the full divisible family at first order.

    The family is {phi + eps X : Tr_2 X = 0, w_perp X w_perp >= 0} with
    w_perp = 1 - phi: trace preservation plus conditional complete
    positivity, which characterize GKSL generators (Wolf & Cirac 2008).
    For Y of `_generator_units`, the nearest X is X(Lambda) = P_K(Y + Lambda
    (x) 1) for the Hermitian d x d multiplier Lambda of Tr_2 X = 0, where
    P_K replaces the w_perp block by its PSD part. Lambda minimizes the dual
    objective 1/2 ||X(Lambda)||^2, whose gradient is Tr_2 X; semismooth
    Newton (Malick 2004; Qi & Sun 2006) finds it from the generalized
    Jacobian J: Lambda -> Tr_2 DP_K[Lambda (x) 1], in full steps until the
    primal test below passes or GKSL_MAX_ITER steps are taken. J is
    Hermitian with J >= (1/d) 1 (its Omega part is PSD), so each step solves
    J step = -Tr_2 X as it stands.

    kkt_ok is `_kkt_ok` of the cone point X and Q = Y + Lambda (x) 1 - X,
    which differs from Y - X by a term orthogonal to the trace-preserving
    subspace: the primal defect is d ||Tr_2 X||, and the polar test is the
    larger of the norm of Q's part outside the w_perp block and that block's
    largest eigenvalue. X lies in the cone by construction.

    The returned state is phi + eps X, carrying X, for the Hermitian part of
    X after a projection onto the trace-preserving subspace that leaves the
    w_perp block alone: in the family up to roundoff, and a valid Choi state
    with kkt_ok=False on hitting GKSL_MAX_ITER. iterations counts Newton
    steps, dual is Lambda, and kossakowski is d B^dag X B over the columns
    vec(F_j) of the Gell-Mann basis, PSD up to roundoff.
    """
    d, e = cn.dim, cn.eps
    require_eps(e, "nearest_mcs_full_gksl")

    n = d * d
    phi = max_entangled_state(d)
    u = perp_isometry(d)
    y, scale = _generator_units(cn)

    def cone_point(lam: np.ndarray):
        """X(lam) with Tr_2 X, the w_perp block's eigenvalues and U @ eigenvectors."""
        z = y + lift(lam)
        w, v = np.linalg.eigh(perp_block(z))
        uv = u @ v
        x = z - (uv * np.minimum(w, 0.0)) @ dagger(uv)
        return x, partial_trace_2(x), w, uv

    # d*1 - Gram(M) for the images M_ij = U^dag (e_ij (x) 1) U of the unit
    # matrices: <M_pq, M_ij> = (d - 2/d) delta_pi delta_qj + delta_pq delta_ij / d^2.
    constant = 2.0 / d * np.eye(n) - np.outer(np.eye(d), np.eye(d)) / n

    def jacobian(w: np.ndarray, uv: np.ndarray) -> np.ndarray:
        """Generalized Jacobian of lam -> Tr_2 X(lam) on vec(lam).

        J = d*1 - Gram(M) + G^dag (Omega o G): row (i, j) of G is the
        flattened uv^dag (e_ij (x) 1) uv, and Omega holds the Loewner divided
        differences of max(., 0), the part P_K keeps. In the real
        coordinates of an orthonormal Hermitian basis the same J is a real
        symmetric matrix.
        """
        pos, size = np.maximum(w, 0.0), np.abs(w)
        num, den = pos[:, None] + pos, size[:, None] + size
        omega = np.divide(num, den, out=np.zeros_like(den), where=den > 0)
        # Omega vanishes unless an index is one of the positive eigenvalues,
        # the last ones as w ascends, so G is formed in two parts: rows
        # m >= k against every column, rows m < k against columns m' >= k.
        k = n - 1 - int(np.count_nonzero(w > 0.0))
        blocks = uv.reshape(d, d, n - 1)  # blocks[i]: rows of uv in e_i (x) C^d, as in choi.lift
        left = blocks.conj().transpose(0, 2, 1)[:, None]
        jac = constant.astype(complex)
        for rows, cols in ((slice(k, None), slice(None)), (slice(None, k), slice(k, None))):
            g = np.matmul(left[:, :, rows], blocks[:, :, cols]).reshape(n, -1)
            weighted = g.conj()
            weighted *= omega[rows, cols].reshape(-1)
            jac += weighted @ g.T
        return jac

    bound = KKT_TOL * scale
    lam = np.zeros((d, d), dtype=complex)
    x, x_tr2, w, uv = cone_point(lam)
    residual = hs_norm(x_tr2)
    iterations = 0
    while d * residual > bound and iterations < GKSL_MAX_ITER:
        iterations += 1
        step = np.linalg.solve(jacobian(w, uv), -x_tr2.reshape(-1))
        lam = lam + hermitian_part(step.reshape(d, d))
        x, x_tr2, w, uv = cone_point(lam)
        residual = hs_norm(x_tr2)

    q = y + lift(lam) - x
    block = perp_block(q)
    polar = max(hs_norm(q - u @ block @ dagger(u)), np.linalg.eigvalsh(block)[-1])
    kkt_ok = _kkt_ok(q, x, polar, scale, primal=d * residual)

    # Subtracting (d/2){phi, Tr_2 X (x) 1} removes Tr_2 X without touching the
    # w_perp block (w_perp phi = 0), so the returned generator stays in the cone.
    # Its Hermitian part drops the rounding of cone_point, which far from phi
    # exceeds the Hermiticity tolerance of ChoiMatrix.
    defect = lift(x_tr2)
    x = hermitian_part(x - 0.5 * d * (phi @ defect + defect @ phi))
    return NearestMCSResult(
        choi_star=ChoiMatrix(d, first_order_state(x, e), cn.t, e, x),
        residual=e * hs_norm(y - x),
        kkt_ok=kkt_ok,
        iterations=iterations,
        kossakowski=d * perp_block(x),
        dual=lam,
    )


# ---------------------------------------------------------------------------
# Monte-Carlo verification
# ---------------------------------------------------------------------------

# Threshold of both sampled checks, in units of eps ||W||_F.
SAMPLED_TOL = 1e-8


def _sample_blocks(n: int, dim: int) -> list[tuple[int, int]]:
    """The blocks of samples 0..n-1: one sample is a (d^2, d^2) complex stack."""
    return _blocks(n, 16 * dim ** 4)


def _row_max(a: np.ndarray) -> np.ndarray:
    """a.max(axis=1) of an (r, k) array, as k - 1 elementwise maxima of its
    columns: numpy reduces each short row in a call of its own, many times
    slower. A maximum is exact in any order."""
    peak = a[:, 0].copy()
    for j in range(1, a.shape[1]):
        np.maximum(peak, a[:, j], out=peak)
    return peak


def _row_products(rows: np.ndarray, m: np.ndarray) -> np.ndarray:
    """rows @ m for a (r, k) array, each row rounded alike for every r.

    numpy hands a one-row product to a vector routine (dot or gemv) whose
    rounding differs from that of the routine it uses for more rows; a zero
    row appended keeps a lone row on the latter, so a sample's value does not
    depend on the block it is contracted in.
    """
    if rows.shape[0] != 1:
        return rows @ m
    return (np.concatenate((rows, np.zeros_like(rows))) @ m)[:1]


@dataclass(frozen=True)
class _SampledGenerators:
    """n random divisible generators, held as their draws, not as Choi states.

    Generator k owns counts[k] consecutive rows of kets (the Choi kets |u_a>
    of Haar-unitary jumps) and of rates (g_a), from row edges[k] on; when
    ham is set, the samples where mask is true also carry the traceless
    Hamiltonian ham[k]. Its first-order Choi state is phi + eps*(X_k +
    mask_k C_H[k]) with X_k = sum_a g_a (|u_a><u_a| - phi).
    """

    dim: int
    counts: np.ndarray
    kets: np.ndarray
    rates: np.ndarray
    mask: np.ndarray | None = None
    ham: np.ndarray | None = None

    @functools.cached_property
    def edges(self) -> np.ndarray:
        """The n + 1 row offsets: generator k's draws are rows edges[k]:edges[k+1]."""
        return np.concatenate(([0], np.cumsum(self.counts)))

    def view(self, a: int, b: int) -> _SampledGenerators:
        """Generators a..b-1, their draws sliced from these, not copied."""
        lo, hi = self.edges[a], self.edges[b]
        return _SampledGenerators(
            self.dim, self.counts[a:b], self.kets[lo:hi], self.rates[lo:hi],
            None if self.mask is None else self.mask[a:b],
            None if self.ham is None else self.ham[a:b])

    def dissipators(self) -> np.ndarray:
        """The (n, d^2, d^2) stack X, one batched Gram product.

        Generator k's jumps fill the first slots of zero-padded arrays: row a
        of scaled[k] is g_a|u_a> and row a of bras[k] is <u_a|, so X[k] =
        scaled[k]^T @ bras[k] - (sum_a g_a) phi. The phi term is subtracted
        in place by `choi.add_phi`.
        """
        d, n = self.dim, self.counts.size
        d2 = d * d
        # Jump a of generator k goes to row k*d^2 + a of the (n*d^2, d^2)
        # slot arrays: one integer index serves both placements.
        slots = np.flatnonzero(np.arange(d2) < self.counts[:, None])
        scaled = np.zeros((n * d2, d2), dtype=complex)
        bras = np.zeros((n * d2, d2), dtype=complex)
        scaled[slots] = self.rates[:, None] * self.kets
        bras[slots] = self.kets.conj()
        x = np.matmul(scaled.reshape(n, d2, d2).transpose(0, 2, 1), bras.reshape(n, d2, d2))
        del scaled, bras
        rate_sums = np.add.reduceat(self.rates, self.edges[:-1])
        add_phi(x, -rate_sums)
        return x

    def expectations(self, w: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray]:
        """Tr(W C_k) per sample and its rounding slack, from the draws alone.

        Tr(W C_k) = Tr(W phi) + eps*(sum_a g_a (<u_a|W|u_a> - Tr(W phi))
        + mask_k 2 Im <phi|W|h_k>), |h> = (1 (x) H)|phi>: affine in the
        generator, so no state is formed. bound_k = sum_a |g_a| (max_i
        |u_a,i|^2 + 1/d) + mask_k 2 max_i |h_k,i| / sqrt(d) bounds every entry
        of the generator before any cancellation, so 1/d + eps*bound_k bounds
        every entry of C_k, and slack_k = (d^4 + 2) u sum_ij |W_ij| (1/d +
        eps*bound_k), u the machine epsilon, bounds the rounding of the value
        (a dot product over d^4 terms; Higham 2002, section 3.1). A sample
        whose eps*bound_k leaves the double range raises a FloatingPointError,
        as forming its state would overflow.
        """
        d = self.dim
        phi_ket = choi_kets(np.eye(d))
        w_phi = (phi_ket @ w @ phi_ket).real
        jumps = np.einsum("ni,ni->n", _row_products(self.kets.conj(), w), self.kets).real
        starts = self.edges[:-1]
        generator = np.add.reduceat(self.rates * (jumps - w_phi), starts)
        bound = np.add.reduceat(np.abs(self.rates) * (
            _row_max(self.kets.real ** 2 + self.kets.imag ** 2) + 1.0 / d), starts)
        if self.ham is not None:
            hkets = choi_kets(self.ham)
            generator += self.mask * (2.0 * _row_products(hkets, phi_ket @ w).imag)
            bound += self.mask * (2.0 * _row_max(np.abs(hkets)) / np.sqrt(d))
        with np.errstate(over="ignore"):
            entries = 1.0 / d + eps * bound
        if not np.isfinite(entries).all():
            raise FloatingPointError("overflow of eps times a sampled generator")
        slack = (d ** 4 + 2) * np.finfo(float).eps * np.abs(w).sum() * entries
        return w_phi + eps * generator, slack


def _draw_generators(dim: int, n: int, rng: np.random.Generator,
                     hamiltonian: bool = False) -> _SampledGenerators:
    """Draw n random divisible generators from rng.

    Draws, in this order: jump counts (1..dim^2), the Choi kets |u_a> of
    Haar unitaries U_a (`choi.haar_kets`), rates g_a uniform on [0, 1], and
    when hamiltonian a mask marking about half the samples and a random
    traceless Hamiltonian per sample. The whole stream is drawn here, so a
    consumer's blocks leave its order alone.
    """
    d = dim
    counts = rng.integers(1, d * d + 1, size=n)
    kets = haar_kets(d, int(counts.sum()), rng)
    rates = rng.uniform(0.0, 1.0, size=kets.shape[0])
    if not hamiltonian:
        return _SampledGenerators(d, counts, kets, rates)
    mask = rng.random(n) < 0.5
    # H = (Z + Z^dag)/2 for Z = a + 1j*b: writing the parts of Z is bit for
    # bit a + 1j*b.
    raw = np.empty((n, d, d), dtype=complex)
    raw.real = rng.standard_normal((n, d, d))
    raw.imag = rng.standard_normal((n, d, d))
    h = hermitian_part(raw)
    del raw
    h -= (np.einsum("nii->n", h) / d)[:, None, None].real * np.eye(d)
    return _SampledGenerators(d, counts, kets, rates, mask, h)


def sample_markovian_chois(dim: int, eps: float, n_samples: int, seed: int) -> np.ndarray:
    """The (n_samples, dim^2, dim^2) first-order Choi states phi + eps*(C_H + X)
    of random divisible generators, drawn by `_draw_generators` from one
    seeded stream with a Hamiltonian on about half the samples, whole:
    `first_order_state` of X, then eps*C_H added to the masked samples."""
    if n_samples < 1:
        raise ValueError(f"sample_markovian_chois: n_samples must be >= 1, got {n_samples}")
    require_eps(eps, "sample_markovian_chois")
    gens = _draw_generators(dim, n_samples, np.random.default_rng(seed), hamiltonian=True)
    chois = first_order_state(gens.dissipators(), eps)
    chois[gens.mask] += eps * hamiltonian_choi(gens.ham[gens.mask])
    return chois


def verify_witness(w: WitnessOperator, dim: int, eps: float, n_samples: int,
                   seed: int) -> VerificationResult:
    """Check Tr(W C_M) >= 0 on sampled divisible Choi states of the full family.

    The samples are those of `sample_markovian_chois` with the same seed, but
    values, Tr(W C_k) per sample, are contracted with the draws one block
    (`_sample_blocks`) at a time; no state is formed. A sample is a violation
    when its value is below -(SAMPLED_TOL * eps * ||W||_F + slack_k), slack_k
    its rounding bound.
    """
    if n_samples < 1:
        raise ValueError(f"verify_witness: n_samples must be >= 1, got {n_samples}")
    require_eps(eps, "verify_witness")
    if w.matrix.shape != (dim * dim, dim * dim):
        raise ShapeError(f"verify_witness: w is {w.matrix.shape[0]}x{w.matrix.shape[1]}, "
                         f"expected {dim * dim}x{dim * dim} for dim={dim}")
    gens = _draw_generators(dim, n_samples, np.random.default_rng(seed), hamiltonian=True)
    values, slack = np.empty(n_samples), np.empty(n_samples)
    for a, b in _sample_blocks(n_samples, dim):
        values[a:b], slack[a:b] = gens.view(a, b).expectations(w.matrix, eps)
    return VerificationResult(
        min_expectation=float(values.min()),
        violations=int(np.count_nonzero(
            values < -(SAMPLED_TOL * eps * hs_norm(w.matrix) + slack))),
        values=values,
    )


def uniqueness_check(cn: ChoiMatrix, cm_star: ChoiMatrix, dim: int, eps: float,
                     n_samples: int, seed: int, *,
                     family: MarkovianFamily) -> UniquenessResult:
    """Sample Tr[(C_N - C_M*)(C_M - C_M*)] <= 0 on the frozen family cm_star
    was projected onto: family, tagged with dim, eps and cn's t.

    Rates are drawn uniform on [0, 2], and the left side is Tr[D (phi - C_M*)]
    + eps * rates @ [Tr(D Y_a)], D = C_N - C_M*, one (n, m) @ (m,) product.
    The left side is -Tr(W C_M) for W = theorem3_witness(cn, cm_star), so
    holds is True when the sampled maximum stays at most SAMPLED_TOL * eps *
    ||W||_F, verify_witness's threshold; on the full family the same check is
    verify_witness(W, ...).
    """
    if n_samples < 1:
        raise ValueError(f"uniqueness_check: n_samples must be >= 1, got {n_samples}")
    require_eps(eps, "uniqueness_check")
    for name, got in (("cn", cn.dim), ("cm_star", cm_star.dim), ("family", family.dim)):
        if got != dim:
            raise ShapeError(f"uniqueness_check: {name} dim {got} != dim {dim}")
    if family.eps != eps:
        raise ValueError(f"uniqueness_check: family eps {family.eps} != eps {eps}")
    if family.t != cn.t:
        raise ValueError(f"uniqueness_check: family t {family.t} != Choi t {cn.t}")
    diff = cn.matrix - cm_star.matrix
    dirs = dissipator_chois(family.basis_ops)
    rates = np.random.default_rng(seed).uniform(0.0, 2.0, size=(n_samples, dirs.shape[0]))
    offset = hs_inner(diff, max_entangled_state(dim) - cm_star.matrix).real
    lhs = offset + eps * (rates @ np.einsum("ij,aji->a", diff, dirs).real)
    max_lhs = float(lhs.max())
    tol = SAMPLED_TOL * eps * hs_norm(theorem3_witness(cn, cm_star).matrix)
    return UniquenessResult(max_lhs=max_lhs, holds=bool(max_lhs <= tol))
