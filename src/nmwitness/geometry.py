"""Numerical probes of the convex geometry of divisible small-time Choi states.

At first order the divisible states form F = phi + eps*(K ∩ TP), K the cone
of generator directions whose w_perp block (`choi.perp_block`) is PSD. The
convexity probe checks, by that block in generator units (so at any eps), that
mixtures of sampled divisible unitary-jump generators stay in K; the HS-norm
probe checks the boundedness surrogate |  ||C||_2 - 1 | <= eps ||C_L||_2 on
their first-order states (closedness is not numerically testable and is not
claimed by any probe). The census of distinct purity-one Choi states of
Haar-random unitary channels shows that the set of all channels is not a
polytope; they lie in F only because every CPTP Choi state does, and eps is
not read. The separation demo projects onto F and samples its members.
Trials and census rows are walked in the blocks of `channels._blocks`, which
one budget, `channels._BLOCK_BYTES`, sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .choi import ChoiMatrix, first_order_state, haar_kets, perp_block, require_non_markovian
from .channels import _blocks
from .witness import (
    _draw_generators,
    _sample_blocks,
    expectation,
    nearest_mcs_full_gksl,
    theorem3_witness,
    verify_witness,
)


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of one randomized geometry probe.

    details is the column of per-trial values, one float per trial, and a
    trial's index is its position in it; trial draws are derived in index
    order from the probe seed, so an index pins down its trial's randomness.
    """

    probe_name: str
    n_trials: int
    failures: int
    worst_value: float
    details: np.ndarray
    summary: dict | None = None

    def __eq__(self, other):
        """Field by field, the details columns compared as arrays."""
        if not isinstance(other, ProbeReport):
            return NotImplemented
        scalars = ("probe_name", "n_trials", "failures", "worst_value", "summary")
        return (all(getattr(self, f) == getattr(other, f) for f in scalars)
                and np.array_equal(self.details, other.details))


def convexity_probe(dim: int, eps: float, n_trials: int, seed: int) -> ProbeReport:
    """Mixtures of two sampled divisible generators stay in F.

    Trial k mixes directions k and n + k of a `_draw_generators` draw of 2n
    generators without Hamiltonians, n = n_trials: M = p X_k + (1 - p) X_{n+k},
    p uniform. M is trace preserving, so phi + eps*M is in F iff perp_block(M)
    is PSD; a trial fails when lambda_min(perp_block(M)) < -(d^4 + 2) u ||M||_F,
    u the machine epsilon, the other sampled checks' rounding slack, at any
    eps. details holds eps * lambda_min, the mixed state's block eigenvalue.
    """
    if eps <= 0:
        raise ValueError(f"convexity_probe: eps must be > 0, got {eps}")
    if n_trials < 1:
        raise ValueError(f"convexity_probe: n_trials must be >= 1, got {n_trials}")
    gens = _draw_generators(dim, 2 * n_trials, np.random.default_rng(seed))
    p = np.random.default_rng((seed, 1)).uniform(size=n_trials)
    min_eigs, norms = np.empty(n_trials), np.empty(n_trials)
    for a, b in _sample_blocks(n_trials, dim):
        mixed = gens.view(a, b).dissipators()
        second = gens.view(n_trials + a, n_trials + b).dissipators()
        mixed *= p[a:b, None, None]
        second *= (1.0 - p[a:b])[:, None, None]
        mixed += second
        min_eigs[a:b] = np.linalg.eigvalsh(perp_block(mixed))[:, 0]
        norms[a:b] = np.linalg.norm(mixed, axis=(1, 2))
        del mixed, second  # not alive while the next block is formed
    slack = (dim ** 4 + 2) * np.finfo(float).eps * norms
    values = eps * min_eigs
    return ProbeReport(
        probe_name="convexity",
        n_trials=n_trials,
        failures=int(np.count_nonzero(min_eigs < -slack)),
        worst_value=float(values.min()),
        details=values,
    )


def hs_norm_probe(dim: int, eps: float, n_trials: int, seed: int) -> ProbeReport:
    """HS norms of small-time Chois concentrate at 1.

    Samples the first-order Chois C = phi + eps*C_L of divisible generators;
    a trial fails when | ||C||_2 - 1 | exceeds eps ||C_L||_2, the reverse
    triangle inequality with ||phi||_2 = 1, which every phi + eps*C_L meets
    and a state such as phi + 1.5 eps*C_L can break. The computed ||C||_2 is
    itself rounded (at d = 2 it can read 1 - 2.2e-16 for a tiny eps), so a
    failure also exceeds the rounding slack (d^4 + 2) u ||C||_2, u the machine
    epsilon: rounding in forming the d^4 entries of phi + eps*C_L, summing
    their squares and subtracting 1. The reported bounds leave the slack out.
    The generators' Chois and the states are formed one block of trials at a
    time.
    """
    if eps <= 0:
        raise ValueError(f"hs_norm_probe: eps must be > 0, got {eps}")
    if n_trials < 1:
        raise ValueError(f"hs_norm_probe: n_trials must be >= 1, got {n_trials}")
    gens = _draw_generators(dim, n_trials, np.random.default_rng(seed))
    norms, gen_norms = np.empty(n_trials), np.empty(n_trials)
    for a, b in _sample_blocks(n_trials, dim):
        gen_chois = gens.view(a, b).dissipators()
        norms[a:b] = np.linalg.norm(first_order_state(gen_chois, eps), axis=(1, 2))
        gen_norms[a:b] = np.linalg.norm(gen_chois, axis=(1, 2))
    deviations = np.abs(norms - 1.0)
    bounds = eps * gen_norms
    slack = (dim ** 4 + 2) * np.finfo(float).eps * norms
    failures = int(np.count_nonzero(deviations > bounds + slack))
    return ProbeReport(
        probe_name="hsnorm",
        n_trials=n_trials,
        failures=failures,
        worst_value=float(deviations.max()),
        details=deviations,
        summary={"max_bound": float(bounds.max()), "min_bound": float(bounds.min())},
    )


def separation_demo(cn: ChoiMatrix, n_samples: int, seed: int) -> ProbeReport:
    """Separate a non-Markovian Choi state from sampled divisible ones.

    Projects cn onto the full divisible family, builds the distance witness
    and checks it with verify_witness on n_samples divisible Chois at cn's
    dimension and eps, draws of the full family the witness is guaranteed
    on. Each violation is a failure; a nonnegative expectation on cn itself
    is a failure as well. cn must classify as non-Markovian, or
    `choi.require_non_markovian` raises MarkovianTargetError.
    """
    require_non_markovian(cn)
    nearest = nearest_mcs_full_gksl(cn)
    w = theorem3_witness(cn, nearest.choi_star)
    check = verify_witness(w, cn.dim, cn.eps, n_samples, seed)
    on_target = expectation(w, cn)
    return ProbeReport(
        probe_name="separation",
        n_trials=n_samples,
        failures=check.violations + int(on_target >= 0.0),
        worst_value=check.min_expectation,
        details=check.values,
        summary={
            "expectation_on_target": float(on_target),
            "residual": float(nearest.residual),
            "solver_converged": bool(nearest.kkt_ok),
            "solver_iterations": int(nearest.iterations),
        },
    )


def extreme_point_probe(dim: int, eps: float, n_unitaries: int,
                        seed: int) -> ProbeReport:
    """Census of pure extreme points from Haar-random unitary channels.

    Every unitary-channel Choi must have purity 1 within 1e-10 and all pairs
    must stay HS-separated by more than 1e-8; each purity deviation and each
    coincident pair counts as a failure. worst_value is the smallest pairwise
    distance. The members are Choi states of unitary channels: they lie in
    the divisible family only because every CPTP Choi state does, and eps is
    not read. A growing census of distinct purity-one members therefore
    shows that the set of all channels is not a polytope, not that the
    divisible set is not one.

    The members are the kets |u> of `choi.haar_kets`; the purity Tr(P^2) of
    P = |u><u| is read from its ket as <u|u>^2, with no projector formed.
    Pure states lie sqrt(2 - 2|<u|v>|^2) apart, falling as the overlap
    grows: the largest overlap of two distinct trials gives the smallest
    distance. The census forms each of the n(n-1)/2 unordered pairs once,
    one block of rows (`_blocks`, a multiple of 16) at a time: a row block
    meets only the columns from its own first row on.
    Only pairs with overlap above 0.999 can be closer than 1e-8 (an overlap
    of at most 1 - 1e-12 is at least 1.4e-6 away), so only those are tested.
    """
    if n_unitaries < 2:
        raise ValueError(
            f"extreme_point_probe: n_unitaries must be >= 2, got {n_unitaries}")
    uvec = haar_kets(dim, n_unitaries, np.random.default_rng(seed))
    conj = uvec.conj()
    purities = np.einsum("ni,ni->n", uvec, conj).real ** 2

    def distance(overlap):
        return np.sqrt(np.clip(2.0 - 2.0 * overlap, 0.0, None))

    largest, coincident = 0.0, 0
    bras = conj.T
    # BLAS rounds the trailing columns short of its kernel width its own way;
    # block starts a multiple of 16 keep each block's n - a columns at n's
    # residue, so each overlap rounds as in one n x n product's upper triangle.
    blocks = _blocks(n_unitaries, 16 * n_unitaries, multiple=16)
    below_diagonal = np.tri(blocks[0][1], dtype=bool)
    for a, b in blocks:
        # Pairs (i, j) with j > i only: columns from the block's first row on,
        # with the diagonal and below of the block's own square zeroed.
        overlaps = np.abs(uvec[a:b] @ bras[:, a:])
        np.square(overlaps, out=overlaps)
        overlaps[:, :b - a][below_diagonal[:b - a, :b - a]] = 0.0
        largest = max(largest, overlaps.max())
        coincident += np.count_nonzero(distance(overlaps[overlaps > 0.999]) < 1e-8)
    min_distance = float(distance(largest))
    purity_failures = int(np.count_nonzero(np.abs(purities - 1.0) > 1e-10))
    return ProbeReport(
        probe_name="extreme",
        n_trials=n_unitaries,
        failures=purity_failures + int(coincident),
        worst_value=min_distance,
        details=purities,
        summary={"min_pairwise_distance": min_distance},
    )
