import numpy as np
import pytest

from nmwitness.channels import (LindbladGenerator, builtin_dephasing, builtin_pauli,
                                gksl_superoperator, haar_unitaries)
from nmwitness import channels, choi, geometry
from nmwitness.choi import choi_kets, choi_of_generator
from nmwitness.linalg import hs_norm
from nmwitness.geometry import (
    convexity_probe,
    extreme_point_probe,
    hs_norm_probe,
    separation_demo,
)

from oracles import (gram_generators, ket_matrices, pairwise_distance_census,
                     reference_draw_generators)

EPS = 1e-3


def test_convexity_probe_no_failures():
    report = convexity_probe(2, 1e-4, 1000, seed=1)
    assert report.probe_name == "convexity"
    assert report.n_trials == 1000
    assert report.failures == 0
    assert report.worst_value >= -1e-12
    assert len(report.details) == 1000


def test_convexity_probe_reproducible():
    a = convexity_probe(2, 1e-4, 200, seed=2)
    b = convexity_probe(2, 1e-4, 200, seed=2)
    assert a == b


@pytest.mark.parametrize("dim, n", [(2, 400), (3, 150)])
def test_convexity_probe_mixes_in_place_as_out_of_place(dim, n):
    x = gram_generators(dim, 2 * n, np.random.default_rng(5))
    p = np.random.default_rng((5, 1)).uniform(size=n)
    mixed = p[:, None, None] * x[:n] + (1.0 - p)[:, None, None] * x[n:]
    assert np.array_equal(convexity_probe(dim, EPS, n, seed=5).details,
                          EPS * np.linalg.eigvalsh(choi.perp_block(mixed))[:, 0])


def _negate_first_rates(monkeypatch):
    """Plant non-members: every sampled generator's first rate negated."""
    draw = geometry._draw_generators

    def planted(*args, **kwargs):
        gens = draw(*args, **kwargs)
        gens.rates[gens.edges[:-1]] *= -1.0
        return gens

    monkeypatch.setattr(geometry, "_draw_generators", planted)


@pytest.mark.parametrize("dim, n", [(2, 2000), (3, 600)])
def test_convexity_probe_fails_planted_non_members_at_every_eps(monkeypatch, dim, n):
    # A negative rate leaves the divisible cone; the judgement is in
    # generator units, so it does not fade as eps shrinks.
    _negate_first_rates(monkeypatch)
    for eps in (1e-3, 1e-9, 1e-13):
        report = convexity_probe(dim, eps, n, seed=1)
        assert report.failures >= 0.9 * n, eps
        assert report.worst_value < 0.0


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("eps", [5e-324, 1e-3, 0.3, 1e300])
def test_convexity_probe_members_never_fail(dim, eps):
    report = convexity_probe(dim, eps, 2000 if dim == 2 else 600, seed=1)
    assert report.failures == 0
    # details is eps * lambda_min: rounding-sized next to eps.
    assert report.worst_value >= -1e-14 * eps


def test_convexity_probe_validation():
    with pytest.raises(ValueError):
        convexity_probe(2, 0.0, 10, seed=1)
    with pytest.raises(ValueError):
        convexity_probe(2, 1e-4, 0, seed=1)


@pytest.mark.parametrize("eps, n_trials, message", [
    (0.0, 10, r"^hs_norm_probe: eps must be finite and > 0, got 0\.0$"),
    (1e-3, 0, r"^hs_norm_probe: n_trials must be >= 1, got 0$"),
])
def test_hs_norm_probe_validation(eps, n_trials, message):
    with pytest.raises(ValueError, match=message):
        hs_norm_probe(2, eps, n_trials, seed=1)


def test_a_probe_report_equals_no_other_type():
    report = convexity_probe(2, 1e-4, 3, seed=1)
    assert report.__eq__(1) is NotImplemented
    assert report != 1
    assert report == convexity_probe(2, 1e-4, 3, seed=1)


def test_hs_norm_probe_no_failures():
    for eps in (1e-3, 1e-4):
        report = hs_norm_probe(2, eps, 1000, seed=3)
        assert report.failures == 0
        # deviations shrink with eps and stay far below the bound
        assert report.worst_value < 100 * eps


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("eps", [1e-15, 1e-18])
def test_hs_norm_probe_does_not_count_rounding_as_failure(dim, eps):
    # At these eps the bound eps ||C_L|| is below the rounding of ||C||
    # itself (1 - 2.2e-16 at d = 2), which the probe's slack absorbs.
    report = hs_norm_probe(dim, eps, 2000 if dim == 2 else 500, seed=1)
    assert report.failures == 0
    assert report.worst_value < 1e-13


def test_hs_norm_probe_scaling():
    coarse = hs_norm_probe(2, 1e-3, 500, seed=4)
    fine = hs_norm_probe(2, 1e-4, 500, seed=4)
    # same seed, same generators: the worst deviation scales about linearly
    ratio = coarse.worst_value / fine.worst_value
    assert 8.0 < ratio < 12.0


def test_hs_norm_probe_bound_is_superoperator_norm():
    # Rebuild the probe's generators from its seed, in its draw order: jump
    # counts, Ginibre jumps (each rebuilt from its Choi ket), rates.
    d, n, seed = 3, 60, 21
    report = hs_norm_probe(d, EPS, n, seed)
    draws = reference_draw_generators(d, n, np.random.default_rng(seed))
    ops, rates = ket_matrices(draws["kets"]), draws["rates"]
    starts = np.concatenate(([0], np.cumsum(draws["counts"])))
    bounds, deviations = [], []
    for a, b in zip(starts[:-1], starts[1:]):
        gen = LindbladGenerator(dim=d, ops=tuple(ops[a:b]), rates=tuple(rates[a:b]))
        # ||C_L|| = ||S|| / d: the Choi rearrangement permutes S's entries
        # and divides them by d.
        bounds.append(EPS * hs_norm(gksl_superoperator(gen, 0.0).matrix) / d)
        deviations.append(abs(hs_norm(choi_of_generator(gen, 0.0, EPS).matrix) - 1.0))
    bounds, deviations = np.array(bounds), np.array(deviations)
    assert np.abs(report.details - deviations).max() <= 1e-12
    assert report.summary["max_bound"] == pytest.approx(bounds.max(), rel=1e-12)
    assert report.summary["min_bound"] == pytest.approx(bounds.min(), rel=1e-12)
    assert report.failures == int(np.count_nonzero(deviations > bounds))


@pytest.mark.parametrize("dim, n", [(2, 2000), (3, 600), (4, 200)])
def test_hs_norm_probe_fails_states_off_the_first_order_line(monkeypatch, dim, n):
    # phi + 1.5 eps C_L can lie farther from norm 1 than eps ||C_L||, which
    # every phi + eps C_L meets.
    assert hs_norm_probe(dim, EPS, n, seed=1).failures == 0
    monkeypatch.setattr(geometry, "first_order_state",
                        lambda x, eps: choi.first_order_state(x, 1.5 * eps))
    assert hs_norm_probe(dim, EPS, n, seed=1).failures > 0


def test_separation_demo_pauli_instance():
    cn = choi_of_generator(builtin_pauli(1.0, 1.0, -0.3), 0.0, EPS)
    report = separation_demo(cn, 2000, seed=5)
    assert report.failures == 0
    assert report.worst_value >= -1e-8
    assert report.summary["expectation_on_target"] == pytest.approx(
        -0.12 * EPS * EPS, rel=1e-6)
    assert report.summary["solver_converged"]


def test_separation_demo_dephasing_instance():
    cn = choi_of_generator(builtin_dephasing(-1.0), 0.0, EPS)
    report = separation_demo(cn, 2000, seed=6)
    assert report.failures == 0
    assert report.summary["expectation_on_target"] < 0.0


def test_separation_demo_rejects_markovian():
    cm = choi_of_generator(builtin_pauli(0.5, 0.5, 0.5), 0.0, EPS)
    with pytest.raises(ValueError, match="Markovian"):
        separation_demo(cm, 100, seed=7)


def test_extreme_point_probe():
    report = extreme_point_probe(2, EPS, 300, seed=8)
    assert report.failures == 0
    assert report.worst_value > 1e-8
    purities = report.details
    assert np.abs(purities - 1.0).max() <= 1e-10
    with pytest.raises(ValueError):
        extreme_point_probe(2, EPS, 1, seed=8)


def _census_reference(us):
    # The purity Tr(P^2) of P = |u><u| read from the ket as ||u||^4, which
    # holds to the projectors' own Tr(P^2) within d^2 u.
    uvec = choi_kets(us)
    purities = np.einsum("ni,ni->n", uvec, uvec.conj()).real ** 2
    projectors = np.einsum("ni,nj->nij", uvec, uvec.conj())
    traces = np.einsum("nij,nji->n", projectors, projectors).real
    assert np.abs(purities - traces).max() <= uvec.shape[1] * np.finfo(float).eps
    min_distance, coincidences = pairwise_distance_census(uvec)
    failures = int(np.count_nonzero(np.abs(purities - 1.0) > 1e-10)) + coincidences
    return purities, min_distance, coincidences, failures


@pytest.mark.parametrize("dim,n,seed", [(2, 2, 1), (2, 400, 8), (3, 250, 9), (4, 120, 10)])
def test_extreme_point_probe_matches_full_distance_matrix(dim, n, seed):
    report = extreme_point_probe(dim, EPS, n, seed)
    purities, min_distance, _, failures = _census_reference(
        haar_unitaries(dim, n, np.random.default_rng(seed)))
    assert report.worst_value == min_distance
    assert report.summary == {"min_pairwise_distance": min_distance}
    assert report.failures == failures
    assert np.array_equal(report.details, purities)


def test_extreme_point_probe_counts_coincident_pairs(monkeypatch):
    # At d = 4 the Choi kets of these unitaries have entries in {0, +-0.5,
    # +-0.5i}, so a repeated one has overlap exactly 1 and distance 0.
    def with_repeats(dim, n, rng):
        us = haar_unitaries(dim, n, rng)
        us[[1, 3]] = np.eye(dim)
        us[[5, 8, 9]] = np.diag([1j, 1.0, -1.0, -1j])
        return us

    monkeypatch.setattr(geometry, "haar_unitaries", with_repeats)
    report = extreme_point_probe(4, EPS, 40, seed=11)
    purities, min_distance, coincidences, failures = _census_reference(
        with_repeats(4, 40, np.random.default_rng(11)))
    assert coincidences == 4
    assert report.failures == failures == 4
    assert report.worst_value == min_distance == 0.0
    assert np.array_equal(report.details, purities)


@pytest.mark.parametrize("planted", [False, True])
@pytest.mark.parametrize("dim,seed", [(2, 21), (3, 22), (4, 23)])
def test_extreme_point_probe_matches_full_distance_matrix_across_row_blocks(
        monkeypatch, dim, seed, planted):
    # n = 1100 spans at least three census blocks of r rows each. Planted
    # repeats straddle the block boundaries: the identity at 1, 600 and 1099,
    # and a signed cyclic permutation at r - 1, r, r + 8 and 2r (r and r + 8
    # share a block); the two groups are orthogonal, and hold 3 + 6
    # coincident pairs. Both are scaled by 1 + 1e-14, so that no rounding of
    # 1/sqrt(d) takes a repeat's overlap below 1: its distance is exactly 0,
    # and its purity stays within 1e-10 of 1.
    n = 1100
    r = channels._blocks(n, 16 * n, multiple=16)[0][1]  # rows of a census block
    assert n > 2 * r and r > 8
    scale = 1.0 + 1e-14
    perm = np.roll(np.eye(dim), 1, axis=0)
    perm[0] *= -1.0

    def draw(d, count, rng):
        us = haar_unitaries(d, count, rng)
        if planted:
            us[[1, 600, 1099]] = scale * np.eye(d)
            us[[r - 1, r, r + 8, 2 * r]] = scale * perm
        return us

    monkeypatch.setattr(geometry, "haar_unitaries", draw)
    report = extreme_point_probe(dim, EPS, n, seed)
    purities, min_distance, coincidences, failures = _census_reference(
        draw(dim, n, np.random.default_rng(seed)))
    assert coincidences == (9 if planted else 0)
    assert report.worst_value == min_distance
    assert (min_distance == 0.0) == planted
    assert report.failures == failures
    assert np.array_equal(report.details, purities)


def test_depolarizing_choi_is_mixed():
    # a strictly dissipative channel is excluded from the pure census
    gamma = 0.5
    c = choi_of_generator(builtin_pauli(gamma, gamma, gamma), 0.0, EPS)
    purity = np.trace(c.matrix @ c.matrix).real
    expected = (1.0 - 3.0 * gamma * EPS) ** 2 + 3.0 * (gamma * EPS) ** 2
    assert purity == pytest.approx(expected, abs=1e-12)
    assert purity < 1.0
