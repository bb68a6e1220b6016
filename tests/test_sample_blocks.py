"""The Monte-Carlo probes and checks walk their samples in blocks.

Every block is sized by the one budget `channels._BLOCK_BYTES`. Setting it to
one sample's (d^2, d^2) stack, to seven samples' (uneven against the sizes
here) or to more than the whole batch must not change a bit of any result,
and the blocked probes must keep their lower memory peaks.
"""

import tracemalloc

import numpy as np
import pytest

from nmwitness import channels, geometry
from nmwitness.channels import builtin_pauli
from nmwitness.choi import choi_of_generator
from nmwitness.witness import (
    WitnessOperator,
    _draw_generators,
    _sample_blocks,
    verify_witness,
)

EPS = 1e-3
WHOLE_BATCH = 1 << 62


def _census_rows(n):
    """Rows of the extreme-point census's first (largest) block."""
    return channels._blocks(n, 16 * n, multiple=16)[0][1]


def _hermitian(dim, rng):
    g = rng.standard_normal((dim * dim,) * 2) + 1j * rng.standard_normal((dim * dim,) * 2)
    return 0.5 * (g + g.conj().T)


def _assert_same(got, want):
    assert type(got) is type(want)
    for field, value in vars(want).items():
        if isinstance(value, np.ndarray):
            assert np.array_equal(getattr(got, field), value), field
        else:
            assert getattr(got, field) == value, field


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("samples", [1, 7])
def test_range_views_match_the_whole_batch(monkeypatch, dim, samples):
    n, seed, eps = 50, 60 + dim, 0.7
    rng = np.random.default_rng(seed)
    gens = _draw_generators(dim, n, rng, signed=True, hamiltonian=True)
    w = _hermitian(dim, np.random.default_rng(dim))
    states, dissipators = gens.states(eps), gens.dissipators()
    values, slack = gens.expectations(w, eps)
    monkeypatch.setattr(channels, "_BLOCK_BYTES", samples * 16 * dim ** 4)
    blocks = _sample_blocks(n, dim)
    assert [b - a for a, b in blocks] == [samples] * (n // samples) + [1] * (samples == 7)
    for a, b in blocks:
        view = gens.view(a, b)
        assert view.kets.base is not None and view.rates.base is not None
        assert np.array_equal(view.states(eps), states[a:b])
        assert np.array_equal(view.dissipators(), dissipators[a:b])
        block_values, block_slack = view.expectations(w, eps)
        assert np.array_equal(block_values, values[a:b])
        assert np.array_equal(block_slack, slack[a:b])
    # Views draw nothing: the stream after the draws is where the draws left it.
    ref_rng = np.random.default_rng(seed)
    _draw_generators(dim, n, ref_rng, signed=True, hamiltonian=True)
    assert rng.random() == ref_rng.random()


def _checks(dim, n, seed):
    """Each blocked probe and check at (dim, n, seed), as zero-argument calls."""
    w = WitnessOperator(_hermitian(dim, np.random.default_rng(seed)), "theorem3", "random")
    checks = {
        "convexity": lambda: geometry.convexity_probe(dim, EPS, n, seed),
        "hsnorm": lambda: geometry.hs_norm_probe(dim, EPS, n, seed),
        "extreme": lambda: geometry.extreme_point_probe(dim, EPS, n, seed),
        "verify": lambda: verify_witness(w, dim, EPS, n, seed),
        "verify-large-eps": lambda: verify_witness(w, dim, 1e20, n, seed),
    }
    if dim == 2:
        target = choi_of_generator(builtin_pauli(1.0, 1.0, -0.3), 0.0, EPS)
        checks["separation"] = lambda: geometry.separation_demo(target, n, seed)
    return checks


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("samples", [1, 7])
def test_blocked_results_do_not_depend_on_the_block_size(monkeypatch, dim, samples):
    # n = 40 is 40 one-sample blocks, or five blocks of seven and one of five;
    # the census takes two or three row blocks.
    n, seed = 40, 80 + dim
    monkeypatch.setattr(channels, "_BLOCK_BYTES", WHOLE_BATCH)
    assert _census_rows(n) >= n
    whole = {name: run() for name, run in _checks(dim, n, seed).items()}
    monkeypatch.setattr(channels, "_BLOCK_BYTES", samples * 16 * dim ** 4)
    assert len(_sample_blocks(n, dim)) > 1 and _census_rows(n) < n
    for name, run in _checks(dim, n, seed).items():
        _assert_same(run(), whole[name])


def test_default_budget_blocks():
    # About 1 MiB per (block, d^2, d^2) complex stack, at least one sample.
    assert _sample_blocks(10_000, 2) == [(0, 4096), (4096, 8192), (8192, 10_000)]
    assert _sample_blocks(3, 3)[-1] == (0, 3)
    assert _sample_blocks(2, 16) == [(0, 1), (1, 2)]
    assert [_census_rows(n) for n in (600, 1100, 2000, 10**6)] == [96, 48, 32, 16]


def _ranges(n, step):
    return [(a, min(a + step, n)) for a in range(0, n, step)]


def _assert_covers(blocks, n):
    assert [i for a, b in blocks for i in range(a, b)] == list(range(n))
    assert all(a < b for a, b in blocks)


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_one_block_rule_keeps_the_haar_and_sample_steps(dim):
    # The steps the Haar draws and the samples took from budgets of their own,
    # 2**20 bytes each, with n on both sides of a block boundary.
    haar, sample = max(1, 2**20 // (16 * dim * dim)), max(1, 2**20 // (16 * dim ** 4))
    for step, item_bytes in ((haar, 16 * dim * dim), (sample, 16 * dim ** 4)):
        for n in (1, step - 1, step, step + 1, 3 * step - 1, 3 * step, 3 * step + 1):
            blocks = channels._blocks(n, item_bytes)
            _assert_covers(blocks, n)
            assert blocks == _ranges(n, step)
    assert _sample_blocks(3 * sample + 1, dim) == _ranges(3 * sample + 1, sample)


@pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 600, 1100, 2000, 2047, 2048, 2049, 4095,
                               4096, 4097, 65_536, 65_537, 10**6])
def test_one_block_rule_keeps_the_census_step(n):
    # The census's own rule: all n rows, or a multiple of 16 whose (rows, n)
    # complex block fits 2**20 bytes, at least 16. 2048 and 4096 are where it
    # steps from 32 to 16 rows.
    blocks = channels._blocks(n, 16 * n, multiple=16)
    _assert_covers(blocks, n)
    assert blocks == _ranges(n, min(n, 16 * max(1, 2**20 // (256 * n))))


def _traced_peak_mb(run) -> float:
    """Peak of the memory tracemalloc sees during run(), above what was traced
    before it, in MiB."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return (tracemalloc.get_traced_memory()[1] - before) / 2 ** 20
    finally:
        if started:
            tracemalloc.stop()


_IDENTITY = WitnessOperator(np.eye(4, dtype=complex), "theorem3", "identity")


# Limits are about 1.3 times the blocked peaks (numpy 2.4, x86-64), so that a
# return to the whole-batch peak fails: MiB traced, whole batch -> blocked.
@pytest.mark.parametrize("run, limit_mb", [
    pytest.param(lambda: geometry.convexity_probe(3, EPS, 3000, 1), 13.5,
                 id="convexity-d3-n3000 (27.4 -> 10.4)"),
    pytest.param(lambda: geometry.convexity_probe(2, EPS, 10_000, 1), 12.5,
                 id="convexity-d2-n10000 (19.1 -> 9.6)"),
    pytest.param(lambda: geometry.extreme_point_probe(4, EPS, 2000, 1), 5.0,
                 id="extreme-d4-n2000 (27.2 -> 3.8)"),
    pytest.param(lambda: geometry.hs_norm_probe(4, EPS, 1000, 1), 9.0,
                 id="hsnorm-d4-n1000 (14.6 -> 6.9)"),
    pytest.param(lambda: verify_witness(_IDENTITY, 2, EPS, 20_000, 1), 11.0,
                 id="verify-d2-n20000 (11.7 -> 8.5)"),
])
def test_blocked_probes_keep_their_memory_peak(run, limit_mb):
    assert _traced_peak_mb(run) < limit_mb
