"""The Monte-Carlo draws land as Choi kets without a copy.

`witness._draw_generators` draws its Ginibre kets as one array of normals,
viewed as complex and scaled in place; it forms its Hamiltonians in place; the
contraction takes its row maxima column by column, and the Gram product
places each jump by integer row index. Each must give the bits of the
out-of-place code (`oracles.reference_draw_generators`), and leave the random
stream where that code leaves it. Where `signed` is set, the drawn rates are
signed afterwards from the same stream (`oracles.sign_rates`).
"""

import numpy as np
import pytest

from nmwitness import channels
from nmwitness.choi import choi_kets, complete_trace_preserving
from nmwitness.witness import _draw_generators

from oracles import reference_draw_generators, sign_rates
from test_sample_blocks import _traced_peak_mb

EPS = 1e-3
DIMS = [2, 3, 4]
SIZES = [1, 7, 50]


def _hermitian(dim, rng):
    g = rng.standard_normal((dim * dim,) * 2) + 1j * rng.standard_normal((dim * dim,) * 2)
    return 0.5 * (g + g.conj().T)


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("signed, hamiltonian", [(False, False), (True, False), (False, True)])
def test_draws_match_the_out_of_place_draws(dim, n, signed, hamiltonian):
    seed = (dim, n, signed, hamiltonian)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    gens = _draw_generators(dim, n, rng, hamiltonian=hamiltonian)
    if signed:
        gens = sign_rates(gens, rng)
    ref = reference_draw_generators(dim, n, ref_rng, signed=signed, hamiltonian=hamiltonian)
    assert gens.kets.flags.c_contiguous
    got = {"counts": gens.counts, "kets": gens.kets, "rates": gens.rates}
    if hamiltonian:
        got.update(mask=gens.mask, ham=gens.ham)
    assert got.keys() == ref.keys()
    for name, want in ref.items():
        assert got[name].shape == want.shape, name
        assert np.ascontiguousarray(got[name]).tobytes() == want.tobytes(), name
    # The next draw comes from the same place in the stream.
    assert rng.random() == ref_rng.random()


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("n", SIZES)
def test_expectation_slack_matches_row_reductions(dim, n):
    # The rounding slack, with numpy's own .max(axis=1) per row and the
    # block norms summed by .sum(axis=2) of the (jumps, d, d) blocks.
    gens = _draw_generators(dim, n, np.random.default_rng((dim, n)), hamiltonian=True)
    w = _hermitian(dim, np.random.default_rng(n))
    for eps in (EPS, 1e20):
        values, slack = gens.expectations(w, eps)
        squares = gens.kets.real ** 2 + gens.kets.imag ** 2
        blocks = squares.reshape(-1, dim, dim).sum(axis=2)
        bound = np.add.reduceat(np.abs(gens.rates) * (
            squares.max(axis=1) + blocks.max(axis=1)), gens.edges[:-1])
        bound += gens.mask * (2.0 * np.abs(choi_kets(gens.ham)).max(axis=1) / np.sqrt(dim))
        want = ((dim ** 4 + 2 * dim + 4) * np.finfo(float).eps * np.abs(w).sum()
                * (1.0 / dim + eps * bound))
        assert slack.tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", DIMS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("signed", [False, True])
def test_dissipators_match_the_mask_placement(dim, n, signed):
    rng = np.random.default_rng((dim, n, signed))
    gens = _draw_generators(dim, n, rng)
    if signed:
        gens = sign_rates(gens, rng)
    d2 = dim * dim
    slots = np.arange(d2) < gens.counts[:, None]
    scaled = np.zeros((n, d2, d2), dtype=complex)
    bras = np.zeros((n, d2, d2), dtype=complex)
    scaled[slots] = gens.rates[:, None] * gens.kets
    bras[slots] = gens.kets.conj()
    want = np.matmul(scaled.transpose(0, 2, 1), bras)
    complete_trace_preserving(want)
    assert gens.dissipators().tobytes() == want.tobytes()


# A draw of N jumps holds one full array of N*d^2 complex numbers: the
# normals, drawn as 2*N*d^2 floats and scaled into kets in place, with no
# second array of any size beside them. The counts and rates add an eighth of
# an array at d = 2 and less above, well under three blocks' bytes. Half an
# array more (normals drawn apart and then written into the kets) or a copy
# of the draw is above the limit at these sizes (about 12 MiB an array). The
# Hamiltonians are left out: their arrays are per sample.
@pytest.mark.parametrize("dim, n", [(2, 80_000), (3, 16_000), (4, 6_000)])
def test_draw_keeps_its_memory_peak(dim, n):
    jumps = int(np.random.default_rng(1).integers(1, dim * dim + 1, size=n).sum())
    array_mb = jumps * dim * dim * np.dtype(complex).itemsize / 2 ** 20
    limit_mb = array_mb + 3 * channels._BLOCK_BYTES / 2 ** 20
    assert limit_mb < 1.5 * array_mb
    assert _traced_peak_mb(lambda: _draw_generators(dim, n, np.random.default_rng(1))) < limit_mb
