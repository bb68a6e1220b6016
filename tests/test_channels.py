import warnings

import numpy as np
import pytest

from nmwitness.channels import (
    LindbladGenerator,
    SuperOperator,
    builtin_dephasing,
    builtin_pauli,
    exact_channel,
    first_order_channel,
    gksl_superoperator,
    haar_unitaries,
)
from nmwitness.choi import ChoiMatrix, choi_of_channel, choi_of_generator, max_entangled_state, scan
from nmwitness.geometry import convexity_probe, hs_norm_probe
from nmwitness.linalg import SIGMA_X, SIGMA_Z, ShapeError, dagger, hs_norm
from nmwitness.rates import ConstantRate, RateEvalError, TableRate
from nmwitness.witness import (MarkovianFamily, WitnessOperator, fixed_basis_family,
                               nearest_mcs_full_gksl, pauli_family, sample_markovian_chois,
                               uniqueness_check, verify_witness)
from oracles import apply_superop, qr_haar_unitaries, random_markovian


def vec_identity(dim):
    # column stacking of the identity
    return np.eye(dim, dtype=complex).reshape(-1)


def random_generator(seed, n_ops=2, dim=2, hamiltonian=False, signs=False):
    rng = np.random.default_rng(seed)
    ops = tuple(haar_unitaries(dim, n_ops, rng))
    rates = rng.uniform(0.0, 1.0, n_ops)
    if signs:
        rates *= np.where(rng.random(n_ops) < 0.5, 1.0, -1.0)
    ham = None
    if hamiltonian:
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        ham = 0.5 * (raw + dagger(raw))
        ham -= np.trace(ham).real / dim * np.eye(dim)
    return LindbladGenerator(dim=dim, ops=ops,
                             rates=tuple(ConstantRate(float(g)) for g in rates),
                             hamiltonian=ham)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_generator_validation():
    with pytest.raises(ValueError):
        LindbladGenerator(dim=2, ops=(), rates=())
    with pytest.raises(ValueError):
        LindbladGenerator(dim=2, ops=(SIGMA_Z,) * 5, rates=(1.0,) * 5)
    with pytest.raises(ValueError):
        LindbladGenerator(dim=2, ops=(SIGMA_Z,), rates=(1.0, 2.0))
    with pytest.raises(ValueError):
        LindbladGenerator(dim=2, ops=(SIGMA_Z,), rates=(1.0,),
                          hamiltonian=np.array([[0, 1], [0, 0]], dtype=complex))
    with pytest.raises(ShapeError):
        LindbladGenerator(dim=2, ops=(np.eye(3, dtype=complex),), rates=(1.0,))
    with pytest.raises(ValueError, match=r"^LindbladGenerator: dim must be >= 2, got 1$"):
        LindbladGenerator(dim=1, ops=(np.eye(1),), rates=(1.0,))
    with pytest.raises(ShapeError, match=r"^hamiltonian: expected 2x2, got \(3, 3\)$"):
        LindbladGenerator(dim=2, ops=(SIGMA_Z,), rates=(1.0,), hamiltonian=np.eye(3))


def test_superoperator_and_exact_channel_input_checks():
    with pytest.raises(ShapeError, match=r"^SuperOperator: expected 4x4 matrix for dim=2, "
                                         r"got \(3, 3\)$"):
        SuperOperator(dim=2, matrix=np.eye(3))
    with pytest.raises(ValueError, match=r"^exact_channel: eps must be finite and > 0, got 0\.0$"):
        exact_channel(builtin_dephasing(1.0), 0.0, 0.0)


def test_a_jump_whose_ldag_l_overflows_is_refused():
    # Its Y_a would be NaN before eps scales it; refused by index, with no
    # overflow warning.
    big = np.array([[0.0, 1e308], [1e308, 0.0]], dtype=complex)
    with pytest.raises(ValueError) as info:
        LindbladGenerator(dim=2, ops=(SIGMA_Z, big), rates=(1.0, 1.0))
    assert str(info.value) == "ops[1]: L^dag L overflows the double range"
    # 1e154^2 is still a double, so that jump is kept.
    LindbladGenerator(dim=2, ops=(1e154 * SIGMA_X,), rates=(1.0,))


def _tagged(eps):
    """phi tagged eps. ChoiMatrix refuses a negative or non-finite tag itself
    (tests/test_input_rules.py), so such a tag is set after construction, to
    reach the consumer's own eps rule."""
    state = ChoiMatrix(2, max_entangled_state(2), 0.0, 0.0)
    object.__setattr__(state, "eps", eps)
    return state


# Every first-order entry point -> (the name its refusal carries, a call at eps).
_EPS_ENTRY_POINTS = {
    "first_order_channel": ("first_order_channel",
                            lambda eps: first_order_channel(builtin_dephasing(1.0), 0.0, eps)),
    "exact_channel": ("exact_channel",
                      lambda eps: exact_channel(builtin_dephasing(1.0), 0.0, eps)),
    "choi_of_generator": ("first-order Choi state",
                          lambda eps: choi_of_generator(builtin_dephasing(1.0), 0.0, eps)),
    "scan": ("first-order Choi state", lambda eps: scan(builtin_dephasing(1.0), 0.0, 1.0, 4, eps)),
    "MarkovianFamily": ("MarkovianFamily", lambda eps: MarkovianFamily(2, (SIGMA_Z,), eps)),
    "fixed_basis_family": ("MarkovianFamily", lambda eps: fixed_basis_family([SIGMA_Z], eps)),
    "nearest_mcs_full_gksl": ("nearest_mcs_full_gksl",
                              lambda eps: nearest_mcs_full_gksl(_tagged(eps))),
    "convexity_probe": ("convexity_probe", lambda eps: convexity_probe(2, eps, 10, 1)),
    "hs_norm_probe": ("hs_norm_probe", lambda eps: hs_norm_probe(2, eps, 10, 1)),
    "verify_witness": ("verify_witness", lambda eps: verify_witness(
        WitnessOperator(np.eye(4), "theorem3", "test"), 2, eps, 10, 1)),
    "sample_markovian_chois": ("sample_markovian_chois",
                               lambda eps: sample_markovian_chois(2, eps, 3, 1)),
    "uniqueness_check": ("uniqueness_check", lambda eps: uniqueness_check(
        _tagged(1e-3), _tagged(1e-3), 2, eps, 10, 1, family=pauli_family(1e-3))),
}


@pytest.mark.parametrize("eps", [0.0, -1e-3, np.nan, np.inf])
@pytest.mark.parametrize("entry", sorted(_EPS_ENTRY_POINTS))
def test_every_first_order_entry_point_refuses_a_bad_eps_by_name(entry, eps):
    where, call = _EPS_ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as info:
        call(eps)
    assert str(info.value) == f"{where}: eps must be finite and > 0, got {eps}"


_OVERFLOWING = np.array([[0.0, 1e200], [0.0, 0.0]], dtype=complex)


@pytest.mark.parametrize("build, where, name", [
    (lambda ops: LindbladGenerator(2, ops, (1.0,) * len(ops)), "LindbladGenerator", "ops"),
    (lambda ops: MarkovianFamily(2, ops, 1e-3), "MarkovianFamily", "basis_ops"),
    (lambda ops: fixed_basis_family(ops, 1e-3), "MarkovianFamily", "basis_ops"),
], ids=["LindbladGenerator", "MarkovianFamily", "fixed_basis_family"])
def test_one_jump_list_rule_refuses_an_empty_list_or_an_overflowing_jump(build, where, name):
    # Both refusals by name, with no RuntimeWarning from forming L^dag L; of
    # two overflowing jumps the first is named.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as empty:
            build(())
        with pytest.raises(ValueError) as big:
            build((SIGMA_Z, _OVERFLOWING, _OVERFLOWING))
    assert str(empty.value) == f"{where}: at least one jump operator, got none"
    assert str(big.value) == f"{name}[1]: L^dag L overflows the double range"


def test_a_markovian_family_of_dim_one_is_refused():
    with pytest.raises(ValueError, match=r"^MarkovianFamily: dim must be >= 2, got 1$"):
        fixed_basis_family([np.eye(1)], 1e-3)


# ---------------------------------------------------------------------------
# generator superoperator
# ---------------------------------------------------------------------------

def test_zero_rates_zero_superoperator():
    gen = builtin_dephasing(0.0)
    s = gksl_superoperator(gen, 0.0)
    assert np.abs(s.matrix).max() == 0.0


def test_dephasing_damps_coherence():
    # sz rho sz - rho sends |0><1| to -2|0><1|
    gen = builtin_dephasing(1.0)
    s = gksl_superoperator(gen, 0.0)
    coherence = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert np.abs(apply_superop(s, coherence) + 2.0 * coherence).max() < 1e-14


def test_generator_traceless():
    for seed in range(5):
        gen = random_generator(seed, n_ops=3, hamiltonian=True)
        s = gksl_superoperator(gen, 0.0)
        assert np.abs(vec_identity(2).conj() @ s.matrix).max() < 1e-10


def test_rate_failure_reports_index_and_time():
    gen = LindbladGenerator(
        dim=2,
        ops=(SIGMA_Z, SIGMA_X),
        rates=(ConstantRate(1.0), TableRate(times=(0.0, 1.0), values=(1.0, 1.0))),
    )
    with pytest.raises(RateEvalError, match="rate 1.*t=2.0"):
        gksl_superoperator(gen, 2.0)


# ---------------------------------------------------------------------------
# small-time channels
# ---------------------------------------------------------------------------

def test_first_order_channel_identity_for_zero_generator():
    gen = builtin_dephasing(0.0)
    s = first_order_channel(gen, 0.0, 1e-3)
    assert np.allclose(s.matrix, np.eye(4))
    with pytest.raises(ValueError):
        first_order_channel(gen, 0.0, 0.0)


def test_exact_channel_identity_for_zero_generator():
    gen = builtin_dephasing(0.0)
    s = exact_channel(gen, 0.0, 1e-3)
    assert np.allclose(s.matrix, np.eye(4))


def test_trace_preservation():
    for seed in range(5):
        gen = random_generator(seed, n_ops=2, hamiltonian=True, signs=True)
        for channel in (first_order_channel(gen, 0.0, 1e-3),
                        exact_channel(gen, 0.0, 1e-3)):
            left = vec_identity(2).conj() @ channel.matrix
            assert np.abs(left - vec_identity(2).conj()).max() < 1e-10


def test_hermiticity_preservation():
    rng = np.random.default_rng(42)
    gen = random_generator(7, n_ops=3, hamiltonian=True)
    channel = first_order_channel(gen, 0.0, 1e-3)
    for _ in range(10):
        raw = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = raw + dagger(raw)
        out = apply_superop(channel, rho)
        assert np.abs(out - dagger(out)).max() < 1e-10


def test_exact_vs_first_order_remainder():
    for seed in range(5):
        gen = random_generator(seed, n_ops=2)
        eps = 1e-3
        l2 = hs_norm(gksl_superoperator(gen, 0.0).matrix)
        diff = hs_norm(exact_channel(gen, 0.0, eps).matrix
                       - first_order_channel(gen, 0.0, eps).matrix)
        assert diff < 10.0 * eps * eps * l2 * l2


def test_exact_channel_of_divisible_generator_is_cp():
    # the exponentiated step of a nonnegative-rate generator is completely
    # positive, so its Choi state is PSD to machine precision at any eps
    for seed in range(5):
        gen = random_generator(seed, n_ops=3, hamiltonian=True)
        c = choi_of_channel(exact_channel(gen, 0.0, 0.05))
        assert np.linalg.eigvalsh(c.matrix)[0] >= -1e-12


def test_dephasing_exact_coherence_factor():
    gamma, eps = 1.3, 1e-3
    x = gamma * eps
    exact = exact_channel(builtin_dephasing(gamma), 0.0, eps)
    first = first_order_channel(builtin_dephasing(gamma), 0.0, eps)
    # coherence |0><1| has vec index 2 under column stacking
    f_exact = exact.matrix[2, 2].real
    f_first = first.matrix[2, 2].real
    assert f_exact == pytest.approx(np.exp(-2.0 * x), abs=1e-12)
    assert f_first == pytest.approx(1.0 - 2.0 * x, abs=1e-15)
    assert abs(f_exact - f_first) < 2.0 * x * x * 1.1


# ---------------------------------------------------------------------------
# builtins
# ---------------------------------------------------------------------------

def test_builtin_dephasing_golden():
    c = choi_of_generator(builtin_dephasing(1.0), 0.0, 1e-3)
    w = np.linalg.eigvalsh(c.matrix)
    assert np.abs(w - np.array([0.0, 0.0, 1e-3, 0.999])).max() < 1e-12


def test_builtin_dephasing_negative_rate_not_cp():
    c = choi_of_generator(builtin_dephasing(-1.0), 0.0, 1e-3)
    assert np.linalg.eigvalsh(c.matrix)[0] == pytest.approx(-1e-3, abs=1e-12)


def test_builtin_pauli_zero_rates_identity():
    s = first_order_channel(builtin_pauli(0.0, 0.0, 0.0), 0.0, 1e-3)
    assert np.allclose(s.matrix, np.eye(4))


def test_builtin_pauli_symmetric_rates_degenerate():
    gamma, eps = 0.7, 1e-3
    c = choi_of_generator(builtin_pauli(gamma, gamma, gamma), 0.0, eps)
    w = np.linalg.eigvalsh(c.matrix)
    expected = np.sort([1.0 - 3.0 * gamma * eps] + [gamma * eps] * 3)
    assert np.abs(w - expected).max() < 1e-12


def test_time_dependent_rate():
    gen = builtin_dephasing("cos(t)")
    s0 = gksl_superoperator(gen, 0.0)
    s_pi = gksl_superoperator(gen, np.pi)
    assert np.abs(s0.matrix + s_pi.matrix).max() < 1e-12


# ---------------------------------------------------------------------------
# random families
# ---------------------------------------------------------------------------

def test_random_markovian_deterministic():
    a = random_markovian(2, 3, seed=11)
    b = random_markovian(2, 3, seed=11)
    for opa, opb in zip(a.ops, b.ops):
        assert np.array_equal(opa, opb)
    assert [r.value for r in a.rates] == [r.value for r in b.rates]


def test_random_markovian_rates_nonnegative():
    gen = random_markovian(2, 4, seed=12, rate_scale=2.0)
    assert all(r.value >= 0.0 for r in gen.rates)
    assert all(r.value <= 2.0 for r in gen.rates)


def test_random_markovian_first_order_choi_psd():
    for seed in range(20):
        gen = random_markovian(2, 1 + seed % 4, seed=seed)
        c = choi_of_generator(gen, 0.0, 1e-4)
        assert np.linalg.eigvalsh(c.matrix)[0] >= -1e-12


def test_random_markovian_bounds():
    with pytest.raises(ValueError):
        random_markovian(2, 0, seed=1)
    with pytest.raises(ValueError):
        random_markovian(2, 5, seed=1)


def test_haar_unitaries_are_unitary():
    rng = np.random.default_rng(15)
    us = haar_unitaries(3, 50, rng)
    for u in us:
        assert np.abs(dagger(u) @ u - np.eye(3)).max() < 1e-12


@pytest.mark.parametrize("dim, n", [(2, 1), (3, 50), (4, 7)])
def test_haar_unitaries_are_a_fresh_c_contiguous_array(dim, n):
    # Not a strided view: the (n, dim, dim) result owns its memory.
    us = haar_unitaries(dim, n, np.random.default_rng((dim, n)))
    assert us.shape == (n, dim, dim) and us.dtype == np.complex128
    assert us.flags.c_contiguous and us.flags.owndata and us.flags.writeable


class _GinibreParts:
    """Stands in for a Generator: hands out the given real parts, then the
    given imaginary parts, as the two standard-normal draws of a batch."""

    def __init__(self, re, im):
        self.parts = [re, im]

    def standard_normal(self, shape):
        part = self.parts.pop(0)
        assert part.shape == shape
        return part.copy()


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
@pytest.mark.parametrize("per_batch", [1, 7, 25])
def test_haar_unitaries_are_the_same_bits_in_any_batch(dim, per_batch):
    # Each unitary gets the arithmetic of its own Ginibre draw only: drawn in
    # batches of per_batch, down to a last batch of one, the unitaries are
    # bit for bit those of one batch of all the draws.
    n = 50
    rng = np.random.default_rng((dim, per_batch))
    re, im = rng.standard_normal((n, dim, dim)), rng.standard_normal((n, dim, dim))
    whole = _GinibreParts(re, im)
    want = haar_unitaries(dim, n, whole)
    assert not whole.parts
    pieces = []
    for a in range(0, n, per_batch):
        b = min(a + per_batch, n)
        part = _GinibreParts(re[a:b], im[a:b])
        pieces.append(haar_unitaries(dim, b - a, part))
        assert not part.parts
    assert np.concatenate(pieces).tobytes() == want.tobytes()


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_haar_unitaries_match_qr_oracle(dim):
    n, seed = 4000, 60 + dim
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    us = haar_unitaries(dim, n, rng)
    ref = qr_haar_unitaries(dim, n, ref_rng)
    # Same Ginibre draws, taken from the stream in the same order.
    assert rng.random() == ref_rng.random()
    assert np.abs(us - ref).max() <= 1e-12
    adjoints = us.conj().transpose(0, 2, 1)
    assert np.abs(adjoints @ us - np.eye(dim)).max() <= 1e-14
    # R = Q^H Z is upper triangular with a positive real diagonal: the Haar
    # phase convention.
    z_rng = np.random.default_rng(seed)
    z = (z_rng.standard_normal((n, dim, dim))
         + 1.0j * z_rng.standard_normal((n, dim, dim))) / np.sqrt(2.0)
    r = adjoints @ z
    scale = np.abs(z).max(axis=(1, 2))[:, None, None]
    assert np.all(np.abs(np.tril(r, -1)) <= 1e-13 * scale)
    diag = np.einsum("nii->ni", r)
    assert np.all(diag.real > 0.0)
    assert np.all(np.abs(diag.imag) <= 1e-13 * scale[:, 0])


# ---------------------------------------------------------------------------
# convex mixtures (divisible set closure at first order)
# ---------------------------------------------------------------------------

def mixed_rate_generator(gen1, gen2, p):
    rates = tuple(ConstantRate(p * r.value) for r in gen1.rates) + \
        tuple(ConstantRate((1.0 - p) * r.value) for r in gen2.rates)
    return LindbladGenerator(dim=gen1.dim, ops=gen1.ops + gen2.ops, rates=rates)


@pytest.mark.parametrize("p", [0.0, 0.25, 0.5, 0.75, 1.0])
def test_convex_mixture_closure(p):
    for seed in range(5):
        g1 = random_generator(2 * seed, n_ops=2)
        g2 = random_generator(2 * seed + 1, n_ops=2)
        eps = 1e-4
        s1 = first_order_channel(g1, 0.0, eps).matrix
        s2 = first_order_channel(g2, 0.0, eps).matrix
        mixed = mixed_rate_generator(g1, g2, p)
        s_mixed = first_order_channel(mixed, 0.0, eps).matrix
        # mixing rates and mixing channels agree at first order
        assert np.abs(s_mixed - (p * s1 + (1.0 - p) * s2)).max() < 1e-12
        c = choi_of_generator(mixed, 0.0, eps)
        assert np.linalg.eigvalsh(c.matrix)[0] >= -1e-12
