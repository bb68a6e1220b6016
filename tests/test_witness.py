import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from nmwitness.channels import SuperOperator, builtin_dephasing, builtin_pauli, haar_unitaries
from nmwitness.choi import (ChoiMatrix, choi_kets, choi_of_channel, choi_of_generator, classify,
                            default_classification_tol, dissipator_chois, first_order_state,
                            max_entangled_state, perp_block, scan)
from nmwitness.linalg import (DEGENERACY_GAP, PAULIS, SIGMA_X, SIGMA_Y, SIGMA_Z, dagger,
                              hermiticity_defect, hs_inner, hs_norm)
from nmwitness.rates import ConstantRate, TableRate
from nmwitness.witness import (
    MarkovianFamily,
    WitnessOperator,
    expectation,
    fixed_basis_family,
    nearest_mcs_fixed_basis,
    nearest_mcs_full_gksl,
    nnls_gram,
    pauli_family,
    sample_markovian_chois,
    spectral_witnesses,
    theorem3_witness,
    uniqueness_check,
    verify_witness,
)
from nmwitness.witness import _draw_generators
from nmwitness.channels import LindbladGenerator

from nmwitness import choi as choi_module
from nmwitness import witness as witness_module
from nmwitness.linalg import ShapeError
from oracles import (dykstra_full_gksl, gram_generators, gram_sample_chois, per_jump_generators,
                     psd_project, sign_rates, stack_uniqueness_lhs, stack_verify_witness)

EPS = 1e-3

BELL = {
    "phi_plus": np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2),
    "psi_plus": np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2),
    "psi_minus": np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2),
    "phi_minus": np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2),
}


def pauli_choi(rates, eps=EPS, t=0.0):
    return choi_of_generator(builtin_pauli(*rates), t, eps)


# ---------------------------------------------------------------------------
# spectral witnesses
# ---------------------------------------------------------------------------

def test_spectral_empty_for_markovian():
    c = choi_of_generator(builtin_dephasing(1.0), 0.0, EPS)
    assert spectral_witnesses(c) == []


def test_spectral_dephasing_witness():
    c = choi_of_generator(builtin_dephasing(-1.0), 0.0, EPS)
    ws = spectral_witnesses(c)
    assert len(ws) == 1
    w = ws[0]
    assert w.kind == "spectral_projector"
    # rank-1 orthogonal projector
    assert np.abs(w.matrix @ w.matrix - w.matrix).max() < 1e-9
    assert np.trace(w.matrix).real == pytest.approx(1.0, abs=1e-9)
    assert expectation(w, c) == pytest.approx(-1e-3, abs=1e-12)
    # in this convention the negative eigenvector is (|00> - |11>)/sqrt(2)
    overlap = abs(BELL["phi_minus"].conj() @ w.matrix @ BELL["phi_minus"])
    assert overlap == pytest.approx(1.0, abs=1e-9)


def test_spectral_pauli_witness():
    c = pauli_choi((1.0, 1.0, -0.3))
    ws = spectral_witnesses(c)
    assert len(ws) == 1
    assert expectation(ws[0], c) == pytest.approx(-3e-4, abs=1e-12)


def test_spectral_witnesses_orthogonal():
    c = pauli_choi((-0.5, -0.2, 1.0))
    ws = spectral_witnesses(c)
    assert len(ws) == 2
    values = sorted(expectation(w, c) for w in ws)
    assert values[0] == pytest.approx(-5e-4, abs=1e-12)
    assert values[1] == pytest.approx(-2e-4, abs=1e-12)
    cross = hs_inner(ws[0].matrix, ws[1].matrix).real
    assert abs(cross) <= 1e-9


def test_spectral_degenerate_cluster_merged():
    c = pauli_choi((-0.5, -0.5, 1.0))
    ws = spectral_witnesses(c)
    assert len(ws) == 1
    w = ws[0]
    assert np.trace(w.matrix).real == pytest.approx(2.0, abs=1e-9)
    # expectation is the summed eigenvalue of the cluster
    assert expectation(w, c) == pytest.approx(-1e-3, abs=1e-10)


def test_spectral_cluster_is_a_chain_of_consecutive_gaps():
    # Negative eigenvalues each within the degeneracy gap of the next form one
    # cluster, though the chain spans 1.6 gaps; 3 gaps further up a new one starts.
    gap = DEGENERACY_GAP
    negative = -1e-3 + gap * np.array([0.0, 0.8, 1.6, 4.6])
    spectrum = np.concatenate((negative, np.full(5, (1.0 - negative.sum()) / 5)))
    u = haar_unitaries(9, 1, np.random.default_rng(3))[0]
    c = ChoiMatrix(dim=3, matrix=(u * spectrum) @ u.conj().T, t=0.0, eps=EPS)
    ws = spectral_witnesses(c)
    assert [round(np.trace(w.matrix).real) for w in ws] == [3, 1]
    assert expectation(ws[0], c) == pytest.approx(negative[:3].sum(), abs=1e-12)
    assert expectation(ws[1], c) == pytest.approx(negative[3], abs=1e-12)


def test_expectation_trivials():
    c = pauli_choi((0.4, 0.2, 0.1))
    eye_w = WitnessOperator(matrix=np.eye(4, dtype=complex), kind="theorem3",
                            provenance="identity")
    assert expectation(eye_w, c) == pytest.approx(1.0, abs=1e-12)
    bell = WitnessOperator(matrix=max_entangled_state(2), kind="spectral_projector",
                           provenance="bell")
    ident = ChoiMatrix(dim=2, matrix=max_entangled_state(2), t=0.0, eps=EPS)
    assert expectation(bell, ident) == pytest.approx(1.0, abs=1e-12)


def test_expectation_pauli_x_projector():
    # the (0,1,1,0)/sqrt(2) projector picks out the x rate
    gx, gy, gz = 0.7, 0.2, 0.4
    c = pauli_choi((gx, gy, gz))
    proj = np.outer(BELL["psi_plus"], BELL["psi_plus"].conj())
    w = WitnessOperator(matrix=proj, kind="spectral_projector", provenance="P_x")
    assert expectation(w, c) == pytest.approx(gx * EPS, abs=1e-12)


def test_expectation_refuses_a_non_real_value_below_its_scale():
    # W is anti-Hermitian within the Hermiticity tolerance, and C's matching
    # entries are 5: Tr(W C) = -4e-10 j, whose terms sum to 4e-10 in magnitude.
    w = WitnessOperator(matrix=4e-11j * np.array([[0, 1, 0, 0], [1, 0, 0, 0],
                                                  [0, 0, 0, 0], [0, 0, 0, 0]]),
                        kind="theorem3", provenance="anti-Hermitian defect")
    c = ChoiMatrix(dim=2, matrix=np.diag([0.5, 0.5, 0.0, 0.0]) + 5.0 * np.array(
        [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]), t=0.0, eps=EPS)
    with pytest.raises(ValueError, match=r"^expectation: non-real value"):
        expectation(w, c)


# ---------------------------------------------------------------------------
# fixed-basis nearest divisible state
# ---------------------------------------------------------------------------

def test_nnls_gram_against_scipy():
    rng = np.random.default_rng(0)
    for _ in range(200):
        m, n = 6, int(rng.integers(1, 6))
        a = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        x_ref, _ = scipy.optimize.nnls(a, b)
        x_mine, _ = nnls_gram(a.T @ a, a.T @ b)
        assert np.abs(x_mine - x_ref).max() < 1e-8


def test_nnls_gram_keeps_a_solution_below_the_unit_scale_tolerance():
    # The tolerance is 1e-13 * max(1, |b|, |Q|): a scale floor above 1 would
    # take this solution for zero.
    assert nnls_gram(np.eye(1), np.array([5e-13]))[0].tolist() == [5e-13]


def test_fixed_basis_interior_fixed_point():
    rates = np.array([0.3, 0.8, 0.2])
    cn = pauli_choi(rates)
    res = nearest_mcs_fixed_basis(cn, pauli_family(EPS))
    assert np.abs(res.rates - rates).max() < 1e-10
    assert res.residual <= 1e-10
    assert res.kkt_ok


def test_fixed_basis_pauli_oracle():
    cn = pauli_choi((1.0, 1.0, -0.3))
    res = nearest_mcs_fixed_basis(cn, pauli_family(EPS))
    assert np.abs(res.rates - np.array([0.9, 0.9, 0.0])).max() < 1e-8
    assert res.residual ** 2 == pytest.approx(0.12 * EPS * EPS, rel=1e-10)
    assert res.kkt_ok


def _scaled_pauli(z, rates, eps):
    """The Pauli target with jumps z*sigma_i and the given rates, and its
    projection onto the frozen family of those jumps."""
    gen = LindbladGenerator(dim=2, ops=tuple(z * p for p in PAULIS),
                            rates=tuple(ConstantRate(g) for g in rates))
    return nearest_mcs_fixed_basis(choi_of_generator(gen, 0.0, eps),
                                   fixed_basis_family(gen.ops, eps))


@pytest.mark.parametrize("z", [1e-4, 1e4])
def test_fixed_basis_projection_ignores_the_jump_scale(z):
    # Jumps z*sigma_i at rates g_i/z^2 are the same generator.
    rates = np.array([1.0, 1.0, -0.3])
    reference = _scaled_pauli(1.0, rates, EPS)
    res = _scaled_pauli(z, rates / z ** 2, EPS)
    assert res.kkt_ok
    assert res.residual == pytest.approx(reference.residual, rel=1e-12)
    assert np.abs(res.rates * z ** 2 - np.array([0.9, 0.9, 0.0])).max() <= 1e-8


def test_fixed_basis_projection_ignores_the_unit_of_time():
    # Rates 1e9 times larger at an eps 1e9 times smaller: the same step.
    res = _scaled_pauli(1.0, 1e9 * np.array([1.0, 1.0, -0.3]), 1e-12)
    assert res.kkt_ok
    assert res.residual == pytest.approx(_scaled_pauli(1.0, (1.0, 1.0, -0.3), EPS).residual,
                                         rel=1e-12)


@pytest.mark.parametrize("eps", [1e-3, 1e-6, 1e-8, 1e-10, 1e-12, 1e-14])
def test_projections_read_the_carried_generator_at_every_eps(eps):
    # Both projections read the C_L that built the target, not (C_N - phi)/eps,
    # which loses about u/eps: the exact rates (0.9, 0.9, 0) and residual/eps
    # = sqrt(0.12) hold at every eps.
    cn = pauli_choi((1.0, 1.0, -0.3), eps)
    fixed = nearest_mcs_fixed_basis(cn, pauli_family(eps))
    full = nearest_mcs_full_gksl(cn)
    assert fixed.kkt_ok and full.kkt_ok
    assert fixed.rates[:2] == pytest.approx([0.9, 0.9], rel=1e-14, abs=0.0)
    assert fixed.rates[2] == 0.0
    for res in (fixed, full):
        assert res.residual / eps == pytest.approx(np.sqrt(0.12), rel=1e-14, abs=0.0)


def test_a_state_without_a_direction_projects_from_its_matrix():
    # A bare matrix carries no generator: (C_N - phi)/eps is projected, and
    # the witness is built from the matrices.
    cn = pauli_choi((1.0, 1.0, -0.3))
    bare = ChoiMatrix(2, cn.matrix, cn.t, cn.eps)
    assert bare.direction is None
    for project in (lambda c: nearest_mcs_fixed_basis(c, pauli_family(EPS)),
                    nearest_mcs_full_gksl):
        res, res_bare = project(cn), project(bare)
        assert res_bare.kkt_ok
        assert res_bare.residual == pytest.approx(res.residual, rel=1e-9)
        w, w_bare = (theorem3_witness(c, r.choi_star) for c, r in ((cn, res), (bare, res_bare)))
        assert np.abs(w_bare.matrix - w.matrix).max() <= 1e-15


def test_a_generator_whose_norm_squared_overflows_is_one_named_error():
    # diag(1.7e308, -1.7e308) at eps = 1e-300: a valid state (entries about
    # 1.7e8), but ||C_L||^2 leaves the double range; named before numpy warns.
    gen = LindbladGenerator(dim=2, ops=(np.array([[0, 0], [1, 0]], dtype=complex),),
                            rates=(ConstantRate(1.0),),
                            hamiltonian=np.diag([1.7e308, -1.7e308]).astype(complex))
    cn = choi_of_generator(gen, 0.0, 1e-300)
    message = (r"^Choi state at t=0\.0, eps=1e-300: the generator C_L is too large to "
               r"project, \|\|C_L\|\|\^2 leaves the double range \(largest \|entry\| "
               r"1\.700e\+308\)$")
    for project in (lambda c: nearest_mcs_fixed_basis(c, fixed_basis_family(gen.ops, 1e-300)),
                    nearest_mcs_full_gksl):
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                project(cn)


def test_fixed_basis_certificate_refuses_rates_off_by_1e_9(monkeypatch):
    original = witness_module.nnls_gram

    def off(q, b):
        x, iterations = original(q, b)
        return x * (1.0 + 1e-9), iterations

    monkeypatch.setattr(witness_module, "nnls_gram", off)
    assert not nearest_mcs_fixed_basis(pauli_choi((1.0, 1.0, -0.3)), pauli_family(EPS)).kkt_ok


def test_fixed_basis_jump_proportional_to_the_identity_gets_rate_zero():
    # Its Choi direction is zero, so it has no unit direction to divide by.
    ops = (*PAULIS, np.eye(2))
    res = nearest_mcs_fixed_basis(pauli_choi((1.0, 1.0, -0.3)), fixed_basis_family(ops, EPS))
    assert res.kkt_ok
    assert res.rates[3] == 0.0
    assert np.abs(res.rates[:3] - np.array([0.9, 0.9, 0.0])).max() <= 1e-8


def test_fixed_basis_metric_projection_property():
    cn = pauli_choi((1.0, 1.0, -0.3))
    fam = pauli_family(EPS)
    res = nearest_mcs_fixed_basis(cn, fam)
    dirs = dissipator_chois(fam.basis_ops)
    phi = max_entangled_state(2)
    rng = np.random.default_rng(1)
    for _ in range(1000):
        feasible = rng.uniform(0.0, 1.5, 3)
        candidate = phi + EPS * np.tensordot(feasible, dirs, axes=1)
        assert hs_norm(cn.matrix - candidate) >= res.residual - 1e-10


def test_fixed_basis_gram_is_the_documented_one():
    fam = pauli_family(EPS)
    dirs = dissipator_chois(fam.basis_ops)
    gram = np.einsum("aij,bji->ab", dirs, dirs).real
    assert np.abs(gram - np.array([[2.0, 1.0, 1.0],
                                   [1.0, 2.0, 1.0],
                                   [1.0, 1.0, 2.0]])).max() < 1e-12


def test_fixed_basis_degenerate_directions():
    cn = choi_of_generator(builtin_dephasing(-0.5), 0.0, EPS)
    fam = fixed_basis_family((SIGMA_Z, SIGMA_Z), EPS)
    res = nearest_mcs_fixed_basis(cn, fam)
    assert res.kkt_ok
    assert res.residual == pytest.approx(0.5 * EPS * np.sqrt(2.0), rel=1e-8)


def test_fixed_basis_family_refuses_eps_zero():
    with pytest.raises(ValueError, match=r"^MarkovianFamily: eps must be finite and > 0, "
                                         r"got 0\.0$"):
        fixed_basis_family([SIGMA_Z], 0.0)


@pytest.mark.parametrize("ops, error, message", [
    ((SIGMA_Z,) * 5, ValueError, r"^MarkovianFamily: at most dim\^2=4 jump operators, got 5$"),
    ((SIGMA_Z, np.eye(3)), ShapeError, r"^basis_ops\[1\]: expected 2x2, got \(3, 3\)$"),
])
def test_markovian_family_input_checks(ops, error, message):
    with pytest.raises(error, match=message):
        MarkovianFamily(dim=2, basis_ops=ops, eps=EPS)


def test_fixed_basis_rejects_family_of_another_dim():
    cn = pauli_choi((1.0, 1.0, -0.3))
    family = fixed_basis_family([np.diag([1.0, -1.0, 0.0])], EPS)
    with pytest.raises(ShapeError, match=r"family dim 3 != Choi dim 2"):
        nearest_mcs_fixed_basis(cn, family)


def test_fixed_basis_rejects_family_at_another_eps():
    cn = pauli_choi((1.0, 1.0, -0.3))
    with pytest.raises(ValueError, match=r"family eps 0\.01 != Choi eps 0\.001"):
        nearest_mcs_fixed_basis(cn, pauli_family(1e-2))


def test_fixed_basis_rejects_family_at_another_t():
    cn = pauli_choi((1.0, 1.0, -0.3))
    with pytest.raises(ValueError, match=r"family t 5\.0 != Choi t 0\.0"):
        nearest_mcs_fixed_basis(cn, pauli_family(EPS, t=5.0))
    # At equal tags away from t = 0 the projection runs, and keeps the tag.
    res = nearest_mcs_fixed_basis(pauli_choi((1.0, 1.0, -0.3), t=0.7), pauli_family(EPS, t=0.7))
    assert res.choi_star.t == 0.7


# ---------------------------------------------------------------------------
# full-generator nearest divisible state
# ---------------------------------------------------------------------------

def test_full_gksl_builds_the_isometry_once_per_dim(monkeypatch):
    calls = []
    original = choi_module.gell_mann_basis

    def counted(dim):
        calls.append(dim)
        return original(dim)

    monkeypatch.setattr(choi_module, "gell_mann_basis", counted)
    choi_module.perp_isometry.cache_clear()
    cn = pauli_choi((1.0, 1.0, -0.3))
    first, second = nearest_mcs_full_gksl(cn), nearest_mcs_full_gksl(cn)
    assert calls == [2]
    assert first.choi_star.matrix.tobytes() == second.choi_star.matrix.tobytes()


def test_full_gksl_markovian_membership():
    cn = pauli_choi((0.3, 0.5, 0.2))
    res = nearest_mcs_full_gksl(cn)
    assert res.kkt_ok
    assert res.residual <= 1e-12
    # Kossakowski matrix stays PSD
    assert np.linalg.eigvalsh(res.kossakowski)[0] >= -1e-12


def test_full_gksl_vs_fixed_basis_containment():
    cn = pauli_choi((1.0, 1.0, -0.3))
    fixed = nearest_mcs_fixed_basis(cn, pauli_family(EPS))
    full = nearest_mcs_full_gksl(cn)
    assert full.kkt_ok
    assert full.residual <= fixed.residual * (1 + 1e-6) + 1e-9
    assert full.residual <= np.sqrt(0.12) * EPS + 1e-6


def test_full_gksl_dephasing_containment():
    cn = choi_of_generator(builtin_dephasing(-1.0), 0.0, EPS)
    fixed = nearest_mcs_fixed_basis(cn, fixed_basis_family((SIGMA_Z,), EPS))
    full = nearest_mcs_full_gksl(cn)
    assert full.residual <= fixed.residual + 1e-6


def test_full_gksl_refuses_a_state_tagged_eps_zero():
    # choi_of_channel tags its state eps=0 unless told otherwise.
    c = choi_of_channel(SuperOperator(dim=2, matrix=np.eye(4)))
    with pytest.raises(ValueError, match=r"^nearest_mcs_full_gksl: eps must be finite and > 0, "
                                         r"got 0\.0$"):
        nearest_mcs_full_gksl(c)


def test_full_gksl_nonconvergence_flag(monkeypatch):
    monkeypatch.setattr(witness_module, "GKSL_MAX_ITER", 2)
    monkeypatch.setattr(witness_module, "KKT_TOL", 1e-16)
    cn = pauli_choi((1.0, 1.0, -0.3))
    res = nearest_mcs_full_gksl(cn)
    assert not res.kkt_ok
    assert res.iterations == 2
    # the last iterate is still returned as a trace-one Choi state
    assert abs(np.trace(res.choi_star.matrix) - 1.0) <= 1e-12


def _random_nm_generator(dim, seed, rates):
    rng = np.random.default_rng(seed)
    ops = tuple(haar_unitaries(dim, len(rates), rng))
    return LindbladGenerator(dim=dim, ops=ops,
                             rates=tuple(ConstantRate(g) for g in rates))


def _random_divisible_generator(dim, rng):
    # Ginibre (non-unitary) jumps give off-diagonal Kossakowski parts.
    n_ops = int(rng.integers(1, dim * dim + 1))
    ops = tuple(rng.standard_normal((n_ops, dim, dim))
                + 1j * rng.standard_normal((n_ops, dim, dim)))
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return LindbladGenerator(dim=dim, ops=ops,
                             rates=tuple(ConstantRate(g) for g in rng.uniform(0, 1, n_ops)),
                             hamiltonian=0.5 * (raw + dagger(raw)))


def test_full_gksl_variational_inequality_against_family():
    # The projection must satisfy <C_N - C_M*, C - C_M*> <= 0 for every
    # family member C, including ones with off-diagonal Kossakowski parts
    # and a Hamiltonian.
    gen = _random_nm_generator(2, 21, (0.9, 0.6, -0.5))
    cn = choi_of_generator(gen, 0.0, EPS)
    res = nearest_mcs_full_gksl(cn)
    assert res.kkt_ok

    rng = np.random.default_rng(22)
    diff = cn.matrix - res.choi_star.matrix
    worst = -np.inf
    for _ in range(2000):
        member = choi_of_generator(_random_divisible_generator(2, rng), 0.0, EPS).matrix
        worst = max(worst, np.vdot(diff, member - res.choi_star.matrix).real)
    assert worst <= 1e-10


def _check_generic_instance(dim, seed):
    gen = _random_nm_generator(dim, seed, (0.8, 0.5, -0.4))
    cn = choi_of_generator(gen, 0.0, EPS)
    assert not classify(cn).is_markovian
    full = nearest_mcs_full_gksl(cn)
    assert full.kkt_ok
    assert np.linalg.eigvalsh(full.kossakowski)[0] >= -1e-12
    # containment: the generator's own jump basis is a sub-family
    fixed = nearest_mcs_fixed_basis(cn, fixed_basis_family(gen.ops, EPS))
    assert full.residual <= fixed.residual + 1e-6
    w = theorem3_witness(cn, full.choi_star)
    check = verify_witness(w, dim, EPS, 5000, seed=seed + 1)
    assert check.violations == 0
    assert check.min_expectation >= -1e-8


def test_full_gksl_generic_qutrit_instance():
    _check_generic_instance(3, 33)


def test_full_gksl_generic_ququart_instance():
    _check_generic_instance(4, 33)


def _ginibre_target(dim, seed):
    # d^2 Ginibre jumps with rates uniform on (-0.5, 1) and a random Hamiltonian.
    rng = np.random.default_rng(seed)
    n_ops = dim * dim
    ops = tuple(rng.standard_normal((n_ops, dim, dim))
                + 1j * rng.standard_normal((n_ops, dim, dim)))
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    gen = LindbladGenerator(dim=dim, ops=ops,
                            rates=tuple(ConstantRate(g) for g in rng.uniform(-0.5, 1.0, n_ops)),
                            hamiltonian=0.5 * (raw + dagger(raw)))
    return choi_of_generator(gen, 0.0, EPS)


GKSL_TARGETS = {
    "dephasing": lambda: choi_of_generator(builtin_dephasing(-1.0), 0.0, EPS),
    "pauli": lambda: pauli_choi((1.0, 1.0, -0.3)),
    **{f"ginibre-d{d}-s{s}": (lambda d=d, s=s: _ginibre_target(d, s))
       for d in range(2, 6) for s in range(6)},
}


@pytest.fixture(scope="module")
def gksl_solutions():
    """Newton's result and the Dykstra oracle's state per target, oracle at tol 1e-13."""
    out = {}
    for name, make in GKSL_TARGETS.items():
        cn = make()
        out[name] = (cn, nearest_mcs_full_gksl(cn), dykstra_full_gksl(cn, tol=1e-13)[0])
    return out


@pytest.mark.parametrize("name", GKSL_TARGETS)
def test_full_gksl_newton_matches_dykstra(gksl_solutions, name):
    _, res, ref = gksl_solutions[name]
    assert res.kkt_ok
    assert hs_norm(res.choi_star.matrix - ref) <= 1e-12


@pytest.mark.parametrize("name", GKSL_TARGETS)
def test_full_gksl_newton_in_cone_within_ten_steps(gksl_solutions, name):
    _, res, _ = gksl_solutions[name]
    assert np.linalg.eigvalsh(res.kossakowski)[0] >= -1e-12
    assert res.iterations <= 10


@pytest.mark.parametrize("name", GKSL_TARGETS)
def test_full_gksl_state_is_cone_point_of_dual(gksl_solutions, name):
    # The returned state is phi + eps * P_K(Y + Lambda (x) 1), P_K written
    # out densely here, up to the removal of its tiny Tr_2 defect.
    cn, res, _ = gksl_solutions[name]
    d = cn.dim
    phi = max_entangled_state(d)
    w_perp = np.eye(d * d) - phi
    assert res.dual.shape == (d, d)
    assert hs_norm(res.dual - dagger(res.dual)) <= 1e-12 * max(1.0, hs_norm(res.dual))
    z = (cn.matrix - phi) / EPS + np.kron(res.dual, np.eye(d))
    block = w_perp @ z @ w_perp
    x = z - block + psd_project(block)
    assert hs_norm(phi + EPS * x - res.choi_star.matrix) <= 1e-12


GLOBAL_FAMILIES = ("wide", "far", "tiny", "unitary")


def _global_generator(family, seed):
    """The generator and eps of a seeded full-GKSL target of one of four
    families.

    wide: d = 2..5, 1..d^2 Ginibre jumps, rates uniform on [-s, s] with s
    from 1e-2 to 1e4, eps from 1e-4 to 1e-1; far: s from 1 to 1e6, eps from
    1e-2 to 3; tiny: rates on [0, 1] but one negative, 1e-12..1e-3 times the
    sum of the others; unitary: Haar or commuting diagonal unitary jumps,
    rates on [-1, 1] with 30% zero, eps up to 1. A Hamiltonian on about half.
    """
    rng = np.random.default_rng([GLOBAL_FAMILIES.index(family), seed])
    d = int(rng.integers(2, 6))
    n_ops = int(rng.integers(1, d * d + 1))
    if family == "unitary":
        if rng.random() < 0.5:
            ops = haar_unitaries(d, n_ops, rng)
        else:
            ops = np.exp(2j * np.pi * rng.random((n_ops, d)))[:, :, None] * np.eye(d)
        rates = rng.uniform(-1.0, 1.0, n_ops) * (rng.random(n_ops) >= 0.3)
        eps = 10.0 ** rng.uniform(-4, 0)
    else:
        ops = rng.standard_normal((n_ops, d, d)) + 1j * rng.standard_normal((n_ops, d, d))
        if family == "tiny":
            rates = rng.uniform(0.0, 1.0, n_ops)
            rates[0] = -10.0 ** rng.uniform(-12, -3) * (rates[1:].sum() if n_ops > 1 else 1.0)
            eps = 10.0 ** rng.uniform(-4, -1)
        else:
            s_log, eps_log = {"wide": ((-2, 4), (-4, -1)),
                              "far": ((0, 6), (-2, np.log10(3)))}[family]
            rates = rng.uniform(-1.0, 1.0, n_ops) * 10.0 ** rng.uniform(*s_log)
            eps = 10.0 ** rng.uniform(*eps_log)
    ham = None
    if rng.random() < 0.5:
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ham = 0.5 * (raw + dagger(raw))
    gen = LindbladGenerator(dim=d, ops=tuple(ops), rates=tuple(ConstantRate(g) for g in rates),
                            hamiltonian=ham)
    return gen, eps


def _global_target(family, seed):
    """The Choi state of `_global_generator`'s target."""
    gen, eps = _global_generator(family, seed)
    return choi_of_generator(gen, 0.0, eps)


@pytest.mark.parametrize("seed", (2, 31, 50, 109))
def test_far_target_far_below_overflow_is_a_state(seed):
    # Entries of 7e5 to 2.2e6 put the trace's rounding above an absolute
    # 1e-10, but far below phi's entries: a valid state, whose trace and
    # Hermiticity are judged to its own rounding.
    gen, eps = _global_generator("far", seed)
    assert choi_of_generator(gen, 0.0, eps).dim == gen.dim


def test_full_gksl_full_newton_steps_converge_across_scales():
    # Ten draws per family, far from phi and near it alike: every target
    # is a state and passes its certificate within eight full Newton steps.
    results = {(family, seed): nearest_mcs_full_gksl(_global_target(family, seed))
               for family in GLOBAL_FAMILIES for seed in range(10)}
    slow = [(key, res.kkt_ok, res.iterations) for key, res in results.items()
            if not (res.kkt_ok and res.iterations <= 8)]
    assert slow == []


@pytest.mark.parametrize("seed", (26, 92, 217, 343, 404))
def test_full_gksl_far_target_projects_to_a_hermitian_state(seed):
    # Far from phi, the cone point's rounding exceeds the 1e-10 Hermiticity
    # tolerance of ChoiMatrix; the returned state must still be Hermitian.
    res = nearest_mcs_full_gksl(_global_target("far", seed))
    assert res.kkt_ok
    assert res.iterations <= 8
    assert hermiticity_defect(res.choi_star.matrix) == 0


@pytest.mark.parametrize("seed", (85, 702))
def test_full_gksl_projects_a_far_target_beyond_an_absolute_trace_test(seed):
    # d = 5, entries 2.4e5 and 3.3e5: the projection misses trace 1 by more than
    # an absolute 1e-10, but not by more than its own rounding.
    res = nearest_mcs_full_gksl(_global_target("far", seed))
    assert res.kkt_ok


def test_fixed_basis_projects_a_far_target_beyond_an_absolute_trace_test():
    # d = 3, eps = 1.57, one jump at rate 1.4e5: the same for the frozen
    # projection onto the target's own jumps.
    gen, eps = _global_generator("far", 781)
    res = nearest_mcs_fixed_basis(_global_target("far", 781), fixed_basis_family(gen.ops, eps))
    assert res.kkt_ok


@pytest.mark.parametrize("seed", range(10))
def test_theorem3_witness_of_a_far_target_has_a_real_diagonal(seed):
    # Every ChoiMatrix is exactly Hermitian, so W = c0 I + C_M* - C_N is too.
    gen, eps = _global_generator("far", seed)
    cn = _global_target("far", seed)
    for res in (nearest_mcs_full_gksl(cn),
                nearest_mcs_fixed_basis(cn, fixed_basis_family(gen.ops, eps))):
        assert np.all(np.diag(theorem3_witness(cn, res.choi_star).matrix).imag == 0)


def test_fixed_basis_far_target_passes_its_certificate():
    # d = 5, eps = 1.56, rates up to 6.7e4: absolute gradient bounds refused
    # this projection onto the target's own jumps.
    gen, eps = _global_generator("far", 337)
    res = nearest_mcs_fixed_basis(choi_of_generator(gen, 0.0, eps),
                                  fixed_basis_family(gen.ops, eps))
    assert res.kkt_ok


# ---------------------------------------------------------------------------
# distance witness
# ---------------------------------------------------------------------------

def test_theorem3_expectation_is_minus_squared_distance():
    cn = pauli_choi((1.0, 1.0, -0.3))
    res = nearest_mcs_fixed_basis(cn, pauli_family(EPS))
    w = theorem3_witness(cn, res.choi_star)
    assert w.kind == "theorem3"
    assert expectation(w, cn) == pytest.approx(-res.residual ** 2, rel=1e-10)
    assert expectation(w, cn) == pytest.approx(-0.12 * EPS * EPS, rel=1e-9)


def test_theorem3_refuses_states_of_two_shapes():
    cn = pauli_choi((1.0, 1.0, -0.3))
    other = choi_of_generator(_random_nm_generator(3, 3, (1.0, 0.5, -0.4)), 0.0, EPS)
    with pytest.raises(ShapeError, match=r"^theorem3_witness: shapes differ, "
                                         r"\(4, 4\) vs \(9, 9\)$"):
        theorem3_witness(cn, other)


def test_theorem3_identity_for_any_state():
    # Tr(W C_S) = -Tr[(C_S - C_M*)(C_N - C_M*)] for every trace-one C_S
    cn = pauli_choi((1.0, 1.0, -0.3))
    res = nearest_mcs_fixed_basis(cn, pauli_family(EPS))
    w = theorem3_witness(cn, res.choi_star)
    rng = np.random.default_rng(2)
    for _ in range(50):
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        herm = 0.5 * (raw + dagger(raw))
        herm = herm / np.trace(herm).real
        s = ChoiMatrix(dim=2, matrix=herm, t=0.0, eps=EPS)
        lhs = expectation(w, s)
        rhs = -hs_inner(s.matrix - res.choi_star.matrix,
                        cn.matrix - res.choi_star.matrix).real
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_theorem3_degenerate_self_projection():
    cm = pauli_choi((0.4, 0.3, 0.2))
    w = theorem3_witness(cm, cm)
    assert np.abs(w.matrix).max() < 1e-14
    other = pauli_choi((0.1, 0.9, 0.5))
    assert expectation(w, other) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Monte-Carlo verification
# ---------------------------------------------------------------------------

def test_sampler_matches_channel_pipeline():
    # the batched Choi formula used by the sampler agrees with the
    # generator -> channel -> Choi pipeline for the same unitaries and rates
    rng = np.random.default_rng(3)
    ops = tuple(haar_unitaries(2, 3, rng))
    rates = (0.4, 0.9, 0.1)
    gen = LindbladGenerator(dim=2, ops=ops,
                            rates=tuple(ConstantRate(g) for g in rates))
    pipeline = choi_of_generator(gen, 0.0, EPS).matrix
    phi = max_entangled_state(2)
    direct = phi.copy()
    for op, g in zip(ops, rates):
        u = op.T.reshape(-1) / np.sqrt(2.0)
        direct = direct + EPS * g * (np.outer(u, u.conj()) - phi)
    assert np.abs(direct - pipeline).max() < 1e-13


def test_sampler_refuses_no_samples():
    with pytest.raises(ValueError, match=r"^sample_markovian_chois: n_samples must be >= 1, "
                                         r"got 0$"):
        sample_markovian_chois(2, EPS, 0, seed=1)


def test_sampler_reproducible_and_trace_one():
    a = sample_markovian_chois(2, EPS, 64, seed=4)
    b = sample_markovian_chois(2, EPS, 64, seed=4)
    assert np.array_equal(a, b)
    traces = np.einsum("nii->n", a)
    assert np.abs(traces - 1.0).max() < 1e-12
    asym = np.abs(a - a.conj().transpose(0, 2, 1)).max()
    assert asym < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("signed", [False, True])
def test_unitary_jump_generators_match_per_jump_sum(dim, signed):
    # Each sampled direction is sum_a g_a Y_a, Y_a of dissipator_chois for
    # the jump L_a rebuilt from its ket: Ginibre jumps, unitary only as a
    # special case.
    n, seed = 300, 40 + dim
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    gens = _draw_generators(dim, n, rng)
    x = (sign_rates(gens, rng) if signed else gens).dissipators()
    ref = per_jump_generators(dim, n, ref_rng, signed=signed)
    assert x.shape == ref.shape == (n, dim * dim, dim * dim)
    assert np.abs(x - ref).max() <= 1e-14
    # Both took the same draws from the stream, in the same order.
    assert rng.random() == ref_rng.random()
    assert np.abs(x - x.conj().transpose(0, 2, 1)).max() <= 1e-15


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_sampled_chois_hermitian(dim):
    chois = sample_markovian_chois(dim, 1.0, 500, seed=dim)
    assert np.abs(chois - chois.conj().transpose(0, 2, 1)).max() <= 1e-15


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("hamiltonian", [False, True])
def test_sampled_states_equal_the_out_of_place_expression(dim, hamiltonian):
    # Built in place, the stack is the out-of-place expression on the same
    # draws, entry for entry. Without a Hamiltonian it is formed as the
    # HS-norm probe forms its states.
    for eps in (EPS, 0.7):
        if hamiltonian:
            chois = sample_markovian_chois(dim, eps, 200, seed=dim)
        else:
            gens = _draw_generators(dim, 200, np.random.default_rng(dim))
            chois = first_order_state(gens.dissipators(), eps)
        ref = gram_sample_chois(dim, eps, 200, seed=dim, include_hamiltonian=hamiltonian)
        assert np.array_equal(chois, ref)
    rng, ref_rng = np.random.default_rng(dim), np.random.default_rng(dim)
    gens = _draw_generators(dim, 200, rng)
    assert np.array_equal((sign_rates(gens, rng) if hamiltonian else gens).dissipators(),
                          gram_generators(dim, 200, ref_rng, signed=hamiltonian))
    assert rng.random() == ref_rng.random()


def _witness_matrices(dim, rng):
    """A random Hermitian W, a valid w_perp A w_perp (A >= 0), -1 and phi - 1."""
    n = dim * dim
    phi = max_entangled_state(dim)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    w_perp = np.eye(n) - phi
    perp = w_perp @ (g @ g.conj().T) @ w_perp
    return {"hermitian": 0.5 * (g + g.conj().T), "perp": 0.5 * (perp + perp.conj().T),
            "minus_one": -np.eye(n, dtype=complex), "phi_minus_one": phi - np.eye(n)}


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("eps", [1e-3, 1e20, 1e300])
def test_verify_witness_matches_stack_contraction(dim, eps):
    n, seed = 600, 30 + dim
    for name, w in _witness_matrices(dim, np.random.default_rng(dim)).items():
        result = verify_witness(WitnessOperator(w, "theorem3", name), dim, eps, n, seed)
        values, violations, min_expectation, scale, slack = stack_verify_witness(
            w, dim, eps, n, seed)
        assert np.all(np.abs(result.values - values) <= 1e-13 * scale), name
        gens = _draw_generators(dim, n, np.random.default_rng(seed), hamiltonian=True)
        assert np.all(gens.expectations(w, eps)[1] >= slack), name
        if name == "minus_one" and eps > 1.0:
            # Tr(-C_k) = -1 drowns in the rounding of forming C_k (about eps
            # * 1e-16). The draw slack is at least the stack's, so the count
            # is at most the stack's.
            assert result.violations <= violations
        else:
            assert result.violations == violations, name
        assert abs(result.min_expectation - min_expectation) <= 1e-13 * scale.max(), name
        if name == "perp":
            assert result.violations == 0
        if name == "phi_minus_one":
            assert result.violations == n


def test_verify_witness_forms_no_sample_stack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a sample stack was formed")

    monkeypatch.setattr(witness_module, "sample_markovian_chois", refuse)
    monkeypatch.setattr(witness_module, "first_order_state", refuse)
    w = WitnessOperator(-np.eye(4, dtype=complex), "theorem3", "invalid")
    assert verify_witness(w, 2, EPS, 300, seed=3).violations == 300
    cm = pauli_choi((0.5, 0.1, 0.7))
    assert uniqueness_check(cm, cm, 2, EPS, 300, seed=3, family=pauli_family(EPS)).holds


def test_verify_witness_overflow_is_a_floating_point_error():
    w = WitnessOperator(np.eye(4, dtype=complex), "theorem3", "identity")
    with pytest.raises(FloatingPointError, match="overflow of eps"):
        verify_witness(w, 2, 1e308, 100, seed=1)


def test_verify_witness_accepts_valid_witnesses():
    cn = pauli_choi((1.0, 1.0, -0.3))
    res = nearest_mcs_fixed_basis(cn, pauli_family(EPS))
    w = theorem3_witness(cn, res.choi_star)
    report = verify_witness(w, 2, EPS, 10_000, seed=5)
    assert report.violations == 0
    assert report.min_expectation >= -1e-8

    c_deph = choi_of_generator(builtin_dephasing(-1.0), 0.0, EPS)
    spectral = spectral_witnesses(c_deph)[0]
    report = verify_witness(spectral, 2, EPS, 10_000, seed=6)
    assert report.violations == 0


def test_verify_witness_flags_invalid():
    w = WitnessOperator(matrix=-np.eye(4, dtype=complex), kind="theorem3",
                        provenance="deliberately invalid")
    report = verify_witness(w, 2, EPS, 500, seed=7)
    assert report.violations == 500
    assert report.min_expectation < -0.9


def test_verify_witness_validation():
    w = WitnessOperator(matrix=np.eye(4, dtype=complex), kind="theorem3",
                        provenance="id")
    with pytest.raises(ValueError):
        verify_witness(w, 2, EPS, 0, seed=1)


def test_verify_witness_rejects_dim_of_another_witness():
    w = WitnessOperator(matrix=np.eye(4, dtype=complex), kind="theorem3",
                        provenance="id")
    with pytest.raises(ShapeError, match=r"verify_witness: w is 4x4, expected 9x9 for dim=3"):
        verify_witness(w, 3, EPS, 10, seed=1)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_sampled_directions_are_trace_preserving(dim):
    gens = _draw_generators(dim, 300, np.random.default_rng(50 + dim))
    x = gens.dissipators()
    tr2 = np.einsum("nikjk->nij", x.reshape((-1,) + (dim,) * 4))
    assert np.abs(tr2).max() <= 1e-14 * np.abs(x).max()


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("eps", [1e-3, 0.7, 1e20])
def test_expectations_are_within_their_slack_of_the_formed_states(dim, eps):
    # Tr(W C_k) contracted with the formed states of sample_markovian_chois.
    n, seed = 400, 70 + dim
    chois = sample_markovian_chois(dim, eps, n, seed)
    gens = _draw_generators(dim, n, np.random.default_rng(seed), hamiltonian=True)
    for name, w in _witness_matrices(dim, np.random.default_rng(dim)).items():
        values, slack = gens.expectations(w, eps)
        assert np.all(np.abs(values - np.einsum("ij,nji->n", w, chois).real) <= slack), name


# The sampled family is all of F, non-unital generators included. A unital
# qubit generator's w_perp block is real in the Pauli-ket basis (the columns
# of choi.perp_isometry), so W = i(|k_x><k_y| - |k_y><k_x|), k_x and k_y the
# Choi kets of sigma_x and sigma_y, is 0 on every one of them; amplitude
# damping, divisible, takes it to -eps/2.

_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)


def unital_blind_witness() -> np.ndarray:
    kx, ky = choi_kets(SIGMA_X), choi_kets(SIGMA_Y)
    return 1j * (np.outer(kx, ky.conj()) - np.outer(ky, kx.conj()))


def test_verify_fails_a_witness_that_amplitude_damping_violates():
    w = WitnessOperator(unital_blind_witness(), "theorem3", "unital-blind")
    damping = choi_of_generator(LindbladGenerator(2, (_SIGMA_MINUS,), (1.0,)), 0.0, EPS)
    assert expectation(w, damping) == pytest.approx(-EPS / 2, rel=1e-12)
    report = verify_witness(w, 2, EPS, 20_000, seed=1)
    assert report.violations > 0
    assert report.min_expectation < -EPS / 2


def test_sampled_qubit_blocks_are_not_all_real_in_the_pauli_ket_basis():
    gens = _draw_generators(2, 200, np.random.default_rng(9))
    assert np.abs(perp_block(gens.dissipators()).imag).max() > 0.1
    # Unitary jumps give real blocks, on which W is 0.
    us = haar_unitaries(2, 3, np.random.default_rng(9))
    unital = np.tensordot([0.2, 0.5, 0.9], dissipator_chois(us), axes=1)
    assert np.abs(perp_block(unital).imag).max() <= 1e-15
    assert abs(np.vdot(unital_blind_witness(), unital)) <= 1e-15


# ---------------------------------------------------------------------------
# uniqueness inequality
# ---------------------------------------------------------------------------

def test_uniqueness_holds_at_projection():
    cn = pauli_choi((1.0, 1.0, -0.3))
    fam = pauli_family(EPS)
    res = nearest_mcs_fixed_basis(cn, fam)
    restricted = uniqueness_check(cn, res.choi_star, 2, EPS, 5000, seed=8,
                                  family=fam)
    assert restricted.holds
    # On the full family the inequality is the witness of the full projection.
    full = nearest_mcs_full_gksl(cn)
    general = verify_witness(theorem3_witness(cn, full.choi_star), 2, EPS, 5000, seed=9)
    assert general.violations == 0


def test_uniqueness_fails_off_projection():
    cn = pauli_choi((1.0, 1.0, -0.3))
    fam = pauli_family(EPS)
    perturbed = pauli_choi((0.8, 0.9, 0.05))
    report = uniqueness_check(cn, perturbed, 2, EPS, 5000, seed=10, family=fam)
    assert not report.holds
    assert report.max_lhs > 1e-8


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-6])
def test_sampled_checks_fail_a_wrong_projection_at_every_eps(eps):
    # C_M* = phi (all rates 0) is not the projection of the Pauli (1, 1, -0.3)
    # target. Every sampled value scales as eps^2, so both checks must see it
    # at any eps, and must still pass the true projections.
    cn = choi_of_generator(builtin_pauli(1.0, 1.0, -0.3), 0.0, eps)
    fam = pauli_family(eps)
    wrong = ChoiMatrix(2, max_entangled_state(2), 0.0, eps, np.zeros((4, 4)))
    assert verify_witness(theorem3_witness(cn, wrong), 2, eps, 2000, seed=1).violations > 0
    assert not uniqueness_check(cn, wrong, 2, eps, 2000, seed=1, family=fam).holds
    full = theorem3_witness(cn, nearest_mcs_full_gksl(cn).choi_star)
    assert verify_witness(full, 2, eps, 2000, seed=1).violations == 0
    fixed = nearest_mcs_fixed_basis(cn, fam).choi_star
    assert uniqueness_check(cn, fixed, 2, eps, 2000, seed=1, family=fam).holds


def test_uniqueness_rejects_family_of_another_dim():
    cn = choi_of_generator(_random_nm_generator(3, 3, (1.0, 0.5, -0.4)), 0.0, EPS)
    with pytest.raises(ShapeError, match=r"uniqueness_check: family dim 2 != dim 3"):
        uniqueness_check(cn, cn, 3, EPS, 10, seed=1, family=pauli_family(EPS))


@pytest.mark.parametrize("family, message", [
    (pauli_family(1e-2), r"uniqueness_check: family eps 0\.01 != eps 0\.001"),
    (pauli_family(EPS, t=5.0), r"uniqueness_check: family t 5\.0 != Choi t 0\.0"),
])
def test_uniqueness_rejects_family_at_other_tags(family, message):
    cn = pauli_choi((1.0, 1.0, -0.3))
    with pytest.raises(ValueError, match=message):
        uniqueness_check(cn, cn, 2, EPS, 10, seed=1, family=family)


def test_uniqueness_refuses_no_samples():
    cn = pauli_choi((1.0, 1.0, -0.3))
    with pytest.raises(ValueError, match=r"^uniqueness_check: n_samples must be >= 1, got 0$"):
        uniqueness_check(cn, cn, 2, EPS, 0, seed=1, family=pauli_family(EPS))


def test_uniqueness_needs_the_family_it_samples():
    cn = pauli_choi((1.0, 1.0, -0.3))
    with pytest.raises(TypeError, match="family"):
        uniqueness_check(cn, cn, 2, EPS, 10, seed=1)


def test_uniqueness_accepts_family_at_matching_tags_away_from_zero():
    cn = pauli_choi((1.0, 1.0, -0.3), t=0.7)
    fam = pauli_family(EPS, t=0.7)
    res = nearest_mcs_fixed_basis(cn, fam)
    assert uniqueness_check(cn, res.choi_star, 2, EPS, 2000, seed=8, family=fam).holds


# A family of the check's dim, then one of cn's.
@pytest.mark.parametrize("family", [
    fixed_basis_family(haar_unitaries(3, 2, np.random.default_rng(3)), EPS),
    pauli_family(EPS),
])
def test_uniqueness_rejects_states_of_another_dim(family):
    cn = pauli_choi((1.0, 1.0, -0.3))
    with pytest.raises(ShapeError, match=r"uniqueness_check: cn dim 2 != dim 3"):
        uniqueness_check(cn, cn, 3, EPS, 10, seed=1, family=family)


def test_uniqueness_trivial_self():
    cm = pauli_choi((0.5, 0.1, 0.7))
    report = uniqueness_check(cm, cm, 2, EPS, 1000, seed=11, family=pauli_family(EPS))
    assert report.holds
    assert abs(report.max_lhs) < 1e-12


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("eps", [1e-3, 1e20, 1e300])
def test_uniqueness_check_matches_stack_contraction(dim, eps):
    n, seed = 600, 50 + dim
    rng = np.random.default_rng(dim)
    ops = tuple(haar_unitaries(dim, 3, rng))
    target = _random_nm_generator(dim, dim, (1.0, 0.5, -0.4))
    cn = choi_of_generator(target, 0.0, EPS)
    fam = fixed_basis_family(ops, EPS)
    cm_star = nearest_mcs_fixed_basis(cn, fam).choi_star
    # The check samples the family at the eps it is given, and the family
    # must carry that tag.
    result = uniqueness_check(cn, cm_star, dim, eps, n, seed,
                              family=fixed_basis_family(ops, eps))
    lhs, scale = stack_uniqueness_lhs(cn.matrix, cm_star.matrix, dim, eps, n, seed, ops)
    assert abs(result.max_lhs - lhs.max()) <= 1e-13 * scale.max()
    w = theorem3_witness(cn, cm_star)
    assert result.holds == bool(lhs.max() <= 1e-8 * eps * hs_norm(w.matrix))


# ---------------------------------------------------------------------------
# invariance relations of the generator
# ---------------------------------------------------------------------------
#
# Each relation rewrites a generator into one with the same first-order Choi
# state (or one unitarily equivalent to it), so classify's minimum eigenvalue
# and the residuals of both projections must not move beyond what rounding
# and the certificate allow: 64 u max ||C|| for forming the states and their
# eigensolve; for a residual, which the projections form from the carried
# direction Y, 64 u max eps ||Y|| plus the certificate's tolerance in state
# units, KKT_TOL * eps * max(1, ||Y||) = KKT_TOL * max(eps, ||C - phi||).

_SEEDS = st.integers(0, 2 ** 32 - 1)


def _relation_target(seed):
    """A random generator: d = 2..3, 1..3 Ginibre jumps with signed rates on
    [-1, 1], a Hamiltonian, and eps on [1e-3, 1e-1]; and the stream it came
    from, for the relation's own draws."""
    rng = np.random.default_rng(seed)
    d, n_ops = int(rng.integers(2, 4)), int(rng.integers(1, 4))
    ops = rng.standard_normal((n_ops, d, d)) + 1j * rng.standard_normal((n_ops, d, d))
    rates = rng.uniform(-1.0, 1.0, n_ops)
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (ops, rates, 0.5 * (raw + dagger(raw)), 10.0 ** rng.uniform(-3, -1)), rng


def _state(ops, rates, ham, eps):
    gen = LindbladGenerator(dim=len(ham), ops=tuple(ops),
                            rates=tuple(ConstantRate(g) for g in rates), hamiltonian=ham)
    return choi_of_generator(gen, 0.0, eps)


def _observed(ops, rates, ham, eps, fixed=True):
    """The state, classify's minimum eigenvalue and the certified residuals
    of the frozen projection (onto ops) and the full one."""
    cn = _state(ops, rates, ham, eps)
    seen = {"lambda": classify(cn).min_eigenvalue}
    projections = {"full": nearest_mcs_full_gksl(cn)}
    if fixed:
        projections["fixed"] = nearest_mcs_fixed_basis(cn, fixed_basis_family(tuple(ops), eps))
    for name, res in projections.items():
        assert res.kkt_ok, name
        seen[name] = res.residual
    return cn, seen


def _assert_same(before, after):
    (c, seen), (c2, seen2) = before, after
    phi = max_entangled_state(c.dim)
    rounding = 64 * np.finfo(float).eps
    state = rounding * max(hs_norm(c.matrix), hs_norm(c2.matrix))
    direction = rounding * max(c.eps * hs_norm(c.direction), c2.eps * hs_norm(c2.direction))
    certificate = witness_module.KKT_TOL * max(c.eps, c2.eps, hs_norm(c.matrix - phi),
                                               hs_norm(c2.matrix - phi))
    for name in seen2:
        bound = direction + certificate if name in ("full", "fixed") else state
        assert abs(seen[name] - seen2[name]) <= bound, (name, seen[name], seen2[name])


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS)
def test_unitary_covariance(seed):
    # L_a -> V L_a V^dag, H -> V H V^dag conjugates C by V (x) conj(V).
    (ops, rates, ham, eps), rng = _relation_target(seed)
    v = haar_unitaries(len(ham), 1, rng)[0]
    _assert_same(_observed(ops, rates, ham, eps),
                 _observed(v @ ops @ dagger(v), rates, v @ ham @ dagger(v), eps))


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS)
def test_jump_shift_gauge(seed):
    # L_a -> L_a + c_a 1 with H -> H + sum_a g_a (conj(c_a) L_a - c_a L_a^dag)
    # / (2i) leaves C_L alone. The frozen family moves with its jumps.
    (ops, rates, ham, eps), rng = _relation_target(seed)
    c = rng.uniform(-1.0, 1.0, len(ops)) + 1j * rng.uniform(-1.0, 1.0, len(ops))
    shift = sum(g * (np.conj(ca) * op - ca * dagger(op)) for g, ca, op in zip(rates, c, ops))
    _assert_same(_observed(ops, rates, ham, eps, fixed=False),
                 _observed(ops + c[:, None, None] * np.eye(len(ham)), rates, ham + shift / 2j,
                           eps, fixed=False))


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS, log_z=st.floats(-4.0, 4.0), phase=st.floats(0.0, 1.0))
# Rates near 1e-8 and 1e8, where a tolerance in units of the state misjudges them.
@example(seed=0, log_z=4.0, phase=0.0)
@example(seed=0, log_z=-4.0, phase=0.0)
def test_jump_rescaling_and_splitting(seed, log_z, phase):
    # L -> z L with g -> g / |z|^2, and one jump split into two copies at
    # half its rate: the same generator, and the same frozen cone.
    (ops, rates, ham, eps), _ = _relation_target(seed)
    before = _observed(ops, rates, ham, eps)
    z = 10.0 ** log_z * np.exp(2j * np.pi * phase)
    _assert_same(before, _observed(z * ops, rates / abs(z) ** 2, ham, eps))
    _assert_same(before, _observed(np.concatenate((ops[:1], ops)),
                                   np.concatenate((rates[:1] / 2, rates[:1] / 2, rates[1:])),
                                   ham, eps))


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS, log_s=st.floats(-15.0, 3.0))
# eps = 3.9e-17 and rates near 1e15, where a tolerance in units of the state
# takes every rate for zero.
@example(seed=0, log_s=-15.0)
def test_time_scale(seed, log_s):
    # (g, H, eps) -> (g/s, H/s, s*eps) leaves C_1 alone. classify's verdict
    # is not compared: its tolerance depends on eps alone (ROADMAP item 1).
    (ops, rates, ham, eps), _ = _relation_target(seed)
    s = 10.0 ** log_s
    _assert_same(_observed(ops, rates, ham, eps), _observed(ops, rates / s, ham / s, s * eps))


# The spectral witness under (a)-(c): the count of projectors and each one's
# expectation, a sum of eigenvalues of C, held to the state bound. Targets
# keep their eigenvalues 10 DEGENERACY_GAP away from -tol and their negative
# ones as far from each other, so that no rounding moves a cluster edge.

def _spectral(ops, rates, ham, eps):
    """The state, the count of its spectral projectors and their expectations."""
    cn = _state(ops, rates, ham, eps)
    values = [expectation(w, cn) for w in spectral_witnesses(cn)]
    return cn, {"projectors": len(values), **{f"projector {k}": v for k, v in enumerate(values)}}


def _spectral_target(seed):
    (ops, rates, ham, eps), rng = _relation_target(seed)
    w = np.linalg.eigvalsh(_state(ops, rates, ham, eps).matrix)
    tol = default_classification_tol(eps)
    assume(np.abs(w + tol).min() > 10 * DEGENERACY_GAP)
    assume(np.all(np.diff(w[w < -tol]) > 10 * DEGENERACY_GAP))
    return (ops, rates, ham, eps), rng


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS)
def test_spectral_unitary_covariance(seed):
    (ops, rates, ham, eps), rng = _spectral_target(seed)
    v = haar_unitaries(len(ham), 1, rng)[0]
    _assert_same(_spectral(ops, rates, ham, eps),
                 _spectral(v @ ops @ dagger(v), rates, v @ ham @ dagger(v), eps))


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS)
def test_spectral_jump_shift_gauge(seed):
    (ops, rates, ham, eps), rng = _spectral_target(seed)
    c = rng.uniform(-1.0, 1.0, len(ops)) + 1j * rng.uniform(-1.0, 1.0, len(ops))
    shift = sum(g * (np.conj(ca) * op - ca * dagger(op)) for g, ca, op in zip(rates, c, ops))
    _assert_same(_spectral(ops, rates, ham, eps),
                 _spectral(ops + c[:, None, None] * np.eye(len(ham)), rates, ham + shift / 2j,
                           eps))


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS, log_z=st.floats(-4.0, 4.0), phase=st.floats(0.0, 1.0))
@example(seed=0, log_z=4.0, phase=0.0)
@example(seed=0, log_z=-4.0, phase=0.0)
def test_spectral_jump_rescaling_and_splitting(seed, log_z, phase):
    (ops, rates, ham, eps), _ = _spectral_target(seed)
    before = _spectral(ops, rates, ham, eps)
    z = 10.0 ** log_z * np.exp(2j * np.pi * phase)
    _assert_same(before, _spectral(z * ops, rates / abs(z) ** 2, ham, eps))
    _assert_same(before, _spectral(np.concatenate((ops[:1], ops)),
                                   np.concatenate((rates[:1] / 2, rates[:1] / 2, rates[1:])),
                                   ham, eps))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1: the verdict is the Choi spectrum "
                                       "against a tolerance set by eps alone")
def test_the_verdict_follows_the_generator():
    # (d) on the verdict: amplitude damping at rate 30 with eps = 1e-3 and at
    # rate 3 with eps = 1e-2 is one state, C_1 with minimum eigenvalue
    # -5.71e-5, and a divisible generator; Pauli (1, 1, -0.3) breaks
    # divisibility at every t, and at eps = 0.1 its minimum eigenvalue -0.03
    # sits inside tol = 0.1.
    damping = [choi_of_generator(LindbladGenerator(dim=2, ops=(_SIGMA_MINUS,),
                                                   rates=(ConstantRate(g),)), 0.0, eps)
               for g, eps in ((30.0, 1e-3), (3.0, 1e-2))]
    assert np.array_equal(damping[0].matrix, damping[1].matrix)
    assert [classify(c).is_markovian for c in damping] == [True, True]
    assert not classify(pauli_choi((1.0, 1.0, -0.3), eps=0.1)).is_markovian


# scan under (a)-(c), on a grid where the rates change with t. A scan reports
# no states, but sum |lambda| = 1 + deficit bounds each state's ||C||, so the
# minimum eigenvalues and the deficits are held to _assert_same's state bound
# at each point, 64 u (1 + deficit).

_KNOTS = (0.0, 0.3, 0.6, 1.0)


def _scan_target(seed):
    """_relation_target with at least two jumps, each rate a table on
    _KNOTS: the first jump's is constant, so that the jump-shift gauge can
    move it (H cannot follow a rate that changes), the others vary on [-1, 1]
    about their rates."""
    (ops, rates, ham, eps), rng = _relation_target(seed)
    if len(ops) == 1:
        extra = rng.standard_normal(ops.shape) + 1j * rng.standard_normal(ops.shape)
        ops = np.concatenate((ops, extra))
        rates = np.append(rates, rng.uniform(-1.0, 1.0))
    tables = rates[:, None] + rng.uniform(-1.0, 1.0, (len(rates), len(_KNOTS)))
    tables[0] = rates[0]
    return (ops, tables, ham, eps), rng


def _scanned(ops, tables, ham, eps):
    """scan's minimum eigenvalues and deficits on 40 cells of [0, 1]."""
    gen = LindbladGenerator(dim=len(ham), ops=tuple(ops), hamiltonian=ham,
                            rates=tuple(TableRate(_KNOTS, tuple(v)) for v in tables))
    report = scan(gen, 0.0, 1.0, 40, eps)
    return report.min_eigenvalues, report.deficits


def _assert_same_scan(before, after):
    (mins, deficits), (mins2, deficits2) = before, after
    bound = 64 * np.finfo(float).eps * (1.0 + np.maximum(deficits, deficits2))
    for name, x, y in (("lambda", mins, mins2), ("deficit", deficits, deficits2)):
        k = np.argmax(np.abs(x - y) - bound)
        assert abs(x[k] - y[k]) <= bound[k], (name, k, x[k], y[k])


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS)
def test_scan_unitary_covariance(seed):
    (ops, tables, ham, eps), rng = _scan_target(seed)
    v = haar_unitaries(len(ham), 1, rng)[0]
    _assert_same_scan(_scanned(ops, tables, ham, eps),
                      _scanned(v @ ops @ dagger(v), tables, v @ ham @ dagger(v), eps))


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS)
def test_scan_jump_shift_gauge(seed):
    # Only the first jump, whose rate g is constant, is shifted.
    (ops, tables, ham, eps), rng = _scan_target(seed)
    c, g = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)), tables[0, 0]
    shifted = ops.copy()
    shifted[0] += c * np.eye(len(ham))
    shift = g * (np.conj(c) * ops[0] - c * dagger(ops[0]))
    _assert_same_scan(_scanned(ops, tables, ham, eps),
                      _scanned(shifted, tables, ham + shift / 2j, eps))


@settings(max_examples=50, deadline=None)
@given(seed=_SEEDS, log_z=st.floats(-4.0, 4.0), phase=st.floats(0.0, 1.0))
@example(seed=0, log_z=4.0, phase=0.0)
@example(seed=0, log_z=-4.0, phase=0.0)
def test_scan_jump_rescaling_and_splitting(seed, log_z, phase):
    # The second jump, whose rate changes with t, is the one split.
    (ops, tables, ham, eps), _ = _scan_target(seed)
    before = _scanned(ops, tables, ham, eps)
    z = 10.0 ** log_z * np.exp(2j * np.pi * phase)
    _assert_same_scan(before, _scanned(z * ops, tables / abs(z) ** 2, ham, eps))
    split = np.concatenate((ops[:2], ops[1:]))
    halves = np.concatenate((tables[:1], tables[1:2] / 2, tables[1:2] / 2, tables[2:]))
    _assert_same_scan(before, _scanned(split, halves, ham, eps))
