import numpy as np
import pytest
import scipy.optimize

from nmwitness.channels import SuperOperator, builtin_dephasing, builtin_pauli, haar_unitaries
from nmwitness.choi import (ChoiMatrix, choi_of_channel, choi_of_generator, classify,
                            dissipator_chois, max_entangled_state)
from nmwitness.linalg import DEGENERACY_GAP, SIGMA_Z, dagger, hs_inner, hs_norm
from nmwitness.rates import ConstantRate
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
                     psd_project, stack_uniqueness_lhs, stack_verify_witness)

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


def test_fixed_basis_interior_fixed_point():
    rates = np.array([0.3, 0.8, 0.2])
    cn = pauli_choi(rates)
    res = nearest_mcs_fixed_basis(cn, pauli_family(EPS))
    assert np.abs(res.rates - rates).max() < 1e-10
    assert res.residual <= 1e-10
    assert res.kkt_ok
    assert not res.degenerate


def test_fixed_basis_pauli_oracle():
    cn = pauli_choi((1.0, 1.0, -0.3))
    res = nearest_mcs_fixed_basis(cn, pauli_family(EPS))
    assert np.abs(res.rates - np.array([0.9, 0.9, 0.0])).max() < 1e-8
    assert res.residual ** 2 == pytest.approx(0.12 * EPS * EPS, rel=1e-10)
    assert res.kkt_ok


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
    assert res.degenerate
    assert res.kkt_ok
    assert res.residual == pytest.approx(0.5 * EPS * np.sqrt(2.0), rel=1e-8)


def test_fixed_basis_family_refuses_eps_zero():
    with pytest.raises(ValueError, match=r"^MarkovianFamily: eps must be > 0, got 0\.0$"):
        fixed_basis_family([SIGMA_Z], 0.0)


@pytest.mark.parametrize("ops, error, message", [
    ((SIGMA_Z,) * 5, ValueError, r"^MarkovianFamily: at most dim\^2=4 basis operators, got 5$"),
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
    with pytest.raises(ValueError, match=r"^nearest_mcs_full_gksl: eps must be > 0, got 0\.0$"):
        nearest_mcs_full_gksl(c)


def test_full_gksl_nonconvergence_flag(monkeypatch):
    monkeypatch.setattr(witness_module, "GKSL_MAX_ITER", 2)
    monkeypatch.setattr(witness_module, "GKSL_TOL", 1e-16)
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
    n, seed = 300, 40 + dim
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    x = _draw_generators(dim, n, rng, signed=signed).dissipators()
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
    # draws, entry for entry. Without a Hamiltonian it is drawn as the
    # convexity probe draws it.
    for eps in (EPS, 0.7):
        if hamiltonian:
            chois = sample_markovian_chois(dim, eps, 200, seed=dim)
        else:
            rng = np.random.default_rng(dim)
            chois = _draw_generators(dim, 200, rng, hamiltonian=False).states(eps)
        ref = gram_sample_chois(dim, eps, 200, seed=dim, include_hamiltonian=hamiltonian)
        assert np.array_equal(chois, ref)
    rng, ref_rng = np.random.default_rng(dim), np.random.default_rng(dim)
    assert np.array_equal(_draw_generators(dim, 200, rng, signed=hamiltonian).dissipators(),
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
    monkeypatch.setattr(witness_module._SampledGenerators, "states", refuse)
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
    assert result.holds == bool(lhs.max() <= 1e-8)
