import numpy as np
import pytest

from nmwitness.linalg import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    HermiticityError,
    ShapeError,
    dagger,
    gell_mann_basis,
    hermitian_eig,
    hermitian_part,
    hermiticity_defect,
    hs_inner,
    hs_norm,
    matrix_exp,
    require_hermitian,
)
from oracles import psd_project, taylor_expm, trace_norm

I2 = np.eye(2, dtype=complex)


def random_complex(rng, n, m=None):
    m = n if m is None else m
    return rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))


def random_hermitian(rng, n):
    a = random_complex(rng, n)
    return a + dagger(a)


def dephasing_choi(gamma, eps):
    # Pure-dephasing small-time Choi state in the |00>,|01>,|10>,|11> basis.
    a = 1.0 - 2.0 * gamma * eps
    c = np.zeros((4, 4), dtype=complex)
    c[0, 0] = c[3, 3] = 0.5
    c[0, 3] = c[3, 0] = 0.5 * a
    return c


# ---------------------------------------------------------------------------
# adjoints, inner products
# ---------------------------------------------------------------------------

def test_dagger():
    assert np.allclose(dagger(SIGMA_Y), SIGMA_Y)
    assert np.allclose(dagger(1j * SIGMA_Z), -1j * SIGMA_Z)
    rng = np.random.default_rng(3)
    a, b = random_complex(rng, 3), random_complex(rng, 3)
    assert np.abs(dagger(a @ b) - dagger(b) @ dagger(a)).max() < 1e-12


@pytest.mark.parametrize("k", [4, 9, 16, 25])
def test_hermitian_part_and_defect_of_a_stack_are_those_of_each_matrix(k):
    # Bit for bit, through the bytes: a signed zero or a last-bit change shows.
    rng = np.random.default_rng(k)
    stack = rng.standard_normal((3, k, k)) + 1j * rng.standard_normal((3, k, k))
    parts, defects = hermitian_part(stack), hermiticity_defect(stack)
    assert parts.shape == stack.shape and defects.shape == (3,)
    for a, part, defect in zip(stack, parts, defects):
        want_part, want_defect = 0.5 * (a + a.conj().T), np.abs(a - a.conj().T).max()
        assert part.tobytes() == hermitian_part(a).tobytes() == want_part.tobytes()
        assert defect == hermiticity_defect(a) == want_defect


def test_hs_inner():
    assert hs_inner(SIGMA_X, SIGMA_X) == pytest.approx(2.0)
    assert hs_inner(SIGMA_X, SIGMA_Z) == pytest.approx(0.0)
    rng = np.random.default_rng(4)
    a = random_complex(rng, 4)
    val = hs_inner(a, a)
    assert val.real == pytest.approx(hs_norm(a) ** 2, abs=1e-12)
    assert abs(val.imag) < 1e-14
    with pytest.raises(ShapeError):
        hs_inner(np.eye(2), np.eye(3))


def test_hs_norm_values():
    phi = np.zeros((4, 4), dtype=complex)
    phi[0, 0] = phi[0, 3] = phi[3, 0] = phi[3, 3] = 0.5
    assert hs_norm(phi) == pytest.approx(1.0)
    assert hs_norm(np.eye(4) / 4) == pytest.approx(0.5)
    assert hs_norm(I2) == pytest.approx(np.sqrt(2.0))


# ---------------------------------------------------------------------------
# trace norm
# ---------------------------------------------------------------------------

def test_trace_norm_values():
    rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
    assert trace_norm(rho) == pytest.approx(1.0, abs=1e-12)
    assert trace_norm(np.diag([0.5, -0.5]).astype(complex)) == pytest.approx(1.0)
    # gamma * eps = -0.01: spectrum {0, 0, -0.01, 1.01}, trace norm 1.02
    c = dephasing_choi(-10.0, 1e-3)
    assert trace_norm(c) == pytest.approx(1.02, abs=1e-12)


def test_trace_norm_bounds_trace():
    rng = np.random.default_rng(5)
    for _ in range(50):
        h = random_hermitian(rng, 4)
        assert trace_norm(h) >= abs(np.trace(h).real) - 1e-12
        p = random_complex(rng, 4)
        psd = p @ dagger(p)
        assert trace_norm(psd) == pytest.approx(np.trace(psd).real, abs=1e-10)
    # strict inequality off the PSD cone
    ind = np.diag([1.0, -1.0]).astype(complex)
    assert trace_norm(ind) > abs(np.trace(ind).real) + 0.5


# ---------------------------------------------------------------------------
# eigendecomposition and PSD projection
# ---------------------------------------------------------------------------

def test_require_hermitian_refuses_a_defect_past_the_double_range():
    # a - a^dag overflows to inf: refused by name, with no overflow warning.
    for a in (np.array([[8.98846567431158e307j]]),
              np.array([[0.0, 9e307], [-9e307, 0.0]], dtype=complex)):
        with pytest.raises(HermiticityError) as info:
            require_hermitian(a, "huge")
        assert str(info.value) == "huge: not Hermitian, max |a - a^dag| = inf > 1.0e-10"


def test_hermitian_eig_sigma_z():
    w, _ = hermitian_eig(SIGMA_Z)
    assert np.allclose(w, [-1.0, 1.0])


def test_hermitian_eig_dephasing_choi():
    w, _ = hermitian_eig(dephasing_choi(1.0, 1e-3))
    assert np.abs(w - np.array([0.0, 0.0, 1e-3, 0.999])).max() < 1e-12


def test_hermitian_eig_reconstruction():
    rng = np.random.default_rng(6)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        a = random_hermitian(rng, n)
        w, v = hermitian_eig(a)
        scale = max(1.0, hs_norm(a))
        assert hs_norm(a - (v * w) @ dagger(v)) <= 1e-10 * scale
        assert np.all(np.diff(w) >= 0)
        assert w.sum() == pytest.approx(np.trace(a).real, abs=1e-10)
        assert np.abs(dagger(v) @ v - np.eye(n)).max() < 1e-10


def test_hermitian_eig_deterministic():
    rng = np.random.default_rng(7)
    a = random_hermitian(rng, 5)
    w1, v1 = hermitian_eig(a)
    w2, v2 = hermitian_eig(a)
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_hermitian_eig_is_eigh_of_the_hermitian_part():
    rng = np.random.default_rng(8)
    a = random_hermitian(rng, 6)
    a[0, 1] += 5e-11  # a defect within the tolerance
    w, v = hermitian_eig(a)
    want_w, want_v = np.linalg.eigh(0.5 * (a + a.conj().T))
    assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
    a[0, 1] += 1e-10
    with pytest.raises(HermiticityError, match=r"hermitian_eig: not Hermitian, "
                                               r"max \|a - a\^dag\| = 1\.500e-10 > 1\.0e-10"):
        hermitian_eig(a)


def test_hermitian_eig_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(HermiticityError, match="1.000e"):
        hermitian_eig(bad)


def test_psd_project_fixed_point_and_clamp():
    rng = np.random.default_rng(8)
    p = random_complex(rng, 4)
    psd = p @ dagger(p)
    assert np.abs(psd_project(psd) - psd).max() < 1e-12
    assert np.allclose(psd_project(np.diag([1.0, -1.0]).astype(complex)),
                       np.diag([1.0, 0.0]))


def test_psd_project_monte_carlo_optimality():
    rng = np.random.default_rng(9)
    a = random_hermitian(rng, 4)
    star = psd_project(a)
    best = hs_norm(a - star)
    for _ in range(1000):
        p = random_complex(rng, 4)
        cand = p @ dagger(p)
        assert best <= hs_norm(a - cand) + 1e-12


def test_psd_project_idempotent():
    rng = np.random.default_rng(10)
    a = random_hermitian(rng, 5)
    once = psd_project(a)
    assert np.abs(psd_project(once) - once).max() < 1e-12


# ---------------------------------------------------------------------------
# matrix exponential
# ---------------------------------------------------------------------------

def test_matrix_exp_zero():
    assert np.allclose(matrix_exp(np.zeros((3, 3), dtype=complex)), np.eye(3))


def test_matrix_exp_taylor_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        a = random_complex(rng, 4)
        a = a / max(1.0, hs_norm(a))
        assert hs_norm(matrix_exp(a) - taylor_expm(a)) < 1e-10


def test_matrix_exp_shape_error():
    with pytest.raises(ShapeError):
        matrix_exp(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# operator basis
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dim", [2, 3, 4])
def test_gell_mann_basis(dim):
    basis = gell_mann_basis(dim)
    assert len(basis) == dim * dim - 1
    for i, f in enumerate(basis):
        assert abs(np.trace(f)) < 1e-14
        assert np.abs(f - dagger(f)).max() < 1e-14
        for j, g in enumerate(basis):
            expected = 1.0 if i == j else 0.0
            assert hs_inner(f, g).real == pytest.approx(expected, abs=1e-12)


def test_gell_mann_qubit_is_scaled_paulis():
    basis = gell_mann_basis(2)
    targets = [SIGMA_X / np.sqrt(2), SIGMA_Y / np.sqrt(2), SIGMA_Z / np.sqrt(2)]
    for target in targets:
        assert any(np.abs(f - target).max() < 1e-14 for f in basis)
