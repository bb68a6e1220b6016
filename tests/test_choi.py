import math

import numpy as np
import pytest

from nmwitness.channels import (
    LindbladGenerator,
    SuperOperator,
    builtin_dephasing,
    builtin_pauli,
    first_order_channel,
    gksl_superoperator,
    random_markovian,
)
from nmwitness.choi import (
    ChoiMatrix,
    channel_of_choi,
    choi_of_channel,
    choi_of_generator,
    classify,
    default_classification_tol,
    max_entangled_state,
    scan,
)
from nmwitness.linalg import hs_norm, trace_norm
from nmwitness.rates import RateEvalError, TableRate


def test_max_entangled_state_qubit():
    phi = max_entangled_state(2)
    expected = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            expected[i, j] = 0.5
    assert np.abs(phi - expected).max() < 1e-15
    assert np.trace(phi).real == pytest.approx(1.0)
    assert np.trace(phi @ phi).real == pytest.approx(1.0)


def test_choi_of_identity_channel():
    eye = SuperOperator(dim=2, matrix=np.eye(4, dtype=complex))
    c = choi_of_channel(eye)
    assert np.abs(c.matrix - max_entangled_state(2)).max() < 1e-15


def test_choi_matches_block_definition():
    # <ik| C |jl> = (1/d) <k| S(|i><j|) |l>, checked entry by entry
    gen = random_markovian(2, 2, seed=3)
    s = first_order_channel(gen, 0.0, 1e-3)
    c = choi_of_channel(s).matrix
    d = 2
    for i in range(d):
        for j in range(d):
            basis = np.zeros((d, d), dtype=complex)
            basis[i, j] = 1.0
            block = s.apply(basis) / d
            assert np.abs(c[i * d:(i + 1) * d, j * d:(j + 1) * d] - block).max() < 1e-14


def test_dephasing_choi_golden():
    for gamma in (-1.0, 1.0):
        c = choi_of_generator(builtin_dephasing(gamma), 0.0, 1e-3)
        w = np.linalg.eigvalsh(c.matrix)
        expected = np.sort([0.0, 0.0, gamma * 1e-3, 1.0 - gamma * 1e-3])
        assert np.abs(w - expected).max() < 1e-12


def test_pauli_choi_golden():
    c = choi_of_generator(builtin_pauli(1.0, 2.0, 3.0), 0.0, 1e-3)
    w = np.linalg.eigvalsh(c.matrix)
    assert np.abs(w - np.array([0.001, 0.002, 0.003, 0.994])).max() < 1e-12


def test_choi_linearity():
    g1 = random_markovian(2, 2, seed=5)
    g2 = random_markovian(2, 3, seed=6)
    s1 = first_order_channel(g1, 0.0, 1e-3)
    s2 = first_order_channel(g2, 0.0, 1e-3)
    for p in (0.0, 0.3, 1.0):
        mixed = SuperOperator(dim=2, matrix=p * s1.matrix + (1 - p) * s2.matrix)
        lhs = choi_of_channel(mixed).matrix
        rhs = p * choi_of_channel(s1).matrix + (1 - p) * choi_of_channel(s2).matrix
        assert np.abs(lhs - rhs).max() < 1e-12


def test_choi_trace_one():
    for seed in range(5):
        gen = random_markovian(2, 1 + seed % 4, seed=seed)
        c = choi_of_generator(gen, 0.0, 1e-3)
        assert abs(np.trace(c.matrix) - 1.0) < 1e-10


def test_roundtrip_markovian_and_nonmarkovian():
    for seed in range(10):
        gen = random_markovian(2, 1 + seed % 4, seed=seed)
        s = first_order_channel(gen, 0.0, 1e-3)
        back = channel_of_choi(choi_of_channel(s))
        assert hs_norm(back.matrix - s.matrix) <= 1e-12
    nm = first_order_channel(builtin_pauli(1.0, 1.0, -0.5), 0.0, 1e-3)
    back = channel_of_choi(choi_of_channel(nm))
    assert hs_norm(back.matrix - nm.matrix) <= 1e-12


def test_roundtrip_identity_superoperator():
    c = ChoiMatrix(dim=2, matrix=max_entangled_state(2), t=0.0, eps=1e-3)
    s = channel_of_choi(c)
    assert np.abs(s.matrix - np.eye(4)).max() < 1e-14


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

def test_classify_markovian_dephasing():
    c = choi_of_generator(builtin_dephasing(1.0), 0.0, 1e-3)
    verdict = classify(c)
    assert verdict.is_markovian
    assert verdict.trace_norm_deficit <= 1e-12
    assert verdict.negative_eigenvalues.size == 0


def test_classify_nonmarkovian_dephasing():
    c = choi_of_generator(builtin_dephasing(-1.0), 0.0, 1e-3)
    verdict = classify(c)
    assert not verdict.is_markovian
    assert verdict.min_eigenvalue == pytest.approx(-1e-3, abs=1e-12)
    assert verdict.trace_norm_deficit == pytest.approx(2e-3, abs=1e-12)
    assert verdict.negative_eigenvalues.size == 1
    # deficit equals trace norm minus one
    assert verdict.trace_norm_deficit == pytest.approx(
        trace_norm(c.matrix) - 1.0, abs=1e-12)


def test_classify_maximally_mixed():
    c = ChoiMatrix(dim=2, matrix=np.eye(4, dtype=complex) / 4.0, t=0.0, eps=1e-3)
    assert classify(c).is_markovian


def test_classify_deficit_iff_negative():
    for seed in range(10):
        rates = np.random.default_rng(seed).uniform(-1.0, 2.0, 3)
        c = choi_of_generator(builtin_pauli(*rates), 0.0, 1e-3)
        verdict = classify(c)
        has_negative = verdict.negative_eigenvalues.size > 0
        assert has_negative == (verdict.trace_norm_deficit > 2 * default_classification_tol(1e-3))
        if verdict.is_markovian:
            assert abs(trace_norm(c.matrix) - 1.0) < 1e-10


def test_choi_matrix_validation():
    with pytest.raises(ValueError):
        ChoiMatrix(dim=2, matrix=np.eye(4, dtype=complex), t=0.0, eps=1e-3)  # trace 4
    bad = max_entangled_state(2).copy()
    bad[0, 1] = 0.5  # breaks Hermiticity
    with pytest.raises(ValueError):
        ChoiMatrix(dim=2, matrix=bad, t=0.0, eps=1e-3)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def test_scan_constant_markovian():
    report = scan(builtin_dephasing(1.0), 0.0, 1.0, 100, 1e-3)
    assert report.nm_intervals == ()
    assert report.integrated_measure == pytest.approx(0.0, abs=1e-12)


def test_scan_cosine_interval_and_measure():
    report = scan(builtin_dephasing("cos(t)"), 0.0, math.pi, 1000, 1e-3)
    assert len(report.nm_intervals) == 1
    start, end = report.nm_intervals[0]
    # tolerance masks |cos t| < 10 eps, so the interval opens a bit after pi/2
    assert abs(start - math.pi / 2) < 0.02
    assert end == pytest.approx(math.pi, abs=1e-9)
    # Riemann sum of 2 max(0, -cos t) over [0, pi] approaches 2
    assert report.integrated_measure == pytest.approx(2.0, abs=0.02)


def test_scan_single_point_interval():
    # one non-Markovian grid cell yields a degenerate one-cell interval
    report = scan(builtin_dephasing("cos(t)"), 1.7, 1.8, 1, 1e-3)
    assert len(report.nm_intervals) == 1
    start, end = report.nm_intervals[0]
    assert start == pytest.approx(1.7)
    assert end == pytest.approx(1.8)


def test_scan_matches_per_point_reference():
    rng = np.random.default_rng(7)
    ops = [(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))) / 3.0
           for _ in range(3)]
    raw = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    gen = LindbladGenerator(
        dim=3,
        ops=tuple(ops),
        rates=(TableRate(times=(0.0, 1.5, 3.0, 4.5), values=(0.8, -0.6, 0.4, -0.9)),
               "cos(2*t) - 0.3",
               0.5),
        hamiltonian=0.5 * (raw + raw.conj().T),
    )
    eps = 1e-3
    report = scan(gen, 0.0, 4.5, 450, eps)
    reference = [classify(choi_of_channel(first_order_channel(gen, float(t), eps)), report.tol)
                 for t in report.grid]
    for k, want in enumerate(reference):
        assert abs(report.min_eigenvalues[k] - want.min_eigenvalue) <= 1e-12
        assert abs(report.deficits[k] - want.trace_norm_deficit) <= 1e-12
        assert report.is_markovian[k] == want.is_markovian
    # Summed in grid order, the order that keeps reports bit-for-bit stable;
    # on the 4500-step grid np.sum's pairwise order differs in the last bits.
    for run in (report, scan(gen, 0.0, 4.5, 4500, eps)):
        measure = 0.0
        for deficit in run.deficits.tolist():
            measure += max(0.0, deficit)
        assert run.integrated_measure == measure * run.dt / eps
    intervals, start = [], None
    for t, cl in zip(report.grid, reference):
        if not cl.is_markovian and start is None:
            start = float(t)
        elif cl.is_markovian and start is not None:
            intervals.append((start, float(t)))
            start = None
    if start is not None:
        intervals.append((start, float(report.grid[-1] + report.dt)))
    assert len(intervals) >= 2
    assert report.nm_intervals == tuple(intervals)


def test_scan_validation():
    gen = builtin_dephasing(1.0)
    with pytest.raises(ValueError):
        scan(gen, 1.0, 0.0, 10, 1e-3)
    with pytest.raises(ValueError):
        scan(gen, 0.0, 1.0, 0, 1e-3)


def test_scan_propagates_rate_failure():
    gen = LindbladGenerator(
        dim=2,
        ops=(np.array([[1, 0], [0, -1]], dtype=complex),),
        rates=(TableRate(times=(0.0, 0.5), values=(1.0, 1.0)),),
    )
    with pytest.raises(RateEvalError, match="t=0.6"):
        scan(gen, 0.0, 1.0, 10, 1e-3)


@pytest.mark.parametrize("rates", [
    ("1/(t-1.5)",),
    ("exp(400*t)",),
    ("(t-2)^0.5",),
    # exp(300*t)^2 overflows to inf from t = 1.25 and 1/inf + 0.1 is finite,
    # but math.exp itself overflows at t = 2.5.
    ("1/(exp(300*t)*exp(300*t)) + 0.1",),
    ("1/(t-2.5)", "1/(t-1.5)"),
    (TableRate(times=(0.0, 2.0), values=(1.0, 1.0)),),
    ("exp(700)*exp(700)*0",),
])
def test_scan_rate_error_matches_point_loop(rates):
    gen = LindbladGenerator(dim=2, ops=(np.diag([1.0, -1.0]),) * len(rates), rates=rates)
    with pytest.raises(RateEvalError) as point:
        for t in 0.25 * np.arange(12):  # scan's grid of [0, 3] in 12 steps
            gen.rate_values(float(t))
    with pytest.raises(RateEvalError) as stacked:
        scan(gen, 0.0, 3.0, 12, 1e-3)
    assert str(stacked.value) == str(point.value)


# ---------------------------------------------------------------------------
# HS-norm concentration
# ---------------------------------------------------------------------------

def test_hs_norm_close_to_one():
    eps = 1e-4
    for seed in range(20):
        gen = random_markovian(2, 1 + seed % 4, seed=seed)
        c = choi_of_generator(gen, 0.0, eps)
        l2 = hs_norm(gksl_superoperator(gen, 0.0).matrix)
        assert abs(hs_norm(c.matrix) - 1.0) <= 10.0 * eps * l2


def test_hs_norm_dephasing_closed_form():
    gamma, eps = 1.0, 1e-3
    c = choi_of_generator(builtin_dephasing(gamma), 0.0, eps)
    x = gamma * eps
    assert hs_norm(c.matrix) == pytest.approx(np.sqrt((1 - x) ** 2 + x * x), abs=1e-12)
