import ast
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from nmwitness.channels import (
    LindbladGenerator,
    SuperOperator,
    builtin_dephasing,
    builtin_pauli,
    first_order_channel,
    gksl_superoperator,
    haar_unitaries,
)
from nmwitness.choi import (
    ChoiMatrix,
    MarkovianTargetError,
    choi_kets,
    choi_of_channel,
    choi_of_generator,
    classify,
    complete_trace_preserving,
    default_classification_tol,
    dissipator_chois,
    first_order_state,
    hamiltonian_choi,
    lift,
    max_entangled_state,
    partial_trace_2,
    perp_block,
    perp_isometry,
    require_non_markovian,
    scan,
)
from nmwitness.linalg import ShapeError, hs_norm
from nmwitness.rates import RateEvalError, TableRate
from oracles import (apply_superop, channel_of_choi, kron_dissipator_chois, random_markovian,
                     trace_norm)


@pytest.mark.parametrize("d", [2, 3, 4])
def test_first_order_state_is_phi_plus_eps_x(d):
    rng = np.random.default_rng(d)
    xs = rng.standard_normal((5, d * d, d * d)) + 1j * rng.standard_normal((5, d * d, d * d))
    for x in (xs, xs[0]):
        want = max_entangled_state(d) + 1e-3 * x
        assert first_order_state(x, 1e-3).tobytes() == want.tobytes()


def test_max_entangled_state_qubit():
    phi = max_entangled_state(2)
    expected = np.zeros((4, 4), dtype=complex)
    for i in (0, 3):
        for j in (0, 3):
            expected[i, j] = 0.5
    assert np.abs(phi - expected).max() < 1e-15
    assert np.trace(phi).real == pytest.approx(1.0)
    assert np.trace(phi @ phi).real == pytest.approx(1.0)


@pytest.mark.parametrize("d", [2, 3])
def test_max_entangled_state_is_cached_and_read_only(d):
    phi = max_entangled_state(d)
    assert max_entangled_state(d) is phi
    assert not phi.flags.writeable
    with pytest.raises(ValueError):
        phi[0, 0] = 1.0


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
            block = apply_superop(s, basis) / d
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


@pytest.mark.parametrize("dim", [2, 3, 4, 5])
def test_dissipator_chois_bit_identical_to_kron_route(dim):
    # The direct Choi-form dissipator reproduces the superoperator route to
    # the last bit, signed zeros included, so no report byte depends on the
    # route. Ginibre jumps, each scaled by 10^[-3, 3], some entries zeroed.
    rng = np.random.default_rng(100 + dim)
    for _ in range(25):
        m = int(rng.integers(1, dim * dim + 1))
        ops = (rng.standard_normal((m, dim, dim)) + 1j * rng.standard_normal((m, dim, dim)))
        ops *= 10.0 ** rng.uniform(-3.0, 3.0, size=(m, 1, 1))
        ops[rng.random(ops.shape) < 0.2] = 0.0
        got, want = dissipator_chois(tuple(ops)), kron_dissipator_chois(tuple(ops))
        assert np.array_equal(got, want)
        assert got.tobytes() == want.tobytes()


def test_choi_kets_are_a_fresh_c_contiguous_copy():
    # Scaled in place on its own copy: the input is never written, whatever
    # its layout, and the bits are those of vec(A) / sqrt(d) out of place.
    rng = np.random.default_rng(7)
    a = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    for m in (a, a.transpose(0, 2, 1), np.asfortranarray(a[0]), a[0].real, np.eye(3, dtype=int)):
        before = m.copy()
        kets = choi_kets(m)
        assert kets.flags.c_contiguous and not np.shares_memory(kets, m)
        assert np.array_equal(m, before)
        want = np.swapaxes(m, -1, -2).reshape(m.shape[:-2] + (9,)) / np.sqrt(3)
        assert kets.dtype == want.dtype and kets.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# layout pieces of the divisible cone, against dense oracles
# ---------------------------------------------------------------------------

def _random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_lift_is_kron_with_identity(d):
    m = _random_complex(np.random.default_rng(d), (d, d))
    assert np.array_equal(lift(m), np.kron(m, np.eye(d)))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_partial_trace_2_against_explicit_sum(d):
    rng = np.random.default_rng(10 + d)
    m = _random_complex(rng, (d, d))
    assert np.abs(partial_trace_2(lift(m)) - d * m).max() < 1e-13
    x = _random_complex(rng, (d * d, d * d))
    # <i|Tr_2 X|j> = sum_k <ik|X|jk>, with |ik> at row i*d+k.
    want = np.array([[sum(x[i * d + k, j * d + k] for k in range(d)) for j in range(d)]
                     for i in range(d)])
    assert np.abs(partial_trace_2(x) - want).max() < 1e-13
    # A stack's traces are its matrices' traces, bit for bit.
    stack = _random_complex(rng, (2, 3, d * d, d * d))
    traces = partial_trace_2(stack)
    assert traces.shape == (2, 3, d, d)
    for idx in np.ndindex(2, 3):
        assert np.array_equal(traces[idx], partial_trace_2(stack[idx]))


SRC = Path(__file__).resolve().parents[1] / "src" / "nmwitness"


def tr2_spellings(module: str, source: str) -> list[str]:
    """module.function, the innermost function, of each line of source that
    spells the Tr_2 subscripts ikjk."""
    functions = [(f.lineno, f.end_lineno, f.name) for f in ast.walk(ast.parse(source))
                 if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
    found = []
    for k, line in enumerate(source.splitlines(), 1):
        if "ikjk" in line:
            owners = [(a, name) for a, b, name in functions if a <= k <= b]
            found.append(f"{module}.{max(owners)[1] if owners else '<module>'}")
    return found


def test_the_tr2_scan_finds_an_inline_copy():
    planted = ('def partial_trace_2(x):\n'
               '    return np.einsum("ikjk->ij", x)\n'
               '\n'
               'def complete(p):\n'
               '    def half():\n'
               '        return 0.5 * np.einsum("...ikjk->...ij", p)\n'
               '    return half()\n')
    assert tr2_spellings("choi", planted) == ["choi.partial_trace_2", "choi.half"]
    assert tr2_spellings("witness", "x = partial_trace_2(y)\n") == []


def test_tr2_is_spelled_once_in_partial_trace_2():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in tr2_spellings(path.stem, path.read_text())]
    assert found == ["choi.partial_trace_2"]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_perp_isometry_spans_w_perp(d):
    u = perp_isometry(d)
    assert u.shape == (d * d, d * d - 1)
    assert np.abs(u.conj().T @ u - np.eye(d * d - 1)).max() < 1e-15
    assert np.abs(u @ u.conj().T - (np.eye(d * d) - max_entangled_state(d))).max() < 1e-15
    assert perp_isometry(d) is u
    assert not u.flags.writeable
    with pytest.raises(ValueError):
        u[0, 0] = 1.0


@pytest.mark.parametrize("d", [2, 3, 4])
def test_perp_block_is_the_w_perp_block(d):
    rng = np.random.default_rng(30 + d)
    n = d * d
    x = rng.standard_normal((5, n, n)) + 1j * rng.standard_normal((5, n, n))
    u, w_perp = perp_isometry(d), np.eye(n) - max_entangled_state(d)
    blocks = perp_block(x)
    assert blocks.shape == (5, n - 1, n - 1)
    for k in range(5):
        # A stack's blocks are its matrices' blocks, bit for bit.
        assert np.array_equal(blocks[k], perp_block(x[k]))
        assert np.abs(u @ blocks[k] @ u.conj().T - w_perp @ x[k] @ w_perp).max() < 1e-13
    # The Hamiltonian part of a generator leaves the block alone, and a jump
    # at a positive rate adds a PSD term to it.
    h = x[0, :d, :d] + x[0, :d, :d].conj().T
    assert np.abs(perp_block(hamiltonian_choi(h))).max() < 1e-14
    y = dissipator_chois(x[1:3, :d, :d])
    assert np.linalg.eigvalsh(perp_block(y))[:, 0].min() > -1e-14


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_trace_preserving_completion_is_the_outer_product_form(d):
    # P - (d/2)(|phi><a| + |a><phi|), a = (Tr_2 P (x) 1)|phi>, written with
    # outer products: the in-place form changes only phi's rows and columns,
    # a stack and its matrices one at a time alike, and leaves Tr_2 X = 0 for
    # a Hermitian P.
    rng = np.random.default_rng(20 + d)
    stack = _random_complex(rng, (6, d * d, d * d))
    stack += stack.conj().transpose(0, 2, 1)
    phi_ket = choi_kets(np.eye(d))
    want = []
    for p in stack:
        a = lift(partial_trace_2(p)) @ phi_ket
        want.append(p - 0.5 * d * (np.outer(phi_ket, a.conj()) + np.outer(a, phi_ket.conj())))
    got = stack.copy()
    complete_trace_preserving(got)
    assert np.abs(got - np.array(want)).max() <= 1e-14 * np.abs(stack).max()
    on_phi = np.zeros(d * d, dtype=bool)
    on_phi[::d + 1] = True
    off = ~(on_phi[:, None] | on_phi[None, :])
    assert np.array_equal(got[:, off], stack[:, off])
    for k, p in enumerate(stack):
        single = p.copy()
        complete_trace_preserving(single)
        assert np.array_equal(single, got[k])
        assert np.abs(partial_trace_2(single)).max() <= 1e-14 * np.abs(p).max()


@pytest.mark.parametrize("d", [2, 3, 4])
def test_trace_preserving_completion_of_jumps_is_the_dissipator_sum(d):
    # For P = sum_a g_a |k_a><k_a|, k_a the Choi ket of L_a, the completion is
    # sum_a g_a Y_a; for unitary jumps it is P - (sum_a g_a) phi.
    rng = np.random.default_rng(30 + d)
    rates = rng.uniform(0.0, 1.0, size=5)
    for ops in (_random_complex(rng, (5, d, d)), haar_unitaries(d, 5, rng)):
        kets = choi_kets(ops)
        p = np.einsum("a,ai,aj->ij", rates, kets, kets.conj())
        x = p.copy()
        complete_trace_preserving(x)
        want = np.tensordot(rates, kron_dissipator_chois(ops), axes=1)
        assert np.abs(x - want).max() <= 1e-14 * max(1.0, np.abs(want).max())
    assert np.abs(x - (p - rates.sum() * max_entangled_state(d))).max() <= 1e-15


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
    assert np.linalg.eigvalsh(c.matrix)[0] >= -default_classification_tol(1e-3)


def test_classify_nonmarkovian_dephasing():
    c = choi_of_generator(builtin_dephasing(-1.0), 0.0, 1e-3)
    verdict = classify(c)
    assert not verdict.is_markovian
    assert verdict.min_eigenvalue == pytest.approx(-1e-3, abs=1e-12)
    assert verdict.trace_norm_deficit == pytest.approx(2e-3, abs=1e-12)
    assert np.count_nonzero(np.linalg.eigvalsh(c.matrix) < -default_classification_tol(1e-3)) == 1
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
        has_negative = not verdict.is_markovian
        assert has_negative == (verdict.trace_norm_deficit > 2 * default_classification_tol(1e-3))
        if verdict.is_markovian:
            assert abs(trace_norm(c.matrix) - 1.0) < 1e-10


def test_require_non_markovian_returns_the_verdict_or_names_the_target():
    c = choi_of_generator(builtin_dephasing(-1.0), 0.5, 1e-3)
    verdict = require_non_markovian(c)
    assert verdict.min_eigenvalue == classify(c).min_eigenvalue
    assert not verdict.is_markovian
    with pytest.raises(MarkovianTargetError, match=r"^Choi state at t=0\.5, eps=0\.001 "
                       r"classifies as Markovian \(min eigenvalue -1\.000e-03\); "
                       r"nothing to witness$"):
        require_non_markovian(c, tol=2e-3)
    markovian = choi_of_generator(builtin_dephasing(1.0), 0.0, 1e-3)
    with pytest.raises(MarkovianTargetError, match=r"t=0\.0, eps=0\.001 classifies"):
        require_non_markovian(markovian)
    assert issubclass(MarkovianTargetError, ValueError)


def test_choi_matrix_validation():
    with pytest.raises(ValueError):
        ChoiMatrix(dim=2, matrix=np.eye(4, dtype=complex), t=0.0, eps=1e-3)  # trace 4
    bad = max_entangled_state(2).copy()
    bad[0, 1] = 0.5  # breaks Hermiticity
    with pytest.raises(ValueError):
        ChoiMatrix(dim=2, matrix=bad, t=0.0, eps=1e-3)
    with pytest.raises(ShapeError, match=r"^ChoiMatrix: expected 4x4 for dim=2, "
                                         r"got \(3, 3\)$"):
        ChoiMatrix(dim=2, matrix=np.eye(3) / 3, t=0.0, eps=1e-3)
    with pytest.raises(ValueError, match=r"^max_entangled_state: dim must be >= 2, got 1$"):
        max_entangled_state(1)


def test_choi_matrix_holds_the_hermitian_part_of_any_layout():
    # A Hermiticity defect within tolerance is admitted and dropped, from a
    # C-ordered, Fortran-ordered or strided matrix alike.
    m = max_entangled_state(2) + 1e-12j * np.triu(np.ones((4, 4)), 1)
    strided = np.zeros((8, 8), dtype=complex)
    strided[::2, ::2] = m
    for layout in (m, np.asfortranarray(m), strided[::2, ::2]):
        c = ChoiMatrix(dim=2, matrix=layout, t=0.0, eps=1e-3)
        assert np.array_equal(c.matrix, 0.5 * (m + m.conj().T))
        assert np.array_equal(c.matrix, c.matrix.conj().T)


def test_choi_of_generator_carries_the_hermitian_part_of_its_generator():
    # The state is phi + eps*C_L and carries the Hermitian part of C_L; a
    # state built from a bare matrix carries nothing.
    gen = LindbladGenerator(dim=2, ops=(np.array([[0, 1], [0, 0]], dtype=complex),),
                            rates=(TableRate((0.0, 1.0), (-1.0, 2.0)),),
                            hamiltonian=np.array([[0.3, 0.1 - 0.2j], [0.1 + 0.2j, -0.3]]))
    c = choi_of_generator(gen, 0.25, 1e-3)
    c_l = gen.rates[0](0.25) * dissipator_chois(gen.ops)[0] + hamiltonian_choi(gen.hamiltonian)
    assert np.array_equal(c.direction, 0.5 * (c_l + c_l.conj().T))
    assert np.array_equal(c.matrix, ChoiMatrix(2, first_order_state(c_l, 1e-3), 0.25, 1e-3).matrix)
    assert ChoiMatrix(2, c.matrix, 0.25, 1e-3).direction is None


def test_choi_matrix_direction_validation():
    phi = max_entangled_state(2)
    with pytest.raises(ShapeError, match=r"^ChoiMatrix: expected 4x4 for dim=2, "
                                         r"got \(3, 3\)$"):
        ChoiMatrix(2, phi, 0.0, 1e-3, np.eye(3))
    with pytest.raises(ValueError, match=r"^ChoiMatrix\.direction: contains non-finite"):
        ChoiMatrix(2, phi, 0.0, 1e-3, np.full((4, 4), np.inf))


def test_choi_matrix_direction_near_the_double_range_stays_finite():
    # The Hermitian part of a C_L whose a + a^dag would overflow.
    y = np.zeros((4, 4), dtype=complex)
    y[0, 3], y[3, 0] = -1.7e308j, 1.7e308j
    with np.errstate(all="raise"):
        c = ChoiMatrix(2, max_entangled_state(2), 0.0, 1e-300, y)
    assert np.array_equal(c.direction, y)


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
    with pytest.raises(ValueError, match=r"^scan: need t1 > t0, got \[0\.5, 0\.5\]$"):
        scan(gen, 0.5, 0.5, 4, 1e-3)


def test_choi_of_generator_refuses_eps_zero():
    with pytest.raises(ValueError, match=r"^first-order Choi state: eps must be finite and > 0, "
                                         r"got 0\.0$"):
        choi_of_generator(builtin_dephasing(1.0), 0.0, 0.0)


@pytest.mark.parametrize("t0, t1, steps, dt", [
    # dt = 0.5 is a quarter of the spacing 2 of the doubles at 1e16: the
    # first three edges round to t0.
    (1e16, 1.0000000000000002e16, 4, "0.5"),
    # Half the smallest subnormal rounds to dt = 0.
    (0.0, 5e-324, 2, "0.0"),
], ids=["spacing-at-1e16", "subnormal"])
def test_scan_refuses_a_window_narrower_than_the_double_spacing(t0, t1, steps, dt):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as narrow:
            scan(builtin_dephasing(1.0), t0, t1, steps, 1e-3)
    assert str(narrow.value) == (
        f"scan: window [{t0}, {t1}] is too narrow for {steps} steps: the cell edges "
        f"t0 + k*dt, dt = {dt}, are not strictly increasing")


def test_scan_refuses_a_window_whose_width_overflows():
    # t1 - t0 = 2e308 is beyond the double range: an error naming the window,
    # not an invalid-value warning from the grid.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"^scan: window \[-1e\+308, 1e\+308\] is too "
                                             r"wide: \(t1 - t0\) / steps is inf$"):
            scan(builtin_dephasing(1.0), -1e308, 1e308, 3, 1e-3)


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
    ("sin(exp(700)*exp(700))",),
])
def test_scan_rate_error_matches_point_loop(rates):
    gen = LindbladGenerator(dim=2, ops=(np.diag([1.0, -1.0]),) * len(rates), rates=rates)
    with pytest.raises(RateEvalError) as point:
        for t in 0.25 * np.arange(12):  # scan's grid of [0, 3] in 12 steps
            gen.rate_grid([float(t)])
    with pytest.raises(RateEvalError) as stacked:
        scan(gen, 0.0, 3.0, 12, 1e-3)
    assert str(stacked.value) == str(point.value)


def test_scan_refuses_a_swamped_phi_near_overflow():
    # Entries near 1e308: rounding reaches phi's entries, an input error that
    # names the first state's t and eps.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as failed:
            scan(builtin_dephasing(-1.7e308), 0.0, 1.0, 4, 0.6)
    assert str(failed.value) == (
        "Choi state at t=0.0, eps=0.6: eps*C_L swamps phi or overflows the double "
        "range (largest |entry| 1.020e+308)")


def test_choi_of_generator_refuses_a_swamped_phi_near_overflow():
    # The state is refused before classify could see it.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError) as failed:
            choi_of_generator(builtin_dephasing(-1.7e308), 0.25, 0.6)
    assert str(failed.value) == (
        "Choi state at t=0.25, eps=0.6: eps*C_L swamps phi or overflows the double "
        "range (largest |entry| 1.020e+308)")


def test_scan_rejects_non_finite_measure():
    # eps * rate is about 1, so no state swamps phi; every deficit is finite,
    # and their sum * dt / eps is not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"integrated_measure on \[0.0, 10000000000.0\] "
                                             r"is inf"):
            scan(builtin_dephasing(-1e300), 0.0, 1e10, 4, 1e-300)


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
