"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one `[acceptance] criterion NN PASS/FAIL` line (visible with
`pytest -s`) and then asserts, so a red test always matches a FAIL line.
"""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from nmwitness.channels import (
    LindbladGenerator,
    builtin_dephasing,
    builtin_pauli,
    first_order_channel,
    gksl_superoperator,
    haar_unitaries,
)
from nmwitness.choi import choi_of_channel, choi_of_generator, classify
from nmwitness.geometry import convexity_probe, extreme_point_probe
from nmwitness.linalg import hermitian_eig, hs_norm
from nmwitness.rates import ConstantRate, RateParseError, parse
from nmwitness.witness import (
    nearest_mcs_fixed_basis,
    nearest_mcs_full_gksl,
    pauli_family,
    theorem3_witness,
    expectation,
    verify_witness,
)
from golden_expressions import GOLDEN_EXPRESSIONS, MALFORMED_EXPRESSIONS
from oracles import PAULI_GRAM, channel_of_choi, pauli_grid_search, random_markovian

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

BELL_PAIRS = [
    # (eigenvalue as function of rates and eps, eigenvector)
    (lambda g, e: 1.0 - (g[0] + g[1] + g[2]) * e,
     np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)),
    (lambda g, e: g[0] * e, np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)),
    (lambda g, e: g[1] * e, np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)),
    (lambda g, e: g[2] * e, np.array([1, 0, 0, -1], dtype=complex) / np.sqrt(2)),
]


def _report(criterion: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {criterion:02d} {status}: {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_dephasing_golden():
    worst = 0.0
    for gamma in (-2.0, -1.0, -0.1, 0.1, 1.0, 2.0):
        for eps in (1e-2, 1e-3, 1e-4):
            c = choi_of_generator(builtin_dephasing(gamma), 0.0, eps)
            w = np.linalg.eigvalsh(c.matrix)
            expected = np.sort([0.0, 0.0, gamma * eps, 1.0 - gamma * eps])
            worst = max(worst, float(np.abs(w - expected).max()))
    _report(1, "dephasing Choi eigenvalues {0, 0, g*eps, 1-g*eps}",
            worst <= 1e-12, f"worst |error| = {worst:.2e}")


def test_criterion_02_pauli_golden():
    rng = np.random.default_rng(1701)
    eps = 1e-3
    worst_val = 0.0
    worst_overlap = 1.0
    checked_vectors = 0
    for _ in range(20):
        g = rng.uniform(-1.0, 2.0, 3)
        c = choi_of_generator(builtin_pauli(*g), 0.0, eps)
        expected = np.array([f(g, eps) for f, _ in BELL_PAIRS])
        vectors = [v for _, v in BELL_PAIRS]
        order = np.argsort(expected)
        w, v = hermitian_eig(c.matrix)
        worst_val = max(worst_val, float(np.abs(w - expected[order]).max()))
        for pos, idx in enumerate(order):
            gaps = np.abs(np.delete(expected, idx) - expected[idx])
            if gaps.min() <= 1e-9:
                continue  # degenerate cluster: individual vectors undefined
            overlap = abs(np.vdot(vectors[idx], v[:, pos]))
            worst_overlap = min(worst_overlap, float(overlap))
            checked_vectors += 1
    ok = worst_val <= 1e-12 and worst_overlap >= 1.0 - 1e-10 and checked_vectors > 60
    _report(2, "Pauli Choi spectrum and Bell eigenvectors", ok,
            f"worst value error {worst_val:.2e}, worst overlap {worst_overlap:.12f}, "
            f"{checked_vectors} vectors checked")


def test_criterion_03_theorem3_contract():
    # eps = 1e-2 keeps residual^2 comfortably above the double-precision
    # floor of the identity for every instance that classifies as NM
    eps = 1e-2
    rng = np.random.default_rng(20260810)
    fam = pauli_family(eps)
    worst_rel = 0.0
    worst_min = np.inf
    for k in range(100):
        while True:
            g = rng.uniform(-1.0, 2.0, 3)
            if g.min() >= 0.0:
                continue
            cn = choi_of_generator(builtin_pauli(*g), 0.0, eps)
            if not classify(cn).is_markovian:
                break
        res = nearest_mcs_fixed_basis(cn, fam)
        w = theorem3_witness(cn, res.choi_star)
        r2 = res.residual ** 2
        worst_rel = max(worst_rel, abs(expectation(w, cn) + r2) / r2)
        sampled = verify_witness(w, 2, eps, 10_000, seed=9000 + k)
        worst_min = min(worst_min, sampled.min_expectation)
    ok = worst_rel <= 1e-10 and worst_min >= -1e-8
    _report(3, "Tr(W C_N) = -||C_N - C_M*||^2 and Tr(W C_M) >= 0 on samples", ok,
            f"worst identity rel err {worst_rel:.2e}, "
            f"worst sampled expectation {worst_min:.2e}")


def test_criterion_04_nnls_oracle():
    eps = 1e-3
    gamma = np.array([1.0, 1.0, -0.3])
    cn = choi_of_generator(builtin_pauli(*gamma), 0.0, eps)
    res = nearest_mcs_fixed_basis(cn, pauli_family(eps))
    rate_err = float(np.abs(res.rates - np.array([0.9, 0.9, 0.0])).max())
    res_rel = abs(res.residual ** 2 - 0.12 * eps * eps) / (0.12 * eps * eps)

    # independent oracle 1: dense two-stage grid search at 1e-3 resolution
    grid_point, grid_value = pauli_grid_search(gamma)
    grid_err = float(np.abs(grid_point - np.array([0.9, 0.9, 0.0])).max())
    grid_rel = abs(grid_value * eps * eps - res.residual ** 2) / (0.12 * eps * eps)

    # independent oracle 2: hand KKT with the documented Gram matrix
    grad = PAULI_GRAM @ (res.rates - gamma)
    kkt_ok = (abs(grad[0]) <= 1e-8 and abs(grad[1]) <= 1e-8 and grad[2] >= -1e-8
              and abs(grad[2] - 0.4) <= 1e-7)

    ok = (rate_err <= 1e-8 and res_rel <= 1e-10 and res.kkt_ok
          and grid_err <= 1e-3 + 1e-12 and grid_rel <= 1e-5 and kkt_ok)
    _report(4, "fixed-basis projection matches grid-search/KKT oracle", ok,
            f"rate err {rate_err:.2e}, residual^2 rel err {res_rel:.2e}, "
            f"grid argmin err {grid_err:.2e}")


def test_criterion_05_convexity_suite():
    report = convexity_probe(2, 1e-4, 10_000, seed=505)
    ok = report.failures == 0 and report.worst_value >= -1e-12
    _report(5, "10^4 random qubit mixtures stay PSD below -1e-12", ok,
            f"failures {report.failures}, worst eigenvalue {report.worst_value:.2e}")


def test_criterion_06_hs_norm_suite():
    worst_margin = 0.0
    worst_lo, worst_hi = np.inf, -np.inf
    for k in range(1000):
        gen = random_markovian(2, 1 + k % 4, seed=6000 + k)
        norm_l = hs_norm(gksl_superoperator(gen, 0.0).matrix)
        devs = {}
        for eps in (1e-3, 1e-4):
            c = choi_of_generator(gen, 0.0, eps)
            dev = abs(hs_norm(c.matrix) - 1.0)
            worst_margin = max(worst_margin, dev / (10.0 * eps * norm_l))
            devs[eps] = dev
        ratio = devs[1e-3] / devs[1e-4]
        worst_lo = min(worst_lo, ratio)
        worst_hi = max(worst_hi, ratio)
    ok = worst_margin <= 1.0 and 8.0 <= worst_lo and worst_hi <= 12.0
    _report(6, "| ||C||_2 - 1 | <= 10 eps ||L||_2 with linear eps scaling", ok,
            f"worst dev/bound {worst_margin:.3f}, "
            f"scaling ratio in [{worst_lo:.3f}, {worst_hi:.3f}]")


def test_criterion_07_extreme_point_suite():
    report = extreme_point_probe(2, 1e-3, 1000, seed=707)
    purities = report.details
    ok = (report.failures == 0
          and np.abs(purities - 1.0).max() <= 1e-10
          and report.worst_value > 1e-8)
    _report(7, "10^3 Haar-unitary Chois: purity 1, pairwise separated", ok,
            f"max |purity-1| {np.abs(purities - 1.0).max():.2e}, "
            f"min distance {report.worst_value:.2e}")


def test_criterion_08_duality_round_trip():
    rng = np.random.default_rng(808)
    worst = 0.0
    for k in range(1000):
        n_ops = 1 + k % 4
        ops = tuple(haar_unitaries(2, n_ops, rng))
        rates = rng.uniform(-1.0, 1.0, n_ops)  # mixed signs: Markovian and NM
        gen = LindbladGenerator(dim=2, ops=ops,
                                rates=tuple(ConstantRate(float(g)) for g in rates))
        s = first_order_channel(gen, 0.0, 1e-3)
        back = channel_of_choi(choi_of_channel(s))
        worst = max(worst, hs_norm(back.matrix - s.matrix))
    _report(8, "channel -> Choi -> channel is the identity", worst <= 1e-12,
            f"worst round-trip error {worst:.2e}")


def test_criterion_09_family_containment():
    eps = 1e-3
    rng = np.random.default_rng(909)
    fam = pauli_family(eps)
    worst_gap = -np.inf
    all_converged = True
    for _ in range(50):
        while True:
            g = rng.uniform(-1.0, 2.0, 3)
            if g.min() < 0.0:
                cn = choi_of_generator(builtin_pauli(*g), 0.0, eps)
                if not classify(cn).is_markovian:
                    break
        fixed = nearest_mcs_fixed_basis(cn, fam)
        full = nearest_mcs_full_gksl(cn)
        all_converged &= full.kkt_ok
        worst_gap = max(worst_gap, full.residual - fixed.residual)
    ok = worst_gap <= 1e-6 and all_converged
    _report(9, "full-generator residual <= fixed-basis residual + 1e-6", ok,
            f"worst residual gap {worst_gap:.2e}")


def test_criterion_10_eigensolver_oracle():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        raw = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = raw + raw.conj().T
        w, v = hermitian_eig(a)
        worst = max(worst, hs_norm(a - (v * w) @ v.conj().T) / hs_norm(a))
    _report(10, "eigendecomposition reconstructs to 1e-10 relative",
            worst <= 1e-10, f"worst relative error {worst:.2e}")


def test_criterion_11_parser_suite():
    assert len(GOLDEN_EXPRESSIONS) >= 50
    worst = 0.0
    for src, t, expected in GOLDEN_EXPRESSIONS:
        value = parse(src)(t)
        worst = max(worst, abs(value - expected))
    offsets_ok = True
    for src in MALFORMED_EXPRESSIONS:
        try:
            parse(src)
            offsets_ok = False
        except RateParseError as exc:
            offsets_ok &= isinstance(exc.offset, int) and 0 <= exc.offset <= len(src)
        except Exception:
            offsets_ok = False  # anything but a parse error counts as a crash
    ok = worst <= 1e-12 and offsets_ok
    _report(11, "golden expressions evaluate analytically; malformed "
            "inputs give offset-bearing errors", ok, f"worst |error| {worst:.2e}")


# ---------------------------------------------------------------------------
# criterion 12: CLI exit codes and determinism (subprocess level)
# ---------------------------------------------------------------------------

SZ = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]


def run_cli(args, cwd):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "nmwitness.cli", *args],
                          capture_output=True, text=True, cwd=cwd, env=env)


def strip_timestamp(text):
    return "\n".join(l for l in text.splitlines() if "timestamp" not in l)


def test_criterion_12_cli_contract(tmp_path):
    (tmp_path / "const.json").write_text(json.dumps(
        {"dim": 2, "ops": [{"matrix": SZ, "rate": 1.0}]}))
    (tmp_path / "cos.json").write_text(json.dumps(
        {"dim": 2, "ops": [{"matrix": SZ, "rate": "cos(t)"}]}))
    (tmp_path / "badham.json").write_text(json.dumps(
        {"dim": 2, "hamiltonian": [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
         "ops": [{"matrix": SZ, "rate": 1.0}]}))
    (tmp_path / "negeye.json").write_text(json.dumps(
        [[[-1.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)] for i in range(4)]))

    matrix = [
        (["analyze", "--spec", "const.json", "--t1", "1.0", "--steps", "50",
          "--out", "a_const.json"], 0),
        (["analyze", "--spec", "cos.json", "--t1", "3.2", "--steps", "320",
          "--out", "a_cos.json"], 3),
        (["analyze", "--spec", "badham.json", "--t1", "1.0", "--steps", "10"], 1),
        (["witness", "--spec", "const.json", "--mode", "spectral"], 2),
        (["verify", "--witness", "negeye.json", "--n", "100", "--seed", "5",
          "--out", "v_neg.json"], 3),
        (["geometry", "--probe", "bogus", "--n", "10", "--seed", "1"], 1),
    ]
    codes_ok = True
    detail = []
    for args, expected in matrix:
        proc = run_cli(args, tmp_path)
        codes_ok &= proc.returncode == expected
        detail.append(f"{args[0]}:{proc.returncode}(want {expected})")

    # the cosine scan found the expected window
    payload = json.loads((tmp_path / "a_cos.json").read_text())
    (start, end), = payload["nm_intervals"]
    interval_ok = abs(start - math.pi / 2) < 0.05 and abs(end - 3.2) < 1e-9
    violations_ok = json.loads((tmp_path / "v_neg.json").read_text())["violations"] == 100

    # determinism: identical invocation, byte-identical modulo timestamps
    run_cli(["analyze", "--spec", "cos.json", "--t1", "3.2", "--steps", "320",
             "--out", "a_cos2.json"], tmp_path)
    det_json = (strip_timestamp((tmp_path / "a_cos.json").read_text())
                == strip_timestamp((tmp_path / "a_cos2.json").read_text()))
    g1 = run_cli(["geometry", "--probe", "extreme", "--n", "64", "--seed", "12",
                  "--out", "g1.json"], tmp_path)
    g2 = run_cli(["geometry", "--probe", "extreme", "--n", "64", "--seed", "12",
                  "--out", "g2.json"], tmp_path)
    det_geo = (g1.returncode == g2.returncode == 0
               and strip_timestamp((tmp_path / "g1.json").read_text())
               == strip_timestamp((tmp_path / "g2.json").read_text()))

    # CSV carries the same numbers as JSON
    run_cli(["analyze", "--spec", "cos.json", "--t1", "3.2", "--steps", "320",
             "--format", "csv", "--out", "a_cos.csv"], tmp_path)
    rows = (tmp_path / "a_cos.csv").read_text().strip().splitlines()[1:]
    csv_ok = len(rows) == len(payload["points"])
    for row, point in zip(rows, payload["points"]):
        t, mini, deficit, markov = row.split(",")
        csv_ok &= (float(t) == point["t"]
                   and float(mini) == point["min_eigenvalue"]
                   and float(deficit) == point["deficit"]
                   and (markov == "true") == point["is_markovian"])

    ok = codes_ok and interval_ok and violations_ok and det_json and det_geo and csv_ok
    _report(12, "CLI exit-code matrix, seeded determinism, CSV/JSON parity", ok,
            "; ".join(detail))
