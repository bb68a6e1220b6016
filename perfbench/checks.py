"""Checks of the reports the workloads produce, run outside the timed region.

Each operation's first report is checked here against the independent oracle
in oracle.py. Every repeat of an operation must reproduce that report byte for
byte apart from its timestamp; the worker records whether it did.

A problem is either a "verdict" problem or an "error". A verdict problem is a
scan point whose divisibility verdict disagrees with the generator-level test:
the minimum eigenvalue of w_perp C_L w_perp, which has no eps and no
truncation artifact. The checks take the tolerance a report states and do not
tie the verdict to any one tolerance rule; only the generator-level test
judges it. Non-unitary jumps make the first-order Choi state leak
O(eps^2 ||C_L||^2) negativity that the default tolerance does not absorb, so
the amplitude-damping scan is reported non-Markovian although its generator is
divisible. That operation fails, and is counted in `failed`. Errors are every
other mismatch: they also make the run incorrect.
"""

from __future__ import annotations

import json

import numpy as np

from oracle import GeneratorOracle, from_pairs, phi_projector

TOL_EIG = 1e-10
TOL_FRESH = 1e-12


def _intervals(grid, markovian, dt):
    out, start = [], None
    for t, ok in zip(grid, markovian):
        if not ok and start is None:
            start = float(t)
        elif ok and start is not None:
            out.append([start, float(t)])
            start = None
    if start is not None:
        out.append([start, float(grid[-1]) + dt])
    return out


def check_analyze(op, report, code, spec, eps) -> list[tuple[str, str]]:
    c = op["check"]
    problems = []
    err = lambda msg: problems.append(("error", msg))
    pts = report["points"]
    if len(pts) != c["steps"]:
        return [("error", f"{len(pts)} points, expected {c['steps']}")]
    dt = (c["t1"] - c["t0"]) / c["steps"]
    grid = c["t0"] + dt * np.arange(c["steps"])
    if not np.array_equal(np.array([p["t"] for p in pts]), grid):
        err("grid times differ from t0 + dt*k")
    tol = report["tol"]
    min_eig = np.array([p["min_eigenvalue"] for p in pts])
    deficit = np.array([p["deficit"] for p in pts])
    markovian = np.array([p["is_markovian"] for p in pts])

    oracle = GeneratorOracle.from_spec(spec)
    c_l = oracle.choi_l(grid)
    eig = np.linalg.eigvalsh(phi_projector(oracle.dim) + eps * c_l)
    bad = np.abs(min_eig - eig[:, 0]) > TOL_EIG
    if bad.any():
        err(f"{bad.sum()} minimum eigenvalues differ from the oracle by > {TOL_EIG}")
    if np.any(np.abs(deficit - (np.abs(eig).sum(axis=1) - 1.0)) > TOL_EIG):
        err("trace-norm deficits differ from the oracle")

    w_perp = np.eye(oracle.dim ** 2) - phi_projector(oracle.dim)
    gen_min = np.linalg.eigvalsh(w_perp @ c_l @ w_perp)[:, 0]
    scale = max(1.0, float(np.linalg.norm(c_l, axis=(1, 2)).max()))
    false_nm = ~markovian & (gen_min >= -1e-9 * scale)
    missed = markovian & (eps * gen_min < -tol)
    for mask, what in ((false_nm, "non-Markovian but the generator is divisible"),
                       (missed, "Markovian but the generator is not")):
        if mask.any():
            ts = grid[mask]
            problems.append(("verdict", f"{mask.sum()} points {what}, "
                                        f"t in [{ts.min():.4g}, {ts.max():.4g}]"))

    if report["nm_intervals"] != _intervals(grid, markovian, dt):
        err("nm_intervals do not match the points")
    measure = float(np.maximum(deficit, 0.0).sum() * dt / eps)
    if abs(report["integrated_measure"] - measure) > 1e-9 * max(1.0, abs(measure)):
        err("integrated_measure does not match the points")
    if code != (3 if report["nm_intervals"] else 0):
        err(f"exit code {code}")

    from nmwitness.choi import choi_of_generator, classify
    from nmwitness.cli import load_channel_spec

    gen = load_channel_spec(c["spec"])
    rng = np.random.default_rng(c["sample_seed"])
    for k in rng.choice(c["steps"], size=min(16, c["steps"]), replace=False):
        fresh = classify(choi_of_generator(gen, float(grid[k]), eps), tol)
        if abs(fresh.min_eigenvalue - min_eig[k]) > TOL_FRESH:
            err(f"point {k}: fresh choi_of_generator + classify gives "
                f"{fresh.min_eigenvalue!r}, report {min_eig[k]!r}")
    return problems


def check_witness(op, report, code, spec, eps) -> list[tuple[str, str]]:
    from nmwitness.choi import ChoiMatrix
    from nmwitness.cli import load_channel_spec
    from nmwitness.witness import (WitnessOperator, fixed_basis_family, uniqueness_check,
                                   verify_witness)

    c = op["check"]
    problems = []
    err = lambda msg: problems.append(("error", msg))
    if code != 0:
        return [("error", f"exit code {code}")]
    oracle = GeneratorOracle.from_spec(spec)
    d, t0 = oracle.dim, c["t0"]
    cn = oracle.first_order(np.array([t0]), eps)[0]
    eig = np.linalg.eigvalsh(cn)
    cls = report["classification"]
    if abs(cls["min_eigenvalue"] - eig[0]) > TOL_EIG or cls["is_markovian"]:
        err(f"classification {cls} does not match the oracle minimum {eig[0]!r}")
    witnesses = report.get("witnesses") or []
    if not witnesses:
        return problems + [("error", "no witness in the report")]

    if c["mode"] == "spectral":
        total = 0.0
        for w in witnesses:
            p = from_pairs(w["matrix"])
            value = float(np.vdot(p, cn).real)
            total += value
            if np.abs(p @ p - p).max() > 1e-9:
                err("spectral witness is not a projector")
            if abs(value - w["expectation"]) > TOL_EIG or value >= 0:
                err(f"spectral expectation {w['expectation']!r}, oracle {value!r}")
        if abs(total - eig[:len(witnesses)].sum()) > 1e-9:
            err("spectral expectations do not add up to the most negative eigenvalues")
        return problems

    wm = from_pairs(witnesses[0]["matrix"])
    value = float(np.vdot(wm, cn).real)
    residual = report["residual"]
    if not report["kkt_ok"]:
        err(f"kkt_ok is false after {report['iterations']} iterations")
    if abs(value + residual ** 2) > 1e-12 + 1e-6 * residual ** 2:
        err(f"Tr(W C_N) = {value!r}, expected -residual^2 = {-residual ** 2!r}")
    if abs(witnesses[0]["expectation"] - value) > 1e-12:
        err("reported expectation differs from Tr(W C_N)")
    cm_star = wm - report["c0"] * np.eye(d * d) + cn
    n = 500 if d >= 5 else 2000
    if c["mode"] == "theorem3-fixed":
        gen = load_channel_spec(c["spec"])
        check = uniqueness_check(ChoiMatrix(d, cn, t0, eps), ChoiMatrix(d, cm_star, t0, eps),
                                 d, eps, n, c["sample_seed"],
                                 family=fixed_basis_family(gen.ops, eps, t0))
        if not check.holds:
            err(f"variational inequality fails on the frozen family: max {check.max_lhs!r}")
    else:
        result = verify_witness(WitnessOperator(wm, "theorem3", "check"), d, eps, n,
                                c["sample_seed"])
        if result.violations:
            err(f"{result.violations} violations on sampled divisible states")
    return problems


def check_verify(op, report, code) -> list[tuple[str, str]]:
    c = op["check"]
    if code != 0 or report["violations"] != 0:
        return [("error", f"exit code {code}, {report['violations']} violations")]
    if report["n_samples"] != c["n"] or report["dim"] != c["dim"]:
        return [("error", "sample count or dimension differs from the request")]
    if report["min_expectation"] < -1e-8:
        return [("error", f"min_expectation {report['min_expectation']!r}")]
    return []


def check_geometry(op, report, code) -> list[tuple[str, str]]:
    c = op["check"]
    if code != 0 or report["failures"] != 0:
        return [("error", f"exit code {code}, {report['failures']} probe failures")]
    if report["n_trials"] != c["n"] or len(report["details"]) != c["n"]:
        return [("error", "trial count differs from the request")]
    if c["probe"] == "separation":
        s = report["summary"]
        if not (s["expectation_on_target"] < 0 and s["solver_converged"]):
            return [("error", f"separation summary {s}")]
    return []


def check_op(op, report_path, code, plan) -> tuple[list[tuple[str, str]], int]:
    """Problems with one operation's first report, and the items it completed."""
    try:
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    except (OSError, ValueError) as exc:
        return [("error", f"no readable report: {exc}")], 0
    command, eps = op["command"], plan["eps"]
    if report.get("command") != command:
        return [("error", f"report command {report.get('command')!r}")], 0
    try:
        if command == "analyze":
            problems = check_analyze(op, report, code, plan["specs"][op["check"]["spec"]], eps)
            items = len(report["points"])
        elif command == "witness":
            problems = check_witness(op, report, code, plan["specs"][op["check"]["spec"]], eps)
            items = len(report.get("witnesses") or [])
        elif command == "verify":
            problems, items = check_verify(op, report, code), report["n_samples"]
        else:
            problems, items = check_geometry(op, report, code), report["n_trials"]
    except (KeyError, TypeError, ValueError) as exc:
        return [("error", f"malformed report: {type(exc).__name__}: {exc}")], 0
    return problems, items
