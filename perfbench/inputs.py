"""Seeded inputs for the three benchmark workloads.

Every channel spec and witness file comes from one numpy Generator seeded with
the workload seed, so the same seed gives byte-identical files. The program
only ever sees those files, through `nmwitness.cli.main(argv)`.

A workload is a fixed list of operations (one round). The benchmark repeats the
round, so every input is reused and every report can be compared with its
first occurrence. Sizes are fixed per workload and do not depend on the seed,
so seeds change the numbers inside the inputs, not the amount of work.
"""

from __future__ import annotations

import json
import os

import numpy as np

from oracle import GeneratorOracle, phi_projector

EPS = 1e-3

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)

WORKLOADS = ("scan", "witness", "montecarlo")
# Timed rounds per run, fixed so that the operations timed, and so the rank
# op_tail_s is taken at, do not depend on how fast the program runs. Each is
# about 25 s on a 2-core x86-64 box.
ROUNDS = {"scan": 4, "witness": 4, "montecarlo": 10}
TINY_ROUNDS = 2


# ---------------------------------------------------------------------------
# Rates: structured parameters, rendered to the spec's rate syntax
# ---------------------------------------------------------------------------

def _num(x: float) -> str:
    # repr round-trips exactly, so the program parses the very same double.
    return repr(float(x))


def rate_text(rate: dict):
    """The spec-file form of a structured rate."""
    if "text" in rate:
        return rate["text"]
    kind = rate["kind"]
    if kind == "const":
        return float(rate["value"])
    if kind == "table":
        return {"table": [[float(t), float(v)] for t, v in zip(rate["t"], rate["v"])]}
    if kind == "cos":
        b = rate["b"]
        sign = "+" if b >= 0 else "-"
        return f"{_num(rate['a'])}*cos({_num(rate['w'])}*t + {_num(rate['p'])}) {sign} {_num(abs(b))}"
    if kind == "exp":
        return f"{_num(rate['a'])}*exp(-{_num(rate['k'])}*t) - {_num(rate['b'])}"
    raise ValueError(f"unknown rate kind {kind!r}")


def _cos_rate(rng) -> dict:
    a = rng.uniform(0.5, 1.5)
    return {"kind": "cos", "a": a, "w": rng.uniform(0.5, 2.0),
            "p": rng.uniform(0.0, 2 * np.pi), "b": a * rng.uniform(-0.6, 0.6)}


def _exp_rate(rng) -> dict:
    a = rng.uniform(0.8, 1.5)
    return {"kind": "exp", "a": a, "k": rng.uniform(0.3, 1.5), "b": a * rng.uniform(0.2, 0.6)}


# ---------------------------------------------------------------------------
# Matrices
# ---------------------------------------------------------------------------

def haar_unitary(d: int, rng) -> np.ndarray:
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def ginibre(d: int, rng) -> np.ndarray:
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0 * d)


def hamiltonian(d: int, rng, scale: float = 0.5) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    h = 0.5 * (g + g.conj().T)
    return scale * h / np.linalg.norm(h)


def pairs(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


# ---------------------------------------------------------------------------
# Channel specs
# ---------------------------------------------------------------------------

def spec_document(dim: int, ops, rates, ham=None) -> dict:
    doc = {"dim": dim,
           "ops": [{"matrix": pairs(op), "rate": rate_text(r)} for op, r in zip(ops, rates)]}
    if ham is not None:
        doc["hamiltonian"] = pairs(ham)
    return doc


def pauli_spec(rng, t0: float, t1: float):
    """d=2 Pauli generator: a cos rate, a table rate and an exp rate."""
    knots = np.linspace(t0, t1, 9)
    table = {"kind": "table", "t": [float(x) for x in knots],
             "v": [float(x) for x in rng.uniform(-0.5, 1.0, knots.size)]}
    return (SIGMA_X, SIGMA_Y, SIGMA_Z), (_cos_rate(rng), table, _exp_rate(rng)), None


def unitary_spec(rng, d: int):
    """d^2 Haar-unitary jumps with sign-changing cos/exp rates and a Hamiltonian."""
    ops = tuple(haar_unitary(d, rng) for _ in range(d * d))
    rates = tuple(_cos_rate(rng) if i % 2 == 0 else _exp_rate(rng) for i in range(d * d))
    return ops, rates, hamiltonian(d, rng)


def amplitude_damping_spec():
    """Markovian by construction (positive rate, one non-unitary jump)."""
    rate = {"kind": "exp", "a": 40.0, "k": 1.0, "b": 0.0, "text": "40*exp(-t)"}
    return (SIGMA_MINUS,), (rate,), None


def target_spec(rng, d: int, jumps: str, t0: float):
    """Non-Markovian at t0: d jumps, positive constants and one negative cos rate.

    A draw whose first-order Choi state at t0 is not clearly non-positive (its
    negative rate hides behind the others) is drawn again, so that every
    target has something to witness.
    """
    make = haar_unitary if jumps == "unitary" else ginibre
    while True:
        ops = tuple(make(d, rng) for _ in range(d))
        rates = [{"kind": "const", "value": float(g)} for g in rng.uniform(0.2, 1.0, d)]
        a, w, p = rng.uniform(0.5, 1.0), rng.uniform(0.5, 2.0), rng.uniform(0, 2 * np.pi)
        target = -rng.uniform(0.3, 0.6)
        rates[0] = {"kind": "cos", "a": a, "w": w, "p": p, "b": target - a * np.cos(w * t0 + p)}
        ham = hamiltonian(d, rng, 0.25)
        choi = GeneratorOracle(d, ops, rates, ham).first_order(np.array([t0]), EPS)[0]
        if np.linalg.eigvalsh(choi)[0] < -100 * EPS * EPS:
            return ops, tuple(rates), ham


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------

class _Writer:
    def __init__(self, workdir: str):
        self.workdir = workdir
        self.specs: dict[str, dict] = {}
        self.witness_files: list[str] = []

    def spec(self, name: str, dim: int, ops, rates, ham) -> str:
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec_document(dim, ops, rates, ham), fh)
        self.specs[path] = {"dim": dim, "ops": [pairs(op) for op in ops],
                            "rates": list(rates),
                            "hamiltonian": None if ham is None else pairs(ham)}
        return path

    def witness(self, name: str, matrix: np.ndarray) -> str:
        path = os.path.join(self.workdir, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"matrix": pairs(matrix)}, fh)
        self.witness_files.append(path)
        return path


def _op(op_id: str, argv: list, **check) -> dict:
    """One CLI call; its report goes to the file named after --out."""
    return {"id": op_id, "command": argv[0], "argv": [str(a) for a in argv],
            "out": str(argv[argv.index("--out") + 1]), "check": check}


def _scan_ops(rng, w: _Writer, tiny: bool) -> list:
    # (kind, steps, count): the median operation is a d=3 scan. The
    # amplitude-damping grid is the longest; with ROUNDS["scan"] = 4 rounds
    # there are 4 of them, so the 11th slowest operation, op_tail_s, is a d=4
    # scan as long as those stay slower than the 16 d=4 scans.
    layout = [("pauli", 320, 3), ("pauli", 640, 1), ("d3", 320, 4), ("d4", 320, 4), ("ad", 10_000, 1)]
    ops = []
    for kind, steps, count in layout:
        for i in range(count):
            name = f"scan-{kind}-{steps}-{i}"
            if kind == "ad":
                t0, t1 = 0.0, 4.0
                dim, spec = 2, amplitude_damping_spec()
            else:
                t0 = float(rng.uniform(0.0, 1.0))
                t1 = t0 + float(rng.uniform(4.0, 8.0))
                if kind == "pauli":
                    dim, spec = 2, pauli_spec(rng, t0, t1)
                else:
                    dim = int(kind[1])
                    spec = unitary_spec(rng, dim)
            if tiny:
                steps = 16
            path = w.spec(name, dim, *spec)
            out = os.path.join(w.workdir, f"out-{name}.json")
            ops.append(_op(name, ["analyze", "--spec", path, "--t0", t0, "--t1", t1,
                                  "--steps", steps, "--eps", EPS, "--out", out],
                           spec=path, steps=steps, t0=t0, t1=t1,
                           sample_seed=int(rng.integers(2**31))))
    return ops


def _witness_ops(rng, w: _Writer, tiny: bool) -> list:
    # Per dimension: (targets, targets witnessed spectrally and against their
    # frozen basis, targets projected onto the full GKSL family). Targets
    # alternate unitary and Ginibre jumps. The fast d <= 4 spectral and
    # frozen-basis witnesses are 26 of the 40 operations of a round, so the
    # median operation is one of them; with four d=5 full-GKSL projections
    # (about 1.4 s each) per round, op_tail_s is one of those 16.
    layout = {2: (2, 2, 2), 3: (2, 2, 2)} if tiny else {
        2: (4, 4, 2), 3: (4, 4, 2), 4: (4, 4, 4), 5: (4, 2, 4)}
    ops = []
    for d, (n_targets, n_fast, n_gksl) in layout.items():
        for k in range(n_targets):
            jumps = ("unitary", "ginibre")[k % 2]
            t0 = float(rng.uniform(0.0, 2.0))
            name = f"target-d{d}-{k}-{jumps}"
            path = w.spec(name, d, *target_spec(rng, d, jumps, t0))
            modes = ["spectral", "theorem3-fixed"] if k < n_fast else []
            if k < n_gksl:
                modes.append("theorem3-gksl")
            for mode in modes:
                op_id = f"witness-{mode}-d{d}-{k}-{jumps}"
                out = os.path.join(w.workdir, f"out-{op_id}.json")
                ops.append(_op(op_id, ["witness", "--spec", path, "--t0", t0, "--eps", EPS,
                                       "--mode", mode, "--out", out],
                               spec=path, t0=t0, mode=mode, dim=d,
                               sample_seed=int(rng.integers(2**31))))
    return ops


def perp_witness(rng, d: int) -> np.ndarray:
    """W = w_perp A w_perp with A >= 0: nonnegative on every first-order divisible
    Choi state phi + eps*X, since w_perp X w_perp >= 0 there."""
    w_perp = np.eye(d * d) - phi_projector(d)
    g = rng.standard_normal((d * d, 2)) + 1j * rng.standard_normal((d * d, 2))
    a = g @ g.conj().T
    m = w_perp @ (a / np.linalg.norm(a)) @ w_perp
    return 0.5 * (m + m.conj().T)


def _montecarlo_ops(rng, w: _Writer, tiny: bool) -> list:
    def n(size: int) -> int:
        return 8 if tiny else size

    ops = []
    for d, size, copies in ((2, 20_000, 1), (3, 5_000, 1), (4, 1_500, 2)):
        for i in range(copies):
            name = f"verify-d{d}-{i}"
            path = w.witness(f"witness-{name}", perp_witness(rng, d))
            out = os.path.join(w.workdir, f"out-{name}.json")
            ops.append(_op(name, ["verify", "--witness", path, "--eps", EPS, "--n", n(size),
                                  "--seed", int(rng.integers(2**31)), "--out", out],
                           dim=d, n=n(size)))
    probes = [("convexity", 2, 10_000), ("convexity", 3, 3_000),
              ("hsnorm", 2, 10_000), ("hsnorm", 3, 3_000), ("hsnorm", 4, 1_000),
              ("extreme", 2, 2_000), ("extreme", 3, 2_000), ("extreme", 4, 2_000),
              ("separation", 2, 10_000), ("separation", 3, 3_000)]
    for probe, d, size in probes:
        name = f"geometry-{probe}-d{d}"
        argv = ["geometry", "--probe", probe, "--dim", d, "--eps", EPS, "--n", n(size),
                "--seed", int(rng.integers(2**31))]
        if probe == "separation" and d > 2:
            t0 = float(rng.uniform(0.0, 2.0))
            path = w.spec(f"target-{name}", d, *target_spec(rng, d, "unitary", t0))
            argv += ["--spec", path, "--t0", t0]
        out = os.path.join(w.workdir, f"out-{name}.json")
        ops.append(_op(name, argv + ["--out", out], probe=probe, dim=d, n=n(size)))
    return ops


def build_plan(workload: str, seed: int, workdir: str, tiny: bool = False) -> dict:
    """Write the workload's input files into workdir and return its plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    os.makedirs(workdir, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    w = _Writer(workdir)
    make = {"scan": _scan_ops, "witness": _witness_ops, "montecarlo": _montecarlo_ops}[workload]
    ops = make(rng, w, tiny)
    return {"workload": workload, "seed": seed, "eps": EPS, "ops": ops,
            "rounds": TINY_ROUNDS if tiny else ROUNDS[workload],
            "specs": w.specs, "witness_files": w.witness_files}
