"""Command-line interface: channel-spec ingestion and report emission.

Channel specs are JSON documents::

    {
      "dim": 2,
      "hamiltonian": [[[re, im], ...], ...],        // optional
      "ops": [
        {"matrix": [[[re, im], ...], ...],
         "rate": 1.5 | "cos(2*t) + 0.5" | {"table": [[t, value], ...]}},
        ...
      ]
    }

Matrices are nested arrays of [re, im] pairs everywhere (specs, witness
files, reports). Exit codes: 0 ok / fully Markovian, 1 input error,
2 nothing to witness, 3 non-Markovianity found / violations / probe
failures, 4 solver did not converge.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .channels import LindbladGenerator, builtin_pauli
from .choi import ChoiMatrix, choi_of_generator, classify, scan
from .geometry import (
    ProbeReport,
    convexity_probe,
    extreme_point_probe,
    hs_norm_probe,
    separation_demo,
)
from .linalg import hermiticity_defect
from .rates import RateEvalError, RateParseError, TableRate, as_rate
from .witness import (
    WitnessOperator,
    expectation,
    fixed_basis_family,
    nearest_mcs_fixed_basis,
    nearest_mcs_full_gksl,
    spectral_witnesses,
    theorem3_witness,
    verify_witness,
)


class SpecError(ValueError):
    """Input document is malformed or fails validation."""


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------

def matrix_from_pairs(obj, name: str) -> np.ndarray:
    """Parse a nested [[ [re, im], ... ], ...] literal."""
    if not isinstance(obj, list) or not obj:
        raise SpecError(f"{name}: expected a non-empty list of rows")
    rows = []
    width = None
    for r, row in enumerate(obj):
        if not isinstance(row, list) or (width is not None and len(row) != width):
            raise SpecError(f"{name}: row {r} is not a list of equal length")
        width = len(row)
        entries = []
        for c, pair in enumerate(row):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(v, (int, float)) for v in pair)):
                raise SpecError(f"{name}: entry ({r},{c}) is not an [re, im] pair")
            entries.append(complex(pair[0], pair[1]))
        rows.append(entries)
    return np.array(rows, dtype=complex)


def matrix_to_pairs(m: np.ndarray) -> list:
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _parse_rate(obj, name: str):
    if isinstance(obj, bool):
        raise SpecError(f"{name}: rate must be a number, expression string or table")
    if isinstance(obj, (int, float)):
        return as_rate(float(obj))
    if isinstance(obj, str):
        try:
            return as_rate(obj)
        except RateParseError as exc:
            raise SpecError(f"{name}: {exc}") from exc
    if isinstance(obj, dict) and "table" in obj:
        table = obj["table"]
        if (not isinstance(table, list)
                or not all(isinstance(p, list) and len(p) == 2 for p in table)):
            raise SpecError(f"{name}: table must be a list of [t, value] pairs")
        try:
            return TableRate(times=tuple(float(p[0]) for p in table),
                             values=tuple(float(p[1]) for p in table))
        except ValueError as exc:
            raise SpecError(f"{name}: {exc}") from exc
    raise SpecError(f"{name}: rate must be a number, expression string or table")


def load_channel_spec(path: str) -> LindbladGenerator:
    """Read and validate a channel spec into a generator."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON at byte {exc.pos}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SpecError(f"{path}: top level must be an object")
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise SpecError(f"{path}: 'dim' must be an integer >= 2")
    ops_doc = doc.get("ops")
    if not isinstance(ops_doc, list) or not ops_doc:
        raise SpecError(f"{path}: 'ops' must be a non-empty list")
    ops = []
    rates = []
    for i, entry in enumerate(ops_doc):
        if not isinstance(entry, dict) or "matrix" not in entry or "rate" not in entry:
            raise SpecError(f"{path}: ops[{i}] must have 'matrix' and 'rate'")
        ops.append(matrix_from_pairs(entry["matrix"], f"{path}: ops[{i}].matrix"))
        rates.append(_parse_rate(entry["rate"], f"{path}: ops[{i}].rate"))
    ham = None
    if doc.get("hamiltonian") is not None:
        ham = matrix_from_pairs(doc["hamiltonian"], f"{path}: hamiltonian")
    try:
        return LindbladGenerator(dim=dim, ops=tuple(ops), rates=tuple(rates),
                                 hamiltonian=ham)
    except ValueError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def load_witness_matrix(path: str) -> np.ndarray:
    """Read a witness matrix: a bare pair-matrix or a report carrying one."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON at byte {exc.pos}: {exc.msg}") from exc
    if isinstance(doc, dict):
        if "matrix" in doc:
            doc = doc["matrix"]
        elif "witnesses" in doc and doc["witnesses"]:
            doc = doc["witnesses"][0]["matrix"]
        else:
            raise SpecError(f"{path}: no witness matrix found")
    m = matrix_from_pairs(doc, f"{path}: witness")
    if m.shape[0] != m.shape[1]:
        raise SpecError(f"{path}: witness must be square, got {m.shape}")
    defect = hermiticity_defect(m)
    if defect > 1e-10:
        raise SpecError(f"{path}: witness not Hermitian, defect {defect:.3e}")
    return m


# ---------------------------------------------------------------------------
# Report emission
# ---------------------------------------------------------------------------

def _metadata(seed: int | None, eps: float) -> dict:
    return {
        "tool": "nmwitness",
        "version": __version__,
        "seed": seed,
        "eps": eps,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".nmwitness-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _render_csv(payload: dict) -> str:
    command = payload["command"]
    lines = []
    if command == "analyze":
        lines.append("t,min_eigenvalue,deficit,is_markovian")
        for p in payload["points"]:
            lines.append(f"{p['t']!r},{p['min_eigenvalue']!r},{p['deficit']!r},"
                         f"{'true' if p['is_markovian'] else 'false'}")
    elif command == "geometry":
        lines.append("trial,value")
        for trial, value in payload["details"]:
            lines.append(f"{trial},{value!r}")
    elif command == "verify":
        lines.append("n_samples,violations,min_expectation")
        lines.append(f"{payload['n_samples']},{payload['violations']},"
                     f"{payload['min_expectation']!r}")
    elif command == "witness":
        lines.append("row,col,re,im")
        matrix = payload["witnesses"][0]["matrix"]
        for r, row in enumerate(matrix):
            for c, (re, im) in enumerate(row):
                lines.append(f"{r},{c},{re!r},{im!r}")
    else:
        raise SpecError(f"no CSV rendering for command {command!r}")
    return "\n".join(lines) + "\n"


def emit_report(payload: dict, out_path: str | None, fmt: str) -> None:
    if fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    elif fmt == "csv":
        text = _render_csv(payload)
    else:
        raise SpecError(f"unknown format {fmt!r}")
    if out_path:
        _atomic_write(out_path, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_analyze(spec_path: str, t0: float, t1: float, steps: int, eps: float,
                out_path: str | None, fmt: str, tol: float | None = None) -> int:
    gen = load_channel_spec(spec_path)
    report = scan(gen, t0, t1, steps, eps, tol)
    payload = {
        "command": "analyze",
        "metadata": _metadata(None, eps),
        "t0": t0,
        "t1": t1,
        "steps": steps,
        "tol": report.tol,
        "points": [
            {"t": t, "min_eigenvalue": m, "deficit": d, "is_markovian": ok}
            for t, m, d, ok in zip(report.grid.tolist(), report.min_eigenvalues.tolist(),
                                   report.deficits.tolist(), report.is_markovian.tolist())
        ],
        "nm_intervals": [[a, b] for a, b in report.nm_intervals],
        "integrated_measure": report.integrated_measure,
    }
    emit_report(payload, out_path, fmt)
    return 3 if report.nm_intervals else 0


def _witness_entry(w: WitnessOperator, c: ChoiMatrix) -> dict:
    return {
        "kind": w.kind,
        "provenance": w.provenance,
        "expectation": expectation(w, c),
        "matrix": matrix_to_pairs(w.matrix),
    }


def cmd_witness(spec_path: str, t: float, eps: float, mode: str,
                out_path: str | None, fmt: str, tol: float | None = None) -> int:
    if mode not in ("spectral", "theorem3-fixed", "theorem3-gksl"):
        raise SpecError(f"unknown witness mode {mode!r}")
    gen = load_channel_spec(spec_path)
    cn = choi_of_generator(gen, t, eps)
    verdict = classify(cn, tol)
    payload = {
        "command": "witness",
        "metadata": _metadata(None, eps),
        "mode": mode,
        "t": t,
        "classification": {
            "min_eigenvalue": verdict.min_eigenvalue,
            "deficit": verdict.trace_norm_deficit,
            "is_markovian": verdict.is_markovian,
        },
    }
    if verdict.is_markovian:
        print("nothing to witness: channel is Markovian at the requested time",
              file=sys.stderr)
        return 2
    exit_code = 0
    if mode == "spectral":
        witnesses = spectral_witnesses(cn, tol)
        payload["witnesses"] = [_witness_entry(w, cn) for w in witnesses]
    else:
        if mode == "theorem3-fixed":
            fam = fixed_basis_family(gen.ops, eps, t)
            result = nearest_mcs_fixed_basis(cn, fam)
            payload["rates"] = [float(g) for g in result.rates]
        else:
            result = nearest_mcs_full_gksl(cn)
            if not result.kkt_ok:
                exit_code = 4
        w = theorem3_witness(cn, result.choi_star)
        payload["witnesses"] = [_witness_entry(w, cn)]
        payload["residual"] = result.residual
        payload["c0"] = w.c0
        payload["kkt_ok"] = result.kkt_ok
        payload["iterations"] = result.iterations
    emit_report(payload, out_path, fmt)
    return exit_code


def cmd_verify(witness_path: str, eps: float, n: int, seed: int,
               out_path: str | None, fmt: str) -> int:
    if n < 1:
        raise SpecError(f"n must be >= 1, got {n}")
    matrix = load_witness_matrix(witness_path)
    dim = int(round(np.sqrt(matrix.shape[0])))
    if dim * dim != matrix.shape[0] or dim < 2:
        raise SpecError(
            f"witness of shape {matrix.shape} is not a d^2 x d^2 matrix with d >= 2")
    w = WitnessOperator(matrix=matrix, kind="theorem3", provenance=f"file:{witness_path}")
    result = verify_witness(w, dim, eps, n, seed)
    payload = {
        "command": "verify",
        "metadata": _metadata(seed, eps),
        "witness_path": witness_path,
        "dim": dim,
        "n_samples": n,
        "violations": result.violations,
        "min_expectation": result.min_expectation,
    }
    emit_report(payload, out_path, fmt)
    return 0 if result.violations == 0 else 3


def _probe_payload(report: ProbeReport, seed: int, eps: float) -> dict:
    payload = {
        "command": "geometry",
        "metadata": _metadata(seed, eps),
        "probe": report.probe_name,
        "n_trials": report.n_trials,
        "failures": report.failures,
        "worst_value": report.worst_value,
        "details": [[trial, value] for trial, value in report.details],
    }
    if report.summary is not None:
        payload["summary"] = report.summary
    return payload


def cmd_geometry(probe: str, dim: int, eps: float, n: int, seed: int,
                 out_path: str | None, fmt: str,
                 spec_path: str | None = None, t: float = 0.0) -> int:
    if probe == "convexity":
        report = convexity_probe(dim, eps, n, seed)
    elif probe == "hsnorm":
        report = hs_norm_probe(dim, eps, n, seed)
    elif probe == "extreme":
        report = extreme_point_probe(dim, eps, n, seed)
    elif probe == "separation":
        if spec_path is not None:
            gen = load_channel_spec(spec_path)
        else:
            # Default demonstration instance: a Pauli channel with one
            # negative rate, non-Markovian at every time.
            gen = builtin_pauli(1.0, 1.0, -0.3)
        report = separation_demo(choi_of_generator(gen, t, eps), n, seed)
    else:
        raise SpecError(f"unknown probe {probe!r}")
    emit_report(_probe_payload(report, seed, eps), out_path, fmt)
    return 0 if report.failures == 0 else 3


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse that exits with the input-error code on bad usage."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _real(rule: str = "finite", ok=lambda value: True):
    """argparse type: a finite float that ok accepts; anything else is an input error."""
    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and ok(value)):
            raise argparse.ArgumentTypeError(f"expected a {rule} number, got {text!r}")
        return value
    return parse


_FINITE = _real()
_EPS = _real("finite positive", lambda value: value > 0)
_TOL = _real("finite nonnegative", lambda value: value >= 0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="nmwitness",
                     description="Small-time Choi states of Lindblad dynamics: "
                                 "detect and witness non-Markovianity.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[], help="scan a time window for "
                       "divisibility breaking")
    p.add_argument("--spec", required=True, help="channel spec JSON")
    p.add_argument("--t0", type=_FINITE, default=0.0)
    p.add_argument("--t1", type=_FINITE, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--eps", type=_EPS, default=1e-3)
    p.add_argument("--tol", type=_TOL, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("witness", help="build a witness at one instant")
    p.add_argument("--spec", required=True)
    p.add_argument("--t0", type=_FINITE, default=0.0, help="time of the snapshot")
    p.add_argument("--eps", type=_EPS, default=1e-3)
    p.add_argument("--tol", type=_TOL, default=None)
    p.add_argument("--mode", default="spectral",
                   help="spectral | theorem3-fixed | theorem3-gksl")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("verify", help="Monte-Carlo check a witness file")
    p.add_argument("--witness", required=True, help="witness JSON (bare matrix "
                   "or a witness report)")
    p.add_argument("--eps", type=_EPS, default=1e-3)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")

    p = sub.add_parser("geometry", help="run a convex-geometry probe")
    p.add_argument("--probe", required=True,
                   help="convexity | hsnorm | extreme | separation")
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--eps", type=_EPS, default=1e-3)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--spec", default=None,
                   help="separation only: channel supplying the target state")
    p.add_argument("--t0", type=_FINITE, default=0.0)
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analyze":
            return cmd_analyze(args.spec, args.t0, args.t1, args.steps, args.eps,
                               args.out, args.format, args.tol)
        if args.command == "witness":
            return cmd_witness(args.spec, args.t0, args.eps, args.mode,
                               args.out, args.format, args.tol)
        if args.command == "verify":
            return cmd_verify(args.witness, args.eps, args.n, args.seed,
                              args.out, args.format)
        if args.command == "geometry":
            return cmd_geometry(args.probe, args.dim, args.eps, args.n, args.seed,
                                args.out, args.format, args.spec, args.t0)
        raise SpecError(f"unknown command {args.command!r}")
    except (SpecError, RateParseError, RateEvalError, ValueError) as exc:
        print(f"nmwitness: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
