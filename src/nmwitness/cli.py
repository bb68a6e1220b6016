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

Any other key, at the top level, in an op or in a table rate, is an error.
Matrices are nested arrays of [re, im] pairs everywhere (specs, witness
files, reports); each number read, in a matrix or a rate, is a JSON int or
float, never a bool, string or null. Exit codes: 0 ok / fully Markovian,
1 input error, 2 nothing to witness, 3 non-Markovianity found /
violations / probe failures, 4 solver did not converge.

A JSON report is `json.dumps(payload, indent=2)` plus a newline, laid out
by json itself. Its tables (the `analyze` points and nm_intervals, the
`geometry` details, the witness matrices) reach json only as placeholders:
each table fills json's own row template, the json.dumps text of a one-row
skeleton, from its columns or array, and is spliced in where json leaves its
placeholder. The CSV form is written from the same tables.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import functools
import json
import math
import os
import stat
import sys

import numpy as np

from . import __version__
from .channels import LindbladGenerator, builtin_pauli
from .choi import (ChoiMatrix, MarkovianTargetError, choi_of_generator,
                   require_non_markovian, scan)
from .linalg import require_hermitian
from .rates import TableRate, as_rate


class SpecError(ValueError):
    """Input document is malformed or fails validation."""


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------

# A JSON number is an int or a float; a bool, a string or null is not.
_NUMBER = frozenset({int, float})


def _number_pairs(items: list, name: str, label, form: str) -> np.ndarray:
    """items, [x, y] pairs of numbers, as an (n, 2) float array: one pass checks
    them and one np.array call converts them. An item that is not a pair of
    numbers (form names the pair) or holds an int beyond the double range is a
    SpecError naming it by label(k)."""
    bad = next((k for k, p in enumerate(items) if type(p) is not list or len(p) != 2
                or type(p[0]) not in _NUMBER or type(p[1]) not in _NUMBER), None)
    if bad is not None:
        raise SpecError(f"{name}: {label(bad)} {json.dumps(items[bad])} is not a {form} "
                        f"pair of numbers")
    try:
        return np.array(items, dtype=float).reshape(-1, 2)
    except OverflowError:
        for k, p in enumerate(items):
            try:
                float(p[0]), float(p[1])
            except OverflowError:
                raise SpecError(f"{name}: {label(k)} holds an int too large for a double") from None
        raise


def matrix_from_pairs(obj, name: str) -> np.ndarray:
    """Parse a nested [[ [re, im], ... ], ...] literal."""
    if type(obj) is not list or not obj:
        raise SpecError(f"{name}: expected a non-empty list of rows")
    width = len(obj[0]) if type(obj[0]) is list else -1
    for r, row in enumerate(obj):
        if type(row) is not list or len(row) != width:
            raise SpecError(f"{name}: row {r} is not a list of equal length")
    pairs = _number_pairs([p for row in obj for p in row], name,
                          lambda k: f"entry ({k // width},{k % width})", "[re, im]")
    if not np.isfinite(pairs).all():
        raise SpecError(f"{name}: contains non-finite entries")
    return pairs.view(complex).reshape(len(obj), width)


@contextlib.contextmanager
def _overflow_names(where: str):
    """Floating-point overflow, invalid or divide-by-zero in the body is an
    input error naming where, not a warning, a value in the report or a
    failure blamed on something else."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        raise ValueError(f"{where}: floating-point {exc}") from exc


def _known_keys(obj: dict, keys: tuple[str, ...], where: str) -> None:
    """The first key of obj not in keys (a misspelt one, say) is a SpecError
    naming it at where: no key is silently ignored."""
    unknown = next((key for key in obj if key not in keys), None)
    if unknown is not None:
        raise SpecError(f"{where}: unknown key {json.dumps(unknown)}; "
                        f"expected {', '.join(keys)}")


def _parse_rate(obj, name: str):
    if type(obj) in _NUMBER or isinstance(obj, str):
        try:
            return as_rate(obj)
        except (ValueError, OverflowError) as exc:
            raise SpecError(f"{name}: {exc}") from exc
    if isinstance(obj, dict) and "table" in obj:
        _known_keys(obj, ("table",), name)
        table = obj["table"]
        if not isinstance(table, list):
            raise SpecError(f"{name}: table must be a list of [t, value] pairs")
        points = _number_pairs(table, name, lambda k: f"table[{k}]", "[t, value]")
        try:
            return TableRate(times=tuple(points[:, 0].tolist()),
                             values=tuple(points[:, 1].tolist()))
        except ValueError as exc:
            raise SpecError(f"{name}: {exc}") from exc
    raise SpecError(f"{name}: rate must be a number, expression string or table")


def _read_json(path: str):
    """The JSON document in the file at path; SpecError if unreadable or malformed."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SpecError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SpecError(f"{path}: invalid JSON at byte {exc.pos}: {exc.msg}") from exc
    except (RecursionError, ValueError) as exc:
        # Nesting as deep as the recursion limit, or an int longer than
        # sys.get_int_max_str_digits(); the advice after a ';' is for Python code.
        raise SpecError(f"{path}: cannot read JSON: {str(exc).split(';')[0]}") from exc


def load_channel_spec(path: str) -> LindbladGenerator:
    """Read and validate a channel spec into a generator."""
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise SpecError(f"{path}: top level must be an object")
    _known_keys(doc, ("dim", "hamiltonian", "ops"), f"{path}: top level")
    dim = doc.get("dim")
    if not isinstance(dim, int) or dim < 2:
        raise SpecError(f"{path}: 'dim' must be an integer >= 2")
    ops_doc = doc.get("ops")
    if not isinstance(ops_doc, list) or not ops_doc:
        raise SpecError(f"{path}: 'ops' must be a non-empty list")
    ops, rates = [], []
    for i, entry in enumerate(ops_doc):
        if not isinstance(entry, dict) or "matrix" not in entry or "rate" not in entry:
            raise SpecError(f"{path}: ops[{i}] must have 'matrix' and 'rate'")
        _known_keys(entry, ("matrix", "rate"), f"{path}: ops[{i}]")
        ops.append(matrix_from_pairs(entry["matrix"], f"{path}: ops[{i}].matrix"))
        rates.append(_parse_rate(entry["rate"], f"{path}: ops[{i}].rate"))
    ham = None
    if doc.get("hamiltonian") is not None:
        ham = matrix_from_pairs(doc["hamiltonian"], f"{path}: hamiltonian")
    try:
        return LindbladGenerator(dim=dim, ops=tuple(ops), rates=tuple(rates), hamiltonian=ham)
    except ValueError as exc:
        raise SpecError(f"{path}: {exc}") from exc


def load_witness_matrix(path: str) -> np.ndarray:
    """Read a witness matrix: a bare pair-matrix or a report carrying one witness."""
    doc = _read_json(path)
    if isinstance(doc, dict):
        witnesses = doc.get("witnesses")
        if "matrix" not in doc and isinstance(witnesses, list) and len(witnesses) > 1:
            raise SpecError(f"{path}: holds {len(witnesses)} witnesses; verify checks one")
        try:
            doc = doc["matrix"] if "matrix" in doc else doc["witnesses"][0]["matrix"]
        except (KeyError, IndexError, TypeError):
            raise SpecError(f"{path}: no witness matrix found") from None
    m = matrix_from_pairs(doc, f"{path}: witness")
    try:
        require_hermitian(m, "witness")
    except ValueError as exc:
        raise SpecError(f"{path}: {exc}") from exc
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
    """Write text to a fresh file beside path, then rename it over path.

    The fresh file is created with mode 0o666, which the umask trims as it
    does for any new file; when path already exists, its permission bits
    carry over to the replacement.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        mode = None
    tmp = os.path.join(directory, f".nmwitness-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            if mode is not None:
                os.chmod(tmp, mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


class _Rows:
    """A report table held as equal-length columns, one per key.

    In JSON each row is an object with these keys, or a bare array when
    keyed is False; in CSV the keys are the header line. A plain class, not
    a dataclass: it adds no work to the CLI's import.
    """

    def __init__(self, keys: tuple[str, ...], columns: tuple, keyed: bool = True):
        self.keys = keys
        self.columns = columns
        self.keyed = keyed

    def _cells(self, json_form: bool) -> list[list[str]]:
        """Per column, the text of each cell.

        A number's text is repr() of its Python value, which for a float is
        json's own spelling of a finite float; JSON spells a non-finite one
        as json.dumps does, CSV as repr. Bools become true/false.
        """
        cells = []
        for column in self.columns:
            a = np.asarray(column)
            if a.dtype == bool:
                cells.append(np.where(a, "true", "false").tolist())
            elif json_form and a.dtype.kind == "f" and not np.isfinite(a).all():
                cells.append([json.dumps(v) for v in a.tolist()])
            else:
                cells.append(list(map(repr, a.tolist())))
        return cells

    def json(self, pad: str) -> str:
        """The table as json.dumps(indent=2) writes it at indentation pad."""
        if not len(self.columns[0]):
            return "[]"
        skeleton = dict.fromkeys(self.keys, "%s") if self.keyed else ["%s"] * len(self.keys)
        return _json_rows(skeleton, pad, self._cells(True))

    def csv(self) -> str:
        """The header line, then one line per row (a cell holds no newline)."""
        rows = []
        if len(self.columns[0]):
            rows = [_join(",".join(["%s"] * len(self.keys)), "\n", self._cells(False))]
        return "\n".join([",".join(self.keys), *rows]) + "\n"


def _join(template: str, sep: str, cells: list[list[str]]) -> str:
    """The rows, each template with its cells in the %s slots, joined by sep.

    One join over the cell texts of one or more rows interleaved with the
    template's literal pieces, not one format per row: slot 2j of a row
    holds the literal before cell j (the first also ends the row before),
    slot 2j + 1 the cell.
    """
    pieces = template.split("%s")
    literals = [pieces[-1] + sep + pieces[0], *pieces[1:-1]]
    width = 2 * len(literals)
    out = [slot for literal in literals for slot in (literal, None)] * len(cells[0])
    for j, column in enumerate(cells):
        out[2 * j + 1::width] = column
    out[0] = pieces[0]
    return "".join(out) + pieces[-1]


def _matrix_json(matrix: np.ndarray, pad: str) -> str:
    """A complex matrix as json.dumps(indent=2) writes its rows of [re, im] pairs at pad.

    A cell is repr() of a Python float, json's own spelling of a finite float;
    a witness matrix is finite (WitnessOperator rejects anything else).
    """
    width = 2 * matrix.shape[1]
    # Each entry's real then imaginary part, row by row: cell j of a row is cells[j::width].
    cells = list(map(repr, np.stack([matrix.real, matrix.imag], axis=-1).ravel().tolist()))
    return _json_rows([["%s", "%s"]] * matrix.shape[1], pad,
                      [cells[j::width] for j in range(width)])


def _json_rows(skeleton, pad: str, cells: list[list[str]]) -> str:
    """json.dumps(rows, indent=2) at indentation pad, for one or more rows shaped
    like skeleton whose "%s" strings are the slots that cells fill."""
    text = json.dumps([skeleton], indent=2).replace("\n", "\n" + pad).replace('"%s"', "%s")
    return "[\n" + _join(text[2:-len(pad) - 2], ",\n", cells) + text[-len(pad) - 2:]


# The string a table stands in for while json lays out a report.
_PLACEHOLDER = "\0table\0"


def _render_json(payload: dict) -> str:
    """json.dumps(payload, indent=2) + newline, tables and matrices from their arrays.

    json lays out the payload with a placeholder string for each table,
    which is then replaced by the table's own text at the indentation of the
    line that holds it. Table contents never pass through json's encoder.
    """
    tables = []

    def hold(value):
        if not isinstance(value, (_Rows, np.ndarray)):
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        tables.append(value)
        return _PLACEHOLDER

    text, *pieces = json.dumps(payload, indent=2, default=hold).split(json.dumps(_PLACEHOLDER))
    if len(pieces) != len(tables):
        raise ValueError(f"a report string equals the table placeholder {_PLACEHOLDER!r}")
    for table, piece in zip(tables, pieces):
        line = text[text.rfind("\n") + 1:]
        pad = line[:len(line) - len(line.lstrip(" "))]
        text += (table.json(pad) if isinstance(table, _Rows) else _matrix_json(table, pad)) + piece
    return text + "\n"


def _render_csv(payload: dict) -> str:
    command = payload["command"]
    if command == "analyze":
        table = payload["points"]
    elif command == "geometry":
        table = payload["details"]
    elif command == "verify":
        keys = ("n_samples", "violations", "min_expectation")
        table = _Rows(keys, tuple([payload[key]] for key in keys))
    elif command == "witness":
        # Every witness in JSON order, each matrix row by row (ndmin: no
        # witness at all is an empty table).
        matrices = np.array([entry["matrix"] for entry in payload["witnesses"]], ndmin=3)
        values = matrices.ravel()
        table = _Rows(("witness", "row", "col", "re", "im"),
                      (*np.indices(matrices.shape).reshape(3, -1), values.real, values.imag))
    else:
        raise SpecError(f"no CSV rendering for command {command!r}")
    return table.csv()


def emit_report(payload: dict, out_path: str | None, fmt: str) -> None:
    if fmt == "json":
        text = _render_json(payload)
    elif fmt == "csv":
        text = _render_csv(payload)
    else:
        raise SpecError(f"unknown format {fmt!r}")
    if out_path:
        try:
            _atomic_write(out_path, text)
        except OSError as exc:
            raise SpecError(f"--out {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_analyze(spec: str, t0: float, t1: float, steps: int, eps: float,
                tol: float | None = None) -> tuple[dict, int]:
    gen = load_channel_spec(spec)
    report = scan(gen, t0, t1, steps, eps, tol)
    fields = {
        "t0": t0,
        "t1": t1,
        "steps": steps,
        "tol": report.tol,
        "points": _Rows(("t", "min_eigenvalue", "deficit", "is_markovian"),
                        (report.grid, report.min_eigenvalues, report.deficits,
                         report.is_markovian)),
        "nm_intervals": _Rows(("start", "end"),
                              tuple(np.reshape(report.nm_intervals, (-1, 2)).T), keyed=False),
        "integrated_measure": report.integrated_measure,
    }
    return fields, 3 if report.nm_intervals else 0


def _witness_entry(w, c: ChoiMatrix) -> dict:
    from .witness import expectation
    return {
        "kind": w.kind,
        "provenance": w.provenance,
        "expectation": expectation(w, c),
        "matrix": w.matrix,
    }


def _spectral(gen, cn, tol) -> tuple[dict, int]:
    # The verdict's eigvalsh and the projectors' eigh can round the minimum
    # eigenvalue to either side of -tol: no projector is nothing to witness.
    from .witness import spectral_witnesses
    witnesses = spectral_witnesses(cn, tol)
    if not witnesses:
        raise MarkovianTargetError(f"witness: no spectral projector for the Choi "
                                   f"state at t={cn.t}, eps={cn.eps}")
    return {"witnesses": [_witness_entry(w, cn) for w in witnesses]}, 0


def _theorem3(cn: ChoiMatrix, result, **fields) -> dict:
    """fields, then the Theorem-3 witness of a projection result and the result's own."""
    from .witness import theorem3_witness
    w = theorem3_witness(cn, result.choi_star)
    return {**fields, "witnesses": [_witness_entry(w, cn)], "residual": result.residual,
            "c0": w.c0, "kkt_ok": result.kkt_ok, "iterations": result.iterations}


def _theorem3_fixed(gen, cn, tol) -> tuple[dict, int]:
    from .witness import fixed_basis_family, nearest_mcs_fixed_basis
    result = nearest_mcs_fixed_basis(cn, fixed_basis_family(gen.ops, cn.eps, cn.t))
    return _theorem3(cn, result, rates=[float(g) for g in result.rates]), 0


def _theorem3_gksl(gen, cn, tol) -> tuple[dict, int]:
    from .witness import nearest_mcs_full_gksl
    result = nearest_mcs_full_gksl(cn)
    return _theorem3(cn, result), 0 if result.kkt_ok else 4


# Witness mode -> builder(gen, cn, tol) of the report fields and the exit
# code for a non-Markovian target cn, the Choi state of gen at (cn.t, cn.eps).
_WITNESS_MODES = {"spectral": _spectral, "theorem3-fixed": _theorem3_fixed,
                  "theorem3-gksl": _theorem3_gksl}


def cmd_witness(spec: str, t0: float, eps: float, mode: str,
                tol: float | None = None) -> tuple[dict, int]:
    """The report fields and exit code of a witness of the Choi state at (t0, eps).
    A target that classifies as Markovian (`require_non_markovian`), or has
    no spectral projector in spectral mode, raises MarkovianTargetError."""
    if mode not in _WITNESS_MODES:
        raise SpecError(f"unknown witness mode {mode!r}")
    gen = load_channel_spec(spec)
    # A target whose numbers leave the double range (rates near 1e308) is an
    # input error naming (t, eps) in every mode.
    with _overflow_names(f"witness: {mode} at t={t0}, eps={eps}"):
        cn = choi_of_generator(gen, t0, eps)
        verdict = require_non_markovian(cn, tol)
        fields, exit_code = _WITNESS_MODES[mode](gen, cn, tol)
    classification = {
        "min_eigenvalue": verdict.min_eigenvalue,
        "deficit": verdict.trace_norm_deficit,
        "is_markovian": verdict.is_markovian,
    }
    return {"mode": mode, "t": t0, "classification": classification, **fields}, exit_code


def cmd_verify(witness: str, eps: float, n: int, seed: int) -> tuple[dict, int]:
    from .witness import WitnessOperator, verify_witness
    matrix = load_witness_matrix(witness)
    dim = int(round(np.sqrt(matrix.shape[0])))
    if dim * dim != matrix.shape[0] or dim < 2:
        raise SpecError(
            f"witness of shape {matrix.shape} is not a d^2 x d^2 matrix with d >= 2")
    w = WitnessOperator(matrix=matrix, kind="theorem3", provenance=f"file:{witness}")
    # eps near the top of the double range overflows the sampled states.
    with _overflow_names(f"verify: d={dim}, eps={eps}"):
        result = verify_witness(w, dim, eps, n, seed)
    fields = {
        "witness_path": witness,
        "dim": dim,
        "n_samples": n,
        "violations": result.violations,
        "min_expectation": result.min_expectation,
    }
    return fields, 0 if result.violations == 0 else 3


# Sampled probe name -> name of its probe(dim, eps, n, seed) in the geometry
# module, looked up there when the command runs.
_SAMPLED_PROBES = {"convexity": "convexity_probe", "hsnorm": "hs_norm_probe",
                   "extreme": "extreme_point_probe"}


def cmd_geometry(probe: str, dim: int | None, eps: float, n: int, seed: int,
                 spec: str | None = None, t0: float | None = None) -> tuple[dict, int]:
    """Run one probe. dim None is 2, or for separation the target's dimension,
    which an explicit dim must match. spec and t0 (None: 0.0) choose the
    separation target; a sampled probe takes neither. A separation target
    that classifies as Markovian raises MarkovianTargetError, as witness does."""
    from . import geometry
    if probe == "separation":
        # Default demonstration instance: a Pauli channel with one negative
        # rate, non-Markovian at every time.
        gen = builtin_pauli(1.0, 1.0, -0.3) if spec is None else load_channel_spec(spec)
        if dim is not None and dim != gen.dim:
            raise SpecError(f"--dim {dim} differs from the separation target's "
                            f"dimension {gen.dim}")
        dim = gen.dim

        def run(dim, eps, n, seed):
            cn = choi_of_generator(gen, 0.0 if t0 is None else t0, eps)
            return geometry.separation_demo(cn, n, seed)
    elif probe in _SAMPLED_PROBES:
        for option, value in (("--spec", spec), ("--t0", t0)):
            if value is not None:
                raise SpecError(f"{option} is for the separation probe only, not {probe}")
        run, dim = getattr(geometry, _SAMPLED_PROBES[probe]), 2 if dim is None else dim
    else:
        raise SpecError(f"unknown probe {probe!r}")
    # eps near the top of the double range overflows the sampled states.
    with _overflow_names(f"geometry: {probe} probe at d={dim}, eps={eps}"):
        report = run(dim, eps, n, seed)
    fields = {
        "probe": report.probe_name,
        "n_trials": report.n_trials,
        "failures": report.failures,
        "worst_value": report.worst_value,
        "details": _Rows(("trial", "value"),
                         (np.arange(report.details.size), report.details), keyed=False),
    }
    if report.summary is not None:
        fields["summary"] = report.summary
    return fields, 0 if report.failures == 0 else 3


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the input-error code on bad usage.

    argparse takes a value such as -1e-3 or -inf for an option of its own;
    one that follows an option is glued to it first ("--t0=-1e-3"), so the
    two spellings parse alike.
    """

    def parse_known_args(self, args=None, namespace=None):
        glued = []
        for arg in sys.argv[1:] if args is None else args:
            prev = glued[-1] if glued else ""
            if (prev.startswith("--") and len(prev) > 2 and "=" not in prev
                    and arg.startswith("-") and _is_number(arg)):
                glued[-1] = f"{prev}={arg}"
            else:
                glued.append(arg)
        return super().parse_known_args(glued, namespace)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _argument(convert, rule: str, ok):
    """argparse type: convert(text) where ok accepts it; anything else is an input error."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not ok(value):
            raise argparse.ArgumentTypeError(f"expected {rule}, got {text!r}")
        return value
    return parse


# A NaN fails every comparison, so the bounds below refuse it.
_FINITE = _argument(float, "a finite number", math.isfinite)
_EPS = _argument(float, "a finite positive number", lambda value: 0 < value < math.inf)
_TOL = _argument(float, "a finite nonnegative number", lambda value: 0 <= value < math.inf)
_SEED = _argument(int, "a nonnegative integer", lambda value: value >= 0)
_DIM = _argument(int, "an integer >= 2", lambda value: value >= 2)
_COUNT = _argument(int, "a positive integer", lambda value: value >= 1)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    A subcommand's parse fills its handler's parameters, plus `out` and `fmt`
    for `main`, and names the handler `run`. Building takes about ten times
    as long as a parse (argparse makes a HelpFormatter for each argument), a
    large share of a small witness's cost. Reuse carries no state between
    calls: each parse fills a fresh namespace.
    """
    parser = _Parser(prog="nmwitness",
                     description="Small-time Choi states of Lindblad dynamics: "
                                 "detect and witness non-Markovianity.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        return p

    analyze = command("analyze", cmd_analyze, "scan a time window for divisibility breaking")
    analyze.add_argument("--spec", required=True, help="channel spec JSON")
    analyze.add_argument("--t0", type=_FINITE, default=0.0)
    analyze.add_argument("--t1", type=_FINITE, required=True)
    analyze.add_argument("--steps", type=_COUNT, required=True)
    analyze.add_argument("--tol", type=_TOL, default=None)

    witness = command("witness", cmd_witness, "build a witness at one instant")
    witness.add_argument("--spec", required=True)
    witness.add_argument("--t0", type=_FINITE, default=0.0, help="time of the snapshot")
    witness.add_argument("--tol", type=_TOL, default=None)
    witness.add_argument("--mode", choices=_WITNESS_MODES, default="spectral")

    verify = command("verify", cmd_verify, "Monte-Carlo check a witness file")
    verify.add_argument("--witness", required=True,
                        help="witness JSON (bare matrix or a one-witness report)")

    geometry = command("geometry", cmd_geometry, "run a convex-geometry probe")
    geometry.add_argument("--probe", required=True, choices=(*_SAMPLED_PROBES, "separation"))
    geometry.add_argument("--dim", type=_DIM, default=None,
                          help="default 2; separation: the target's dimension, which "
                               "--dim must match")
    geometry.add_argument("--spec", default=None,
                          help="separation only: channel supplying the target state")
    geometry.add_argument("--t0", type=_FINITE, default=None,
                          help="separation only: time of the target state (default 0)")

    for p in (verify, geometry):
        p.add_argument("--n", type=_COUNT, required=True)
        p.add_argument("--seed", type=_SEED, required=True)
    for p in sub.choices.values():
        p.add_argument("--eps", type=_EPS, default=1e-3)
        p.add_argument("--out", default=None)
        p.add_argument("--format", dest="fmt", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    """Parse argv, run the subcommand's handler on its own options and write
    its fields under the report header to --out (stdout when absent) in
    --format; return the exit code. A Markovian target is exit 2 with no
    report, any input error exit 1 with a one-line message."""
    args = vars(build_parser().parse_args(argv))
    command, run, out, fmt = (args.pop(key) for key in ("command", "run", "out", "fmt"))
    try:
        fields, exit_code = run(**args)
        header = {"command": command, "metadata": _metadata(args.get("seed"), args["eps"])}
        emit_report({**header, **fields}, out, fmt)
    except MarkovianTargetError:
        print("nothing to witness: channel is Markovian at the requested time",
              file=sys.stderr)
        return 2
    except (ValueError, MemoryError) as exc:  # SpecError, rate errors, sizes beyond memory
        print(f"nmwitness: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
