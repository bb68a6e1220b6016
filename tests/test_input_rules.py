"""One rule per kind of input, called by name at every entry point.

`linalg` holds the rules: `require_count` (counts, steps and dimensions),
`require_time`, `require_eps`, `require_tol` and `require_jumps`. One table
per rule maps each entry point that takes that input to the name its refusal
carries; the `eps` table is `test_channels._EPS_ENTRY_POINTS`. The source
scan at the end keeps inline copies of the rules out of every other module.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from nmwitness import cli
from nmwitness.channels import LindbladGenerator, builtin_dephasing, builtin_pauli
from nmwitness.choi import (ChoiMatrix, choi_of_generator, classify, max_entangled_state,
                            require_non_markovian, scan)
from nmwitness.geometry import convexity_probe, extreme_point_probe, hs_norm_probe
from nmwitness.linalg import SIGMA_Z, gell_mann_basis
from nmwitness.witness import (MarkovianFamily, WitnessOperator, fixed_basis_family,
                               pauli_family, sample_markovian_chois, spectral_witnesses,
                               uniqueness_check, verify_witness)

SRC = Path(__file__).resolve().parents[1] / "src" / "nmwitness"

_W = WitnessOperator(np.eye(4), "theorem3", "test")


def _tagged():
    return ChoiMatrix(2, max_entangled_state(2), 0.0, 1e-3)


def _uniqueness(dim=2, n=10):
    return uniqueness_check(_tagged(), _tagged(), dim, 1e-3, n, 1, family=pauli_family(1e-3))


def _dephasing_state():
    # PSD: its minimum eigenvalue is 0.0.
    return choi_of_generator(builtin_dephasing(1.0), 0.0, 1e-3)


# ---------------------------------------------------------------------------
# counts
# ---------------------------------------------------------------------------

# Entry point -> (the name its refusal carries, the count's name, least, a call at n).
# Before the rule, scan at steps 2.5 scanned [0, 1.2] in cells of 0.4, and
# verify_witness at 2.5 or True failed inside numpy with a TypeError.
_COUNT_ENTRY_POINTS = {
    "convexity_probe": ("convexity_probe", "n_trials", 1,
                        lambda n: convexity_probe(2, 1e-3, n, 1)),
    "hs_norm_probe": ("hs_norm_probe", "n_trials", 1, lambda n: hs_norm_probe(2, 1e-3, n, 1)),
    "extreme_point_probe": ("extreme_point_probe", "n_unitaries", 2,
                            lambda n: extreme_point_probe(2, 1e-3, n, 1)),
    "sample_markovian_chois": ("sample_markovian_chois", "n_samples", 1,
                               lambda n: sample_markovian_chois(2, 1e-3, n, 1)),
    "verify_witness": ("verify_witness", "n_samples", 1,
                       lambda n: verify_witness(_W, 2, 1e-3, n, 1)),
    "uniqueness_check": ("uniqueness_check", "n_samples", 1, lambda n: _uniqueness(n=n)),
    "scan": ("scan", "steps", 1, lambda n: scan(builtin_dephasing(1.0), 0.0, 1.0, n, 1e-3)),
}


def _count_refusal(where, name, least, n):
    if isinstance(n, int) and not isinstance(n, bool):
        return f"{where}: {name} must be >= {least}, got {n}"
    return f"{where}: {name} must be an integer, got {n!r}"


@pytest.mark.parametrize("n", [0, -1, 2.5, True, np.bool_(True), math.nan, math.inf],
                         ids=["0", "-1", "2.5", "True", "np.True_", "nan", "inf"])
@pytest.mark.parametrize("entry", sorted(_COUNT_ENTRY_POINTS))
def test_every_entry_point_refuses_a_bad_count_by_name(entry, n):
    where, name, least, call = _COUNT_ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as info:
        call(n)
    assert str(info.value) == _count_refusal(where, name, least, n)


@pytest.mark.parametrize("entry", sorted(_COUNT_ENTRY_POINTS))
def test_every_entry_point_admits_a_numpy_integer_count(entry):
    _, _, least, call = _COUNT_ENTRY_POINTS[entry]
    call(np.int64(least))
    if least == 2:
        with pytest.raises(ValueError, match=r"must be >= 2, got 1$"):
            call(np.int64(1))


# ---------------------------------------------------------------------------
# dimensions
# ---------------------------------------------------------------------------

# Entry point -> (the name its refusal carries, a call at dimension d).
# Before the rule, extreme_point_probe at d = 1 reported 6 failures and
# verify_witness 0 violations.
_DIM_ENTRY_POINTS = {
    "convexity_probe": ("convexity_probe", lambda d: convexity_probe(d, 1e-3, 10, 1)),
    "hs_norm_probe": ("hs_norm_probe", lambda d: hs_norm_probe(d, 1e-3, 10, 1)),
    "extreme_point_probe": ("extreme_point_probe", lambda d: extreme_point_probe(d, 1e-3, 5, 1)),
    "sample_markovian_chois": ("sample_markovian_chois",
                               lambda d: sample_markovian_chois(d, 1e-3, 3, 1)),
    "verify_witness": ("verify_witness", lambda d: verify_witness(_W, d, 1e-3, 10, 1)),
    "uniqueness_check": ("uniqueness_check", lambda d: _uniqueness(dim=d)),
    "max_entangled_state": ("max_entangled_state", max_entangled_state),
    "gell_mann_basis": ("gell_mann_basis", gell_mann_basis),
    "LindbladGenerator": ("LindbladGenerator",
                          lambda d: LindbladGenerator(d, (SIGMA_Z,), (1.0,))),
    "MarkovianFamily": ("MarkovianFamily", lambda d: MarkovianFamily(d, (SIGMA_Z,), 1e-3)),
    "ChoiMatrix": ("ChoiMatrix", lambda d: ChoiMatrix(d, np.eye(1), 0.0, 1e-3)),
}


# 2.0 equals the cache key of max_entangled_state(np.int64(2)), so a cache
# keyed by value alone would admit it once that call is cached.
@pytest.mark.parametrize("d", [0, -1, 1, 2.0, 2.5, True, math.nan, math.inf],
                         ids=["0", "-1", "1", "2.0", "2.5", "True", "nan", "inf"])
@pytest.mark.parametrize("entry", sorted(_DIM_ENTRY_POINTS))
def test_every_entry_point_refuses_a_bad_dimension_by_name(entry, d):
    where, call = _DIM_ENTRY_POINTS[entry]
    max_entangled_state(np.int64(2))
    with pytest.raises(ValueError) as info:
        call(d)
    assert str(info.value) == _count_refusal(where, "dim", 2, d)


# The command line's verify reads d from a d^2 x d^2 witness file, so of the
# dimensions above only 1 can reach it. Before, cmd_verify refused a 1 x 1
# witness by a shape test of its own.
def test_verify_leaves_a_one_by_one_witness_to_the_dimension_rule(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps([[[1.0, 0.0]]]))
    assert cli.main(["verify", "--witness", str(path), "--n", "5", "--seed", "1"]) == 1
    refusal = _count_refusal("verify_witness", "dim", 2, 1)
    assert capsys.readouterr().err == f"nmwitness: error: {refusal}\n"


@pytest.mark.parametrize("entry", ["max_entangled_state", "gell_mann_basis"])
def test_a_numpy_integer_dimension_is_admitted(entry):
    _, call = _DIM_ENTRY_POINTS[entry]
    assert np.array_equal(np.asarray(call(np.int64(3))), np.asarray(call(3)))


# ---------------------------------------------------------------------------
# times
# ---------------------------------------------------------------------------

_PAULI = builtin_pauli(1.0, 1.0, -0.3)

# Entry point -> (the name its refusal carries, the time's name, a call at t).
# Before the rule, choi_of_generator at nan built a state tagged t = nan, and
# so did ChoiMatrix.
_TIME_ENTRY_POINTS = {
    "ChoiMatrix": ("ChoiMatrix", "t", lambda t: ChoiMatrix(2, max_entangled_state(2), t, 1e-3)),
    "choi_of_generator": ("choi_of_generator", "t",
                          lambda t: choi_of_generator(_PAULI, t, 1e-3)),
    "MarkovianFamily": ("MarkovianFamily", "t", lambda t: MarkovianFamily(2, (SIGMA_Z,), 1e-3, t)),
    "fixed_basis_family": ("MarkovianFamily", "t",
                           lambda t: fixed_basis_family([SIGMA_Z], 1e-3, t)),
    "pauli_family": ("MarkovianFamily", "t", lambda t: pauli_family(1e-3, t)),
    "scan-t0": ("scan", "t0", lambda t: scan(_PAULI, t, 1.0, 4, 1e-3)),
    "scan-t1": ("scan", "t1", lambda t: scan(_PAULI, 0.0, t, 4, 1e-3)),
}


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(_TIME_ENTRY_POINTS))
def test_every_entry_point_refuses_a_non_finite_time_by_name(entry, t):
    where, name, call = _TIME_ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as info:
        call(t)
    assert str(info.value) == f"{where}: {name} must be finite, got {t}"


@pytest.mark.parametrize("t", [0, -1, 2.5, np.float64(0.5)])
@pytest.mark.parametrize("entry", ["choi_of_generator", "MarkovianFamily", "ChoiMatrix"])
def test_a_finite_time_is_admitted(entry, t):
    _TIME_ENTRY_POINTS[entry][2](t)


# ---------------------------------------------------------------------------
# tolerances
# ---------------------------------------------------------------------------

def _pauli_state(eps_tag):
    """The non-Markovian Pauli (1, 1, -0.3) state at eps = 1e-3, tagged eps_tag."""
    return ChoiMatrix(2, choi_of_generator(_PAULI, 0.0, 1e-3).matrix, 0.0, eps_tag)


# Entry point -> (the name its refusal carries, the value's name, a call at
# tol). Before the rule, classify at nan or -1.0 called the PSD dephasing
# state non-Markovian; a ChoiMatrix tagged eps = inf was admitted, and classify
# then called the Pauli state Markovian at tol = inf.
_TOL_ENTRY_POINTS = {
    "classify": ("classify", "tol", lambda tol: classify(_dephasing_state(), tol)),
    "require_non_markovian": ("classify", "tol",
                              lambda tol: require_non_markovian(_dephasing_state(), tol)),
    "scan": ("scan", "tol", lambda tol: scan(builtin_dephasing(1.0), 0.0, 1.0, 4, 1e-3, tol)),
    "spectral_witnesses": ("spectral_witnesses", "tol",
                           lambda tol: spectral_witnesses(_dephasing_state(), tol)),
    "ChoiMatrix": ("ChoiMatrix", "eps", _pauli_state),
}


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(_TOL_ENTRY_POINTS))
def test_every_entry_point_refuses_a_bad_tol_by_name(entry, tol):
    where, name, call = _TOL_ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as info:
        call(tol)
    assert str(info.value) == f"{where}: {name} must be finite and >= 0, got {tol}"


def test_a_zero_tol_is_admitted():
    assert classify(_dephasing_state(), 0.0).is_markovian
    assert spectral_witnesses(_dephasing_state(), 0) == []
    # choi_of_channel tags its states eps = 0; the Pauli state stays non-Markovian.
    assert not classify(_pauli_state(0.0)).is_markovian
    assert not classify(_pauli_state(1e-3)).is_markovian


# ---------------------------------------------------------------------------
# the command line calls the same rules
# ---------------------------------------------------------------------------

_TEXTS = ("0", "-1", "1", "2", "2.5", "True", "nan", "inf", "-inf", "1e400", "x")

# Option type -> (the rule its refusal states, the texts it admits).
_CLI_TYPES = {
    "_FINITE": ("a finite number", {"0", "-1", "1", "2", "2.5"}),
    "_EPS": ("a finite positive number", {"1", "2", "2.5"}),
    "_TOL": ("a finite nonnegative number", {"0", "1", "2", "2.5"}),
    "_SEED": ("a nonnegative integer", {"0", "1", "2"}),
    "_DIM": ("an integer >= 2", {"2"}),
    "_COUNT": ("a positive integer", {"1", "2"}),
}


@pytest.mark.parametrize("text", _TEXTS)
@pytest.mark.parametrize("option", sorted(_CLI_TYPES))
def test_each_cli_option_type_keeps_its_refusal_text(option, text):
    rule, admitted = _CLI_TYPES[option]
    parse = getattr(cli, option)
    if text in admitted:
        assert parse(text) == float(text)
    else:
        with pytest.raises(cli.argparse.ArgumentTypeError) as info:
            parse(text)
        assert str(info.value) == f"expected {rule}, got {text!r}"


@pytest.mark.parametrize("dim, refusal", [
    (1, "dim must be >= 2, got 1"),
    (None, "dim must be an integer, got None"),
    (True, "dim must be an integer, got True"),
    (2.0, "dim must be an integer, got 2.0"),
    ("2", "dim must be an integer, got '2'"),
], ids=["1", "missing", "true", "2.0", "string"])
def test_the_spec_loader_leaves_dim_to_the_jump_list_rule(tmp_path, dim, refusal):
    doc = {"ops": [{"matrix": [[[1, 0], [0, 0]], [[0, 0], [-1, 0]]], "rate": 1.0}]}
    if dim is not None:
        doc["dim"] = dim
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(cli.SpecError) as info:
        cli.load_channel_spec(str(path))
    assert str(info.value) == f"{path}: LindbladGenerator: {refusal}"


# ---------------------------------------------------------------------------
# no inline copies
# ---------------------------------------------------------------------------

# The texts of the count, dimension, time, eps and tol refusals.
_RULE_TEXTS = ("must be >=", "must be finite", "must be an integer")


def inline_refusals(source: str) -> list[int]:
    """The numbers of the lines of source that hold a rule's refusal text."""
    return [k for k, line in enumerate(source.splitlines(), 1)
            if any(text in line for text in _RULE_TEXTS)]


def test_the_source_scan_finds_an_inline_copy():
    planted = ('def probe(n):\n'
               '    if n < 1:\n'
               '        raise ValueError(f"probe: n must be >= 1, got {n}")\n')
    assert inline_refusals(planted) == [3]
    assert inline_refusals('    require_count(n, "probe", "n")\n') == []


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")
                                          if p.name != "linalg.py"))
def test_no_module_but_linalg_writes_an_inline_refusal(module):
    assert inline_refusals((SRC / module).read_text()) == []
