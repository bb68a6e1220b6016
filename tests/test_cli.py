import argparse
import inspect
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nmwitness
from nmwitness import choi, cli, geometry
from nmwitness import witness as witness_module
from nmwitness.channels import builtin_pauli
from nmwitness.choi import (
    choi_of_generator,
    default_classification_tol,
    max_entangled_state,
    scan,
)
from nmwitness.cli import (
    SpecError,
    _PLACEHOLDER,
    _render_json,
    _Rows,
    build_parser,
    cmd_analyze,
    cmd_geometry,
    cmd_verify,
    cmd_witness,
    emit_report,
    load_channel_spec,
    load_witness_matrix,
    matrix_from_pairs,
    main,
)
from golden_expressions import INNERMOST_ERRORS
from nmwitness.choi import MarkovianTargetError
from nmwitness.geometry import (
    convexity_probe,
    extreme_point_probe,
    hs_norm_probe,
    separation_demo,
)

SZ = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
SX = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
SY = [[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]


def write_spec(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def matrix_to_pairs(m):
    """The [[ [re, im], ... ], ...] literal of a complex matrix, as json writes it."""
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def dephasing_spec(rate):
    return {"dim": 2, "ops": [{"matrix": SZ, "rate": rate}]}


def pauli_spec(gx, gy, gz):
    return {"dim": 2, "ops": [
        {"matrix": SX, "rate": gx},
        {"matrix": SY, "rate": gy},
        {"matrix": SZ, "rate": gz},
    ]}


def run_main(command, out, fmt="json", **options):
    """main on command, each option given as --name value, the report written
    to out in fmt; the exit code."""
    argv = [command]
    for name, value in options.items():
        argv += [f"--{name}", str(value)]
    return main([*argv, "--out", str(out), "--format", fmt])


# ---------------------------------------------------------------------------
# spec ingestion
# ---------------------------------------------------------------------------

def test_load_channel_spec(tmp_path):
    path = write_spec(tmp_path / "spec.json", dephasing_spec("cos(t)"))
    gen = load_channel_spec(path)
    assert gen.dim == 2
    assert len(gen.ops) == 1
    assert gen.rates[0](0.0) == pytest.approx(1.0)


def test_load_channel_spec_table_rate(tmp_path):
    doc = dephasing_spec({"table": [[0.0, 1.0], [1.0, -1.0]]})
    gen = load_channel_spec(write_spec(tmp_path / "s.json", doc))
    assert gen.rates[0](0.5) == pytest.approx(0.0)


def test_load_channel_spec_with_hamiltonian(tmp_path):
    doc = dephasing_spec(1.0)
    doc["hamiltonian"] = SX
    gen = load_channel_spec(write_spec(tmp_path / "s.json", doc))
    assert gen.hamiltonian is not None


@pytest.mark.parametrize("mutate,fragment", [
    (lambda d: d.pop("dim"), "dim"),
    (lambda d: d.update(dim=1), "dim"),
    (lambda d: d.update(ops=[]), "ops"),
    (lambda d: d["ops"][0].pop("rate"), "rate"),
    (lambda d: d["ops"][0].update(rate="2t"), "byte"),
    (lambda d: d["ops"][0].update(matrix=[[1, 2]]), "pair"),
    (lambda d: d.update(hamiltonian=[[[0.0, 0.0], [1.0, 0.0]],
                                     [[0.0, 0.0], [0.0, 0.0]]]), "Hermitian"),
    *(pytest.param(lambda d, r=rate: d["ops"][0].update(rate=r),
                   rf"ops\[0\]\.rate: .*{fragment}", id=name)
      for name, rate, fragment in (
          ("nan", math.nan, "non-finite"),
          ("inf", math.inf, "non-finite"),
          ("huge-int", 10 ** 400, "too large"),
          # A table entry that is not a number is refused by name, as a
          # constant rate is: not a TypeError from float(), nor a bool or a
          # string read as a number.
          ("table-null", {"table": [[0, None], [1, 2]]}, r"table\[0\] \[0, null\] is not"),
          ("table-list", {"table": [[0, [1]], [1, 2]]}, r"table\[0\] \[0, \[1\]\] is not"),
          ("table-bool", {"table": [[0, True], [1, 2]]}, r"table\[0\] \[0, true\] is not"),
          ("table-string", {"table": [[0, "1.5"], [1, 2]]}, r'table\[0\] \[0, "1.5"\] is not'),
          ("table-null-time", {"table": [[0, 1], [None, 2]]}, r"table\[1\] \[null, 2\] is not"),
          ("table-triple", {"table": [[0, 1], [1, 2, 3]]}, r"table\[1\] \[1, 2, 3\] is not"),
          ("table-huge-int", {"table": [[0, 10 ** 400], [1, 2]]}, "too large"),
          # Entries that are numbers but that TableRate refuses; 1e400 in the
          # file reads as inf.
          ("table-decreasing", {"table": [[1, 0], [0, 1]]},
           "TableRate: times must be strictly increasing"),
          ("table-inf", {"table": [[0, math.inf], [1, 2]]}, "TableRate: non-finite entries"),
          ("table-not-a-list", {"table": 5}, r"table must be a list of \[t, value\] pairs"))),
    # A matrix entry follows the same number rule as a rate table.
    pytest.param(lambda d: d["ops"][0].update(matrix=[[[True, False], [0, 0]], SZ[1]]),
                 r"ops\[0\]\.matrix: entry \(0,0\) \[true, false\] is not", id="matrix-bool"),
    pytest.param(lambda d: d["ops"][0].update(matrix=[SZ[0], [[0, 0], [10 ** 400, 0]]]),
                 r"ops\[0\]\.matrix: entry \(1,1\) holds an int too large",
                 id="matrix-huge-int"),
    pytest.param(lambda d: d.update(hamiltonian=[[[0, 0], [1, 0]], [[1, 0], [0, -10 ** 400]]]),
                 r"hamiltonian: entry \(1,1\) holds an int too large", id="hamiltonian-huge-int"),
    # a - a^dag overflows to inf: refused, with no overflow warning.
    pytest.param(lambda d: d.update(hamiltonian=[[[0, 0], [9e307, 0]], [[-9e307, 0], [0, 0]]]),
                 r"hamiltonian: not Hermitian, max \|a - a\^dag\| = inf > 1\.0e-10$",
                 id="hamiltonian-defect-overflows"),
    # A key the format does not know, as a misspelt one, is refused by name,
    # not ignored.
    pytest.param(lambda d: d.update(hamiltonain=SX),
                 r'top level: unknown key "hamiltonain"; expected dim, hamiltonian, ops$',
                 id="unknown-top-level-key"),
    pytest.param(lambda d: d["ops"][0].update(rate=-0.5, rates="cos(t)"),
                 r'ops\[0\]: unknown key "rates"; expected matrix, rate$', id="unknown-op-key"),
    pytest.param(lambda d: d["ops"][0].update(rate={"table": [[0, 1], [1, 2]], "kind": "cubic"}),
                 r'ops\[0\]\.rate: unknown key "kind"; expected table$',
                 id="unknown-table-rate-key"),
])
def test_load_channel_spec_errors(tmp_path, mutate, fragment):
    doc = dephasing_spec(1.0)
    mutate(doc)
    path = write_spec(tmp_path / "bad.json", doc)
    with pytest.raises(SpecError, match=fragment):
        load_channel_spec(path)


@pytest.mark.parametrize("text", ["[]", "[1, 2]", "5", '"spec"', "null"])
def test_a_spec_whose_top_level_is_not_an_object_is_an_input_error(tmp_path, capsys, text):
    path = tmp_path / "spec.json"
    path.write_text(text)
    with pytest.raises(SpecError) as info:
        load_channel_spec(str(path))
    assert str(info.value) == f"{path}: top level must be an object"
    assert main(["analyze", "--spec", str(path), "--t1", "1", "--steps", "2"]) == 1
    assert capsys.readouterr().err == f"nmwitness: error: {path}: top level must be an object\n"


def test_a_jump_whose_ldag_l_overflows_is_named_not_eps(tmp_path, capsys):
    doc = {"dim": 2, "ops": [{"matrix": matrix_to_pairs([[0, 1e308], [1e308, 0]]), "rate": 1}]}
    path = write_spec(tmp_path / "big.json", doc)
    out = tmp_path / "report.json"
    for argv in (["analyze", "--t1", "1", "--steps", "2"],
                 ["witness", "--mode", "spectral"],
                 ["witness", "--mode", "theorem3-gksl"],
                 ["geometry", "--probe", "separation", "--n", "5", "--seed", "1"]):
        assert main([*argv, "--spec", path, "--out", str(out)]) == 1, argv
        assert capsys.readouterr().err == (
            f"nmwitness: error: {path}: ops[0]: L^dag L overflows the double range\n")
    assert not out.exists()


@pytest.mark.parametrize("command, mutate", [
    (["analyze", "--t1", "1", "--steps", "2"],
     lambda d: d["ops"][0].update(rate={"table": [[0, None], [1, 2]]})),
    (["analyze", "--t1", "1", "--steps", "2"],
     lambda d: d["ops"][0].update(matrix=[[[int("9" * 400), 0], [0, 0]], SZ[1]])),
    (["witness"], lambda d: d["ops"][0].update(matrix=[[[True, False], [0, 0]], SZ[1]])),
    (["analyze", "--t1", "1", "--steps", "2"],
     lambda d: d.update(hamiltonian=[[[0, 0], [9e307, 0]], [[-9e307, 0], [0, 0]]])),
], ids=["table-null", "matrix-400-digits", "matrix-bool", "hamiltonian-defect-overflows"])
def test_a_malformed_spec_is_one_line_of_error_from_main(tmp_path, capsys, command, mutate):
    doc = dephasing_spec(-1.0)
    mutate(doc)
    path = write_spec(tmp_path / "bad.json", doc)
    assert main([*command, "--spec", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"nmwitness: error: {path}: ") and err.count("\n") == 1


def test_load_channel_spec_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,,}')
    with pytest.raises(SpecError, match="byte"):
        load_channel_spec(str(path))


@pytest.mark.parametrize("rate, message", [
    ("(" * 3000 + "t" + ")" * 3000, "more than 64 parentheses open (at byte 64)"),
    ("t" + "^t" * 3000, "more than 64 nested operators and calls (at byte 131)"),
    ("+".join(["t"] * 20_000), "more than 64 nested operators and calls (at byte 39870)"),
], ids=["parentheses", "powers", "sum"])
def test_a_rate_nested_too_deep_is_an_input_error(tmp_path, capsys, rate, message):
    path = write_spec(tmp_path / "deep.json", dephasing_spec(rate))
    with pytest.raises(SpecError) as info:
        load_channel_spec(path)
    assert str(info.value) == f"{path}: ops[0].rate: {message}"
    assert main(["analyze", "--spec", path, "--t1", "1", "--steps", "2"]) == 1
    assert capsys.readouterr().err == f"nmwitness: error: {path}: ops[0].rate: {message}\n"


def test_a_rate_at_the_depth_limit_is_analyzed(tmp_path, capsys):
    # 64 parentheses around a 65-term sum of t (64 levels): the rate 65 t.
    rate = "(" * 64 + "+".join(["t"] * 65) + ")" * 64
    path = write_spec(tmp_path / "limit.json", dephasing_spec(rate))
    assert load_channel_spec(path).rate_grid([0.5]).tolist() == [[32.5]]
    out = tmp_path / "report.json"
    assert main(["analyze", "--spec", path, "--t1", "1", "--steps", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert [p["is_markovian"] for p in json.loads(out.read_text())["points"]] == [True, True]


def test_a_file_that_is_not_utf8_is_named(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"dim": 2, "note": "\xff"}')
    with pytest.raises(SpecError, match="latin1.json: not UTF-8 text"):
        load_channel_spec(str(path))
    assert main(["verify", "--witness", str(path), "--n", "5", "--seed", "1"]) == 1
    assert capsys.readouterr().err.startswith(f"nmwitness: error: {path}: not UTF-8 text: ")


@pytest.mark.parametrize("witnesses", [[{}], [1], 5, "x", [], [["matrix"]]],
                         ids=["empty-object", "number-entry", "number", "string",
                              "empty-list", "list-entry"])
def test_witness_file_without_a_matrix_is_an_input_error(tmp_path, capsys, witnesses):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"witnesses": witnesses}))
    with pytest.raises(SpecError, match="no witness matrix found"):
        load_witness_matrix(str(path))
    assert main(["verify", "--witness", str(path), "--n", "5", "--seed", "1"]) == 1
    assert capsys.readouterr().err == f"nmwitness: error: {path}: no witness matrix found\n"


def test_verify_refuses_a_report_of_several_witnesses(tmp_path, capsys):
    # The spectral report of this target holds two witnesses; verify would
    # check one of them without saying which, so it checks none.
    spec = write_spec(tmp_path / "s.json", pauli_spec(1.0, -0.3, -0.5))
    report = tmp_path / "w.json"
    assert main(["witness", "--spec", spec, "--out", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert len(doc["witnesses"]) == 2
    with pytest.raises(SpecError, match="holds 2 witnesses"):
        load_witness_matrix(str(report))
    verify = ["verify", "--n", "50", "--seed", "1", "--out", str(tmp_path / "v.json")]
    assert main(verify + ["--witness", str(report)]) == 1
    assert capsys.readouterr().err == f"nmwitness: error: {report}: holds 2 witnesses; " \
                                      f"verify checks one\n"
    # Each witness on its own, as a one-witness report or a bare matrix, verifies.
    for entry in doc["witnesses"]:
        for one in ({**doc, "witnesses": [entry]}, entry["matrix"]):
            path = tmp_path / "one.json"
            path.write_text(json.dumps(one))
            assert np.array_equal(load_witness_matrix(str(path)),
                                  matrix_from_pairs(entry["matrix"], "witness"))
            assert main(verify + ["--witness", str(path)]) == 0


@pytest.mark.parametrize("entry,message", [
    ([True, False], "entry (0,0) [true, false] is not a [re, im] pair of numbers"),
    ([10 ** 400, 0], "entry (0,0) holds an int too large for a double"),
    ([0, -10 ** 400], "entry (0,0) holds an int too large for a double"),
    ([None, 0], "entry (0,0) [null, 0] is not a [re, im] pair of numbers"),
    (["1", 0], 'entry (0,0) ["1", 0] is not a [re, im] pair of numbers'),
    ([1, 0, 0], "entry (0,0) [1, 0, 0] is not a [re, im] pair of numbers"),
    ([math.nan, 0], "contains non-finite entries"),
    ([1, math.inf], "contains non-finite entries"),
], ids=["bool", "huge-re", "huge-im", "null", "string", "triple", "nan", "inf"])
def test_a_witness_entry_that_is_not_a_double_is_an_input_error(tmp_path, capsys, entry,
                                                                  message):
    # A bare witness matrix reads its entries by the spec's number rule.
    m = matrix_to_pairs(np.eye(4))
    m[0][0] = entry
    path = tmp_path / "w.json"
    path.write_text(json.dumps(m))
    with pytest.raises(SpecError) as info:
        load_witness_matrix(str(path))
    assert str(info.value) == f"{path}: witness: {message}"
    assert main(["verify", "--witness", str(path), "--n", "5", "--seed", "1"]) == 1
    assert capsys.readouterr().err == f"nmwitness: error: {path}: witness: {message}\n"


@pytest.mark.parametrize("text,fragment", [
    ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
    ('{"dim": 2, "ops": [{"matrix": [[[' + "1" * 5000 + ', 0]]], "rate": 1}]}',
     r"Exceeds the limit \(\d+[^)]*\) for integer string conversion: value has 5000 digits$"),
], ids=["deep", "digits"])
def test_json_past_the_readers_limits_is_named(tmp_path, capsys, text, fragment):
    path = tmp_path / "big.json"
    path.write_text(text)
    with pytest.raises(SpecError, match=rf"big\.json: cannot read JSON: {fragment}"):
        load_channel_spec(str(path))
    assert main(["verify", "--witness", str(path), "--n", "5", "--seed", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"nmwitness: error: {path}: cannot read JSON: ")
    assert err.count("\n") == 1


# JSON leaves of every kind the readers meet: ints (some beyond the double
# range), floats (nan, infinities and -0.0 among them), bools, null, strings.
def _mostly(usual, other):
    """usual nine times in ten, else other (st.one_of weighs each of other's
    own branches as much as usual)."""
    return st.integers(0, 9).flatmap(lambda k: usual if k else other)


_NUMBERS = _mostly(st.one_of(st.integers(-2, 2), st.floats(-2, 2)), st.one_of(
    st.floats(), st.sampled_from([10 ** 400, -10 ** 400, -0.0, math.nan, math.inf, -math.inf])))
_LEAVES = st.one_of(_NUMBERS, st.booleans(), st.none(), st.text(max_size=3))


def _square(pairs):
    return st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(pairs, min_size=n, max_size=n), min_size=n, max_size=n))


_PAIRS = _mostly(st.lists(_LEAVES, min_size=2, max_size=2),
                 st.one_of(st.lists(_LEAVES, max_size=3), _LEAVES))
# Square matrices of number pairs, else of any pairs, ragged ones, or a leaf.
_MATRICES = _mostly(_square(st.lists(_NUMBERS, min_size=2, max_size=2)), st.one_of(
    _square(_PAIRS), st.lists(st.lists(_PAIRS, max_size=3), max_size=3), _LEAVES))
_SPEC_DOCS = st.fixed_dictionaries(
    {"dim": _mostly(st.just(2), _LEAVES),
     "ops": st.lists(st.fixed_dictionaries({"matrix": _MATRICES, "rate": st.one_of(
         _LEAVES, st.sampled_from(["cos(t)", "1/t", "t +", "exp(t)^400"]),
         st.fixed_dictionaries({"table": st.lists(_PAIRS, max_size=3)}))}),
         min_size=1, max_size=2)},
    optional={"hamiltonian": _MATRICES})
_WITNESS_DOCS = st.one_of(
    _MATRICES, st.fixed_dictionaries({"matrix": _MATRICES}),
    st.fixed_dictionaries({"witnesses": st.lists(st.fixed_dictionaries({"matrix": _MATRICES}),
                                                 max_size=2)}))


@settings(max_examples=100, deadline=None)
@given(spec=_SPEC_DOCS, witness=_WITNESS_DOCS)
# A 1x1 witness whose a - a^dag overflows to inf.
@example(spec=dephasing_spec(1.0), witness=[[[0.0, 8.98846567431158e+307]]])
def test_readers_return_or_raise_spec_error(tmp_path_factory, spec, witness):
    path = tmp_path_factory.getbasetemp() / "doc.json"
    for doc, read in ((spec, load_channel_spec), (witness, load_witness_matrix)):
        path.write_text(json.dumps(doc))
        try:
            read(str(path))
        except SpecError:
            pass


def test_matrix_pairs_roundtrip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    back = matrix_from_pairs(matrix_to_pairs(m), "roundtrip")
    assert np.array_equal(back, m)


# ---------------------------------------------------------------------------
# commands (in-process)
# ---------------------------------------------------------------------------

def test_analyze_markovian_exit_zero(tmp_path):
    spec = write_spec(tmp_path / "s.json", dephasing_spec(1.0))
    out = tmp_path / "report.json"
    code = run_main("analyze", out, spec=spec, t0=0.0, t1=1.0, steps=50, eps=1e-3)
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["nm_intervals"] == []
    assert all(p["is_markovian"] for p in payload["points"])


def test_analyze_cosine_exit_three(tmp_path):
    spec = write_spec(tmp_path / "s.json", dephasing_spec("cos(t)"))
    out = tmp_path / "report.json"
    code = run_main("analyze", out, spec=spec, t0=0.0, t1=3.2, steps=320, eps=1e-3)
    assert code == 3
    payload = json.loads(out.read_text())
    (start, end), = payload["nm_intervals"]
    assert abs(start - math.pi / 2) < 0.05
    assert end == pytest.approx(3.2, abs=1e-9)


def test_witness_modes(tmp_path):
    spec = write_spec(tmp_path / "s.json", pauli_spec(1.0, 1.0, -0.3))
    for mode, expected in [("spectral", -3e-4),
                           ("theorem3-fixed", -1.2e-7),
                           ("theorem3-gksl", -1.2e-7)]:
        out = tmp_path / f"{mode}.json"
        code = run_main("witness", out, spec=spec, t0=0.0, eps=1e-3, mode=mode)
        assert code == 0
        payload = json.loads(out.read_text())
        value = payload["witnesses"][0]["expectation"]
        assert value == pytest.approx(expected, rel=1e-5)
        if mode.startswith("theorem3"):
            assert payload["kkt_ok"]
            assert payload["residual"] == pytest.approx(
                math.sqrt(0.12) * 1e-3, rel=1e-6)


def test_theorem3_fixed_in_a_unit_of_time_1e9_times_shorter(tmp_path):
    # The Pauli (1, 1, -0.3) target at rates 1e9 times larger and eps=1e-12.
    spec = write_spec(tmp_path / "s.json", pauli_spec(1e9, 1e9, -3e8))
    out = tmp_path / "w.json"
    assert run_main("witness", out, spec=spec, t0=0.0, eps=1e-12, mode="theorem3-fixed") == 0
    payload = json.loads(out.read_text())
    assert payload["kkt_ok"]
    assert payload["residual"] == pytest.approx(0.12 ** 0.5 * 1e-3, rel=1e-12)


@pytest.mark.parametrize("mode", ["theorem3-fixed", "theorem3-gksl"])
def test_a_projection_whose_certificate_fails_exits_four(tmp_path, monkeypatch, mode):
    # Either solver's KKT certificate alone decides the exit code; the
    # report is still written, with its last iterate.
    if mode == "theorem3-fixed":
        monkeypatch.setattr(witness_module, "_kkt_ok", lambda *args, **kwargs: False)
    else:
        monkeypatch.setattr(witness_module, "GKSL_MAX_ITER", 0)
    spec = write_spec(tmp_path / "s.json", pauli_spec(1.0, 1.0, -0.3))
    out = tmp_path / "w.json"
    assert run_main("witness", out, spec=spec, t0=0.0, eps=1e-3, mode=mode) == 4
    assert json.loads(out.read_text())["kkt_ok"] is False


# One Ginibre jump at rate -8004: Tr(W C_N) is about -5e6, and its rounding
# leaves an imaginary part of about 2e-10.
FAR_SPEC = {"dim": 2, "ops": [{"matrix": [
    [[-1.501171966765481, -0.05232545112154809], [0.22586938003892645, -0.35657062393967626]],
    [[0.044729046791977235, 0.11026007702494671], [0.09113479695435156, -0.7988870401488893]]],
    "rate": -8004.490219723619}]}


@pytest.mark.parametrize("command,options", [
    ("witness", {"mode": "theorem3-fixed"}),
    ("witness", {"mode": "theorem3-gksl"}),
    ("geometry", {"probe": "separation", "n": 2000, "seed": 1}),
])
def test_a_large_witness_value_is_real_up_to_its_scale(tmp_path, command, options):
    spec = write_spec(tmp_path / "s.json", FAR_SPEC)
    out = tmp_path / "r.json"
    assert run_main(command, out, spec=spec, eps=0.2, **options) == 0


# The far-family target of seed 343 in test_witness.py: three Ginibre jumps at
# rates -2.1e5, -2.6e4 and 2.5e5, and a Hamiltonian. Its projection must pass
# its own state check.
FAR343_SPEC = {"dim": 2, "ops": [
    {"matrix": [
        [[-1.5878118742522132, -1.2678219990955324], [1.2150034587905396, -0.07798736225864764]],
        [[0.3600086848907748, -0.15123799210304925], [-1.0601117956663317, 0.7158224194349806]]],
     "rate": -211792.61805705496},
    {"matrix": [
        [[-0.9263684818393658, -0.3340893596600303], [0.8868272269537869, -0.7493031572936638]],
        [[0.7631772805960939, 1.5337506296518395], [1.4068768625940482, -0.4409755657117805]]],
     "rate": -25511.52507077624},
    {"matrix": [
        [[1.4857404280911095, -0.21790828402240256], [1.222257861466098, -0.33235799375806113]],
        [[-0.9178671641414361, -0.07742168076760467],
         [-0.020197912835696955, 0.29319950176335324]]],
     "rate": 254943.2776161707}],
    "hamiltonian": [
        [[0.47628848108311966, 0.0], [-0.9583154142106777, -0.03549838352319046]],
        [[-0.9583154142106777, 0.03549838352319046], [1.3483332430669068, 0.0]]]}


@pytest.mark.parametrize("command,options", [
    ("witness", {"mode": "theorem3-gksl"}),
    ("geometry", {"probe": "separation", "n": 2000, "seed": 1}),
])
def test_a_far_target_projects_to_its_own_valid_state(tmp_path, command, options):
    spec = write_spec(tmp_path / "s.json", FAR343_SPEC)
    out = tmp_path / "r.json"
    assert run_main(command, out, spec=spec, eps=1.9974189609905546, **options) == 0


def test_witness_markovian_exit_two(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json", dephasing_spec(1.0))
    code = run_main("witness", tmp_path / "w.json", spec=spec, t0=0.0, eps=1e-3,
                    mode="spectral")
    assert code == 2
    assert "nothing to witness" in capsys.readouterr().err


def test_witness_unknown_mode(tmp_path):
    spec = write_spec(tmp_path / "s.json", dephasing_spec(1.0))
    with pytest.raises(SpecError):
        cmd_witness(spec, 0.0, 1e-3, "bogus")


def test_verify_roundtrip_from_witness_report(tmp_path):
    spec = write_spec(tmp_path / "s.json", pauli_spec(1.0, 1.0, -0.3))
    wout = tmp_path / "w.json"
    assert run_main("witness", wout, spec=spec, t0=0.0, eps=1e-3, mode="theorem3-fixed") == 0
    vout = tmp_path / "v.json"
    code = run_main("verify", vout, witness=wout, eps=1e-3, n=2000, seed=42)
    assert code == 0
    payload = json.loads(vout.read_text())
    assert payload["violations"] == 0
    assert payload["dim"] == 2


def test_verify_invalid_witness_exit_three(tmp_path):
    neg = [[[-1.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)]
           for i in range(4)]
    path = tmp_path / "neg.json"
    path.write_text(json.dumps(neg))
    out = tmp_path / "v.json"
    code = run_main("verify", out, witness=path, eps=1e-3, n=100, seed=1)
    assert code == 3
    assert json.loads(out.read_text())["violations"] == 100


def test_verify_rejects_non_hermitian(tmp_path):
    bad = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(SpecError, match="Hermitian"):
        load_witness_matrix(str(path))


@pytest.mark.parametrize("matrix,message", [
    (np.ones((2, 3)), "expected a square matrix, got shape (2, 3)"),
    (np.triu(np.ones((4, 4))), "not Hermitian, max |a - a^dag| = 1.000e+00 > 1.0e-10"),
    # a - a^dag overflows to inf: refused, with no overflow warning.
    (np.array([[8.98846567431158e307j]]), "not Hermitian, max |a - a^dag| = inf > 1.0e-10"),
], ids=["non-square", "non-hermitian", "defect-overflows"])
def test_a_witness_that_is_not_a_hermitian_square_matrix_is_named(tmp_path, capsys, matrix,
                                                                   message):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(matrix_to_pairs(matrix)))
    with pytest.raises(SpecError) as info:
        load_witness_matrix(str(path))
    assert str(info.value) == f"{path}: witness: {message}"
    assert main(["verify", "--witness", str(path), "--n", "5", "--seed", "1"]) == 1
    assert capsys.readouterr().err == f"nmwitness: error: {path}: witness: {message}\n"


def test_verify_refuses_a_hermitian_witness_that_is_not_d2_by_d2(tmp_path, capsys):
    path = tmp_path / "w.json"
    path.write_text(json.dumps(matrix_to_pairs(np.eye(3))))
    out = tmp_path / "v.json"
    assert main(["verify", "--witness", str(path), "--n", "5", "--seed", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "nmwitness: error: witness of shape (3, 3) is not a d^2 x d^2 matrix with d >= 2\n")
    assert not out.exists()


def test_geometry_probes_exit_codes(tmp_path):
    for probe in ("convexity", "hsnorm", "extreme"):
        out = tmp_path / f"{probe}.json"
        code = run_main("geometry", out, probe=probe, dim=2, eps=1e-4, n=200, seed=3)
        assert code == 0, probe
        payload = json.loads(out.read_text())
        assert payload["failures"] == 0
    code = run_main("geometry", tmp_path / "sep.json", probe="separation", dim=2, eps=1e-3,
                    n=500, seed=4)
    assert code == 0
    with pytest.raises(SpecError, match="probe"):
        cmd_geometry("bogus", 2, 1e-3, 10, 1)


def test_convexity_probe_judges_membership_not_positivity(tmp_path):
    # At eps = 0.3, 477 of these 2 000 mixed first-order states have a
    # negative eigenvalue, yet every one lies in F: its w_perp block is PSD.
    out = tmp_path / "c3.json"
    assert run_main("geometry", out, probe="convexity", dim=3, eps=0.3, n=2000, seed=1) == 0
    assert json.loads(out.read_text())["failures"] == 0


# ---------------------------------------------------------------------------
# report formats and determinism
# ---------------------------------------------------------------------------

def strip_timestamp(text):
    return "\n".join(line for line in text.splitlines() if "timestamp" not in line)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_a_report_without_out_goes_to_stdout(tmp_path, capsys, fmt):
    spec = write_spec(tmp_path / "s.json", dephasing_spec("cos(t)"))
    out = tmp_path / f"report.{fmt}"
    argv = ["analyze", "--spec", spec, "--t1", "3.2", "--steps", "64", "--format", fmt]
    assert main([*argv, "--out", str(out)]) == 3
    assert capsys.readouterr().out == ""
    assert main(argv) == 3
    printed = capsys.readouterr().out

    def unstamped(text):  # a CSV report has no timestamp
        return [line for line in text.splitlines(keepends=True) if '"timestamp"' not in line]

    assert printed.count('"timestamp"') == (fmt == "json")
    assert unstamped(printed) == unstamped(out.read_text())


def test_json_determinism_modulo_timestamp(tmp_path):
    spec = write_spec(tmp_path / "s.json", dephasing_spec("cos(t)"))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    for out in (out1, out2):
        run_main("analyze", out, spec=spec, t0=0.0, t1=3.2, steps=64, eps=1e-3)
    assert strip_timestamp(out1.read_text()) == strip_timestamp(out2.read_text())


def test_seeded_probe_and_verify_reports_repeat_their_bytes(tmp_path):
    spec = write_spec(tmp_path / "s.json", pauli_spec(1.0, 1.0, -0.3))
    witness = tmp_path / "w.json"
    assert run_main("witness", witness, spec=spec, mode="theorem3-gksl") == 0
    for argv in (["geometry", "--probe", "convexity", "--dim", "3", "--n", "2000"],
                 ["verify", "--witness", str(witness), "--n", "2000"]):
        texts = []
        for k in range(2):
            out = tmp_path / f"r{k}.json"
            assert main([*argv, "--seed", "1", "--out", str(out)]) == 0
            texts.append(strip_timestamp(out.read_text()))
        assert texts[0] == texts[1], argv[0]


def test_csv_and_json_numeric_identity(tmp_path):
    spec = write_spec(tmp_path / "s.json", dephasing_spec("cos(t)"))
    out_json, out_csv = tmp_path / "r.json", tmp_path / "r.csv"
    for out, fmt in ((out_json, "json"), (out_csv, "csv")):
        run_main("analyze", out, fmt, spec=spec, t0=0.0, t1=3.2, steps=64, eps=1e-3)
    payload = json.loads(out_json.read_text())
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0] == "t,min_eigenvalue,deficit,is_markovian"
    assert len(rows) == 1 + len(payload["points"])
    for row, point in zip(rows[1:], payload["points"]):
        t, mini, deficit, markov = row.split(",")
        assert float(t) == point["t"]
        assert float(mini) == point["min_eigenvalue"]
        assert float(deficit) == point["deficit"]
        assert (markov == "true") == point["is_markovian"]


# The row writer must give exactly the bytes of json.dumps(indent=2) over the
# plain payload, rows built one dict or list at a time from the same report.

def plain_analyze_payload(report, metadata, t0, t1, steps):
    return {
        "command": "analyze",
        "metadata": metadata,
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


@pytest.mark.parametrize("rate,t0,t1,steps,n_intervals", [
    (1.0, 0.0, 1.0, 50, 0),
    ("cos(t)", 0.0, 3.2, 320, 1),
    ("cos(3*t)", -1.0, 6.0, 700, 4),
    ("cos(t)", 2.0, 3.0, 1, 1),
    ("cos(t)", 0.0, 1.0, 1, 0),
])
def test_analyze_report_bytes_match_json_dumps(tmp_path, rate, t0, t1, steps, n_intervals):
    spec = write_spec(tmp_path / "s.json", dephasing_spec(rate))
    out_json, out_csv = tmp_path / "r.json", tmp_path / "r.csv"
    for out, fmt in ((out_json, "json"), (out_csv, "csv")):
        run_main("analyze", out, fmt, spec=spec, t0=t0, t1=t1, steps=steps, eps=1e-3)
    report = scan(load_channel_spec(spec), t0, t1, steps, 1e-3)
    assert len(report.nm_intervals) == n_intervals
    text = out_json.read_text()
    plain = plain_analyze_payload(report, json.loads(text)["metadata"], t0, t1, steps)
    assert text == json.dumps(plain, indent=2) + "\n"
    rows = [f"{p['t']!r},{p['min_eigenvalue']!r},{p['deficit']!r},"
            f"{'true' if p['is_markovian'] else 'false'}" for p in plain["points"]]
    assert out_csv.read_text() == "\n".join(
        ["t,min_eigenvalue,deficit,is_markovian", *rows]) + "\n"


@pytest.mark.parametrize("probe,run", [
    ("convexity", lambda: convexity_probe(2, 1e-3, 300, 5)),
    ("hsnorm", lambda: hs_norm_probe(3, 1e-3, 300, 5)),
    ("extreme", lambda: extreme_point_probe(2, 1e-3, 300, 5)),
    ("separation", lambda: separation_demo(
        choi_of_generator(builtin_pauli(1.0, 1.0, -0.3), 0.0, 1e-3), 300, 5)),
])
def test_geometry_report_bytes_match_json_dumps(tmp_path, probe, run):
    dim = 3 if probe == "hsnorm" else 2
    out_json, out_csv = tmp_path / "g.json", tmp_path / "g.csv"
    for out, fmt in ((out_json, "json"), (out_csv, "csv")):
        run_main("geometry", out, fmt, probe=probe, dim=dim, eps=1e-3, n=300, seed=5)
    report = run()
    text = out_json.read_text()
    plain = {
        "command": "geometry",
        "metadata": json.loads(text)["metadata"],
        "probe": report.probe_name,
        "n_trials": report.n_trials,
        "failures": report.failures,
        "worst_value": report.worst_value,
        "details": [[trial, value] for trial, value in enumerate(report.details.tolist())],
    }
    if report.summary is not None:
        plain["summary"] = report.summary
    assert text == json.dumps(plain, indent=2) + "\n"
    rows = [f"{trial},{value!r}" for trial, value in enumerate(report.details.tolist())]
    assert out_csv.read_text() == "\n".join(["trial,value", *rows]) + "\n"


# Non-finite floats are included. No spec is known to put one in a report
# (a Choi state whose trace overflows is rejected, a failed eigensolve and a
# non-finite integrated_measure are input errors), but the writer stands in
# for json.dumps over every float, so it spells them NaN and Infinity as
# json does.
_FLOATS = st.one_of(st.floats(), st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1e16, 1.5e300, -2.5e-08]))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_FLOATS, st.integers(-2**63, 2**63 - 1), st.booleans()),
                     max_size=8),
       keyed=st.booleans())
def test_row_writer_matches_json_dumps(rows, keyed):
    keys = ("x", "n", "ok")
    columns = (np.array([r[0] for r in rows], dtype=float),
               np.array([r[1] for r in rows], dtype=np.int64),
               np.array([r[2] for r in rows], dtype=bool))
    plain_rows = [dict(zip(keys, r)) if keyed else list(r) for r in rows]
    head = {"command": "probe", "metadata": {"note": "two\nlines \u00e9", "seed": None},
            "pairs": [[1.5, -0.0], []]}
    text = _render_json({**head, "table": _Rows(keys, columns, keyed), "tail": 1e-300})
    assert text == json.dumps({**head, "table": plain_rows, "tail": 1e-300}, indent=2) + "\n"
    csv_rows = [f"{x!r},{n},{'true' if ok else 'false'}" for x, n, ok in rows]
    assert _Rows(keys, columns, keyed).csv() == "\n".join(["x,n,ok", *csv_rows]) + "\n"


def _per_row_csv(keys, columns):
    """The CSV text as the row writer first made it: one %-template per row."""
    cells = [np.where(c, "true", "false").tolist() if c.dtype == bool else c.tolist()
             for c in columns]
    row = ",".join(["%s"] * len(keys))
    return "\n".join([",".join(keys), *(row % r for r in zip(*cells))]) + "\n"


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(_FLOATS, st.integers(-2**63, 2**63 - 1), st.booleans()),
                     max_size=2),
       order=st.permutations([0, 1, 2]), width=st.integers(1, 3), keyed=st.booleans(),
       pad=st.sampled_from(["", "  ", "      "]))
def test_row_table_join_matches_json_and_per_row_csv(rows, order, width, keyed, pad):
    # One join over the cells and the template's literal pieces: empty and
    # one-row tables, any order of float, int and bool columns, any indent.
    kinds = [("x", float), ("n", np.int64), ("ok", bool)]
    picked = order[:width]
    keys = tuple(kinds[i][0] for i in picked)
    columns = tuple(np.array([r[i] for r in rows], dtype=kinds[i][1]) for i in picked)
    table = _Rows(keys, columns, keyed)
    plain = [{k: r[i] for k, i in zip(keys, picked)} if keyed else [r[i] for i in picked]
             for r in rows]
    assert table.json(pad) == json.dumps(plain, indent=2).replace("\n", "\n" + pad)
    assert table.csv() == _per_row_csv(keys, columns)


_FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e-310, 1e16, 1.5e300,
                     -2.5e-08, 1e22, 123456789.0]))


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 5), pool=st.lists(_FINITE_FLOATS, min_size=1, max_size=12),
       seed=st.integers(0, 2**32 - 1), count=st.integers(1, 2))
def test_witness_matrix_writer_matches_json_dumps(dim, pool, seed, count):
    # Entries are drawn from a small pool so that -0.0, subnormals and
    # exponent forms land in d^2 x d^2 matrices of every size used.
    rng = np.random.default_rng(seed)
    matrices = []
    for _ in range(count):
        m = np.empty((dim * dim, dim * dim), dtype=complex)
        m.real = rng.choice(pool, size=m.shape)
        m.imag = rng.choice(pool, size=m.shape)
        matrices.append(m)

    def payload(matrix_form):
        entries = [{"kind": "theorem3", "provenance": "p", "expectation": -1e-7,
                    "matrix": matrix_form(m)} for m in matrices]
        return {"command": "witness", "metadata": {"seed": None}, "mode": "theorem3-gksl",
                "witnesses": entries, "residual": 2.5e-4, "kkt_ok": True}

    text = _render_json(payload(np.asarray))
    assert text == json.dumps(payload(matrix_to_pairs), indent=2) + "\n"


def test_every_command_writes_a_json_fixed_point(tmp_path):
    # Every command's report, at tiny sizes, is exactly what json.dumps(indent=2)
    # writes for its own parse: the tables spliced in where json left them.
    specs = {"cos": dephasing_spec("cos(t)"), "flat": dephasing_spec(1.0),
             "two": pauli_spec(1.0, -0.3, -0.5), "pauli": pauli_spec(1.0, 1.0, -0.3)}
    paths = {name: write_spec(tmp_path / f"{name}.json", doc) for name, doc in specs.items()}
    runs = {
        "analyze-nm": (["analyze", "--spec", paths["cos"], "--t1", "3.2", "--steps", "40"], 3),
        "analyze-flat": (["analyze", "--spec", paths["flat"], "--t1", "1", "--steps", "5"], 0),
        "spectral": (["witness", "--spec", paths["two"]], 0),
        "fixed": (["witness", "--spec", paths["pauli"], "--mode", "theorem3-fixed"], 0),
        "gksl": (["witness", "--spec", paths["pauli"], "--mode", "theorem3-gksl"], 0),
        "verify": (["verify", "--witness", str(tmp_path / "gksl.out"), "--n", "20",
                    "--seed", "1"], 0),
        **{probe: (["geometry", "--probe", probe, "--n", "20", "--seed", "1"], 0)
           for probe in ("convexity", "hsnorm", "extreme", "separation")},
    }
    for name, (argv, code) in runs.items():
        out = tmp_path / f"{name}.out"
        assert main([*argv, "--out", str(out)]) == code, name
        text = out.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n", name
    report = json.loads((tmp_path / "analyze-nm.out").read_text())
    assert report["nm_intervals"] and not json.loads(
        (tmp_path / "analyze-flat.out").read_text())["nm_intervals"]
    assert len(json.loads((tmp_path / "spectral.out").read_text())["witnesses"]) == 2


def _table_and_plain(n_rows, keyed):
    keys = ("x", "ok")
    rows = [(0.5 * k - 1.0, k % 2 == 0) for k in range(n_rows)]
    columns = (np.array([r[0] for r in rows], dtype=float), np.array([r[1] for r in rows]))
    plain = [dict(zip(keys, r)) if keyed else list(r) for r in rows]
    return _Rows(keys, columns, keyed), plain


@pytest.mark.parametrize("n_rows", [0, 1, 3])
@pytest.mark.parametrize("keyed", [True, False])
def test_tables_splice_at_any_depth(n_rows, keyed):
    # A table at the top level, as an object's value, as a list item and inside
    # a list of objects, beside matrices and plain values.
    table, plain = _table_and_plain(n_rows, keyed)
    m = np.array([[1.0 + 2.0j, -0.0], [3e-310, 1e22 - 1j]])

    def shaped(t, mat):
        return {"head": {"t": t, "n": 1, "inner": {"t": t}},
                "items": [t, {"t": t, "m": mat}, {"m": mat, "note": "a\nb"}],
                "empty": [], "tail": t}

    assert _render_json(table) == json.dumps(plain, indent=2) + "\n"
    assert (_render_json(shaped(table, m))
            == json.dumps(shaped(plain, matrix_to_pairs(m)), indent=2) + "\n")


def test_splice_refuses_what_is_neither_a_table_nor_json():
    table, _ = _table_and_plain(2, True)
    with pytest.raises(TypeError, match="is not JSON serializable"):
        _render_json({"t": table, "flag": np.bool_(True)})


@pytest.mark.parametrize("where", ["value", "key", "tables-too"])
def test_a_string_equal_to_the_placeholder_is_not_spliced_over(where):
    table, _ = _table_and_plain(2, False)
    payload = {"value": {"x": _PLACEHOLDER}, "key": {_PLACEHOLDER: 1},
               "tables-too": {"a": table, "x": [_PLACEHOLDER], "b": table}}[where]
    with pytest.raises(ValueError, match="placeholder"):
        _render_json(payload)


def test_witness_csv_matches_json(tmp_path):
    # Two spectral witnesses: the CSV carries both, in JSON order, and parses
    # back to every JSON witness matrix exactly.
    spec = write_spec(tmp_path / "s.json", pauli_spec(1.0, -0.3, -0.5))
    out_json, out_csv = tmp_path / "w.json", tmp_path / "w.csv"
    for out, fmt in ((out_json, "json"), (out_csv, "csv")):
        run_main("witness", out, fmt, spec=spec, t0=0.0, eps=1e-3, mode="spectral")
    matrices = [w["matrix"] for w in json.loads(out_json.read_text())["witnesses"]]
    assert len(matrices) == 2
    header, *rows = out_csv.read_text().splitlines()
    assert header == "witness,row,col,re,im"
    assert len(rows) == 2 * 16
    back = [[[None] * 4 for _ in range(4)] for _ in matrices]
    for row in rows:
        k, r, c, re, im = row.split(",")
        back[int(k)][int(r)][int(c)] = [float(re), float(im)]
    assert back == matrices
    assert [row.split(",")[:3] for row in rows] == [
        [str(k), str(r), str(c)] for k in range(2) for r in range(4) for c in range(4)]


def test_spectral_report_with_two_witnesses(tmp_path):
    spec = write_spec(tmp_path / "s.json", pauli_spec(-0.5, -0.2, 1.0))
    out = tmp_path / "w.json"
    assert run_main("witness", out, spec=spec, t0=0.0, eps=1e-3, mode="spectral") == 0
    payload = json.loads(out.read_text())
    values = sorted(w["expectation"] for w in payload["witnesses"])
    assert values == pytest.approx([-5e-4, -2e-4], abs=1e-12)


def test_geometry_and_verify_csv(tmp_path):
    out = tmp_path / "probe.csv"
    assert run_main("geometry", out, "csv", probe="extreme", dim=2, eps=1e-3, n=50,
                    seed=9) == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "trial,value"
    assert len(rows) == 51

    neg = [[[-1.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)]
           for i in range(4)]
    wpath = tmp_path / "neg.json"
    wpath.write_text(json.dumps(neg))
    vout = tmp_path / "v.csv"
    assert run_main("verify", vout, "csv", witness=wpath, eps=1e-3, n=50, seed=2) == 3
    header, row = vout.read_text().strip().splitlines()
    assert header == "n_samples,violations,min_expectation"
    assert row.split(",")[:2] == ["50", "50"]


def test_geometry_separation_with_spec(tmp_path):
    nm_spec = write_spec(tmp_path / "nm.json", pauli_spec(1.0, 1.0, -0.3))
    out = tmp_path / "sep.json"
    code = run_main("geometry", out, probe="separation", dim=2, eps=1e-3, n=200, seed=4,
                    spec=nm_spec, t0=0.0)
    assert code == 0
    assert json.loads(out.read_text())["failures"] == 0


def test_geometry_separation_on_a_markovian_target_has_nothing_to_witness(tmp_path, capsys):
    # As for witness: exit 2 with the same message and no report, not an
    # input error.
    markovian = write_spec(tmp_path / "m.json", dephasing_spec(1.0))
    out = tmp_path / "sep.json"
    assert main(["witness", "--spec", markovian, "--out", str(out)]) == 2
    message = capsys.readouterr().err
    assert message.startswith("nothing to witness")
    assert main(["geometry", "--probe", "separation", "--n", "10", "--seed", "1",
                 "--spec", markovian, "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


@pytest.mark.parametrize("rates,code", [((1.0, 1.0, -0.3), 0), ((0.5, 0.5, 0.5), 2)])
def test_geometry_separation_classifies_its_target_once(tmp_path, monkeypatch, rates,
                                                         code):
    original, calls = choi.classify, []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in vars(nmwitness).values():
        if getattr(module, "classify", None) is original:
            monkeypatch.setattr(module, "classify", counted)
    spec = write_spec(tmp_path / "s.json", pauli_spec(*rates))
    out = tmp_path / "sep.json"
    assert run_main("geometry", out, probe="separation", eps=1e-3, n=20, seed=4,
                    spec=spec) == code
    assert len(calls) == 1
    assert out.exists() == (code == 0)


def test_handlers_return_their_fields_and_write_nothing(tmp_path, monkeypatch, capsys):
    # A handler returns its report fields, without the header, and its exit
    # code; main writes the header, then those fields, to --out.
    monkeypatch.chdir(tmp_path)
    spec = write_spec(tmp_path / "s.json", pauli_spec(1.0, 1.0, -0.3))
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps(matrix_to_pairs(np.eye(4))))
    calls = {
        "analyze": (cmd_analyze, dict(spec=spec, t0=0.0, t1=1.0, steps=4, eps=1e-3), 3),
        "witness": (cmd_witness, dict(spec=spec, t0=0.0, eps=1e-3, mode="spectral"), 0),
        "verify": (cmd_verify, dict(witness=str(witness), eps=1e-3, n=10, seed=1), 0),
        "geometry": (cmd_geometry, dict(probe="hsnorm", dim=2, eps=1e-3, n=10, seed=1), 0),
    }
    inputs = sorted(os.listdir(tmp_path))
    out = tmp_path / "out.json"
    for command, (handler, options, code) in calls.items():
        fields, exit_code = handler(**options)
        assert exit_code == code, command
        assert "command" not in fields and "metadata" not in fields, command
        assert sorted(os.listdir(tmp_path)) == inputs, command
        assert capsys.readouterr() == ("", ""), command
        assert run_main(command, out, **options) == code, command
        assert list(json.loads(out.read_text())) == ["command", "metadata", *fields], command
        out.unlink()


def test_a_markovian_witness_target_raises_and_main_exits_two(tmp_path, capsys):
    spec = write_spec(tmp_path / "m.json", dephasing_spec(1.0))
    with pytest.raises(MarkovianTargetError):
        cmd_witness(spec, 0.0, 1e-3, "spectral")
    assert capsys.readouterr().err == ""
    out = tmp_path / "w.json"
    assert main(["witness", "--spec", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "nothing to witness: channel is Markovian at the requested time\n")
    assert not out.exists()


def test_a_spectral_target_without_a_projector_has_nothing_to_witness(tmp_path, monkeypatch,
                                                                       capsys):
    # classify's eigvalsh and spectral_witnesses' eigh may round the minimum
    # eigenvalue to either side of -tol; which targets split this way depends
    # on the LAPACK build, so the empty projector list is stood in for.
    monkeypatch.setattr(witness_module, "spectral_witnesses", lambda c, tol=None: [])
    spec = write_spec(tmp_path / "s.json", pauli_spec(1.0, 1.0, -0.3))
    with pytest.raises(MarkovianTargetError, match=r"no spectral projector for the Choi "
                                                   r"state at t=0\.0, eps=0\.001"):
        cmd_witness(spec, 0.0, 1e-3, "spectral")
    out = tmp_path / "w.json"
    assert main(["witness", "--spec", spec, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "nothing to witness: channel is Markovian at the requested time\n")
    assert not out.exists()


@pytest.mark.parametrize("probe", ["convexity", "hsnorm", "extreme"])
@pytest.mark.parametrize("extra,option", [
    (["--spec", "missing.json"], "--spec"),
    (["--t0", "0"], "--t0"),
    (["--t0", "5", "--spec", "missing.json"], "--spec"),
], ids=["spec", "t0-zero", "both"])
def test_a_sampled_probe_refuses_the_separation_target_options(tmp_path, capsys, probe,
                                                                extra, option):
    # --spec and --t0 choose the separation target; a sampled probe names
    # them as input errors instead of running without them.
    out = tmp_path / "p.json"
    argv = ["geometry", "--probe", probe, "--n", "3", "--seed", "1", *extra, "--out", str(out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        f"nmwitness: error: {option} is for the separation probe only, not {probe}\n")
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_reports_get_the_umask_mode_or_keep_the_replaced_file_mode(tmp_path, fmt):
    out = tmp_path / f"probe.{fmt}"
    old_umask = os.umask(0o022)
    try:
        assert run_main("geometry", out, fmt, probe="hsnorm", dim=2, eps=1e-3, n=5,
                        seed=1) == 0
        assert out.stat().st_mode & 0o777 == 0o644
        os.umask(0o077)
        out.chmod(0o640)
        assert run_main("geometry", out, fmt, probe="hsnorm", dim=2, eps=1e-3, n=6,
                        seed=1) == 0
        assert out.stat().st_mode & 0o777 == 0o640
        fresh = tmp_path / f"fresh.{fmt}"
        assert run_main("geometry", fresh, fmt, probe="hsnorm", dim=2, eps=1e-3, n=5,
                        seed=1) == 0
        assert fresh.stat().st_mode & 0o777 == 0o600
    finally:
        os.umask(old_umask)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([out.name, fresh.name])
    assert out.read_text().count("\n") > fresh.read_text().count("\n")


@pytest.mark.parametrize("parent", ["missing", "file.txt", "dir"])
def test_out_into_a_missing_directory_is_an_input_error(tmp_path, capsys, parent):
    # "dir": --out names an existing directory, which no report replaces.
    (tmp_path / "file.txt").write_text("")
    (tmp_path / "dir" / "f.json").mkdir(parents=True)
    out = tmp_path / parent / "f.json"
    assert main(["geometry", "--probe", "hsnorm", "--n", "5", "--seed", "1",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"nmwitness: error: --out {out}: ")
    assert sorted(str(p.relative_to(tmp_path)) for p in tmp_path.rglob("*")) == [
        "dir", os.path.join("dir", "f.json"), "file.txt"]


def test_verify_n_zero_is_input_error(tmp_path, capsys):
    neg = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)]
           for i in range(4)]
    path = tmp_path / "w.json"
    path.write_text(json.dumps(neg))
    with pytest.raises(SystemExit) as info:
        main(["verify", "--witness", str(path), "--n", "0", "--seed", "1"])
    assert info.value.code == 1
    assert "argument --n: expected a positive integer, got '0'" in capsys.readouterr().err


def test_main_argparse_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--t1", "notanumber", "--steps", "5", "--spec", "x.json"])
    assert info.value.code == 1


@pytest.mark.parametrize("argv", [
    ["analyze", "--spec", "{spec}", "--t1", "nan", "--steps", "4"],
    ["analyze", "--spec", "{spec}", "--t1", "inf", "--steps", "4"],
    ["analyze", "--spec", "{spec}", "--t0=-inf", "--t1", "1", "--steps", "4"],
    ["analyze", "--spec", "{spec}", "--t0", "-inf", "--t1", "1", "--steps", "4"],
    ["analyze", "--spec", "{spec}", "--t1", "1", "--steps", "4", "--tol", "-1e-3"],
    ["analyze", "--spec", "{spec}", "--t1", "1", "--steps", "4", "--tol", "nan"],
    ["analyze", "--spec", "{spec}", "--t1", "1", "--steps", "4", "--tol=-1e-3"],
    ["witness", "--spec", "{spec}", "--eps", "0"],
    ["verify", "--witness", "{witness}", "--n", "10", "--seed", "1", "--eps", "nan"],
    ["verify", "--witness", "{witness}", "--n", "10", "--seed", "1", "--eps", "-1"],
    ["geometry", "--probe", "hsnorm", "--n", "10", "--seed", "1", "--eps", "inf"],
])
def test_main_rejects_non_finite_and_out_of_range_numbers(tmp_path, capsys, argv):
    spec = write_spec(tmp_path / "s.json", dephasing_spec("cos(t)"))
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps(matrix_to_pairs(np.eye(4))))
    argv = [a.format(spec=spec, witness=witness) for a in argv]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(tmp_path / "out.json")])
    assert info.value.code == 1
    assert "expected a finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["-1e-3", "-2.5E+0", "-.5e-1", "-1.5"])
def test_main_reads_negative_numbers_after_an_option(tmp_path, value):
    spec = write_spec(tmp_path / "s.json", dephasing_spec(1.0))
    spaced, glued = tmp_path / "spaced.json", tmp_path / "glued.json"
    args = ["--t1", "1", "--steps", "4"]
    assert main(["analyze", "--spec", spec, "--t0", value, *args, "--out", str(spaced)]) == 0
    assert main(["analyze", "--spec", spec, f"--t0={value}", *args, "--out", str(glued)]) == 0
    assert json.loads(spaced.read_text())["t0"] == float(value)
    assert strip_timestamp(spaced.read_text()) == strip_timestamp(glued.read_text())


def test_a_dash_value_that_is_not_a_number_is_not_glued_to_its_option(capsys):
    # "--spec -s.json" stays two arguments, so argparse names the option as
    # missing its value: a usage error, exit 1.
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--spec", "-s.json", "--t1", "1", "--steps", "2"])
    assert info.value.code == 1
    assert "argument --spec: expected one argument" in capsys.readouterr().err


def test_emit_report_refuses_an_unknown_format_or_command(tmp_path):
    out = tmp_path / "r.out"
    with pytest.raises(SpecError, match=r"^unknown format 'xml'$"):
        emit_report({"command": "verify"}, str(out), "xml")
    with pytest.raises(SpecError, match=r"^no CSV rendering for command 'probe'$"):
        emit_report({"command": "probe"}, str(out), "csv")
    assert not out.exists()


def test_main_rate_domain_error_names_rate_and_time(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json", dephasing_spec("sin(exp(700)*exp(700))"))
    assert main(["analyze", "--spec", spec, "--t1", "1", "--steps", "4"]) == 1
    err = capsys.readouterr().err
    assert "rate 0 failed at t=0.0" in err
    assert "sin: math domain error (at byte 0)" in err


@pytest.mark.parametrize("rate, message", INNERMOST_ERRORS,
                         ids=[src for src, _ in INNERMOST_ERRORS])
def test_main_rate_error_names_only_the_innermost_node(tmp_path, capsys, rate, message):
    spec = write_spec(tmp_path / "s.json", dephasing_spec(rate))
    assert main(["analyze", "--spec", spec, "--t1", "1", "--steps", "4"]) == 1
    assert capsys.readouterr().err == f"nmwitness: error: rate 0 failed at t=0.0: {message}\n"


@pytest.mark.parametrize("rate, eps, mode", [
    (-1.7e308, "0.6", "spectral"),
    (-1.7e308, "0.6", "theorem3-fixed"),
    (-1.7e308, "0.6", "theorem3-gksl"),
    (-1e308, "0.5", "theorem3-fixed"),
    (-1e308, "0.5", "theorem3-gksl"),
    (-1e308, "2", "spectral"),
])
def test_main_witness_overflow_is_an_input_error(tmp_path, capsys, rate, eps, mode):
    spec = write_spec(tmp_path / "s.json", dephasing_spec(rate))
    out = tmp_path / "w.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["witness", "--spec", spec, "--eps", eps, "--mode", mode,
                     "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("nmwitness: error: ") and err.count("\n") == 1
    assert f"t=0.0, eps={float(eps)}" in err


@pytest.mark.parametrize("command", [
    ["analyze", "--spec", "{plus}", "--t1", "1", "--steps", "3", "--eps", "2"],
    ["analyze", "--spec", "{minus}", "--t1", "1", "--steps", "3", "--eps", "2"],
    ["geometry", "--probe", "hsnorm", "--eps", "1e308", "--n", "50", "--seed", "1"],
    ["verify", "--witness", "{identity}", "--eps", "1e308", "--n", "100", "--seed", "1"],
    *([*command, "--eps", eps] for eps in ("1e20", "1e300")
      for command in (["analyze", "--spec", "{pauli}", "--t1", "1", "--steps", "3"],
                      ["witness", "--spec", "{pauli}"])),
])
def test_main_overflow_names_eps(tmp_path, capsys, command):
    # eps times the generator leaves the double range, or swamps phi so that
    # rounding alone breaks the trace test: an input error naming eps, not a
    # Hermiticity complaint, an Infinity in the report or a violation of a
    # witness that is nonnegative on every state.
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps(matrix_to_pairs(np.eye(4))))
    argv = [a.format(plus=write_spec(tmp_path / "p.json", dephasing_spec(1.7e308)),
                     minus=write_spec(tmp_path / "m.json", dephasing_spec(-1.7e308)),
                     pauli=write_spec(tmp_path / "pauli.json", pauli_spec(1.0, 1.0, -0.3)),
                     identity=identity) for a in command]
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([*argv, "--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("nmwitness: error: ") and err.count("\n") == 1
    assert f"eps={float(argv[argv.index('--eps') + 1])}" in err


# Each size is far beyond the 128 TiB of a 64-bit user address space, so its
# allocation fails at once, whatever the machine's memory and overcommit.
@pytest.mark.parametrize("argv,message", [
    (["analyze", "--spec", "{spec}", "--t0=-1e308", "--t1", "1e308", "--steps", "3"],
     "scan: window [-1e+308, 1e+308] is too wide: (t1 - t0) / steps is inf"),
    (["analyze", "--spec", "{spec}", "--t1", "1", "--steps", "1000000000000000"],
     "Unable to allocate 7.11 PiB"),
    (["geometry", "--probe", "convexity", "--n", "1000000000000000", "--seed", "1"],
     "Unable to allocate 14.2 PiB"),
    (["verify", "--witness", "{witness}", "--n", "1000000000000000", "--seed", "1"],
     "Unable to allocate 7.11 PiB"),
    (["analyze", "--spec", "{spec}", "--t0", "1e16", "--t1", "1.0000000000000002e16",
      "--steps", "4"],
     "scan: window [1e+16, 1.0000000000000002e+16] is too narrow for 4 steps: the cell "
     "edges t0 + k*dt, dt = 0.5, are not strictly increasing"),
    (["analyze", "--spec", "{spec}", "--t0", "0", "--t1", "5e-324", "--steps", "2"],
     "scan: window [0.0, 5e-324] is too narrow for 2 steps: the cell edges t0 + k*dt, "
     "dt = 0.0, are not strictly increasing"),
], ids=["window", "analyze-steps", "convexity-n", "verify-n", "narrow-window-at-1e16",
        "subnormal-window"])
def test_main_reports_a_window_or_size_beyond_reach_as_an_input_error(tmp_path, capsys,
                                                                       argv, message):
    spec = write_spec(tmp_path / "s.json", pauli_spec(1.0, 1.0, -0.3))
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps(matrix_to_pairs(np.eye(4))))
    out = tmp_path / "out.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([a.format(spec=spec, witness=witness) for a in argv] + ["--out", str(out)])
    assert code == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"nmwitness: error: {message}") and err.count("\n") == 1


def test_main_reports_a_bare_memory_error_as_an_input_error(tmp_path, capsys, monkeypatch):
    def out_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(cli, "scan", out_of_memory)
    spec = write_spec(tmp_path / "s.json", dephasing_spec(1.0))
    assert main(["analyze", "--spec", spec, "--t1", "1", "--steps", "4"]) == 1
    assert capsys.readouterr().err == "nmwitness: error: MemoryError\n"


@pytest.mark.parametrize("eps,n,seed", [
    pytest.param("1e20", 100, 1, id="1e20"),
    pytest.param("1e300", 100, 1, id="1e300"),
    *(pytest.param(eps, 2000, seed, id=f"{eps}-n2000-seed{seed}")
      for eps in ("1e20", "1e300") for seed in (0, 1)),
])
def test_verify_large_eps_rounding_is_not_a_violation(tmp_path, eps, n, seed):
    # The identity is nonnegative on every state: the samples' rounding, of
    # order eps * 1e-16, is no violation. phi - 1 is about -eps on every
    # divisible sample and stays flagged.
    codes = {}
    for name, matrix in (("identity", np.eye(4)),
                         ("invalid", max_entangled_state(2).real - np.eye(4))):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(matrix_to_pairs(matrix)))
        out = tmp_path / f"{name}-v.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            codes[name] = main(["verify", "--witness", str(path), "--eps", eps, "--n", str(n),
                                "--seed", str(seed), "--out", str(out)])
        codes[name + "_violations"] = json.loads(out.read_text())["violations"]
    assert codes == {"identity": 0, "identity_violations": 0,
                     "invalid": 3, "invalid_violations": n}


def test_every_subcommand_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: with `import scipy` failing, every
    # subcommand still runs to its usual exit code.
    spec = write_spec(tmp_path / "s.json", pauli_spec(1.0, 1.0, -0.3))
    witness = tmp_path / "w.json"
    commands = [
        (["analyze", "--spec", spec, "--t1", "1", "--steps", "8"], 3),
        (["witness", "--spec", spec, "--mode", "spectral"], 0),
        (["witness", "--spec", spec, "--mode", "theorem3-fixed"], 0),
        (["witness", "--spec", spec, "--mode", "theorem3-gksl", "--out", str(witness)], 0),
        (["verify", "--witness", str(witness), "--n", "50", "--seed", "1"], 0),
        *((["geometry", "--probe", probe, "--n", "20", "--seed", "1"], 0)
          for probe in ("convexity", "hsnorm", "extreme", "separation")),
    ]
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "from nmwitness.cli import main\n"
        "for argv, code in json.loads(sys.argv[1]):\n"
        "    got = main(argv + ['--out', 'out.json'] if '--out' not in argv else argv)\n"
        "    assert got == code, (argv, got)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                          cwd=tmp_path, env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_main_spectral_witness_near_overflow_swamps_phi(tmp_path, capsys):
    # The Choi state's entries (about 5e307) still fit in a double, but their
    # rounding reaches phi's entries: an input error, not a witness.
    spec = write_spec(tmp_path / "s.json", dephasing_spec(-1e308))
    out = tmp_path / "w.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["witness", "--spec", spec, "--eps", "0.5", "--mode", "spectral",
                     "--out", str(out)])
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        "nmwitness: error: Choi state at t=0.0, eps=0.5: eps*C_L swamps phi or overflows "
        "the double range (largest |entry| 5.000e+307)\n")


# A Hamiltonian near the top of the double range: at eps = 1e-3 every command
# refuses the same swamped phi.
HUGE_HAMILTONIAN_SPEC = {
    "dim": 2, "ops": [{"matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]], "rate": 1.0}],
    "hamiltonian": [[[1.7e308, 0], [0, 0]], [[0, 0], [-1.7e308, 0]]]}


@pytest.mark.parametrize("command,options", [
    ("analyze", {"t1": 1, "steps": 4}),
    *(("witness", {"mode": mode}) for mode in ("spectral", "theorem3-fixed", "theorem3-gksl")),
    ("geometry", {"probe": "separation", "n": 50, "seed": 1}),
], ids=["analyze", "spectral", "theorem3-fixed", "theorem3-gksl", "separation"])
def test_a_hamiltonian_near_overflow_is_one_named_error(tmp_path, capsys, command, options):
    spec = write_spec(tmp_path / "s.json", HUGE_HAMILTONIAN_SPEC)
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_main(command, out, spec=spec, eps=1e-3, **options) == 1
    assert not out.exists()
    assert capsys.readouterr().err == (
        "nmwitness: error: Choi state at t=0.0, eps=0.001: eps*C_L swamps phi or overflows "
        "the double range (largest |entry| 1.700e+305)\n")


# At eps = 1e-300 the same spec's state is valid (entries about 1.7e8), but
# ||C_L||^2 leaves the double range: the projections refuse it by name, and
# no command reports numpy's overflow.
_HUGE_GENERATOR = ("nmwitness: error: Choi state at t=0.0, eps=1e-300: the generator C_L is "
                   "too large to project, ||C_L||^2 leaves the double range (largest |entry| "
                   "1.700e+308)\n")


@pytest.mark.parametrize("command,options,code,err", [
    ("analyze", {"t1": 1, "steps": 4}, 1, "nmwitness: error: scan: integrated_measure on "
     "[0.0, 1.0] is inf; sum max(0, deficit) * dt / eps is not finite\n"),
    ("witness", {"mode": "spectral"}, 0, ""),
    *(("witness", {"mode": mode}, 1, _HUGE_GENERATOR)
      for mode in ("theorem3-fixed", "theorem3-gksl")),
    ("geometry", {"probe": "separation", "n": 50, "seed": 1}, 1, _HUGE_GENERATOR),
], ids=["analyze", "spectral", "theorem3-fixed", "theorem3-gksl", "separation"])
def test_a_hamiltonian_near_overflow_at_eps_1e_300(tmp_path, capsys, command, options, code,
                                                   err):
    spec = write_spec(tmp_path / "s.json", HUGE_HAMILTONIAN_SPEC)
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_main(command, out, spec=spec, eps=1e-300, **options) == code
    assert out.exists() == (code == 0)
    assert capsys.readouterr().err == err


def test_main_rejects_overflowing_integrated_measure(tmp_path, capsys):
    # eps * rate is about 1, so every deficit is finite; their sum * dt / eps
    # is not.
    spec = write_spec(tmp_path / "s.json", dephasing_spec(-1e300))
    out = tmp_path / "out.json"
    argv = ["analyze", "--spec", spec, "--t1", "1e10", "--steps", "4", "--eps", "1e-300"]
    assert main([*argv, "--out", str(out)]) == 1
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(
        "nmwitness: error: scan: integrated_measure on [0.0, 10000000000.0] is inf")


def test_main_input_error_returns_one(tmp_path):
    missing = str(tmp_path / "missing.json")
    assert main(["analyze", "--spec", missing, "--t1", "1.0", "--steps", "4"]) == 1


_VERIFY_ARGV = ["verify", "--witness", "{witness}", "--n", "10"]
_GEOMETRY_ARGV = ["geometry", "--probe", "convexity", "--n", "10"]


@pytest.mark.parametrize("argv,flag,value,rule", [
    *(pytest.param(argv, "--seed", seed, "a nonnegative integer", id=f"{seed}-argv{i}")
      for seed in ("-1", "-7", "1.5", "x")
      for i, argv in enumerate((_VERIFY_ARGV, _GEOMETRY_ARGV))),
    *(pytest.param(_GEOMETRY_ARGV + ["--seed", "1"], "--dim", dim, "an integer >= 2",
                   id=f"dim{dim}")
      for dim in ("0", "-2", "1", "2.5")),
    *(pytest.param(argv, flag, value, "a positive integer", id=f"{argv[0]}-{flag[2:]}{value}")
      for argv, flag in ((["analyze", "--spec", "{witness}", "--t1", "1"], "--steps"),
                         (["verify", "--witness", "{witness}", "--seed", "1"], "--n"),
                         (["geometry", "--probe", "convexity", "--seed", "1"], "--n"))
      for value in ("0", "-3", "1.5")),
])
def test_main_rejects_a_bad_seed_by_name(tmp_path, capsys, argv, flag, value, rule):
    # A bad --seed, --dim, --steps or --n is a parser error that names its flag.
    witness = tmp_path / "w.json"
    witness.write_text(json.dumps(matrix_to_pairs(np.eye(4))))
    argv = [a.format(witness=witness) for a in argv] + [flag, value]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--out", str(tmp_path / "out.json")])
    assert info.value.code == 1
    assert f"argument {flag}: expected {rule}, got '{value}'" in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_geometry_separation_dimension_comes_from_the_target(tmp_path, capsys):
    # Without --dim the separation probe runs at its target's dimension; an
    # explicit --dim must agree with it.
    target = tmp_path / "t3.json"
    target.write_text(json.dumps({"dim": 3, "ops": [
        {"matrix": matrix_to_pairs(np.diag([1.0, -1.0, 0.0])), "rate": -1.0}]}))
    out = tmp_path / "out.json"
    base = ["geometry", "--probe", "separation", "--n", "20", "--seed", "1", "--out", str(out)]
    assert main(base + ["--spec", str(target)]) == 0
    assert len(json.loads(out.read_text())["details"]) == 20
    assert main(base + ["--spec", str(target), "--dim", "3"]) == 0
    out.unlink()
    capsys.readouterr()
    for extra in (["--spec", str(target), "--dim", "2"], ["--dim", "3"]):
        assert main(base + extra) == 1
        assert "--dim" in capsys.readouterr().err
        assert not out.exists()
    assert main(base + ["--dim", "2"]) == 0


def test_main_builds_its_parser_once(tmp_path):
    # One process running every subcommand builds the parser on the first
    # call only.
    spec = write_spec(tmp_path / "s.json", pauli_spec(1.0, 1.0, -0.3))
    witness, out = str(tmp_path / "w.json"), str(tmp_path / "out.json")
    build_parser.cache_clear()
    assert main(["analyze", "--spec", spec, "--t1", "1", "--steps", "8", "--out", out]) == 3
    assert main(["witness", "--spec", spec, "--mode", "theorem3-gksl", "--out", witness]) == 0
    assert main(["verify", "--witness", witness, "--n", "50", "--seed", "1", "--out", out]) == 0
    assert main(["geometry", "--probe", "hsnorm", "--n", "20", "--seed", "1", "--out", out]) == 0
    info = build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 3)


def test_parsed_options_do_not_carry_between_calls(tmp_path):
    spec = write_spec(tmp_path / "s.json", pauli_spec(1.0, 1.0, -0.3))
    out = tmp_path / "out.json"
    argv = ["analyze", "--spec", spec, "--t1", "1", "--steps", "8", "--out", str(out)]
    main(argv + ["--tol", "0.5"])
    assert json.loads(out.read_text())["tol"] == 0.5
    main(argv)
    assert json.loads(out.read_text())["tol"] == default_classification_tol(1e-3)


def test_a_usage_error_between_calls_changes_no_report(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json", pauli_spec(1.0, 1.0, -0.3))
    out = tmp_path / "out.json"
    argv = ["geometry", "--probe", "separation", "--spec", spec, "--t0", "0.5",
            "--eps", "1e-2", "--n", "30", "--seed", "5", "--out", str(out)]

    def report():
        assert main(argv) == 0
        return [line for line in out.read_text().splitlines() if '"timestamp"' not in line]

    first = report()
    with pytest.raises(SystemExit) as info:
        main(["geometry", "--probe", "convexity", "--dim", "3", "--n", "0", "--seed", "2"])
    assert info.value.code == 1
    assert report() == first


@pytest.mark.parametrize("command", [[], ["analyze"], ["witness"], ["verify"], ["geometry"]])
def test_help_matches_a_freshly_built_parser(capsys, command):
    # The shared parser, after a usage error, prints the same help bytes as a
    # parser built for this call alone.
    with pytest.raises(SystemExit):
        main(["verify", "--n", "0"])
    texts = []
    for parse in (main, build_parser.__wrapped__().parse_args):
        capsys.readouterr()
        with pytest.raises(SystemExit) as info:
            parse(command + ["--help"])
        assert info.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1]
    assert texts[0].startswith(f"usage: {' '.join(['nmwitness', *command])} ")


# A parse that fills each subcommand's required options and nothing else.
MINIMAL_ARGV = {
    "analyze": ["--spec", "s.json", "--t1", "1", "--steps", "2"],
    "witness": ["--spec", "s.json"],
    "verify": ["--witness", "w.json", "--n", "1", "--seed", "0"],
    "geometry": ["--probe", "hsnorm", "--n", "1", "--seed", "0"],
}


def _subparsers(parser):
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))


def test_each_subcommand_parses_into_its_handlers_parameters():
    # An option without a handler parameter, or a parameter without an
    # option, fails here rather than at a user's first run.
    parser = build_parser.__wrapped__()
    assert list(_subparsers(parser).choices) == list(MINIMAL_ARGV)
    for command, argv in MINIMAL_ARGV.items():
        args = vars(parser.parse_args([command, *argv]))
        assert args.pop("command") == command
        run = args.pop("run")
        assert run is getattr(cli, f"cmd_{command}")
        # out and fmt are main's: it writes the report the handler returns.
        assert (args.pop("out"), args.pop("fmt")) == (None, "json")
        assert set(args) == set(inspect.signature(run).parameters), command


def test_mode_and_probe_choices_are_the_dispatch_tables():
    subcommands = _subparsers(build_parser.__wrapped__()).choices

    def choices(command, option):
        action, = (a for a in subcommands[command]._actions if option in a.option_strings)
        return action.choices

    assert choices("witness", "--mode") is cli._WITNESS_MODES
    assert list(cli._WITNESS_MODES) == ["spectral", "theorem3-fixed", "theorem3-gksl"]
    assert choices("geometry", "--probe") == (*cli._SAMPLED_PROBES, "separation")
    assert list(cli._SAMPLED_PROBES) == ["convexity", "hsnorm", "extreme"]


@pytest.mark.parametrize("argv", [["witness", "--spec", "s.json", "--mode", "bogus"],
                                  ["geometry", "--probe", "bogus", "--n", "5", "--seed", "1"]])
def test_an_unknown_mode_or_probe_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 1
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("probe,name", [("convexity", "convexity_probe"),
                                        ("hsnorm", "hs_norm_probe"),
                                        ("extreme", "extreme_point_probe")])
def test_sampled_probes_are_looked_up_when_called(tmp_path, monkeypatch, probe, name):
    # A wrapper put in the geometry module's namespace (as a tracer does) is
    # the function the probe table calls.
    original, calls = getattr(geometry, name), []

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(geometry, name, counted)
    out = str(tmp_path / "p.json")
    assert main(["geometry", "--probe", probe, "--n", "5", "--seed", "1", "--out", out]) == 0
    assert calls == [(2, 1e-3, 5, 1)]


def test_main_geometry_requires_seed():
    with pytest.raises(SystemExit) as info:
        main(["geometry", "--probe", "convexity", "--n", "10"])
    assert info.value.code == 1


def test_cli_import_leaves_scipy_unloaded():
    # scipy is imported only by matrix_exp; the CLI must start without it.
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import nmwitness.cli\n"
        "assert 'scipy' not in sys.modules, 'scipy imported at start-up'\n"
        "from nmwitness.channels import builtin_dephasing, exact_channel\n"
        "from nmwitness.linalg import matrix_exp\n"
        "assert np.allclose(matrix_exp(np.zeros((2, 2))), np.eye(2))\n"
        "s = exact_channel(builtin_dephasing(1.0), 0.0, 0.1)\n"
        "assert abs(s.matrix[1, 1] - np.exp(-0.2)) < 1e-12\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script], cwd=src,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_cli_loads_witness_and_geometry_only_in_the_commands_that_run_them(tmp_path):
    # analyze runs on rates, channels and choi alone; witness needs the
    # witness module but not the probes.
    spec = write_spec(tmp_path / "s.json", pauli_spec(1.0, 1.0, -0.3))
    script = (
        "import sys\n"
        "import nmwitness.cli\n"
        "def loaded():\n"
        "    return [m for m in ('nmwitness.witness', 'nmwitness.geometry') if m in sys.modules]\n"
        "assert loaded() == [], ('import', loaded())\n"
        "spec = sys.argv[1]\n"
        "argv = ['analyze', '--spec', spec, '--t1', '1', '--steps', '4', '--out', 'a.json']\n"
        "assert nmwitness.cli.main(argv) == 3\n"
        "assert loaded() == [], ('analyze', loaded())\n"
        "assert nmwitness.cli.main(['witness', '--spec', spec, '--out', 'w.json']) == 0\n"
        "assert loaded() == ['nmwitness.witness'], ('witness', loaded())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script, spec], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
