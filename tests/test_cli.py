import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nmwitness.cli import (
    SpecError,
    cmd_analyze,
    cmd_geometry,
    cmd_verify,
    cmd_witness,
    load_channel_spec,
    load_witness_matrix,
    matrix_from_pairs,
    matrix_to_pairs,
    main,
)

SZ = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]]
SX = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
SY = [[[0.0, 0.0], [0.0, -1.0]], [[0.0, 1.0], [0.0, 0.0]]]


def write_spec(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


def dephasing_spec(rate):
    return {"dim": 2, "ops": [{"matrix": SZ, "rate": rate}]}


def pauli_spec(gx, gy, gz):
    return {"dim": 2, "ops": [
        {"matrix": SX, "rate": gx},
        {"matrix": SY, "rate": gy},
        {"matrix": SZ, "rate": gz},
    ]}


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
])
def test_load_channel_spec_errors(tmp_path, mutate, fragment):
    doc = dephasing_spec(1.0)
    mutate(doc)
    path = write_spec(tmp_path / "bad.json", doc)
    with pytest.raises(SpecError, match=fragment):
        load_channel_spec(path)


def test_load_channel_spec_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 2,,}')
    with pytest.raises(SpecError, match="byte"):
        load_channel_spec(str(path))


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
    code = cmd_analyze(spec, 0.0, 1.0, 50, 1e-3, str(out), "json")
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["nm_intervals"] == []
    assert all(p["is_markovian"] for p in payload["points"])


def test_analyze_cosine_exit_three(tmp_path):
    spec = write_spec(tmp_path / "s.json", dephasing_spec("cos(t)"))
    out = tmp_path / "report.json"
    code = cmd_analyze(spec, 0.0, 3.2, 320, 1e-3, str(out), "json")
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
        code = cmd_witness(spec, 0.0, 1e-3, mode, str(out), "json")
        assert code == 0
        payload = json.loads(out.read_text())
        value = payload["witnesses"][0]["expectation"]
        assert value == pytest.approx(expected, rel=1e-5)
        if mode.startswith("theorem3"):
            assert payload["kkt_ok"]
            assert payload["residual"] == pytest.approx(
                math.sqrt(0.12) * 1e-3, rel=1e-6)


def test_witness_markovian_exit_two(tmp_path, capsys):
    spec = write_spec(tmp_path / "s.json", dephasing_spec(1.0))
    code = cmd_witness(spec, 0.0, 1e-3, "spectral", str(tmp_path / "w.json"), "json")
    assert code == 2
    assert "nothing to witness" in capsys.readouterr().err


def test_witness_unknown_mode(tmp_path):
    spec = write_spec(tmp_path / "s.json", dephasing_spec(1.0))
    with pytest.raises(SpecError):
        cmd_witness(spec, 0.0, 1e-3, "bogus", None, "json")


def test_verify_roundtrip_from_witness_report(tmp_path):
    spec = write_spec(tmp_path / "s.json", pauli_spec(1.0, 1.0, -0.3))
    wout = tmp_path / "w.json"
    assert cmd_witness(spec, 0.0, 1e-3, "theorem3-fixed", str(wout), "json") == 0
    vout = tmp_path / "v.json"
    code = cmd_verify(str(wout), 1e-3, 2000, 42, str(vout), "json")
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
    code = cmd_verify(str(path), 1e-3, 100, 1, str(out), "json")
    assert code == 3
    assert json.loads(out.read_text())["violations"] == 100


def test_verify_rejects_non_hermitian(tmp_path):
    bad = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    with pytest.raises(SpecError, match="Hermitian"):
        load_witness_matrix(str(path))


def test_geometry_probes_exit_codes(tmp_path):
    for probe in ("convexity", "hsnorm", "extreme"):
        out = tmp_path / f"{probe}.json"
        code = cmd_geometry(probe, 2, 1e-4, 200, 3, str(out), "json")
        assert code == 0, probe
        payload = json.loads(out.read_text())
        assert payload["failures"] == 0
    code = cmd_geometry("separation", 2, 1e-3, 500, 4,
                        str(tmp_path / "sep.json"), "json")
    assert code == 0
    with pytest.raises(SpecError, match="probe"):
        cmd_geometry("bogus", 2, 1e-3, 10, 1, None, "json")


# ---------------------------------------------------------------------------
# report formats and determinism
# ---------------------------------------------------------------------------

def strip_timestamp(text):
    return "\n".join(line for line in text.splitlines() if "timestamp" not in line)


def test_json_determinism_modulo_timestamp(tmp_path):
    spec = write_spec(tmp_path / "s.json", dephasing_spec("cos(t)"))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cmd_analyze(spec, 0.0, 3.2, 64, 1e-3, str(out1), "json")
    cmd_analyze(spec, 0.0, 3.2, 64, 1e-3, str(out2), "json")
    assert strip_timestamp(out1.read_text()) == strip_timestamp(out2.read_text())


def test_csv_and_json_numeric_identity(tmp_path):
    spec = write_spec(tmp_path / "s.json", dephasing_spec("cos(t)"))
    out_json, out_csv = tmp_path / "r.json", tmp_path / "r.csv"
    cmd_analyze(spec, 0.0, 3.2, 64, 1e-3, str(out_json), "json")
    cmd_analyze(spec, 0.0, 3.2, 64, 1e-3, str(out_csv), "csv")
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


def test_witness_csv_matches_json(tmp_path):
    spec = write_spec(tmp_path / "s.json", pauli_spec(1.0, 1.0, -0.3))
    out_json, out_csv = tmp_path / "w.json", tmp_path / "w.csv"
    cmd_witness(spec, 0.0, 1e-3, "spectral", str(out_json), "json")
    cmd_witness(spec, 0.0, 1e-3, "spectral", str(out_csv), "csv")
    matrix = json.loads(out_json.read_text())["witnesses"][0]["matrix"]
    rows = out_csv.read_text().strip().splitlines()
    assert rows[0] == "row,col,re,im"
    assert len(rows) == 1 + 16
    for row in rows[1:]:
        r, c, re, im = row.split(",")
        assert float(re) == matrix[int(r)][int(c)][0]
        assert float(im) == matrix[int(r)][int(c)][1]


def test_spectral_report_with_two_witnesses(tmp_path):
    spec = write_spec(tmp_path / "s.json", pauli_spec(-0.5, -0.2, 1.0))
    out = tmp_path / "w.json"
    assert cmd_witness(spec, 0.0, 1e-3, "spectral", str(out), "json") == 0
    payload = json.loads(out.read_text())
    values = sorted(w["expectation"] for w in payload["witnesses"])
    assert values == pytest.approx([-5e-4, -2e-4], abs=1e-12)


def test_geometry_and_verify_csv(tmp_path):
    out = tmp_path / "probe.csv"
    assert cmd_geometry("extreme", 2, 1e-3, 50, 9, str(out), "csv") == 0
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "trial,value"
    assert len(rows) == 51

    neg = [[[-1.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)]
           for i in range(4)]
    wpath = tmp_path / "neg.json"
    wpath.write_text(json.dumps(neg))
    vout = tmp_path / "v.csv"
    assert cmd_verify(str(wpath), 1e-3, 50, 2, str(vout), "csv") == 3
    header, row = vout.read_text().strip().splitlines()
    assert header == "n_samples,violations,min_expectation"
    assert row.split(",")[:2] == ["50", "50"]


def test_geometry_separation_with_spec(tmp_path):
    nm_spec = write_spec(tmp_path / "nm.json", pauli_spec(1.0, 1.0, -0.3))
    out = tmp_path / "sep.json"
    code = cmd_geometry("separation", 2, 1e-3, 200, 4, str(out), "json",
                        spec_path=nm_spec, t=0.0)
    assert code == 0
    assert json.loads(out.read_text())["failures"] == 0
    markovian = write_spec(tmp_path / "m.json", dephasing_spec(1.0))
    assert main(["geometry", "--probe", "separation", "--n", "10", "--seed", "1",
                 "--spec", markovian]) == 1


def test_verify_n_zero_is_input_error(tmp_path):
    neg = [[[1.0, 0.0] if i == j else [0.0, 0.0] for j in range(4)]
           for i in range(4)]
    path = tmp_path / "w.json"
    path.write_text(json.dumps(neg))
    assert main(["verify", "--witness", str(path), "--n", "0", "--seed", "1"]) == 1


def test_main_argparse_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        main(["analyze", "--t1", "notanumber", "--steps", "5", "--spec", "x.json"])
    assert info.value.code == 1


@pytest.mark.parametrize("argv", [
    ["analyze", "--spec", "{spec}", "--t1", "nan", "--steps", "4"],
    ["analyze", "--spec", "{spec}", "--t1", "inf", "--steps", "4"],
    ["analyze", "--spec", "{spec}", "--t0=-inf", "--t1", "1", "--steps", "4"],
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


def test_main_input_error_returns_one(tmp_path):
    missing = str(tmp_path / "missing.json")
    assert main(["analyze", "--spec", missing, "--t1", "1.0", "--steps", "4"]) == 1


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
        "from nmwitness import builtin_dephasing, exact_channel\n"
        "from nmwitness.linalg import matrix_exp\n"
        "assert np.allclose(matrix_exp(np.zeros((2, 2))), np.eye(2))\n"
        "s = exact_channel(builtin_dephasing(1.0), 0.0, 0.1)\n"
        "assert abs(s.matrix[1, 1] - np.exp(-0.2)) < 1e-12\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", script], cwd=src,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
