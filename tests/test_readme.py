"""The README's library tour runs as written and gives the values its comments
state, and its channel-spec example loads."""

import re
from pathlib import Path

import numpy as np
import pytest

from nmwitness.choi import classify
from nmwitness.cli import load_channel_spec
from nmwitness.witness import expectation, spectral_witnesses

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(language: str) -> str:
    """The README's one code block in language."""
    blocks = re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_the_library_tour_runs_and_states_its_values():
    tour = _block("python")
    # The comments state these values; the assertions below check them.
    for stated in ("# False", "expectation -3e-4", "# array([0.9, 0.9, 0. ])",
                   "(= 0.12 * eps^2)", "(= -residual^2)", "# True"):
        assert stated in tour, stated
    names = {}
    exec(compile(tour, str(README), "exec"), names)
    cn, res, w, check, eps = (names[k] for k in ("cn", "res", "w", "check", "eps"))
    assert classify(cn).is_markovian is False
    projectors = spectral_witnesses(cn)
    assert len(projectors) == 1
    assert expectation(projectors[0], cn) == pytest.approx(-3e-4, rel=1e-9)
    assert np.allclose(res.rates, [0.9, 0.9, 0.0], rtol=0.0, atol=1e-12)
    assert res.residual ** 2 == pytest.approx(0.12 * eps ** 2, rel=1e-9)
    assert expectation(w, cn) == pytest.approx(-res.residual ** 2, rel=1e-9)
    assert check.holds is True


def test_the_channel_spec_example_loads(tmp_path):
    path = tmp_path / "channel.json"
    path.write_text(_block("json"), encoding="utf-8")
    gen = load_channel_spec(str(path))
    assert gen.dim == 2 and len(gen.ops) == 3
    assert np.array_equal(gen.hamiltonian, gen.hamiltonian.conj().T)
    assert np.any(gen.hamiltonian)
