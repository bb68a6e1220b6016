"""Textbook models whose divisibility windows have closed forms.

Each test asserts `scan`'s nm_intervals against the closed form to one cell.
The verdict still reads the Choi spectrum against a tolerance set by eps, so
the windows come out shifted by more than a cell and the tests are expected
failures until the verdict follows the generator.
"""

import math

import numpy as np
import pytest

from nmwitness.channels import LindbladGenerator, builtin_pauli
from nmwitness.choi import scan

pytestmark = pytest.mark.xfail(raises=AssertionError,
                               reason="ROADMAP item 1: the verdict is the Choi spectrum "
                                      "against a tolerance set by eps alone")


def _assert_windows(report, exact):
    # One cell, and the rounding of a cell edge: a cell whose left edge is an
    # exact window end may take either verdict (at x = pi the JC rate rounds
    # to -5.6e-17).
    assert len(report.nm_intervals) == len(exact)
    for got, want in zip(report.nm_intervals, exact):
        assert np.abs(np.subtract(got, want)).max() <= report.dt * (1.0 + 1e-9)


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_damped_jaynes_cummings_windows(eps):
    # On resonance (Breuer & Petruccione, section 10.1), x = Om t/2: the rate
    # 2 g0 lam sin(x) / (Om cos(x) + lam sin(x)) is negative exactly for x in
    # (pi/2 + atan(lam/Om) + k pi, (k+1) pi), each window opening at a pole.
    # The 4 000 cells of [0, 4 pi/Om) miss both poles.
    g0, lam = 1.0, 0.1
    om = math.sqrt(2.0 * g0 * lam - lam * lam)
    x = f"{om!r}*t/2"
    rate = f"2*{g0!r}*{lam!r}*sin({x}) / ({om!r}*cos({x}) + {lam!r}*sin({x}))"
    sigma_minus = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    gen = LindbladGenerator(dim=2, ops=(sigma_minus,), rates=(rate,))
    exact = [(2.0 * (math.pi / 2 + math.atan(lam / om) + k * math.pi) / om,
              2.0 * (k + 1) * math.pi / om) for k in (0, 1)]
    _assert_windows(scan(gen, 0.0, 4.0 * math.pi / om, 4000, eps), exact)


@pytest.mark.parametrize("eps", [1e-3, 1e-2])
def test_eternal_non_markovianity_window(eps):
    # Pauli rates (1, 1, -tanh(t)) (Hall et al. 2014) break divisibility at
    # every t > 0: one window over the whole scan after the first cell.
    gen = builtin_pauli(1.0, 1.0, "-tanh(t)")
    _assert_windows(scan(gen, 0.0, 2.0, 2000, eps), [(0.0, 2.0)])
