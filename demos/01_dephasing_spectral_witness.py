#!/usr/bin/env python3
"""Dephasing qubit: small-time Choi state, classification, spectral witness.

The pure-dephasing master equation d rho/dt = gamma(t) (sz rho sz - rho) has
a small-time Choi state with eigenvalues {0, 0, gamma*eps, 1 - gamma*eps}.
A negative rate makes exactly one eigenvalue negative; the projector onto
that eigenvector is a working witness: its expectation is gamma*eps itself.
"""

import numpy as np

from nmwitness.channels import builtin_dephasing
from nmwitness.choi import choi_of_generator, classify
from nmwitness.witness import expectation, spectral_witnesses, verify_witness

EPS = 1e-3

for gamma in (1.0, -1.0):
    print(f"=== dephasing with constant rate gamma = {gamma:+.1f} ===")
    gen = builtin_dephasing(gamma)
    choi = choi_of_generator(gen, t=0.0, eps=EPS)
    print("Choi eigenvalues:", np.round(np.linalg.eigvalsh(choi.matrix), 6))

    verdict = classify(choi)
    print(f"min eigenvalue  : {verdict.min_eigenvalue:+.3e}")
    print(f"trace-norm deficit ||C||_1 - 1 = {verdict.trace_norm_deficit:.3e}")
    print("Markovian       :", verdict.is_markovian)

    witnesses = spectral_witnesses(choi)
    if not witnesses:
        print("spectrum is nonnegative, no witness to build\n")
        continue
    w = witnesses[0]
    print(f"witness: rank-{np.trace(w.matrix).real:.0f} projector, "
          f"expectation on this Choi = {expectation(w, choi):+.3e} "
          f"(equals gamma*eps = {gamma * EPS:+.3e})")

    # A witness must stay nonnegative on every divisible small-time Choi.
    check = verify_witness(w, dim=2, eps=EPS, n_samples=20_000, seed=2026)
    print(f"Monte-Carlo verification on 20000 divisible Chois: "
          f"{check.violations} violations, "
          f"min expectation {check.min_expectation:+.2e}\n")
