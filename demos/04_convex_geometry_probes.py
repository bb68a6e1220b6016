#!/usr/bin/env python3
"""Numerical probes of the convex geometry of divisible small-time Chois.

Four probes, each a sampled surrogate for a structural statement:
  * convexity   - mixtures of sampled divisible unitary-jump generators
                  stay in the full divisible family F: the w_perp block of
                  each mixed direction stays PSD, judged in generator units
                  at any eps;
  * hsnorm      - the first-order Choi phi + eps C_L of each such generator
                  has HS norm within eps ||C_L|| of 1 (the boundedness half
                  of compactness; closedness is not numerically probeable);
  * extreme     - Haar-random unitary channels give arbitrarily many
                  distinct purity-one extreme points, so the set of all
                  channels is not a polytope (a polytope has finitely many);
                  the census never reads eps, so it says nothing of this
                  kind about the divisible set;
  * separation  - a non-Markovian Choi is separated from sampled divisible
                  ones by the hyperplane through its nearest divisible state.
"""

from nmwitness.channels import builtin_pauli
from nmwitness.choi import choi_of_generator
from nmwitness.geometry import (
    convexity_probe,
    extreme_point_probe,
    hs_norm_probe,
    separation_demo,
)

print("--- convexity: 10000 random mixtures at eps = 1e-4 ---")
r = convexity_probe(dim=2, eps=1e-4, n_trials=10_000, seed=11)
print(f"failures {r.failures}, most negative w_perp block eigenvalue {r.worst_value:+.2e}")

print("\n--- HS-norm concentration: 5000 divisible Chois ---")
r = hs_norm_probe(dim=2, eps=1e-3, n_trials=5000, seed=12)
print(f"failures {r.failures}, worst | ||C||_2 - 1 | = {r.worst_value:.2e} "
      f"(per-trial bound up to {r.summary['max_bound']:.2e})")

print("\n--- extreme points: 1000 Haar-unitary Chois ---")
r = extreme_point_probe(dim=2, eps=1e-3, n_unitaries=1000, seed=13)
print(f"failures {r.failures}, min pairwise HS distance "
      f"{r.summary['min_pairwise_distance']:.3e}")
print("every census member is a distinct purity-one state; the census grows "
      "without repetition,\nso no finite vertex set can span the set of all channels")

print("\n--- separation: Pauli rates (1, 1, -0.3) against 10000 samples ---")
cn = choi_of_generator(builtin_pauli(1.0, 1.0, -0.3), t=0.0, eps=1e-3)
r = separation_demo(cn, n_samples=10_000, seed=14)
print(f"failures {r.failures}")
print(f"witness on the target : {r.summary['expectation_on_target']:+.3e} (< 0)")
print(f"worst sampled value   : {r.worst_value:+.3e} (>= 0 up to tolerance)")
print(f"projection residual   : {r.summary['residual']:.3e} in "
      f"{r.summary['solver_iterations']} Newton iterations")
