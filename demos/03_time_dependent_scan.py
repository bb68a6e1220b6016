#!/usr/bin/env python3
"""Scan a time-dependent dephasing rate for divisibility breaking.

gamma(t) = cos(t) is nonnegative until t = pi/2 and negative afterwards, so
snapshots of the small-time step are divisible on the first half of [0, pi]
and break divisibility on the second. The per-snapshot trace-norm deficit
integrates (as a Riemann sum) to about 2, matching the analytic value of
the rate integral over the non-divisible window.
"""

import math

from nmwitness import builtin_dephasing, scan

gen = builtin_dephasing("cos(t)")
report = scan(gen, t0=0.0, t1=math.pi, steps=2000, eps=1e-3)

print(f"grid: {len(report.grid)} cells of width {report.dt:.5f}, "
      f"eigenvalue tolerance {report.tol:.1e}")

n_nm = int((~report.is_markovian).sum())
print(f"non-Markovian snapshots: {n_nm} of {len(report.grid)}")

for start, end in report.nm_intervals:
    print(f"non-Markovian window : ({start:.5f}, {end:.5f}]   "
          f"(rate changes sign at pi/2 = {math.pi/2:.5f})")

print(f"integrated deficit measure: {report.integrated_measure:.4f} "
      f"(analytic limit: 2)")

# a few snapshots along the way
print("\n    t      min eigenvalue   deficit      Markovian")
for k in range(0, 2000, 400):
    print(f"  {report.grid[k]:.3f}   {report.min_eigenvalues[k]:+.3e}    "
          f"{report.deficits[k]:.3e}    {report.is_markovian[k]}")
