"""Small-time Choi states of Lindblad dynamics and non-Markovianity witnesses.

The package builds the Choi state of a short evolution step I + eps * L for a
Lindblad-type generator L, classifies it as divisible (Markovian) or not by
its spectrum, and constructs linear witnesses two ways: spectral projectors
onto negative eigenspaces, and the hyperplane through the nearest divisible
Choi state found by convex projection. Probe routines sample the convex
geometry of the divisible set.

Every name is imported from the module that defines it (the package itself
holds only `__version__`):
* `linalg`: the dense matrix kernel, Pauli and Gell-Mann matrices.
* `rates`: rate functions and the rate expression language (`parse`).
* `channels`: `LindbladGenerator`, the built-in models, Haar unitaries and
  the reference superoperator route.
* `choi`: Choi states, `classify`, `require_non_markovian` and `scan`.
* `witness`: spectral and Theorem-3 witnesses, the two projections onto the
  divisible set, and the sampled checks `verify_witness`, `uniqueness_check`.
* `geometry`: the convexity, HS-norm, extreme-point and separation probes.
* `cli`: the `nmwitness` command and its spec and report formats.
"""

__version__ = "0.1.0"
