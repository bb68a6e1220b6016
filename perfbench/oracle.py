"""Independent oracle for the benchmark: rates and first-order Choi states.

Rates are evaluated from the structured parameters inputs.py draws, and Choi
states are assembled directly from <ik|C|jl> = (1/d) <k|S(|i><j|)|l>, without
the program's code.
"""

from __future__ import annotations

import numpy as np


def rate_values(rate: dict, t: np.ndarray) -> np.ndarray:
    """Evaluate a structured rate (see inputs.rate_text) on an array of times."""
    kind = rate["kind"]
    t = np.asarray(t, dtype=float)
    if kind == "const":
        return np.full(t.shape, float(rate["value"]))
    if kind == "table":
        return np.interp(t, rate["t"], rate["v"])
    if kind == "cos":
        return rate["a"] * np.cos(rate["w"] * t + rate["p"]) + rate["b"]
    if kind == "exp":
        return rate["a"] * np.exp(-rate["k"] * t) - rate["b"]
    raise ValueError(f"unknown rate kind {kind!r}")


def from_pairs(obj) -> np.ndarray:
    """Matrix from nested [re, im] pairs, the spec and report format."""
    return np.array([[complex(re, im) for re, im in row] for row in obj], dtype=complex)


def phi_projector(d: int) -> np.ndarray:
    v = np.zeros(d * d, dtype=complex)
    v[:: d + 1] = 1.0 / np.sqrt(d)
    return np.outer(v, v.conj())


def choi_of_map(apply, d: int) -> np.ndarray:
    """(1/d) sum_ij |i><j| (x) S(|i><j|)."""
    c = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            c += np.kron(e, apply(e))
    return c / d


class GeneratorOracle:
    """C_L(t) = C_H + sum_a g_a(t) Y_a for jump matrices, structured rates and
    an optional Hamiltonian."""

    def __init__(self, dim: int, ops, rates, ham=None):
        d = self.dim = dim
        self.rates = rates
        self.directions = np.stack([
            choi_of_map(lambda r, l=l: l @ r @ l.conj().T
                        - 0.5 * (l.conj().T @ l @ r + r @ l.conj().T @ l), d)
            for l in ops])
        self.c_h = np.zeros((d * d, d * d), dtype=complex)
        if ham is not None:
            self.c_h = choi_of_map(lambda r: -1j * (ham @ r - r @ ham), d)

    @classmethod
    def from_spec(cls, spec: dict) -> "GeneratorOracle":
        """From the record inputs.py keeps of a spec file."""
        ham = spec["hamiltonian"]
        return cls(spec["dim"], [from_pairs(m) for m in spec["ops"]], spec["rates"],
                   None if ham is None else from_pairs(ham))

    def choi_l(self, t: np.ndarray) -> np.ndarray:
        g = np.stack([rate_values(r, t) for r in self.rates], axis=-1)
        return self.c_h + np.einsum("na,aij->nij", g, self.directions)

    def first_order(self, t: np.ndarray, eps: float) -> np.ndarray:
        return phi_projector(self.dim) + eps * self.choi_l(t)
