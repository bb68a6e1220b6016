"""Dense complex matrix kernel shared by every other module.

All operations act on plain complex numpy arrays. Dimensions in this package
stay tiny (at most d^2 x d^2 with d <= 9), so everything is dense and eager.
`hermitian_part` and `hermiticity_defect` are the one place the package
forms (a + a^dag)/2 and max |a - a^dag|, of a matrix or of each matrix of a
stack.
The `require_*` input rules, one per kind of input, live here for every
module to call; each refusal is a ValueError naming the entry point called.
"""

from __future__ import annotations

import numpy as np


class ShapeError(ValueError):
    """Operand dimensions are incompatible."""


class HermiticityError(ValueError):
    """A matrix required to be Hermitian is not, within tolerance."""


DEFAULT_HERM_TOL = 1e-10

# Eigenvalues closer than this are treated as one degenerate cluster;
# downstream code only ever consumes spectral projectors of whole clusters,
# never individual eigenvectors inside one.
DEGENERACY_GAP = 1e-9

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ShapeError(f"{name}: expected a 2-D array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name}: contains non-finite entries")
    return m


def _require_square(a: np.ndarray, name: str = "matrix") -> None:
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"{name}: expected a square matrix, got shape {a.shape}")


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix of a stack."""
    return np.swapaxes(a, -1, -2).conj()


def require_count(n, where: str, name: str, least: int = 1) -> None:
    """Refuse n unless it is a Python or numpy integer, not a bool, and >= least."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"{where}: {name} must be an integer, got {n!r}")
    if n < least:
        raise ValueError(f"{where}: {name} must be >= {least}, got {n}")


def require_time(t: float, where: str, name: str) -> None:
    """Refuse a time that is not a finite number."""
    if not -np.inf < t < np.inf:
        raise ValueError(f"{where}: {name} must be finite, got {t}")


def require_eps(eps: float, where: str) -> None:
    """Refuse a first-order step eps that is not finite and positive."""
    if not 0.0 < eps < np.inf:
        raise ValueError(f"{where}: eps must be finite and > 0, got {eps}")


def require_tol(tol: float, where: str, name: str) -> float:
    """tol, an eigenvalue tolerance or a state's eps tag, refused unless finite
    and nonnegative."""
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"{where}: {name} must be finite and >= 0, got {tol}")
    return tol


def require_jumps(ops, dim: int, where: str, name: str) -> tuple[np.ndarray, ...]:
    """ops as 1 to dim^2 finite dim x dim complex matrices, dim >= 2, whose L^dag L (one
    stacked product, formed before eps scales it) stays in the double range; an error
    names the first bad name[i]."""
    ops = tuple(as_matrix(op, f"{name}[{i}]") for i, op in enumerate(ops))
    if not ops:
        raise ValueError(f"{where}: at least one jump operator, got none")
    require_count(dim, where, "dim", least=2)
    if len(ops) > dim * dim:
        raise ValueError(f"{where}: at most dim^2={dim * dim} jump operators, got {len(ops)}")
    for i, op in enumerate(ops):
        if op.shape != (dim, dim):
            raise ShapeError(f"{name}[{i}]: expected {dim}x{dim}, got {op.shape}")
    ls = np.stack(ops)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(dagger(ls) @ ls).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"{name}[{np.argmin(finite)}]: L^dag L overflows the double range")
    return ops


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt inner product Tr(a^dag b)."""
    if a.shape != b.shape:
        raise ShapeError(f"hs_inner: shapes differ, {a.shape} vs {b.shape}")
    _require_square(a, "hs_inner")
    return complex(np.vdot(a, b))


def hs_norm(a: np.ndarray) -> float:
    """Hilbert-Schmidt (Frobenius) norm sqrt(Tr(a^dag a))."""
    return float(np.linalg.norm(a))


def hermitian_part(a: np.ndarray) -> np.ndarray:
    """(a + a^dag) / 2 of a matrix, or of each matrix of a stack."""
    return 0.5 * (a + dagger(a))


def hermiticity_defect(a: np.ndarray) -> float | np.ndarray:
    """Largest entrywise |a - a^dag|: a float for a matrix, an array of one
    per matrix for a stack."""
    return np.abs(a - dagger(a)).max(axis=(-2, -1))


def require_hermitian(a: np.ndarray, name: str = "matrix") -> None:
    """Raise HermiticityError when a deviates from a^dag beyond DEFAULT_HERM_TOL;
    a defect past the double range is inf, and refused, without a warning."""
    _require_square(a, name)
    with np.errstate(over="ignore", invalid="ignore"):
        defect = hermiticity_defect(a)
    if not defect <= DEFAULT_HERM_TOL:
        raise HermiticityError(f"{name}: not Hermitian, max |a - a^dag| = {defect:.3e} "
                               f"> {DEFAULT_HERM_TOL:.1e}")


def hermitian_eig(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(w, v) = np.linalg.eigh of a's Hermitian part: ascending eigenvalues and
    the matching unit eigenvectors as columns, so a = v diag(w) v^dag."""
    require_hermitian(a, "hermitian_eig")
    return np.linalg.eigh(hermitian_part(a))


def matrix_exp(a: np.ndarray) -> np.ndarray:
    """Matrix exponential via scipy, for the test reference `channels.exact_channel`."""
    import scipy.linalg  # only this function needs scipy; importing it is slow

    _require_square(a, "matrix_exp")
    return scipy.linalg.expm(a)


def gell_mann_basis(dim: int) -> list[np.ndarray]:
    """HS-orthonormal basis of traceless Hermitian dim x dim matrices.

    Generalized Gell-Mann construction: symmetric and antisymmetric
    off-diagonal pairs plus diagonal ladder matrices; dim^2 - 1 elements.
    For dim = 2 this is (sigma_x, sigma_y, sigma_z) / sqrt(2).
    """
    require_count(dim, "gell_mann_basis", "dim", least=2)
    basis: list[np.ndarray] = []
    for j in range(dim):
        for k in range(j + 1, dim):
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = m[k, j] = 1.0 / np.sqrt(2.0)
            basis.append(m)
            m = np.zeros((dim, dim), dtype=complex)
            m[j, k] = -1.0j / np.sqrt(2.0)
            m[k, j] = 1.0j / np.sqrt(2.0)
            basis.append(m)
    for l in range(1, dim):
        m = np.zeros((dim, dim), dtype=complex)
        for i in range(l):
            m[i, i] = 1.0
        m[l, l] = -float(l)
        basis.append(m / np.sqrt(l * (l + 1)))
    return basis
