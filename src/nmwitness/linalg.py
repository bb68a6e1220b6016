"""Dense complex matrix kernel shared by every other module.

All operations act on plain complex numpy arrays. Dimensions in this package
stay tiny (at most d^2 x d^2 with d <= 9), so everything is dense and eager.
`hermitian_part` and `hermiticity_defect` are the one place the package
forms (a + a^dag)/2 and max |a - a^dag|, of a matrix or of each matrix of a
stack.
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
    if dim < 2:
        raise ValueError(f"gell_mann_basis: dim must be >= 2, got {dim}")
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
