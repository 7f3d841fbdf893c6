"""Dense complex matrix layer shared by everything above it.

Matrices are plain numpy arrays of complex128.  The Hermitian routines take
one matrix of shape (n, n) or a stack of shape (N, n, n) and work on each
matrix of a stack independently, so a stack gives the same numbers, bit for
bit, as its matrices taken one at a time.  The eigensolver and the SVD are
LAPACK's, so small singular values are resolved to machine precision and
rank decisions at TOL_RANK are sound.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonSquareError, NotHermitianError
from .tolerances import TOL_HERM


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array (copies only if needed)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a 2-d array, got ndim={m.ndim}")
    return m


def as_stack(a) -> np.ndarray:
    """Coerce to complex128 of shape (n, n) or (N, n, n)."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim not in (2, 3):
        raise DimensionMismatchError(
            f"expected a matrix or a stack of matrices, got ndim={m.ndim}"
        )
    return m


def require_square(a: np.ndarray, what: str = "matrix") -> int:
    """Side length of a square matrix or of each matrix in a stack."""
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise NonSquareError(f"{what} must be square, got shape {a.shape}")
    return a.shape[-1]


def adjoint(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def herm_defect(a: np.ndarray):
    """Max absolute entrywise deviation from a == a^dag, per matrix."""
    return np.abs(a - adjoint(a)).max(axis=(-2, -1))


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(
            f"cannot multiply shapes {a.shape} and {b.shape}"
        )
    return a @ b


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product; the composite row index is i * b.shape[0] + k."""
    return np.kron(a, b)


def trace(a: np.ndarray) -> complex:
    require_square(a, "trace argument")
    return complex(np.trace(a))


def sandwich(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """s @ rho @ s^dag; rho may be a stack."""
    return s @ rho @ s.conj().T


def eigh(h: np.ndarray, tol_herm: float = TOL_HERM):
    """Eigendecomposition of a Hermitian matrix or of each matrix in a stack.

    Returns (w, v), w real ascending along the last axis, columns of v
    orthonormal with h @ v ~= v @ diag(w).  Raises NotHermitianError when
    the Hermiticity defect of any matrix exceeds tol_herm, naming the first
    such defect; the (sub-tolerance) skew part is discarded by symmetrizing
    before factorization.
    """
    h = as_stack(h)
    require_square(h, "eigh argument")
    defect = herm_defect(h)
    bad = defect > tol_herm
    if bad.any():
        raise NotHermitianError(
            f"matrix is not Hermitian: max |a - a^dag| = {defect[bad][0]:.3e}"
        )
    return np.linalg.eigh(0.5 * (h + adjoint(h)))


def eigvalsh(h: np.ndarray) -> np.ndarray:
    return eigh(h)[0]


def min_eigenvalue(h: np.ndarray):
    """Smallest eigenvalue: a float64 for one matrix, (N,) for a stack."""
    return np.take(eigh(h)[0], 0, axis=-1)


@dataclass(frozen=True, eq=False)
class SVDResult:
    """Factorization a = u @ diag(d) @ v.

    u, v are unitary (v is the already-conjugated right factor, i.e. what
    LAPACK calls vh) and d is real, non-negative, descending.  In protocol
    language the rows of v act first and u acts last.
    """

    u: np.ndarray
    d: np.ndarray
    v: np.ndarray

    @property
    def sigma_max(self) -> float:
        return float(self.d[0])

    @property
    def sigma_min(self) -> float:
        return float(self.d[-1])

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.d) @ self.v


def svd(a: np.ndarray) -> SVDResult:
    """Singular value decomposition of a square matrix (LAPACK)."""
    a = as_matrix(a)
    require_square(a, "svd argument")
    u, d, vh = np.linalg.svd(a)
    return SVDResult(u=u, d=d, v=vh)


def singular_values(a: np.ndarray) -> np.ndarray:
    return svd(a).d
