"""Dense complex matrix layer shared by everything above it.

Matrices are plain numpy arrays of complex128.  The Hermitian routines, the
SVD, kron and sandwich take one matrix of shape (n, n) or a stack of shape
(N, n, n) and work on each matrix of a stack independently, so a stack gives
the same numbers, bit for bit, as its matrices taken one at a time.  The
eigensolvers and the SVD are LAPACK's, so small singular values are resolved
to machine precision and rank decisions at TOL_RANK are sound.  eigh gives
the eigenvalues that reports print or compare against a pinned figure;
eigvalsh is the cheaper values-only solve behind the positivity gates and
their error messages.
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


def kron(a, b) -> np.ndarray:
    """Kronecker product of two vectors, or of two matrices.

    Matrices may be stacks: the product is taken over the last two axes and
    the leading axes broadcast.  The composite row index is
    i * b.shape[-2] + k.  Each entry is the one product a[i, j] * b[k, l]
    that np.kron forms, so the result equals np.kron's bit for bit.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.ndim == 1 and b.ndim == 1:
        return (a[:, None] * b[None, :]).reshape(-1)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionMismatchError(
            f"kron needs two vectors or two matrices, got shapes "
            f"{a.shape} and {b.shape}"
        )
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(
        lead + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])
    )


def sandwich(s: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """s @ rho @ s^dag; s and rho may be stacks."""
    return s @ rho @ adjoint(s)


def _hermitian_part(h, tol_herm: float, what: str) -> np.ndarray:
    """(h + h^dag) / 2 of each matrix, after checking its Hermiticity.

    Raises NotHermitianError, prefixed by `what`, for the first matrix whose
    defect exceeds tol_herm; the sub-tolerance skew part is discarded.
    """
    h = as_stack(h)
    require_square(h, "Hermitian argument")
    defect = herm_defect(h)
    bad = defect > tol_herm
    if bad.any():
        raise NotHermitianError(
            f"{what}: max |a - a^dag| = {defect[bad][0]:.3e}"
        )
    return 0.5 * (h + adjoint(h))


def eigh(h: np.ndarray, tol_herm: float = TOL_HERM):
    """Eigendecomposition of a Hermitian matrix or of each matrix in a stack.

    Returns (w, v), w real ascending along the last axis, columns of v
    orthonormal with h @ v ~= v @ diag(w).  Raises NotHermitianError when
    the Hermiticity defect of any matrix exceeds tol_herm, naming the first
    such defect; the (sub-tolerance) skew part is discarded by symmetrizing
    before factorization.
    """
    return np.linalg.eigh(
        _hermitian_part(h, tol_herm, "matrix is not Hermitian")
    )


def eigvalsh(h: np.ndarray, what: str = "matrix is not Hermitian"):
    """Ascending eigenvalues only, from LAPACK's values-only solve.

    Same Hermiticity check (at TOL_HERM) and symmetrization as eigh; the
    error message starts with `what`.  The values agree with eigh's to
    rounding, not bit for bit: they back the positivity gates and the
    messages of the errors those gates raise, never a reported figure.
    """
    return np.linalg.eigvalsh(_hermitian_part(h, TOL_HERM, what))


def min_eigenvalue(h: np.ndarray):
    """Smallest eigenvalue: a float64 for one matrix, (N,) for a stack."""
    return np.take(eigh(h)[0], 0, axis=-1)


@dataclass(frozen=True, eq=False)
class SVDResult:
    """Factorization a = u @ diag(d) @ v.

    u, v are unitary (v is the already-conjugated right factor, i.e. what
    LAPACK calls vh) and d is real, non-negative, descending.  In protocol
    language the rows of v act first and u acts last.  For a stack of N
    matrices every field gains a leading axis of length N.
    """

    u: np.ndarray
    d: np.ndarray
    v: np.ndarray

    @property
    def sigma_max(self):
        """Largest singular value: a float, or (N,) for a stack."""
        return np.take(self.d, 0, axis=-1)

    @property
    def sigma_min(self):
        """Smallest singular value: a float, or (N,) for a stack."""
        return np.take(self.d, -1, axis=-1)

    def reconstruct(self) -> np.ndarray:
        return (self.u * self.d[..., None, :]) @ self.v


def svd(a: np.ndarray) -> SVDResult:
    """SVD of a square matrix or of each matrix in a stack (LAPACK).

    For a stack of shape (N, n, n), u and v are (N, n, n) and d is (N, n).
    """
    a = as_stack(a)
    require_square(a, "svd argument")
    u, d, vh = np.linalg.svd(a)
    return SVDResult(u=u, d=d, v=vh)
