"""Dense complex matrix layer shared by everything above it.

Matrices are plain numpy arrays of complex128.  The Hermitian routines, the
SVD, kron and sandwich take one matrix of shape (n, n) or a stack of shape
(N, n, n) and work on each matrix of a stack independently, so a stack gives
the same numbers, bit for bit, as its matrices taken one at a time.  The
eigensolvers and the SVD are LAPACK's, so small singular values are resolved
to machine precision and rank decisions at TOL_RANK are sound.

Two kinds of solve serve two kinds of caller.  eigh (and min_eigenvalue)
gives the eigenvalues that reports print or compare against a pinned
figure.  min_at_least gives yes/no positivity verdicts, each equal to
eigh's, from two certificates and a residual solve.  One shifted Cholesky
factorization of a whole stack proves every matrix above the edge.  When
it fails, one test vector v proves each matrix with v^dag H v clear below
the edge below it (Courant-Fischer: lambda_min <= v^dag H v for a unit v;
the form's rounding, about 2 n^2 eps max |H_ij|, lies far inside the
margin EDGE_MARGIN * max(1, max |H_ij|)).  Whatever neither certificate
decides takes one values-only solve of each whole matrix, and a minimum
near the edge is re-solved with eigh.  A stack of one takes the same
ladder.  A lone (n, n) matrix, the DensityOperator gate's case for a
single state, is linalg's one lone-matrix fork: min_at_least skips the
certificates and decides it with one values-only solve of shape (n, n)
and a scalar margin.  Everything else, the Hermiticity and finiteness
tests included, runs one path for a lone matrix and a stack.  eigvalsh,
the plain values-only solve of whole matrices, words the errors those
verdicts raise.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonSquareError, NotHermitianError
from .tolerances import TOL_HERM

# min_at_least certifies a minimum only when it clears its edge by this
# margin times the matrix scale (s, or max(1, max |H_ij|) for the test
# vector), and re-solves with eigh a values-only minimum within EDGE_MARGIN
# * s of the edge; the solves are backward stable, with errors near
# n * eps * s ~ 2e-15 * s for 9 x 9 matrices, far inside it.
EDGE_MARGIN = 1e-12


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
    return a.conj().swapaxes(-1, -2)


def ldexp(a, k) -> np.ndarray:
    """Complex a 2^k, exactly, with no overflow on the way: np.ldexp takes
    no complex input, so this scales a's float view, whose last axis is
    twice a's and against which k broadcasts."""
    return np.ldexp(np.ascontiguousarray(a).view(np.float64), k).view(
        np.complex128
    )


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


def _hermitian_part(h, what: str) -> np.ndarray:
    """(h + h^dag) / 2 of each matrix, after checking its Hermiticity.

    Raises NotHermitianError, prefixed by `what`, for the first matrix whose
    defect exceeds TOL_HERM; the sub-tolerance skew part is discarded.  A
    matrix whose defect is NaN is never named.  One whole-array reduction
    decides the common case, for a lone matrix and a stack alike; only when
    it fails (or is NaN) is the defect taken matrix by matrix.
    """
    h = as_stack(h)
    require_square(h, "Hermitian argument")
    h_dag = adjoint(h)
    defect = np.abs(h - h_dag)
    if not defect.max(initial=0.0) <= TOL_HERM:
        defect = defect.max(axis=(-2, -1))
        bad = defect > TOL_HERM
        if bad.any():
            raise NotHermitianError(
                f"{what}: max |a - a^dag| = {defect[bad][0]:.3e}"
            )
    return 0.5 * (h + h_dag)


def eigh(h: np.ndarray):
    """Eigendecomposition of a Hermitian matrix or of each matrix in a stack.

    Returns (w, v), w real ascending along the last axis, columns of v
    orthonormal with h @ v ~= v @ diag(w).  Raises NotHermitianError when
    the Hermiticity defect of any matrix exceeds TOL_HERM, naming the first
    such defect; the (sub-tolerance) skew part is discarded by symmetrizing
    before factorization.
    """
    return np.linalg.eigh(_hermitian_part(h, "matrix is not Hermitian"))


def eigvalsh(h: np.ndarray):
    """Ascending eigenvalues only, from LAPACK's values-only solve of each
    whole matrix.

    Same Hermiticity check (at TOL_HERM) and symmetrization as eigh.  The
    values agree with eigh's to rounding, not bit for bit: they word the
    errors of the positivity gates (the DensityOperator gate,
    postselect_diag), never a reported figure.  A matrix whose Hermitian
    part is not finite (its entries overflow) gets NaN eigenvalues, since
    LAPACK may not converge on it.
    """
    return _values(_hermitian_part(h, "matrix is not Hermitian"))


def _values(herm):
    """np.linalg.eigvalsh of each matrix, with NaN values for a matrix whose
    entries are not finite: LAPACK may not converge on it.  Those matrices
    are never solved, and a stack with no finite matrix takes no solve."""
    if np.isfinite(herm).all():
        return np.linalg.eigvalsh(herm)
    finite = np.isfinite(herm).all(axis=(-2, -1))
    w = np.full(herm.shape[:-1], np.nan)
    if finite.any():
        w[finite] = np.linalg.eigvalsh(herm[finite])
    return w


def min_eigenvalue(h: np.ndarray):
    """Smallest eigenvalue: a float64 for one matrix, (N,) for a stack."""
    return np.take(eigh(h)[0], 0, axis=-1)


def _below(herm, edge):
    """Whether one test vector v proves that each matrix of the stack herm
    has an eigenvalue below edge (see min_at_least).

    v is the lowest eigenvector (one eigh of shape (n, n)) of the matrix
    with the lowest Gershgorin bound.  Only matrices whose entries are at
    most 1e300 in size take part: with |v| = 1 no partial sum of v^dag H v
    exceeds n max |H_ij|, so none overflows, and a matrix whose entries are
    not finite is never the representative and is never proved below.
    """
    below = np.zeros(len(herm), dtype=bool)
    size = np.abs(herm)
    # NaN or inf for a matrix with an entry that is not finite
    scale = size.max(axis=(-2, -1), initial=1.0)
    fit = np.flatnonzero(scale <= 1e300)
    if fit.size == 0:
        return below
    mats, size, scale = herm[fit], size[fit], scale[fit]
    # Gershgorin: every eigenvalue is at least min_i H_ii - sum_j!=i |H_ij|
    diag = mats.diagonal(0, -2, -1).real
    bound = (diag + np.abs(diag) - size @ np.ones(herm.shape[-1])).min(axis=-1)
    v = np.linalg.eigh(mats[np.argmin(bound)])[1][:, 0]
    below[fit] = ((mats @ v) @ v.conj()).real < edge - EDGE_MARGIN * scale
    return below


def _certified(herm, shift) -> bool:
    """Whether one Cholesky factorization of the stack herm, each matrix
    shifted down by its entry of shift, proves that no matrix has an
    eigenvalue at or below its shift."""
    count, n = herm.shape[0], herm.shape[-1]
    shifted = herm.copy()
    shifted.reshape(count, n * n)[:, :: n + 1] -= shift[:, None]
    try:
        factor = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:  # raised for the whole stack
        return False
    # OpenBLAS's potrf returns a NaN factor of an overflowed matrix without
    # raising
    return bool(np.isfinite(factor).all())


def _solved(herm, edge, margin):
    """Whether each matrix of the stack herm has no eigenvalue below edge,
    from one values-only solve, with eigh re-solving each minimum within
    its margin of edge.  A matrix whose entries are not finite gets a NaN
    minimum, and fails."""
    wmin = _values(herm)[:, 0]
    near = np.abs(wmin - edge) <= margin
    if near.any():
        wmin[near] = min_eigenvalue(herm[near])
    return wmin >= edge


def min_at_least(h, edge: float, what: str = "matrix is not Hermitian"):
    """Whether each matrix has no eigenvalue below `edge`: eigh's verdict.

    A bool for one matrix, a bool array for a stack.  Same Hermiticity
    check (at TOL_HERM) and symmetrization as eigh; the error message
    starts with `what`.  Each matrix has the scale s = max(1, max |H_ii|).

    A stack, of any length, is first tried with one Cholesky
    factorization, each matrix shifted down by edge + EDGE_MARGIN * s.  Its
    backward error is about n^2 eps s (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., Thm 10.5), far inside EDGE_MARGIN * s,
    so a factor proves every minimum above edge.  When it fails, one test
    vector v, the lowest eigenvector of the matrix with the lowest
    Gershgorin bound, proves each matrix with Re(v^dag H v) below
    edge - EDGE_MARGIN * max(1, max |H_ij|) below the edge.  By
    Courant-Fischer lambda_min <= v^dag H v for a unit v, and the form's
    rounding (about 2 n^2 eps max |H_ij|, 2e-14 max |H_ij| at n = 9) and
    eigh's backward error lie far inside that margin, so each such verdict
    is eigh's.  What v leaves takes one values-only solve of each whole
    matrix, and a minimum within EDGE_MARGIN * s of edge is re-solved with
    eigh.

    A lone (n, n) matrix, linalg's one lone-matrix fork, skips both
    certificates: it takes only that values-only solve and re-solve, of
    shape (n, n), with a scalar margin, since one solve costs about what
    one factorization does.  Its Hermiticity and finiteness tests are the
    whole-array reductions a stack takes too.  The fork pays: without it
    and the whole-array tests, protocol-mix req_per_s read 3.0% lower, in
    5 of 6 pairs (ROADMAP, Settled).  A matrix whose Hermitian part is
    not finite (its entries overflow) gets a NaN minimum, and fails.
    """
    herm = _hermitian_part(h, what)
    if herm.ndim == 2:
        wmin = _values(herm)[0]
        margin = EDGE_MARGIN * max(1.0, np.abs(herm.diagonal().real).max())
        if abs(wmin - edge) <= margin:
            wmin = min_eigenvalue(herm[None])[0]
        return bool(wmin >= edge)
    diag = herm.diagonal(0, -2, -1).real
    margin = EDGE_MARGIN * np.abs(diag).max(axis=-1, initial=1.0)
    if _certified(herm, edge + margin):
        return np.ones(len(herm), dtype=bool)
    ok = np.zeros(len(herm), dtype=bool)
    rest = np.flatnonzero(~_below(herm, edge))
    if len(rest):
        ok[rest] = _solved(herm[rest], edge, margin[rest])
    return ok


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
    The three arrays are read-only, so a result can be shared.
    """
    a = as_stack(a)
    require_square(a, "svd argument")
    u, d, vh = np.linalg.svd(a)
    for x in (u, d, vh):
        x.setflags(write=False)
    return SVDResult(u=u, d=d, v=vh)
