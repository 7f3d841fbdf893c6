"""Dense complex matrix layer shared by everything above it.

Matrices are plain numpy arrays of complex128.  The Hermitian routines, the
SVD, kron and sandwich take one matrix of shape (n, n) or a stack of shape
(N, n, n) and work on each matrix of a stack independently, so a stack gives
the same numbers, bit for bit, as its matrices taken one at a time.  The
eigensolvers and the SVD are LAPACK's, so small singular values are resolved
to machine precision and rank decisions at TOL_RANK are sound.

Three kinds of solve serve three kinds of caller.  eigh (and min_eigenvalue)
gives the eigenvalues that reports print or compare against a pinned
figure.  min_at_least serves yes/no positivity verdicts whose value is never
printed: one Cholesky factorization of a whole stack, shifted past the
edge by EDGE_MARGIN times the matrix scale, certifies every matrix at once,
and a lone matrix or a stack it cannot certify goes to decision_min's
solve.
decision_min serves decisions that need the value (a sign): a values-only
solve that splits a stack into the exact blocks of its joint zero pattern
and solves each block size with one LAPACK call.  The split follows exact
zeros only, never a threshold, so the blocks hold the same spectrum; the
minima agree with eigh's to rounding, not bit for bit.  A minimum within
EDGE_MARGIN of the decision edge is re-solved by the caller's reference
solver (eigh by default), so every verdict of either function equals that
solver's.  eigvalsh is the plain values-only solve of whole matrices.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NonSquareError, NotHermitianError
from .tolerances import TOL_HERM

# a decision minimum this close to its edge is re-solved by the reference
# solver; the values-only and blocked solves are backward stable, with
# errors near n * eps * |H| ~ 2e-15 for 9 x 9 matrices of norm ~1 (states,
# their partial transposes and witness images), far inside this margin.
# min_at_least certifies a minimum only when it clears the edge by this
# margin times the matrix scale.
EDGE_MARGIN = 1e-12


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
    defect exceeds TOL_HERM; the sub-tolerance skew part is discarded.
    """
    h = as_stack(h)
    require_square(h, "Hermitian argument")
    h_dag = adjoint(h)
    defect = np.abs(h - h_dag).max(axis=(-2, -1))
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


def eigvalsh(h: np.ndarray, what: str = "matrix is not Hermitian"):
    """Ascending eigenvalues only, from LAPACK's values-only solve of each
    whole matrix.

    Same Hermiticity check (at TOL_HERM) and symmetrization as eigh; the
    error message starts with `what`.  The values agree with eigh's to
    rounding, not bit for bit: they back positivity gates (postselect_diag,
    the DensityOperator gate near its edge) and the messages of the errors
    those gates raise, never a reported figure.  A matrix whose Hermitian
    part is not finite (its entries overflow) gets NaN eigenvalues, since
    LAPACK may not converge on it.
    """
    return _values(_hermitian_part(h, what))


def _values(herm):
    """np.linalg.eigvalsh of each matrix, with NaN values for a matrix whose
    entries are not finite: LAPACK may not converge on it."""
    finite = np.isfinite(herm).all(axis=(-2, -1))
    if finite.all():
        return np.linalg.eigvalsh(herm)
    w = np.full(herm.shape[:-1], np.nan)
    w[finite] = np.linalg.eigvalsh(herm[finite])
    return w


def min_eigenvalue(h: np.ndarray):
    """Smallest eigenvalue: a float64 for one matrix, (N,) for a stack."""
    return np.take(eigh(h)[0], 0, axis=-1)


@functools.lru_cache(maxsize=64)
def _block_index(n: int, pattern: bytes):
    """Blocks of a symmetric n x n zero pattern, grouped by size.

    The blocks are the connected components of the pattern's graph.
    Returns None for a single component, else a tuple of (size, count,
    flat index), where the flat index gathers the count blocks of that
    size, row-major and each block's rows in ascending order, from a
    matrix raveled to n * n entries.
    """
    mask = np.frombuffer(pattern, dtype=bool).reshape(n, n)
    seen = np.zeros(n, dtype=bool)
    comps = []
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        comp, todo = [root], [root]
        while todo:
            for j in np.flatnonzero(mask[todo.pop()] & ~seen):
                seen[j] = True
                comp.append(int(j))
                todo.append(int(j))
        comps.append(sorted(comp))
    if len(comps) == 1:
        return None
    groups = []
    for size in sorted({len(c) for c in comps}):
        idx = np.array([c for c in comps if len(c) == size])
        flat = (idx[:, :, None] * n + idx[:, None, :]).ravel()
        flat.setflags(write=False)  # cached: every caller shares it
        groups.append((size, idx.shape[0], flat))
    return tuple(groups)


def _split_min(h: np.ndarray):
    """Smallest eigenvalue of each symmetrized matrix, values only.

    A stack of more than one matrix is split into the exact blocks of the
    union of its nonzero entries; each block size is one LAPACK call.  The
    index arrays are cached by the pattern.  A lone matrix, or a stack with
    one block, is solved whole: the split's fixed cost (~30 us) is more than
    one 9 x 9 solve.  A matrix whose entries are not finite gets NaN.
    """
    if h.ndim == 2 or h.shape[0] < 2:
        return _values(h)[..., 0]
    count, n = h.shape[0], h.shape[-1]
    # symmetrized entries are exact conjugate pairs: the pattern is symmetric
    groups = _block_index(n, (h != 0).any(axis=0).tobytes())
    if groups is None:
        return _values(h)[:, 0]
    flat = h.reshape(count, n * n)
    wmin = None
    for size, k, idx in groups:
        blocks = np.take(flat, idx, axis=1).reshape(count * k, size, size)
        # a NaN block minimum carries through min and minimum
        w = _values(blocks)[:, 0].reshape(count, k).min(axis=1)
        wmin = w if wmin is None else np.minimum(wmin, w)
    return wmin


def decision_min(h, edge: float, exact=min_eigenvalue,
                 what: str = "matrix is not Hermitian"):
    """Smallest eigenvalue of each matrix, for a decision against `edge`.

    Same Hermiticity check (at TOL_HERM) and symmetrization as eigh; the
    error message starts with `what`.  The values come from the block-split
    values-only solve, except that a minimum within EDGE_MARGIN of edge is
    replaced by exact(h[k]), so comparing the result with edge gives the
    verdict of `exact`.  A float64 for one matrix, (N,) for a stack; NaN
    for a matrix whose Hermitian part is not finite.  For a verdict alone,
    min_at_least is cheaper on a stack whose answer is yes.
    """
    return _decided_min(_hermitian_part(h, what), h, edge, exact)


def _decided_min(herm, h, edge: float, exact):
    """decision_min of h, given herm, its symmetrized matrices."""
    wmin = _split_min(herm)
    near = np.abs(wmin - edge) <= EDGE_MARGIN
    if not near.any():
        return wmin
    h = as_stack(h)
    if h.ndim == 2:
        return exact(h)
    wmin = wmin.copy()
    wmin[near] = exact(h[near])
    return wmin


def _certified(herm, edge: float) -> bool:
    """Whether one Cholesky factorization of the stack herm, each matrix
    shifted down by edge + EDGE_MARGIN * s with s = max(1, max |H_ii|),
    proves that every minimum lies above edge.

    The factorization's backward error is about n^2 eps s (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., Thm 10.5), far inside
    EDGE_MARGIN * s, so a factor proves lambda_min > edge: the reference
    solver's verdict.
    """
    count, n = herm.shape[0], herm.shape[-1]
    shifted = herm.copy()
    diag = shifted.reshape(count, n * n)[:, :: n + 1]  # a view
    scale = np.maximum(1.0, np.abs(diag.real).max(axis=1))
    diag -= (edge + EDGE_MARGIN * scale)[:, None]
    try:
        factor = np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:  # raised for the whole stack
        return False
    # OpenBLAS's potrf returns a NaN factor of an overflowed matrix without
    # raising
    return bool(np.isfinite(factor).all())


def min_at_least(h, edge: float, exact=min_eigenvalue,
                 what: str = "matrix is not Hermitian"):
    """Whether each matrix has no eigenvalue below `edge`.

    A bool for one matrix, a bool array for a stack.  Same Hermiticity
    check (at TOL_HERM) and symmetrization as eigh; the error message
    starts with `what`.  A stack of several matrices is first tried with
    one shifted Cholesky factorization (_certified), which can prove that
    every minimum lies above edge.  A lone matrix, a stack of one,
    and a stack the factorization cannot certify (a matrix fails to factor,
    or the factor is not finite) give decision_min(h, edge, exact, what)
    >= edge instead, so every verdict is that of `exact`.  A matrix whose
    Hermitian part is not finite (its entries overflow) gets a NaN minimum
    there, and fails.
    """
    herm = _hermitian_part(h, what)
    # one values-only solve costs about what one factorization does, so
    # only a stack of several matrices tries the certificate
    if herm.ndim == 3 and len(herm) > 1 and _certified(herm, edge):
        return np.ones(len(herm), dtype=bool)
    ok = _decided_min(herm, h, edge, exact) >= edge
    return bool(ok) if ok.ndim == 0 else ok


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
