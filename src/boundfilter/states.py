"""Bipartite quantum states and the basic tests on them.

A state on dimA x dimB uses the composite index k = i * dimB + j, so side-A
blocks of the density matrix are contiguous dimB x dimB tiles.  Density
operators validate their physical invariants on construction; anything that
wants an unchecked matrix works with raw arrays and normalizes at the end.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import (
    DimensionMismatchError,
    InvariantViolationError,
    NotPSDError,
    ParseError,
    ZeroTraceError,
)
from .formats import matrix_to_pairs, pairs_to_matrix, require_key
from .tolerances import TOL_NEG, TOL_RANK, TOL_RECON, TOL_TRACE
from .witness import TRANSPOSE_B, apply_witness


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """A validated bipartite density matrix, or a stack of them.

    mat has shape (n, n) for one state or (N, n, n) for N states on the
    same dims, n = dim_a * dim_b.  Invariants checked on construction, on
    every matrix: finite entries, Hermitian within TOL_HERM, unit trace
    within TOL_TRACE, and no eigenvalue below -TOL_NEG.  The positivity
    verdict is linalg.min_at_least's, which is eigh's; the error quotes the
    minimum of linalg.eigvalsh.  A failure raises for the first matrix that
    breaks the first failing invariant, with the same message a lone matrix
    would give.  The stored array is made read-only.
    """

    dim_a: int
    dim_b: int
    mat: np.ndarray

    def __post_init__(self):
        m = linalg.as_stack(self.mat)
        n = self.dim_a * self.dim_b
        if self.dim_a < 1 or self.dim_b < 1:
            raise InvariantViolationError(
                f"invalid local dimensions ({self.dim_a}, {self.dim_b})"
            )
        if m.shape[-2:] != (n, n):
            raise InvariantViolationError(
                f"dimension invariant failed: shape {m.shape} does not match "
                f"dim_a * dim_b = {n}"
            )
        if not np.isfinite(m).all():
            raise InvariantViolationError(
                "finiteness invariant failed: matrix has NaN or infinite "
                "entries"
            )
        # finite entries near the float limit can overflow in the solves and
        # the trace; the checks below name the fault, and numpy's warnings
        # would only repeat it
        with np.errstate(over="ignore", invalid="ignore"):
            # the verdict raises first if a matrix is not Hermitian; a lone
            # state goes to min_at_least as one (n, n) matrix
            psd = linalg.min_at_least(
                m, -TOL_NEG, what="hermiticity invariant failed"
            )
            tr = m.trace(axis1=-2, axis2=-1).real
            bad = np.abs(tr - 1.0) > TOL_TRACE
            if bad.any():
                raise InvariantViolationError(
                    f"trace invariant failed: trace = {tr[bad][0].item()!r}"
                )
            # a matrix whose Hermitian part overflowed fails too.  A lone
            # verdict is a bool, read as it is: np.all would cost each lone
            # state a reduction
            if not (psd if m.ndim == 2 else psd.all()):
                first = m.reshape(-1, n, n)[np.argmin(psd)]
                raise NotPSDError(
                    f"positivity invariant failed: min eigenvalue = "
                    f"{linalg.eigvalsh(first)[0]:.6e}"
                )
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dims(self) -> tuple:
        return (self.dim_a, self.dim_b)

    @property
    def dim(self) -> int:
        return self.dim_a * self.dim_b


@dataclass(frozen=True, eq=False)
class PureState:
    """A normalized ket on dimA x dimB, or a stack of them.

    amps has shape (n,) for one ket or (N, n) for N kets on the same dims,
    n = dim_a * dim_b; every ket must have unit norm within TOL_RECON.  A
    stack that breaks the norm invariant raises for its first offending
    ket, named by its index.  The stored array is made read-only.
    """

    dim_a: int
    dim_b: int
    amps: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amps, dtype=np.complex128)
        n = self.dim_a * self.dim_b
        if a.ndim not in (1, 2) or a.shape[-1] != n:
            raise InvariantViolationError(
                f"amplitudes have shape {a.shape}, expected ({n},) or (N, {n})"
            )
        nrm = np.linalg.norm(a, axis=-1)
        bad = ~(np.abs(nrm - 1.0) <= TOL_RECON)  # also true for NaN
        if bad.any():
            which = f"[{np.flatnonzero(bad)[0]}]" if a.ndim == 2 else ""
            raise InvariantViolationError(
                f"norm invariant failed: |psi{which}| = {nrm[bad][0].item()!r}"
            )
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @property
    def dims(self) -> tuple:
        return (self.dim_a, self.dim_b)

    def projector(self) -> DensityOperator:
        a = self.amps
        return DensityOperator(
            self.dim_a, self.dim_b, a[..., :, None] * a.conj()[..., None, :]
        )

    def coefficient_matrix(self) -> np.ndarray:
        """Amplitudes reshaped to (dim_a, dim_b): row e, column f of |ef>.

        A stack gives (N, dim_a, dim_b).
        """
        return self.amps.reshape(self.amps.shape[:-1] + (self.dim_a, self.dim_b))


def pure(amps, dim_a: int, dim_b: int, normalize_input: bool = False) -> PureState:
    """A PureState from amplitudes (n,) or a stack (N, n); normalize_input
    divides each ket by its norm first.

    Only a norm that is not positive is refused (ZeroTraceError): any
    positive norm, however small or large, divides out of each real and
    imaginary part, so a ket with one nonzero entry normalizes to exactly 1.
    A NaN norm reaches the PureState gate.
    """
    a = np.asarray(amps, dtype=np.complex128)
    if normalize_input:
        # a power of two takes each ket's largest part into [1/2, 1), so its
        # norm neither underflows nor overflows; it is exact, so a ket of
        # normal-range entries divides to the bits it gives unscaled
        top = np.maximum(abs(a.real), abs(a.imag)).max(axis=-1, keepdims=True)
        a = linalg.ldexp(a, -np.frexp(top)[1])
        nrm = np.linalg.norm(a, axis=-1, keepdims=True)
        bad = nrm <= 0.0
        if bad.any():
            raise ZeroTraceError("cannot normalize a ~zero amplitude vector")
        a = linalg.real_divide(a, nrm)
    return PureState(dim_a, dim_b, a)


def is_ppt(rho: DensityOperator):
    """Whether the transpose:B witness's output, the partial transpose on
    side B, has no eigenvalue below -TOL_NEG.

    A bool for one state, a bool array with one verdict per state for a
    stack.  A state whose partial transpose equals its matrix bit for bit
    (signed zeros included), as every rho-xt point does, takes the verdict
    the DensityOperator gate already gave those bits: True.  The others go
    to linalg.min_at_least.  Either way the verdict is eigh's.  The shortcut
    pays: without it family-scan req_per_s read 6.2% lower, in 4 of 5
    pairs (BENCH_24.json, ablation).
    """
    pt = apply_witness(TRANSPOSE_B, rho)
    # True where the gate already accepted these bits, by the same rule
    ok = (_bits(pt) == _bits(rho.mat)).all(axis=(-2, -1))
    if pt.ndim == 2:
        return True if ok else linalg.min_at_least(pt, -TOL_NEG)
    rest = ~ok
    if rest.any():
        ok[rest] = linalg.min_at_least(pt[rest], -TOL_NEG)
    return ok


def _bits(m: np.ndarray) -> np.ndarray:
    """The complex128 entries of m as pairs of uint64 words."""
    return np.ascontiguousarray(m).view(np.uint64)


def schmidt_rank(psi: PureState):
    """Number of singular values of the coefficient matrix above TOL_RANK.

    An int for one ket, an int array with one rank per ket for a stack.  A
    rank cut at 1e-12 needs the small singular values resolved to machine
    precision, which LAPACK's SVD gives (a route through the Gram matrix
    would floor them at sqrt(eps) ~ 1e-8).
    """
    sv = np.linalg.svd(psi.coefficient_matrix(), compute_uv=False)
    rank = np.count_nonzero(sv > TOL_RANK, axis=-1)
    return int(rank) if psi.amps.ndim == 1 else rank


def normalize(mat, dim_a: int, dim_b: int):
    """Turn an unnormalized PSD matrix into (DensityOperator, weight).

    weight is the trace divided out; callers use it as the filtering yield.
    A stack of matrices gives a stack of states and one weight per matrix.
    Raises ZeroTraceError for a trace that is not positive, and the
    DensityOperator gate's error (NotPSDError, ...) for anything else that
    cannot be a state: a NaN trace reaches the gate.  Any positive trace
    divides out of each real and imaginary part, so a matrix with one
    nonzero entry normalizes to exactly 1 at any positive trace, and no
    threshold here depends on the matrix's scale (a filter's yield, say).
    """
    m = linalg.as_stack(mat)
    n = dim_a * dim_b
    if m.shape[-2:] != (n, n):
        raise DimensionMismatchError(
            f"shape {m.shape} does not match dims ({dim_a}, {dim_b})"
        )
    tr = np.trace(m, axis1=-2, axis2=-1).real
    bad = tr <= 0.0
    if bad.any():
        raise ZeroTraceError(
            f"cannot normalize: trace = {tr[bad][0].item()!r}"
        )
    rho = linalg.real_divide(m, tr[..., None, None])
    return DensityOperator(dim_a, dim_b, rho), tr


# ---------------------------------------------------------------------------
# JSON exchange
# ---------------------------------------------------------------------------


def state_to_json_dict(rho: DensityOperator) -> dict:
    return {
        "dimA": rho.dim_a,
        "dimB": rho.dim_b,
        "matrix": matrix_to_pairs(rho.mat),
    }


def state_from_json_dict(obj) -> DensityOperator:
    dim_a = require_key(obj, "dimA", "state")
    dim_b = require_key(obj, "dimB", "state")
    # JSON true/false decode to bool, a subclass of int
    if not all(
        isinstance(d, int) and not isinstance(d, bool) for d in (dim_a, dim_b)
    ):
        raise ParseError("state: dimA and dimB must be integers")
    m = pairs_to_matrix(require_key(obj, "matrix", "state"), "state matrix")
    n = dim_a * dim_b
    if m.shape != (n, n):
        raise ParseError(
            f"state matrix: shape {m.shape} does not match "
            f"dimA * dimB = {n}"
        )
    return DensityOperator(dim_a, dim_b, m)
