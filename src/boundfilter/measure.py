"""Measurement-based realization of diagonal filters.

A diagonal filter D = diag(d), 0 < d_j <= 1, is implemented by attaching a
qubit ancilla in |0> and measuring the doubled-dimension projector

    P = [[D, Delta], [Delta, I - D]],   Delta = sqrt(D (I - D)),

whose blocks are ordered ancilla-first: coordinates [0, n) are ancilla |0>,
[n, 2n) are ancilla |1>.  Sandwiching |0><0| x rho with P and postselecting
the ancilla on |0> leaves D rho D up to normalization; the success
probability is tr(D rho D).  A general invertible filter L = U D V runs V
first, then the rescaled diagonal measurement with d = diag(D)/sigma_max,
then U, so the whole protocol implements L/sigma_max.

protocol_walk is the one walk through that protocol, in one step order:
Alice's projector and ancilla readout, then Bob's.  It returns the output
state and the cumulative weight after each of the four outcomes.  The two
postselections commute, so Bob first would give the same state and total
probability; tests/oracles.ancilla_protocol checks that independently.
The projector outcome weighs tr(P (|0><0| x rho) P) = tr(D rho), since
D^2 + Delta^2 = D, and the readout tr(D rho D), so the walk never builds
the doubled space; build_projector and postselect_diag keep it explicit
for the checks.  protocol_analytic keeps the last weight, the total
success probability; the simulator divides successive weights into
conditional branch probabilities.

The explicit functions take stacks as the rest of the package does: an
(N, n) array is N diagonals, paired with an (N, n, n) stack of states.
Each member comes out bit for bit as it would alone, and an error names
the first offending member; the checks evaluate their cases that way,
one stack per size.
"""

import numpy as np

from . import linalg
from .errors import BadDiagonalError, DimensionMismatchError, NotPSDError
from .filters import LocalFilter, check_compatible
from .states import DensityOperator, normalize
from .tolerances import TOL_NEG


def _entry(bad) -> str:
    """Where the first True of bad lies: "entry j" for one diagonal,
    "k entry j" (diagonal k) for a stack."""
    idx = np.argwhere(bad)[0]
    return f"entry {idx[0]}" if bad.ndim == 1 else f"{idx[0]} entry {idx[1]}"


def _check_diag(d) -> np.ndarray:
    """d as float64: (n,) for one diagonal, (N, n) for a stack of N.

    Every entry must be real and in (0, 1].  A failure names the first
    offending entry, row by row for a stack.
    """
    d = np.atleast_1d(np.asarray(d))
    if d.ndim > 2:
        raise DimensionMismatchError(
            f"expected a diagonal or a stack of diagonals, got ndim={d.ndim}"
        )
    if d.size == 0:
        raise BadDiagonalError("empty diagonal")
    if np.iscomplexobj(d):
        bad = d.imag != 0.0
        if bad.any():
            raise BadDiagonalError(
                f"diagonal {_entry(bad)} = {d[bad][0].item()!r} is not real"
            )
        d = d.real
    d = np.asarray(d, dtype=np.float64)
    # NaN fails both comparisons
    bad = ~((d > 0.0) & (d <= 1.0))
    if bad.any():
        raise BadDiagonalError(
            f"diagonal {_entry(bad)} = {d[bad][0].item()!r} is outside (0, 1]"
        )
    return d


def build_projector(d) -> np.ndarray:
    """The 2n x 2n projector P = [[D, Delta], [Delta, I - D]] for d in
    (0, 1]^n.

    A 2-d d is a stack of N diagonals and gives an (N, 2n, 2n) stack.
    """
    d = _check_diag(d)
    n = d.shape[-1]
    j = np.arange(n)
    delta = np.sqrt(d * (1.0 - d))
    p = np.zeros(d.shape[:-1] + (2 * n, 2 * n))
    p[..., j, j] = d
    p[..., j, n + j] = delta
    p[..., n + j, j] = delta
    p[..., n + j, n + j] = 1.0 - d
    return p


def rank_one_projectors(d) -> list:
    """P as a sum of rank-one projectors, one per diagonal entry.

    Term j is the projector onto sqrt(d_j)|0, j> + sqrt(1 - d_j)|1, j>;
    the terms are mutually orthogonal and sum to the block matrix of
    build_projector.  For a stack of diagonals, term j is the (N, 2n, 2n)
    stack of each diagonal's term j.
    """
    d = _check_diag(d)
    n = d.shape[-1]
    out = []
    for j in range(n):
        vec = np.zeros(d.shape[:-1] + (2 * n,))
        vec[..., j] = np.sqrt(d[..., j])
        vec[..., n + j] = np.sqrt(1.0 - d[..., j])
        out.append(vec[..., :, None] * vec[..., None, :])
    return out


def embed_with_ancilla(rho: np.ndarray) -> np.ndarray:
    """|0><0| x rho on the doubled space (ancilla coordinates first), for
    one matrix or each matrix of a stack."""
    rho = linalg.as_stack(rho)
    n = linalg.require_square(rho, "state to embed")
    out = np.zeros(rho.shape[:-2] + (2 * n, 2 * n), dtype=np.complex128)
    out[..., :n, :n] = rho
    return out


def postselect_intermediate(d, rho: np.ndarray) -> np.ndarray:
    """The full 2n x 2n matrix P (|0><0| x rho) P before postselection.

    Debug accessor: the four n x n blocks are D rho D, D rho Delta,
    Delta rho D and Delta rho Delta.  A stack of N diagonals takes a stack
    of N states, one per diagonal.
    """
    p = build_projector(d)
    n = p.shape[-1] // 2
    rho = linalg.as_stack(rho)
    if rho.shape != p.shape[:-2] + (n, n):
        want = (
            f"diagonal length {n}" if p.ndim == 2
            else f"diagonal stack shape {p.shape[:-2] + (n,)}"
        )
        raise DimensionMismatchError(
            f"state shape {rho.shape} does not match {want}"
        )
    return linalg.sandwich(p, embed_with_ancilla(rho))


def postselect_diag(d, rho: np.ndarray):
    """Measure the projector and keep the ancilla-|0> outcome.

    Returns (unnormalized post-measurement block, success probability).
    The block equals D rho D; the probability is its trace.  Input must be
    PSD Hermitian (a bare matrix, not necessarily unit trace), by
    linalg.min_at_least's verdict against -TOL_NEG: raises
    NotHermitianError or NotPSDError otherwise, also for a matrix whose
    minimum is NaN (NaN entries, or entries that overflow).  The error
    quotes the minimum of linalg.eigvalsh.

    A stack of N diagonals with a stack of N matrices gives an (N, n, n)
    block and an (N,) probability array, each member bit for bit as it
    would come alone; one min_at_least call gates the whole stack, and a
    NotPSDError names the first matrix that fails.
    """
    rho = linalg.as_stack(rho)
    n = linalg.require_square(rho, "postselection input")
    # an overflowing matrix fails with the error alone, without numpy's
    # warnings
    with np.errstate(over="ignore", invalid="ignore"):
        ok = linalg.min_at_least(
            rho, -TOL_NEG, what="postselection input not Hermitian"
        )
        if not np.all(ok):
            k = np.argmin(ok)
            which = f" {k}" if rho.ndim == 3 else ""
            raise NotPSDError(
                f"postselection input{which} not PSD: min eigenvalue "
                f"{linalg.eigvalsh(rho.reshape(-1, n, n)[k])[0]:.6e}"
            )
    block = postselect_intermediate(d, rho)[..., :n, :n]
    prob = np.trace(block, axis1=-2, axis2=-1).real
    return block, (float(prob) if prob.ndim == 0 else prob)


def rescaled_diag(svdres: linalg.SVDResult) -> np.ndarray:
    """Singular values scaled into (0, 1] by sigma_max: (n,), or (N, n) for
    a stacked SVD.  A LocalFilter factor's sigma_max is positive."""
    return svdres.d / svdres.d[..., :1]


def protocol_walk(f: LocalFilter, rho: DensityOperator):
    """Walk the three-step measurement protocol in closed form.

    Steps: local unitaries V1 x V2 from the filter SVDs, Alice's diagonal
    postselection with rescaled singular values (a projector outcome, then
    an ancilla readout), then Bob's, then local unitaries U1 x U2.  Returns
    (output DensityOperator, weights), where weights[..., k] is the
    probability that outcomes 0..k all pass, in that step order.  The
    output equals the filtered state and the last weight is yield /
    (sigma_max(L) sigma_max(M))^2.  A stack of states or of filters gives
    a stack of outputs and (N, 4) weights.

    A diagonal step multiplies the rows, then the columns, by the diagonal
    of diag(d1) x I or I x diag(d2), without forming that n x n matrix.
    Each nonzero entry is the one nonzero product of the matmul by the
    diagonal matrix, rounded once.  A zero entry can differ from the
    matmul's only in its sign, where d times a negative subnormal
    underflows: the matmul's sign there depends on whether BLAS fuses the
    multiply-add.  A signed zero cannot change a nonzero trace, and the
    matmul by U1 x U2, whose sums start at 0.0, drops it, so the output
    state and weights are the matmul walk's bit for bit
    (tests/oracles.protocol_walk_matmul keeps that walk).
    """
    check_compatible(f, rho)
    da, db = rho.dims
    d1, d2 = rescaled_diag(f.svd_l), rescaled_diag(f.svd_m)
    state = linalg.sandwich(linalg.kron(f.svd_l.v, f.svd_m.v), rho.mat)
    weights = np.empty(state.shape[:-2] + (4,))
    # the diagonals of diag(d1) x I and I x diag(d2), for each d of a stack
    for k, d in enumerate(
        (np.repeat(d1, db, axis=-1), np.concatenate((d2,) * da, axis=-1))
    ):
        state = state * d[..., :, None]
        weights[..., 2 * k] = state.trace(axis1=-2, axis2=-1).real
        state = state * d[..., None, :]
        weights[..., 2 * k + 1] = state.trace(axis1=-2, axis2=-1).real
    state = linalg.sandwich(linalg.kron(f.svd_l.u, f.svd_m.u), state)
    out, _ = normalize(state, da, db)
    return out, weights


def protocol_analytic(f: LocalFilter, rho: DensityOperator):
    """The protocol's output state and total success probability.

    Returns (output DensityOperator, last weight of protocol_walk); for a
    stack the probability is a float array, for one state a float.
    """
    out, weights = protocol_walk(f, rho)
    prob = weights[..., -1]
    return out, (float(prob) if prob.ndim == 0 else prob)
