"""Invertible local filters L (x) M and their action on states.

A filter maps rho to (L x M) rho (L x M)^dag, renormalized; the trace
before renormalization is the yield, i.e. the success probability when the
filter is realized as a local measurement.  c L x M is therefore the same
filter for every c > 0, with c^2 times the yield: scale is not a property
of a filter.  So invertibility is decided relative to each factor's
largest singular value, in make_filter alone: no rule downstream reads a
filter's scale, and normalization refuses only a trace or norm that is not
positive.  The filter's one prescale (LocalFilter) keeps every filtered
state, ket and yield exact at any scale.  Both factors carry their SVD
from construction since the measurement realization consumes the factors
U D V directly.  A LocalFilter holds one filter or a stack of N filters;
a stack acts on a stack of N states (or kets) one to one, and on a single
state as N different filterings of it.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

from . import linalg
from .errors import (
    BadParamError,
    DimensionMismatchError,
    ParseError,
    SingularFilterError,
)
from .formats import matrix_to_pairs, pairs_to_matrix, require_key
from .states import DensityOperator, PureState, normalize, pure
from .tolerances import TOL_RANK

# largest accepted spectral norm of L (x) M: its square is the float maximum
NORM_LIMIT = float(np.sqrt(np.finfo(np.float64).max))


@dataclass(frozen=True, eq=False)
class LocalFilter:
    """An invertible product operation with factors l (side A), m (side B).

    l and m have shapes (dA, dA) and (dB, dB) for one filter, or (N, dA, dA)
    and (N, dB, dB) for a stack; svd_l, svd_m and product() follow the same
    leading axis.  Build one with make_filter, which validates the factors.

    product() is the prescaled Kronecker product 2^-k (L x M), formed once
    at construction: L and M are each scaled by the power of two that
    brings their sigma_max into [1, 2), and k is the sum of those two
    exponents (one per member of a stack).  A power of two is exact, so in
    normal range every filtered state and ket is the unscaled product's
    bit for bit; apply_filter scales only the yield back, by 2^2k.  The
    prescale's one job is that exactness, at any scale: no threshold
    downstream depends on it.  Every catalog filter has sigma_max = 1 on
    both sides, so k = 0.
    """

    l: np.ndarray
    m: np.ndarray
    svd_l: linalg.SVDResult
    svd_m: linalg.SVDResult
    _prod: np.ndarray = field(init=False, repr=False)
    _exp: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        # sigma_max = f 2^(e + 1) with f in [0.5, 1): 2^-e takes it to
        # [1, 2).  e has shape (..., 1, 1), one exponent per matrix
        el = np.frexp(self.svd_l.d[..., :1, None])[1] - 1
        em = np.frexp(self.svd_m.d[..., :1, None])[1] - 1
        prod = linalg.kron(
            linalg.ldexp(self.l, -el), linalg.ldexp(self.m, -em)
        )
        prod.setflags(write=False)
        object.__setattr__(self, "_prod", prod)
        object.__setattr__(self, "_exp", (el + em)[..., 0, 0])

    @property
    def dims(self) -> tuple:
        return (self.l.shape[-1], self.m.shape[-1])

    def product(self) -> np.ndarray:
        """The prescaled, read-only 2^-k (L x M): the filter, not its
        yield."""
        return self._prod


def _readonly(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.setflags(write=False)
    return a


def make_filter(l, m) -> LocalFilter:
    """Validate and package the two local factors.

    l and m are single square matrices, or stacks of N each.  Raises
    BadParamError if a factor has a NaN or infinite entry, BadParamError if
    sigma_max(L) sigma_max(M) exceeds NORM_LIMIT, so that a yield cannot
    overflow, and SingularFilterError if a factor's smallest singular value
    is at or below TOL_RANK times its largest: filters must be invertible so
    they never change the entanglement class of the state they act on.
    The rule is relative, so c L passes it exactly when L does, for every
    c > 0.  In a stack the first offending factor is named by its index,
    e.g. L[3].

    Accuracy: apply_filter forms the sandwich P rho P^dag of a dense factor
    as it stands, so its Hermiticity defect and negative eigenvalues are
    about 0.1 eps cond^2 of the trace, cond = sigma_max / sigma_min.  On a
    state along the weak axis of a randomly rotated diag(1, 1e-5, 1), that
    fails the state gate's TOL_HERM, although the rule above accepts the
    factor.  A diagonal factor multiplies entrywise and stays exact at any
    condition number the rule accepts.
    """
    lm = linalg.as_stack(l)
    mm = linalg.as_stack(m)
    linalg.require_square(lm, "filter factor L")
    linalg.require_square(mm, "filter factor M")
    if lm.shape[:-2] != mm.shape[:-2]:
        raise DimensionMismatchError(
            f"filter factors must both be single matrices or stacks of one "
            f"length, got shapes {lm.shape} and {mm.shape}"
        )

    def name(side, bad):
        return f"{side}[{np.flatnonzero(bad)[0]}]" if lm.ndim == 3 else side

    for side, factor in (("L", lm), ("M", mm)):
        bad = ~np.isfinite(factor).all(axis=(-2, -1))
        if bad.any():
            raise BadParamError(
                f"filter factor {name(side, bad)} has NaN or infinite entries"
            )
    svd_l, svd_m = linalg.svd(lm), linalg.svd(mm)
    # sigma_max(L) sigma_max(M) is the spectral norm of L (x) M; at most
    # NORM_LIMIT, the yield of a unit-trace state cannot overflow.  Checked
    # first, it leaves both sigma_max finite for the relative rule below
    with np.errstate(over="ignore"):
        norm = svd_l.sigma_max * svd_m.sigma_max
    bad = ~(norm <= NORM_LIMIT)  # also true for NaN
    if bad.any():
        raise BadParamError(
            f"filter factors {name('L', bad)} and {name('M', bad)} are too "
            f"large: sigma_max(L) * sigma_max(M) = "
            f"{float(np.asarray(norm)[bad][0])} exceeds {NORM_LIMIT}"
        )
    for side, s in (("L", svd_l), ("M", svd_m)):
        # by multiplication, not a ratio: an all-zero factor divides nothing
        bad = s.sigma_min <= TOL_RANK * s.sigma_max
        if bad.any():
            raise SingularFilterError(
                f"filter factor {name(side, bad)} is singular (smallest "
                f"singular value {np.asarray(s.sigma_min)[bad][0]:.3e})"
            )
    return LocalFilter(
        l=_readonly(lm), m=_readonly(mm), svd_l=svd_l, svd_m=svd_m
    )


@functools.cache
def identity_filter(dim_a: int, dim_b: int) -> LocalFilter:
    """I x I on dim_a x dim_b: one shared, read-only filter per dims."""
    return make_filter(np.eye(dim_a), np.eye(dim_b))


def check_compatible(f: LocalFilter, state) -> None:
    """Raise DimensionMismatchError unless f can act on state.

    state is a DensityOperator or a PureState.  The local dims must match,
    and a stack of filters meets either a single state or a stack of the
    same length.
    """
    if f.dims != state.dims:
        raise DimensionMismatchError(
            f"filter dims {f.dims} do not match state dims {state.dims}"
        )
    if isinstance(state, PureState):
        n_states = state.amps.shape[:-1]
    else:
        n_states = state.mat.shape[:-2]
    n_filters = f.l.shape[:-2]
    if n_filters and n_states and n_filters != n_states:
        raise DimensionMismatchError(
            f"a stack of {n_filters[0]} filters cannot act on a stack of "
            f"{n_states[0]} states"
        )


def apply_filter(f: LocalFilter, rho: DensityOperator):
    """Filter a state; returns (filtered DensityOperator, yield).

    yield = tr[(L x M) rho (L x M)^dag], the pre-normalization weight,
    2^2k times the trace of the prescaled product's sandwich (LocalFilter).
    A stack of states or of filters gives a stack of filtered states and one
    yield each.
    """
    check_compatible(f, rho)
    out, tr = normalize(linalg.sandwich(f.product(), rho.mat), *rho.dims)
    return out, np.ldexp(tr, 2 * f._exp)


def filtered_pure(f: LocalFilter, psi: PureState) -> PureState:
    """Filter a ket and renormalize (invertibility keeps the norm positive,
    and the prescaled product keeps the ket exact at any filter scale).

    A stack of kets or of filters gives a stack of filtered kets.
    """
    check_compatible(f, psi)
    amps = (f.product() @ psi.amps[..., None])[..., 0]
    return pure(amps, psi.dim_a, psi.dim_b, normalize_input=True)


# ---------------------------------------------------------------------------
# JSON exchange
# ---------------------------------------------------------------------------


def filter_to_json_dict(f: LocalFilter) -> dict:
    return {"L": matrix_to_pairs(f.l), "M": matrix_to_pairs(f.m)}


def filter_from_json_dict(obj) -> LocalFilter:
    l = pairs_to_matrix(require_key(obj, "L", "filter"), "filter L")
    m = pairs_to_matrix(require_key(obj, "M", "filter"), "filter M")
    if l.shape[0] != l.shape[1] or m.shape[0] != m.shape[1]:
        raise ParseError(
            f"filter factors must be square, got {l.shape} and {m.shape}"
        )
    return make_filter(l, m)
