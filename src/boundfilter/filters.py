"""Invertible local filters L (x) M and their action on states.

A filter maps rho to (L x M) rho (L x M)^dag, renormalized; the trace
before renormalization is the yield, i.e. the success probability when the
filter is realized as a local measurement.  Both factors carry their SVD
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
    and (N, dB, dB) for a stack; svd_l, svd_m and product() (the Kronecker
    product L x M, formed once at construction) follow the same leading
    axis.  Build one with make_filter, which validates the factors.
    """

    l: np.ndarray
    m: np.ndarray
    svd_l: linalg.SVDResult
    svd_m: linalg.SVDResult
    _prod: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        prod = linalg.kron(self.l, self.m)
        prod.setflags(write=False)
        object.__setattr__(self, "_prod", prod)

    @property
    def dims(self) -> tuple:
        return (self.l.shape[-1], self.m.shape[-1])

    def product(self) -> np.ndarray:
        return self._prod


def _readonly(a: np.ndarray) -> np.ndarray:
    a = a.copy()
    a.setflags(write=False)
    return a


def make_filter(l, m) -> LocalFilter:
    """Validate and package the two local factors.

    l and m are single square matrices, or stacks of N each.  Raises
    BadParamError if a factor has a NaN or infinite entry,
    SingularFilterError if a factor has a singular value at or below
    TOL_RANK: filters must be invertible so they never change the
    entanglement class of the state they act on, and BadParamError if
    sigma_max(L) sigma_max(M) exceeds NORM_LIMIT, so that filtering a state
    cannot overflow.  In a stack the first offending factor is named by its
    index, e.g. L[3].
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
    svd_l = linalg.svd(lm)
    svd_m = linalg.svd(mm)
    for side, s in (("L", svd_l), ("M", svd_m)):
        smin = s.sigma_min
        bad = smin <= TOL_RANK
        if bad.any():
            raise SingularFilterError(
                f"filter factor {name(side, bad)} is singular "
                f"(smallest singular value {np.asarray(smin)[bad][0]:.3e})"
            )
    # sigma_max(L) sigma_max(M) is the spectral norm of L (x) M; at most
    # NORM_LIMIT, no entry or trace of a filtered unit-trace state overflows
    with np.errstate(over="ignore"):
        norm = svd_l.sigma_max * svd_m.sigma_max
    bad = ~(norm <= NORM_LIMIT)  # also true for NaN
    if bad.any():
        raise BadParamError(
            f"filter factors {name('L', bad)} and {name('M', bad)} are too "
            f"large: sigma_max(L) * sigma_max(M) = "
            f"{float(np.asarray(norm)[bad][0])} exceeds {NORM_LIMIT}"
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

    yield = tr[(L x M) rho (L x M)^dag], the pre-normalization weight.  A
    stack of states or of filters gives a stack of filtered states and one
    yield each.
    """
    check_compatible(f, rho)
    sandwiched = linalg.sandwich(f.product(), rho.mat)
    return normalize(sandwiched, rho.dim_a, rho.dim_b)


def filtered_pure(f: LocalFilter, psi: PureState) -> PureState:
    """Filter a ket and renormalize (invertibility keeps the norm nonzero).

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
