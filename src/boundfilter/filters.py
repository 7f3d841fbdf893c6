"""Invertible local filters L (x) M and their action on states.

A filter maps rho to (L x M) rho (L x M)^dag, renormalized; the trace
before renormalization is the yield, i.e. the success probability when the
filter is realized as a local measurement.  Both factors carry their SVD
from construction since the measurement realization consumes the factors
U D V directly.
"""

from dataclasses import dataclass

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


@dataclass(frozen=True, eq=False)
class LocalFilter:
    """An invertible product operation with factors l (side A), m (side B)."""

    l: np.ndarray
    m: np.ndarray
    svd_l: linalg.SVDResult
    svd_m: linalg.SVDResult

    @property
    def dims(self) -> tuple:
        return (self.l.shape[0], self.m.shape[0])

    def product(self) -> np.ndarray:
        return np.kron(self.l, self.m)


def make_filter(l, m) -> LocalFilter:
    """Validate and package the two local factors.

    Raises BadParamError if a factor has a NaN or infinite entry, and
    SingularFilterError if either factor has a singular value at or below
    TOL_RANK: filters must be invertible so they never change the
    entanglement class of the state they act on.
    """
    lm = linalg.as_matrix(l)
    mm = linalg.as_matrix(m)
    linalg.require_square(lm, "filter factor L")
    linalg.require_square(mm, "filter factor M")
    for name, factor in (("L", lm), ("M", mm)):
        if not np.isfinite(factor).all():
            raise BadParamError(
                f"filter factor {name} has NaN or infinite entries"
            )
    svd_l = linalg.svd(lm)
    svd_m = linalg.svd(mm)
    for name, s in (("L", svd_l), ("M", svd_m)):
        if s.sigma_min <= TOL_RANK:
            raise SingularFilterError(
                f"filter factor {name} is singular "
                f"(smallest singular value {s.sigma_min:.3e})"
            )
    lm = lm.copy()
    mm = mm.copy()
    lm.setflags(write=False)
    mm.setflags(write=False)
    return LocalFilter(l=lm, m=mm, svd_l=svd_l, svd_m=svd_m)


def identity_filter(dim_a: int, dim_b: int) -> LocalFilter:
    return make_filter(np.eye(dim_a), np.eye(dim_b))


def compose(outer: LocalFilter, inner: LocalFilter) -> LocalFilter:
    """The filter acting as `inner` first, then `outer`."""
    if outer.dims != inner.dims:
        raise DimensionMismatchError(
            f"cannot compose filters of dims {outer.dims} and {inner.dims}"
        )
    return make_filter(outer.l @ inner.l, outer.m @ inner.m)


def apply_filter(f: LocalFilter, rho: DensityOperator):
    """Filter a state; returns (filtered DensityOperator, yield).

    yield = tr[(L x M) rho (L x M)^dag], the pre-normalization weight.  A
    stack of states gives a stack of filtered states and one yield each.
    """
    if f.dims != rho.dims:
        raise DimensionMismatchError(
            f"filter dims {f.dims} do not match state dims {rho.dims}"
        )
    sandwiched = linalg.sandwich(f.product(), rho.mat)
    return normalize(sandwiched, rho.dim_a, rho.dim_b)


def filtered_pure(f: LocalFilter, psi: PureState) -> PureState:
    """Filter a ket and renormalize (invertibility keeps the norm nonzero)."""
    if f.dims != psi.dims:
        raise DimensionMismatchError(
            f"filter dims {f.dims} do not match state dims {psi.dims}"
        )
    amps = f.product() @ psi.amps
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
