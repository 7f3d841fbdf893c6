"""Named states and filters used throughout the examples and the checks.

The two-parameter qutrit family rho_xt(x, t) is PPT for every admissible
(x, t) yet entanglement becomes visible to the Choi-map witnesses after a
suitable diagonal filter on one side.  The tile construction gives a 3x3
bound entangled state from the complement of five product vectors.  The
filters are small, explicit, and carry their SVD from construction.
"""

import warnings

import numpy as np

from . import linalg
from .errors import BadParamError
from .filters import LocalFilter, identity_filter, make_filter
from .states import DensityOperator, PureState, pure

SQ2 = 1.0 / np.sqrt(2.0)


# family sweeps (scan, the choi-window check) evaluate their grid this many
# points at a time: big enough to amortize per-call overhead, small enough
# that peak memory does not grow with the grid
SWEEP_BLOCK = 64


def rho_xt(x, t) -> DensityOperator:
    """Two-parameter 3x3-system family, normalization 1/(4 + 3/t + 4t).

    Diagonal pattern (1+t, t, 1/t | 1/t, 1+t, t | 1, 1/t, 1) and six
    symmetric off-diagonal couplings of strength x.  Requires t > 0 and
    0 <= x <= 1; positivity additionally needs x^2 <= min(1, 1/t), which
    the DensityOperator invariants enforce.  x and t may be arrays: they
    broadcast together and give a stack with one state per (x, t) pair.
    """
    x, t = np.asarray(x), np.asarray(t)
    bad = ~np.isfinite(t) | (t <= 0)
    if bad.any():
        raise BadParamError(f"t must be positive, got {t[bad][0].item()!r}")
    bad = ~np.isfinite(x) | (x < 0) | (x > 1)
    if bad.any():
        raise BadParamError(f"x must lie in [0, 1], got {x[bad][0].item()!r}")
    x, t = np.broadcast_arrays(x.astype(float), t.astype(float))
    k = 1.0 / (4.0 + 3.0 / t + 4.0 * t)
    m = np.zeros(x.shape + (9, 9))
    diag = [1 + t, t, 1 / t, 1 / t, 1 + t, t, 1, 1 / t, 1]
    for i, d in enumerate(diag):
        m[..., i, i] = d
    for i, j in [(0, 4), (0, 8), (1, 3), (2, 6), (4, 8), (5, 7)]:
        m[..., i, j] = x
        m[..., j, i] = x
    return DensityOperator(3, 3, k[..., None, None] * m)


def tiles_vectors() -> list:
    """The five mutually orthogonal product vectors of the tile construction."""
    vecs = [
        linalg.kron([1, 0, 0], [SQ2, -SQ2, 0]),
        linalg.kron([0, 0, 1], [0, SQ2, -SQ2]),
        linalg.kron([SQ2, -SQ2, 0], [0, 0, 1]),
        linalg.kron([0, SQ2, -SQ2], [1, 0, 0]),
        linalg.kron(
            [1 / np.sqrt(3)] * 3,
            [1 / np.sqrt(3)] * 3,
        ),
    ]
    return [pure(v, 3, 3) for v in vecs]


def rho_upb() -> DensityOperator:
    """Uniform state on the 4-dim complement of the five tile vectors.

    PPT by construction yet entangled; no product vector lives in its range.
    """
    p = np.eye(9, dtype=np.complex128)
    for psi in tiles_vectors():
        p -= np.outer(psi.amps, psi.amps.conj())
    return DensityOperator(3, 3, p / 4.0)


def bell_pure() -> PureState:
    """The two-qubit state (|00> + |11>)/sqrt(2)."""
    return pure([SQ2, 0, 0, SQ2], 2, 2)


def bell_state() -> DensityOperator:
    return bell_pure().projector()


def max_mixed(dim_a: int = 3, dim_b: int = 3) -> DensityOperator:
    n = dim_a * dim_b
    return DensityOperator(dim_a, dim_b, np.eye(n) / n)


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------


def choi_example_filter() -> LocalFilter:
    """diag(1, 5/8, 5/8) on side A, identity on side B."""
    return make_filter(np.diag([1.0, 5 / 8, 5 / 8]), np.eye(3))


def upb_rotation_filter() -> LocalFilter:
    """Identity on side A, a 45-degree rotation in the 1-3 plane on side B.

    Oriented so that the filtered tile state is caught by the second Choi
    map applied to side B.
    """
    rot = np.array(
        [
            [SQ2, 0.0, -SQ2],
            [0.0, 1.0, 0.0],
            [SQ2, 0.0, SQ2],
        ]
    )
    return make_filter(np.eye(3), rot)


def gisin_filter(kappa: float) -> LocalFilter:
    """diag(kappa, 1) x diag(1, kappa) on two qubits; requires kappa in (0, 1]."""
    if not np.isfinite(kappa) or kappa <= 0 or kappa > 1:
        raise BadParamError(f"kappa must lie in (0, 1], got {kappa!r}")
    if kappa == 1.0:
        warnings.warn(
            "gisin filter with kappa = 1 is the identity", stacklevel=2
        )
    return make_filter(np.diag([kappa, 1.0]), np.diag([1.0, kappa]))


def paper_filters(kappa: float = 0.6) -> dict:
    """The named example filters, keyed by catalog label."""
    return {
        "choi-example": choi_example_filter(),
        "upb-rotation": upb_rotation_filter(),
        f"gisin({kappa:g})": gisin_filter(kappa),
    }


# ---------------------------------------------------------------------------
# catalog listing (used by the CLI export)
# ---------------------------------------------------------------------------


def catalog_entries() -> list:
    """Label, kind and default parameters of everything named above."""
    entries = [
        {"label": "rho-xt", "kind": "state", "params": {"x": 0.63, "t": 0.05}},
        {"label": "rho-upb", "kind": "state", "params": {}},
        {"label": "bell", "kind": "state", "params": {}},
        {"label": "max-mixed", "kind": "state", "params": {}},
        {"label": "choi-example", "kind": "filter", "params": {}},
        {"label": "upb-rotation", "kind": "filter", "params": {}},
        {"label": "gisin", "kind": "filter", "params": {"kappa": 0.6}},
        {"label": "identity", "kind": "filter", "params": {}},
    ]
    labels = [e["label"] for e in entries]
    assert len(labels) == len(set(labels))
    return entries


def resolve_state(label: str, **params) -> DensityOperator:
    """Build a catalog state from its label and parameters."""
    if label == "rho-xt":
        return rho_xt(params.get("x", 0.63), params.get("t", 0.05))
    if label == "rho-upb":
        return rho_upb()
    if label == "bell":
        return bell_state()
    if label == "max-mixed":
        return max_mixed()
    raise BadParamError(f"unknown catalog state '{label}'")


def resolve_filter(label: str, dims=(3, 3), **params) -> LocalFilter:
    """Build a catalog filter from its label and parameters."""
    if label == "choi-example":
        return choi_example_filter()
    if label == "upb-rotation":
        return upb_rotation_filter()
    if label == "gisin":
        return gisin_filter(params.get("kappa", 0.6))
    if label == "identity":
        return identity_filter(*dims)
    raise BadParamError(f"unknown catalog filter '{label}'")
