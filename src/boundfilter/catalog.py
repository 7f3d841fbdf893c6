"""Named states and filters used throughout the examples and the checks.

The two-parameter qutrit family rho_xt(x, t) is PPT for every admissible
(x, t) yet entanglement becomes visible to the Choi-map witnesses after a
suitable diagonal filter on one side.  The tile construction gives a 3x3
bound entangled state from the complement of five product vectors.  The
filters are small, explicit, and carry their SVD from construction.

LABELS is the one table of catalog labels: kind, parameters with their
defaults, and builder.  from_label parses a label with its parameters
(rho-xt:0.63:0.05) through it, and catalog_entries lists it for export.

The builders of the labels without parameters (rho_upb, bell_state,
choi_example_filter, upb_rotation_filter, and max_mixed and
filters.identity_filter per dims) are cached: each returns one shared
object per process, built and validated on the first call.  Every array
of those objects is read-only, so no caller can change what the next one
gets.  rho_xt and gisin_filter, whose parameters rarely repeat, and JSON
files, which can change between reads, build afresh on every call.
"""

import functools
import warnings

import numpy as np

from . import linalg
from .errors import BadParamError, ParseError
from .filters import LocalFilter, identity_filter, make_filter
from .states import DensityOperator, PureState, pure

SQ2 = 1.0 / np.sqrt(2.0)


# family sweeps (scan, the choi-window check) evaluate their grid this many
# points at a time: big enough to amortize per-call overhead, small enough
# that peak memory does not grow with the grid
SWEEP_BLOCK = 64


def require_t(t) -> np.ndarray:
    """t as an array; BadParamError names its first value that is not finite
    and positive or that overflows 4 + 3/t + 4t (t > 4.49e307, < 1.67e-308)."""
    t = np.asarray(t)
    with np.errstate(over="ignore", divide="ignore"):
        norm = 4.0 + 3.0 / t + 4.0 * t
    for ok, need in (
        (np.isfinite(t), "be finite and positive"),
        (t > 0, "be positive"),
        (np.isfinite(norm), "keep 4 + 3/t + 4t finite"),
    ):
        if not ok.all():
            raise BadParamError(f"t must {need}, got {t[~ok][0].item()!r}")
    return t


def require_x(x) -> np.ndarray:
    """x as an array; BadParamError names its first value that is not finite,
    else its first value outside [0, 1]."""
    x = np.asarray(x)
    inside = (x >= 0) & (x <= 1)
    for ok, need in ((np.isfinite(x), "be finite"), (inside, "lie in [0, 1]")):
        if not ok.all():
            raise BadParamError(f"x must {need}, got {x[~ok][0].item()!r}")
    return x


def rho_xt(x, t) -> DensityOperator:
    """Two-parameter 3x3-system family, normalization 1/(4 + 3/t + 4t).

    Diagonal pattern (1+t, t, 1/t | 1/t, 1+t, t | 1, 1/t, 1) and six
    symmetric off-diagonal couplings of strength x.  Requires a t that
    require_t accepts, then an x that require_x accepts, as scan checks
    them; positivity also needs x^2 <= min(1, 1/t), which the
    DensityOperator invariants enforce.  x and t may be arrays: they
    broadcast together into a stack of one state per pair.
    """
    t, x = require_t(t), require_x(x)
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


@functools.cache
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


@functools.cache
def bell_state() -> DensityOperator:
    return bell_pure().projector()


@functools.cache
def max_mixed(dim_a: int = 3, dim_b: int = 3) -> DensityOperator:
    n = dim_a * dim_b
    return DensityOperator(dim_a, dim_b, np.eye(n) / n)


# ---------------------------------------------------------------------------
# filters
# ---------------------------------------------------------------------------


@functools.cache
def choi_example_filter() -> LocalFilter:
    """diag(1, 5/8, 5/8) on side A, identity on side B."""
    return make_filter(np.diag([1.0, 5 / 8, 5 / 8]), np.eye(3))


@functools.cache
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


# ---------------------------------------------------------------------------
# the label table (CLI arguments, export, error messages)
# ---------------------------------------------------------------------------

# label -> (kind, {parameter: default}, builder), in export order.  A builder
# takes the dims of the state a filter will act on (only identity uses them)
# and the parameters in table order.  The lambdas look their catalog function
# up when called, so a rebinding of it on this module (a tracing wrapper, a
# test double) is honoured.
LABELS = {
    "rho-xt": (
        "state", {"x": 0.63, "t": 0.05}, lambda dims, x, t: rho_xt(x, t)
    ),
    "rho-upb": ("state", {}, lambda dims: rho_upb()),
    "bell": ("state", {}, lambda dims: bell_state()),
    "max-mixed": ("state", {}, lambda dims: max_mixed()),
    "choi-example": ("filter", {}, lambda dims: choi_example_filter()),
    "upb-rotation": ("filter", {}, lambda dims: upb_rotation_filter()),
    "gisin": (
        "filter", {"kappa": 0.6}, lambda dims, kappa: gisin_filter(kappa)
    ),
    "identity": ("filter", {}, lambda dims: identity_filter(*dims)),
}


def _usage(label: str) -> str:
    return ":".join([label] + [f"<{p}>" for p in LABELS[label][1]])


def catalog_entries() -> list:
    """Label, kind and default parameters of every catalog label."""
    return [
        {"label": label, "kind": kind, "params": dict(defaults)}
        for label, (kind, defaults, _) in LABELS.items()
    ]


def from_label(kind: str, text: str, dims=(3, 3)):
    """Build the catalog state or filter (`kind`) named by `text`.

    `text` is a label, alone or followed by all of its parameters, colon
    separated (rho-xt, rho-xt:0.63:0.05, gisin:0.6); a label alone takes
    the table's defaults.  `dims` sizes the identity filter.  Raises
    ParseError for a label that is not a catalog `kind`, a wrong number of
    parameters or a parameter that is not a number.
    """
    label, *parts = text.split(":")
    entry = LABELS.get(label)
    if entry is None or entry[0] != kind:
        known = ", ".join(_usage(k) for k, e in LABELS.items() if e[0] == kind)
        raise ParseError(
            f"unknown {kind} '{text}' (try {known}, or a JSON file)"
        )
    _, defaults, builder = entry
    values = list(defaults.values())
    if parts and len(parts) != len(values):
        if not values:
            raise ParseError(f"{kind} '{label}' takes no parameters")
        count = ("one parameter", "two parameters")[len(values) - 1]
        raise ParseError(f"{label} takes {count}: {_usage(label)}")
    for i, part in enumerate(parts):
        try:
            values[i] = float(part)
        except ValueError:
            raise ParseError(
                f"{label}: cannot parse parameter {part!r}"
            ) from None
    return builder(dims, *values)
