"""Entanglement witnesses built from positive-but-not-CP maps.

Three maps are available: two qutrit Choi-type maps (positive, not
completely positive, so applying one to a single side of an entangled state
can expose a negative eigenvalue even when the partial transpose cannot)
and the plain transpose as baseline.  choi_phi / choi_psi define the maps.

Every map is applied through its superoperator: the d^2 x d^2 matrix S with
vec(map(X)) = S vec(X), vec flattening row by row, whose column k * d + l
is the image of the matrix unit E_kl (the Choi-Jamiolkowski picture).  It
is built once per (kind, d).  One-sided application of a map to a
bipartite state (or a stack of them) regroups the density matrix so the
acted-on side's (row, column) pair forms one axis, multiplies by S on that
axis, and undoes the regrouping.  Each output entry of a Choi map is a sum
of at most two exactly halved input entries, so it is correctly rounded
whatever order the matrix product adds in.
"""

import enum
import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadParamError, DimensionMismatchError, ParseError
from .formats import fmt_num
from .states import DensityOperator
from .tolerances import TOL_NEG


class WitnessKind(enum.Enum):
    CHOI_PHI = "choi-phi"
    CHOI_PSI = "choi-psi"
    TRANSPOSE = "transpose"


class Side(enum.Enum):
    A = "A"
    B = "B"


def choi_phi(a: np.ndarray) -> np.ndarray:
    """First Choi-type map on a 3x3 matrix.

    Diagonal of the output mixes in the cyclically previous diagonal entry
    (pattern a11+a33, a22+a11, a33+a22); off-diagonal entries are negated.
    Overall factor 1/2 makes the map trace preserving.
    """
    a = linalg.as_matrix(a)
    if a.shape != (3, 3):
        raise DimensionMismatchError(
            f"Choi maps act on 3x3 matrices, got {a.shape}"
        )
    return 0.5 * np.array(
        [
            [a[0, 0] + a[2, 2], -a[0, 1], -a[0, 2]],
            [-a[1, 0], a[1, 1] + a[0, 0], -a[1, 2]],
            [-a[2, 0], -a[2, 1], a[2, 2] + a[1, 1]],
        ]
    )


def choi_psi(a: np.ndarray) -> np.ndarray:
    """Second Choi-type map: mixes in the cyclically next diagonal entry
    (pattern a11+a22, a22+a33, a33+a11), off-diagonals negated, factor 1/2.
    """
    a = linalg.as_matrix(a)
    if a.shape != (3, 3):
        raise DimensionMismatchError(
            f"Choi maps act on 3x3 matrices, got {a.shape}"
        )
    return 0.5 * np.array(
        [
            [a[0, 0] + a[1, 1], -a[0, 1], -a[0, 2]],
            [-a[1, 0], a[1, 1] + a[2, 2], -a[1, 2]],
            [-a[2, 0], -a[2, 1], a[2, 2] + a[0, 0]],
        ]
    )


def _transpose_map(a: np.ndarray) -> np.ndarray:
    return np.asarray(a).T


_MAP_FUNCS = {
    WitnessKind.CHOI_PHI: choi_phi,
    WitnessKind.CHOI_PSI: choi_psi,
    WitnessKind.TRANSPOSE: _transpose_map,
}


@dataclass(frozen=True)
class Witness:
    """A positive map applied to one side of a bipartite state.

    local_dim is the dimension of the acted-on side; the Choi kinds require
    it to be 3.
    """

    kind: WitnessKind
    side: Side
    local_dim: int

    def __post_init__(self):
        if self.local_dim < 1:
            raise BadParamError(f"invalid local_dim {self.local_dim}")
        if self.kind in (WitnessKind.CHOI_PHI, WitnessKind.CHOI_PSI):
            if self.local_dim != 3:
                raise BadParamError(
                    f"{self.kind.value} requires a 3-dimensional side, "
                    f"got local_dim={self.local_dim}"
                )

    @property
    def label(self) -> str:
        return f"{self.kind.value}:{self.side.value}"


def parse_witness_spec(text: str) -> tuple:
    """Split 'kind:side' into (WitnessKind, Side); dims resolve later."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ParseError(
            f"witness spec '{text}' is not of the form <kind>:<side>"
        )
    kind_txt, side_txt = parts
    try:
        kind = WitnessKind(kind_txt)
    except ValueError:
        valid = ", ".join(k.value for k in WitnessKind)
        raise ParseError(
            f"unknown witness kind '{kind_txt}' (valid: {valid})"
        ) from None
    try:
        side = Side(side_txt)
    except ValueError:
        raise ParseError(
            f"unknown side '{side_txt}' (valid: A, B)"
        ) from None
    return kind, side


def witness_for_state(kind: WitnessKind, side: Side, rho: DensityOperator) -> Witness:
    dim = rho.dim_a if side is Side.A else rho.dim_b
    return Witness(kind=kind, side=side, local_dim=dim)


@functools.cache
def superoperator(kind: WitnessKind, d: int) -> np.ndarray:
    """The d^2 x d^2 matrix of the map on d x d matrices (read-only, cached).

    Column k * d + l is the row-major flattening of the image of E_kl.
    """
    mapf = _MAP_FUNCS[kind]
    s = np.empty((d * d, d * d), dtype=np.complex128)
    for k in range(d * d):
        unit = np.zeros(d * d, dtype=np.complex128)
        unit[k] = 1.0
        s[:, k] = mapf(unit.reshape(d, d)).reshape(-1)
    s.setflags(write=False)
    return s


def _regroup(m: np.ndarray, d1: int, d2: int, e1: int, e2: int) -> np.ndarray:
    """View each matrix of m with axes (d1, d2, e1, e2), swap the middle two
    and merge to (d1 * e1, d2 * e2).

    With (da, db, da, db) this regroups a bipartite matrix from rows (i, k)
    and columns (j, l) to rows (i, j) and columns (k, l), i, j on side A and
    k, l on side B; (da, da, db, db) undoes it.
    """
    lead = m.shape[:-2]
    r = np.swapaxes(m.reshape(lead + (d1, d2, e1, e2)), -3, -2)
    return r.reshape(lead + (d1 * e1, d2 * e2))


def apply_witness(w: Witness, rho: DensityOperator) -> np.ndarray:
    """The matrix (map x id) rho or (id x map) rho, depending on side.

    rho may hold a stack of states; the result then has one matrix per
    state.  Not a state in general: the interesting case is exactly when it
    has a negative eigenvalue.
    """
    da, db = rho.dim_a, rho.dim_b
    target = da if w.side is Side.A else db
    if target != w.local_dim:
        raise DimensionMismatchError(
            f"witness expects local dim {w.local_dim} on side "
            f"{w.side.value}, state has {target}"
        )
    s = superoperator(w.kind, w.local_dim)
    # rows index side A's (i, j) pair, columns side B's (k, l) pair
    r = _regroup(rho.mat, da, db, da, db)
    r = s @ r if w.side is Side.A else r @ s.T
    return _regroup(r, da, da, db, db)


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of testing one witness against one state."""

    state_label: str
    kind: WitnessKind
    side: Side
    min_eigenvalue: float
    detected: bool

    @property
    def witness_label(self) -> str:
        return f"{self.kind.value}:{self.side.value}"

    def csv_row(self) -> str:
        return ",".join(
            [
                self.state_label,
                self.kind.value,
                self.side.value,
                fmt_num(self.min_eigenvalue),
                "true" if self.detected else "false",
            ]
        )


CSV_HEADER = "label,kind,side,min_eigenvalue,detected"


def detect(
    w: Witness,
    rho: DensityOperator,
    state_label: str = "state",
    tol_neg: float = TOL_NEG,
) -> DetectionReport:
    """Apply the witness and report whether the result dips below -tol_neg."""
    wmin = float(linalg.min_eigenvalue(apply_witness(w, rho)))
    return DetectionReport(
        state_label=state_label,
        kind=w.kind,
        side=w.side,
        min_eigenvalue=wmin,
        detected=wmin < -tol_neg,
    )
