"""Entanglement witnesses built from positive-but-not-CP maps.

Three maps are available: two qutrit Choi-type maps (positive, not
completely positive, so applying one to a single side of an entangled state
can expose a negative eigenvalue even when the partial transpose cannot)
and the plain transpose as baseline: the transpose on side B is the PPT
test (states.is_ppt).  MAPS is the one table of them.

The Choi maps are members of the Cho-Kye-Lee family (Lin. Alg. Appl. 171,
213 (1992)), X -> (1/2) Phi[a,b,c](X) with Phi[a,b,c](X) = diag(C x) - X,
where x is the diagonal of X and C the circulant with rows (a, b, c),
(c, a, b), (b, c, a).  choi-phi is (2, 0, 1) and choi-psi (2, 1, 0).

Every map is applied through its superoperator: the d^2 x d^2 matrix S with
vec(map(X)) = S vec(X), vec flattening row by row, whose column k * d + l
is the image of the matrix unit E_kl (the Choi-Jamiolkowski picture).  It
is built once per (kind, d), and building it is the one place where a Choi
kind's dimension is checked.  A Witness is just a kind and a side: d is the
dimension of the state it is applied to on that side.  One-sided
application of a map to a bipartite state (or a stack of them) regroups
the density matrix so the acted-on side's (row, column) pair forms one
axis, multiplies by S on that axis, and undoes the regrouping.  Every
entry of a Choi map's S is (1/2)(C - I), -1/2 or 0, which for the table's
coefficients all lie in {0, +-1/2}; each output entry is then a sum of at
most two exactly halved input entries, so it is correctly rounded whatever
order the matrix product adds in.  Coefficients that leave (1/2)(C - I)
outside {0, +-1/2} lose that guarantee.

Only the filter factor on the witness's side can change a verdict.  For a
map Phi on side A and a filter L x M,
(Phi x id)((L x M) rho (L x M)^dag) = (I x M) [(Phi_L x id)(rho)] (I x M)^dag
with Phi_L(X) = Phi(L X L^dag), and likewise with the sides swapped.  I x M
is invertible, so by Sylvester's law of inertia both sides have the same
number of negative eigenvalues, and the yield is a positive scale.  The
opposite factor sets only the depth of the floor and the yield.

detect reads the negativity threshold tolerances.TOL_NEG when it is
called.
"""

import enum
import functools
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import BadParamError, DimensionMismatchError, ParseError
from .tolerances import TOL_NEG

# witness kind -> Cho-Kye-Lee coefficients (a, b, c) of the qutrit map
# (1/2) Phi[a,b,c], or None for the transpose (any dimension)
MAPS = {"choi-phi": (2, 0, 1), "choi-psi": (2, 1, 0), "transpose": None}


class Side(enum.Enum):
    A = "A"
    B = "B"


def _unknown_kind(kind: str) -> str:
    return f"unknown witness kind '{kind}' (valid: {', '.join(MAPS)})"


@dataclass(frozen=True)
class Witness:
    """A positive map (a MAPS key) applied to one side of a bipartite state.

    The map acts on whatever dimension the state has on that side;
    superoperator rejects a Choi kind on a side that is not 3-dimensional.
    """

    kind: str
    side: Side

    def __post_init__(self):
        if self.kind not in MAPS:
            raise BadParamError(_unknown_kind(self.kind))


# the partial transpose on side B, whose positivity is the PPT test
TRANSPOSE_B = Witness("transpose", Side.B)


def parse_witness_spec(text: str) -> Witness:
    """The Witness of a 'kind:side' spec."""
    parts = text.split(":")
    if len(parts) != 2:
        raise ParseError(
            f"witness spec '{text}' is not of the form <kind>:<side>"
        )
    kind, side_txt = parts
    if kind not in MAPS:
        raise ParseError(_unknown_kind(kind))
    try:
        side = Side(side_txt)
    except ValueError:
        raise ParseError(
            f"unknown side '{side_txt}' (valid: A, B)"
        ) from None
    return Witness(kind, side)


@functools.cache
def superoperator(kind: str, d: int) -> np.ndarray:
    """The d^2 x d^2 matrix of the map on d x d matrices (read-only, cached).

    Column k * d + l is the row-major flattening of the image of E_kl.
    """
    coef = MAPS[kind]
    if coef is None:
        # E_kl -> E_lk: column k * d + l holds its 1 in row l * d + k
        s = np.eye(d * d, dtype=np.complex128).reshape(d, d, d * d)
        s = s.swapaxes(0, 1).reshape(d * d, d * d)
    else:
        if d != 3:
            raise DimensionMismatchError(
                f"{kind} requires a 3-dimensional side, got local_dim={d}"
            )
        a, b, c = coef
        circ = np.array([[a, b, c], [c, a, b], [b, c, a]], dtype=float)
        # dg indexes the diagonal units E_00, E_11, E_22; every other unit
        # maps to -1/2 of itself.  The signs of the zeros count too (LAPACK's
        # Householder step reads them): halving the negated complex identity
        # gives the signs of a unit-by-unit build, and a test pins them.
        dg = [0, 4, 8]
        m = -np.eye(9, dtype=np.complex128)
        m[dg] = 0
        m[np.ix_(dg, dg)] = circ - np.eye(3)
        s = 0.5 * m
    s.setflags(write=False)
    return s


def apply_map(kind: str, x) -> np.ndarray:
    """The map applied to a d x d matrix, or to each matrix of a stack.

    The superoperator times the row-major vec of each matrix.
    """
    x = linalg.as_stack(x)
    d = linalg.require_square(x, "map argument")
    s = superoperator(kind, d)
    lead = x.shape[:-2]
    return (x.reshape(lead + (d * d,)) @ s.T).reshape(x.shape)


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


def apply_witness(w: Witness, rho) -> np.ndarray:
    """The matrix (map x id) rho or (id x map) rho, depending on side.

    rho is a states.DensityOperator; the map acts on its dimension on w's
    side.  rho may hold a stack of states; the result then has one matrix
    per state.  Not a state in general: the interesting case is exactly
    when it has a negative eigenvalue.
    """
    da, db = rho.dim_a, rho.dim_b
    s = superoperator(w.kind, da if w.side is Side.A else db)
    # rows index side A's (i, j) pair, columns side B's (k, l) pair
    r = _regroup(rho.mat, da, db, da, db)
    r = s @ r if w.side is Side.A else r @ s.T
    return _regroup(r, da, da, db, db)


@dataclass(frozen=True)
class DetectionReport:
    """Outcome of testing one witness against one state."""

    min_eigenvalue: float
    detected: bool


def detect(w: Witness, rho) -> DetectionReport:
    """Apply the witness and report whether the result dips below -TOL_NEG."""
    wmin = float(linalg.min_eigenvalue(apply_witness(w, rho)))
    return DetectionReport(min_eigenvalue=wmin, detected=wmin < -TOL_NEG)
