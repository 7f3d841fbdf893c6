"""Text and JSON encodings shared by the state/filter modules and the CLI.

Numbers destined for tables and CSV go through fmt_num: 15 significant
digits, switching to scientific notation below 1e-4 in magnitude so small
witness eigenvalues stay readable.  Matrices travel as nested [re, im]
pairs.
"""

import math

import numpy as np

from .errors import ParseError


def fmt_num(v: float) -> str:
    """Format with 15 significant digits; scientific below 1e-4.

    Either zero prints as 0.  v may be a Python or a numpy real; a Python
    float (as ndarray.tolist() gives) converts fastest.
    """
    v = float(v)
    if v == 0.0:
        return "0"
    if abs(v) < 1e-4:
        return f"{v:.14e}"
    return f"{v:.15g}"


def matrix_to_pairs(m: np.ndarray):
    """Nested-list [re, im] encoding of a complex matrix."""
    return [
        [[float(x.real), float(x.imag)] for x in row] for row in np.asarray(m)
    ]


def pairs_to_matrix(obj, what: str = "matrix") -> np.ndarray:
    """Decode the [re, im] nested-list encoding, validating shape as we go.

    Non-finite numbers (the NaN and Infinity literals Python's json module
    accepts, and integers too large for a float) and booleans (JSON
    true/false) are rejected.
    """
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{what}: expected a non-empty list of rows")
    ncols = None
    rows = []
    for r, row in enumerate(obj):
        if not isinstance(row, list):
            raise ParseError(f"{what} row {r}: expected a list")
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise ParseError(
                f"{what} row {r}: has {len(row)} entries, expected {ncols}"
            )
        vals = []
        for c, cell in enumerate(row):
            # JSON true/false decode to bool, a subclass of int
            if (
                not isinstance(cell, (list, tuple))
                or len(cell) != 2
                or not isinstance(cell[0], (int, float))
                or not isinstance(cell[1], (int, float))
                or isinstance(cell[0], bool)
                or isinstance(cell[1], bool)
            ):
                raise ParseError(
                    f"{what} row {r} col {c}: expected a [re, im] pair"
                )
            re, im = cell
            try:
                finite = math.isfinite(re) and math.isfinite(im)
            except OverflowError:  # an integer beyond float range, like 1e400
                finite = False
            if not finite:
                raise ParseError(
                    f"{what} row {r} col {c}: entry is NaN or infinite"
                )
            vals.append(complex(re, im))
        rows.append(vals)
    return np.array(rows, dtype=np.complex128)


def require_key(obj: dict, key: str, what: str = "object"):
    if not isinstance(obj, dict):
        raise ParseError(f"{what}: expected a JSON object")
    if key not in obj:
        raise ParseError(f"{what}: missing key '{key}'")
    return obj[key]
