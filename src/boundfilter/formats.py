"""Text and JSON encodings shared by the state/filter modules and the CLI.

Numbers destined for tables and CSV go through fmt_num: 15 significant
digits, switching to scientific notation below 1e-4 in magnitude so small
witness eigenvalues stay readable.  Matrices travel as nested [re, im]
pairs.  pairs_to_matrix is their one decoder: a single walk checks each
row and cell in turn, so the first bad one words the error, and collects
the float pairs whose bytes become the complex matrix.

The CLI prints its JSON through dumps.  On Python 3.10 and 3.11,
json.dumps(obj, indent=2) cannot use the C encoder and falls back to the
generator-based pure-Python one: for the 9x9 state that `simulate
--analytic` prints, about 0.3 ms of a 1.5-2 ms request on a 2-CPU x86-64
host, against about 0.12 ms for dumps.  dumps returns exactly the text
of json.dumps(obj, indent=2) for the types the CLI prints: dicts with str
keys, lists and tuples, str, int (bool included), float (subclasses such
as np.float64 included, NaN and +-Infinity spelled as json spells them)
and None.  Any other type, or a non-str key, raises TypeError.
"""

import math
from json.encoder import encode_basestring_ascii

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
    # tolist() converts every entry to a Python complex in one call, bit
    # for bit, which is faster than reading numpy scalars one at a time
    return [
        [[z.real, z.imag] for z in row]
        for row in np.asarray(m, dtype=np.complex128).tolist()
    ]


def _float_text(v: float) -> str:
    """json's spelling of a float, non-finite values included."""
    if v != v:
        return "NaN"
    if v == math.inf:
        return "Infinity"
    if v == -math.inf:
        return "-Infinity"
    return float.__repr__(v)


def _encode(o, nl: str) -> str:
    """o as json.dumps(o, indent=2) writes it at the indent that ends nl."""
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = nl + "  "
        sep = "," + inner
        try:
            # a list of floats in one join: float.__repr__ rejects any
            # other item
            body = sep.join(map(float.__repr__, o))
        except TypeError:
            body = None
        # nan and inf are the only float reprs with an n; json spells them
        # NaN and Infinity
        if body is None or "n" in body:
            body = sep.join([_encode(x, inner) for x in o])
        return "[" + inner + body + nl + "]"
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = nl + "  "
        items = []
        for k, v in o.items():
            if not isinstance(k, str):
                raise TypeError(
                    f"keys must be str, not {type(k).__name__}"
                )
            items.append(encode_basestring_ascii(k) + ": " + _encode(v, inner))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    if o is None:
        return "null"
    # bool is a subclass of int, so it is tested first, as json does
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        return _float_text(o)
    raise TypeError(
        f"Object of type {type(o).__name__} is not JSON serializable"
    )


def dumps(obj) -> str:
    """json.dumps(obj, indent=2), byte for byte, for the types the CLI
    prints; TypeError for any other type or a non-str dict key.

    It pays: with json.dumps(obj, indent=2) in its place, protocol-mix
    latency_tail_ms read 15% higher and req_per_s 8.3% lower, in 5 of 5
    pairs (BENCH_24.json, ablation).
    """
    return _encode(obj, "\n")


def pairs_to_matrix(obj, what: str = "matrix") -> np.ndarray:
    """Decode the [re, im] nested-list encoding in one walk that checks each
    row and cell in turn and raises ParseError for the first bad one.

    Rows must be lists of one length and cells lists or tuples of two ints
    or floats.  Non-finite numbers (the NaN and Infinity literals Python's
    json module accepts, and integers too large for a float) and booleans
    (JSON true/false) are rejected.
    """
    if not isinstance(obj, list) or not obj:
        raise ParseError(f"{what}: expected a non-empty list of rows")
    ncols = None
    nums = []
    for r, row in enumerate(obj):
        if not isinstance(row, list):
            raise ParseError(f"{what} row {r}: expected a list")
        if ncols is None:
            ncols = len(row)
        elif len(row) != ncols:
            raise ParseError(
                f"{what} row {r}: has {len(row)} entries, expected {ncols}"
            )
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
            nums += (float(re), float(im))
    # the (re, im) float pairs are the complex entries' own bytes, -0.0
    # included
    return np.array(nums, dtype=np.float64).view(np.complex128).reshape(
        len(obj), -1
    )


def require_key(obj: dict, key: str, what: str = "object"):
    if not isinstance(obj, dict):
        raise ParseError(f"{what}: expected a JSON object")
    if key not in obj:
        raise ParseError(f"{what}: missing key '{key}'")
    return obj[key]
