import json
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boundfilter.errors import ParseError
from boundfilter.formats import dumps, matrix_to_pairs, pairs_to_matrix

from .oracles import pairs_to_matrix_loop

SPECIAL_FLOATS = [
    0.0, -0.0, float("nan"), float("inf"), float("-inf"),
    5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
    sys.float_info.max, 1e16, 1e-7, 0.1,
]

floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL_FLOATS),
)
# keys and strings draw from all of Unicode but the surrogates: non-ASCII
# letters, control characters, quotes and backslashes included
text = st.one_of(
    st.text(),
    st.sampled_from(["", "\x00\x1f\x7f", "\"\\/\b\f\n\r\t", "é☃𝄞", " "]),
)
leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    floats,
    floats.map(np.float64),
    text,
    # all-float lists take the writer's one-join path
    st.lists(floats, max_size=4),
    st.lists(floats.map(np.float64), max_size=4),
)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(text, children, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(trees)
def test_dumps_matches_json_indent_2(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [
        [],
        {},
        (),
        [[], {}, ()],
        {"": {"": []}},
        [True, 1, False, 0, 1.0, 0.0],
        [1.0, True],
        [1.0, 2],
        [1.0, None],
        [1.0, "1.0"],
        [1.0, [2.0]],
        [np.float64("nan"), 1.0, float("-inf")],
        "\x00 é ☃ 𝄞",
        -0.0,
        np.float64(-0.0),
        float("inf"),
        10**400,
        None,
    ],
)
def test_dumps_matches_json_indent_2_on_edge_cases(obj):
    assert dumps(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize(
    "obj",
    [
        {1, 2},
        np.bool_(True),
        [1.0, np.bool_(False)],
        {"detected": np.bool_(True)},
        {1: "a"},
        {"a": {None: 1}},
        [1.0, np.float32(1.0)],
        np.int64(3),
    ],
)
def test_dumps_rejects_other_types(obj):
    with pytest.raises(TypeError):
        dumps(obj)


def test_matrix_to_pairs_is_bit_identical_to_numpy_scalars():
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308 / 3,
               1e308, -1e308, 1 / 3, -2.5]
    rng = np.random.default_rng(3)
    re = rng.choice(special, size=(9, 9))
    im = rng.choice(special, size=(9, 9))
    m = re + 1j * im
    # keep the signs of zero that complex addition would lose
    m.real, m.imag = re, im
    pairs = matrix_to_pairs(m)
    ref = [[[float(x.real), float(x.imag)] for x in row] for row in m]
    bits = np.array(pairs).view(np.uint64)
    assert np.array_equal(bits, np.array(ref).view(np.uint64))
    assert np.array_equal(bits[..., 0], re.view(np.uint64))
    assert np.array_equal(bits[..., 1], im.view(np.uint64))
    assert all(type(v) is float for row in pairs for z in row for v in z)
    assert {float.__repr__(v) for row in pairs for z in row for v in z} >= {
        "-0.0", "5e-324", "-5e-324", "1e+308", "-1e+308"
    }


# numbers json.load can give, and a few it cannot but a caller might pass
numbers = st.one_of(
    floats,
    st.integers(),
    st.integers(min_value=-(10**400), max_value=10**400),
    st.sampled_from([0, -0.0, 10**400, -(10**400), 2**1024, 2**53 + 1]),
)
not_numbers = st.one_of(
    st.booleans(), st.none(), st.sampled_from(["1", "-0.5", "NaN", ""])
)
FAULTS = (
    None, "number", "nan", "tuple cell", "short cell", "long cell",
    "tuple row", "ragged", "scalar cell",
)


def _decoded(decode, obj):
    """(dtype, shape, bytes) of a decoded matrix, or its ParseError text."""
    try:
        m = decode(obj, "state matrix")
    except ParseError as e:
        return str(e)
    return m.dtype, m.shape, m.tobytes()


@settings(max_examples=400, deadline=None)
@given(
    data=st.data(),
    rows=st.integers(1, 4),
    cols=st.integers(0, 4),
    fault=st.sampled_from(FAULTS),
)
def test_pairs_to_matrix_matches_the_cell_loop(data, rows, cols, fault):
    # a well-formed matrix of drawn numbers, with at most one fault; the
    # decoder must give the loop's bytes, or its first error text
    obj = [
        [data.draw(st.lists(numbers, min_size=2, max_size=2))
         for _ in range(cols)]
        for _ in range(rows)
    ]
    r = data.draw(st.integers(0, rows - 1))
    if fault in ("tuple row", "ragged") or (fault and cols == 0):
        if fault == "ragged":
            obj[r] = obj[r][1:] if cols else [[0.5, 0.5]]
        else:
            obj[r] = tuple(obj[r])
    elif fault:
        c = data.draw(st.integers(0, cols - 1))
        cell = obj[r][c]
        if fault == "number":
            cell[data.draw(st.integers(0, 1))] = data.draw(not_numbers)
        elif fault == "nan":
            cell[data.draw(st.integers(0, 1))] = data.draw(
                st.sampled_from([float("nan"), float("inf"), -float("inf")])
            )
        elif fault == "tuple cell":
            cell = tuple(cell)
        elif fault == "short cell":
            cell = cell[:1]
        elif fault == "long cell":
            cell = cell + [0.0]
        else:
            cell = cell[0]
        obj[r][c] = cell
    assert _decoded(pairs_to_matrix, obj) == _decoded(pairs_to_matrix_loop, obj)


def _nine_by_nine():
    """A well-formed 9x9 matrix of ints and floats as json.loads returns
    it: the size of the 3x3 states that protocol-mix decodes."""
    return json.loads(json.dumps(
        [[[r * 9 - c, (r - c) / 7] for c in range(9)] for r in range(9)]
    ))


# two faults each: the first in row-major order words the error
NAN_BEFORE_TRUE = _nine_by_nine()
NAN_BEFORE_TRUE[2][3][1] = float("nan")
NAN_BEFORE_TRUE[6][1][0] = True
HUGE_BEFORE_RAGGED = _nine_by_nine()
HUGE_BEFORE_RAGGED[3][8][0] = 10**400
del HUGE_BEFORE_RAGGED[5][4]


@pytest.mark.parametrize(
    "obj",
    [
        [], {}, "[]", None, [[]], [[], []], [[[-0.0, -0.0]]],
        [[[5e-324, -5e-324], [0, 1]], [[1, 0], [-0.0, 0.0]]],
        [[[10**400, 0]]], [[[float("nan"), 0]]], [[[0, float("-inf")]]],
        [[[True, 0]]], [[["1", 0]]], [[[None, 0]]], [[(1, 2)]],
        [([1, 2],)], [[[1, 2]], [[1, 2], [3, 4]]], [[[1]]], [[[1, 2, 3]]],
        [[[np.float64(0.25), -0.0]]], [[[np.True_, 0]]],
        pytest.param(_nine_by_nine(), id="json-9x9"),
        pytest.param(NAN_BEFORE_TRUE, id="nan-before-true"),
        pytest.param(HUGE_BEFORE_RAGGED, id="huge-before-ragged"),
    ],
)
def test_pairs_to_matrix_matches_the_cell_loop_on_edge_cases(obj):
    assert _decoded(pairs_to_matrix, obj) == _decoded(pairs_to_matrix_loop, obj)
