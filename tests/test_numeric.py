"""`numeric`'s sums add left to right, so each matches the plain
accumulation loop bit for bit, on floats and on numpy columns alike.

Every NaN compares as one: IEEE 754 leaves the sign and payload of an
operation's NaN open, and the interpreter's `+=` and `operator.add` paths
were seen to give NaNs of different sign from the same operands. No output
carries them, since a NaN is written as its name."""

import math
import struct

import numpy as np
from hypothesis import example, given, strategies as st

from wepolicy.coupling import LinearMap, Saturator, apply_map
from wepolicy.numeric import dot, left_sum

EDGE_VALUES = [-0.0, 0.0, math.inf, -math.inf, math.nan, 1e308, -1e308, 5e-324]
floats = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(allow_nan=True, allow_infinity=True))
finite = st.floats(min_value=-1e6, max_value=1e6)


def bits(x):
    return struct.pack("<d", math.nan if math.isnan(x) else x)


def column_bits(a):
    a = np.array(a, dtype=float)
    a[np.isnan(a)] = math.nan
    return a.tobytes()


def loop_dot(weights, xs, start=0.0):
    """The weighted-sum loop `dot` replaced."""
    acc = start
    for w, x in zip(weights, xs):
        acc += w * x
    return acc


@given(st.lists(floats, max_size=12), st.lists(floats, max_size=12), floats)
@example([1e308, 1e308, -1e308], [10.0, 1.0, 1.0], 0.0)
@example([1.0, -1.0], [-0.0, -0.0], -0.0)
def test_dot_matches_the_loop(weights, xs, start):
    assert bits(dot(weights, xs, start)) == bits(loop_dot(weights, xs, start))


@given(st.lists(floats, max_size=12), st.lists(floats, max_size=12))
def test_dot_starts_at_zero(weights, xs):
    assert bits(dot(weights, xs)) == bits(loop_dot(weights, xs, 0.0))


@st.composite
def columns(draw):
    """Weights, numpy columns of one length, and a start column."""
    n = draw(st.integers(0, 6))
    column = st.lists(floats, min_size=n, max_size=n).map(lambda v: np.array(v, dtype=float))
    weights = draw(st.lists(floats, max_size=6))
    xs = draw(st.lists(column, max_size=6))
    return weights, xs, draw(column)


@given(columns())
def test_dot_on_columns_matches_the_in_place_loop(case):
    weights, xs, start = case
    before = start.tobytes()
    with np.errstate(all="ignore"):
        got = dot(weights, xs, start)
        expected = start.copy()
        for w, x in zip(weights, xs):
            expected += w * x
    assert column_bits(got) == column_bits(expected)
    assert start.tobytes() == before  # never added in place


@given(st.lists(floats, max_size=20))
@example([0.1] * 10)
@example([-0.0, -0.0])
def test_left_sum_matches_the_loop_from_zero(xs):
    acc = 0.0
    for x in xs:
        acc += x
    assert bits(left_sum(xs)) == bits(acc)


@st.composite
def maps(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    matrix = tuple(tuple(draw(st.lists(finite, min_size=cols, max_size=cols)))
                   for _ in range(rows))
    offset = tuple(draw(st.lists(finite, min_size=rows, max_size=rows)))
    scale = draw(st.none() | st.floats(min_value=0.5, max_value=100.0))
    x = draw(st.lists(finite, min_size=cols, max_size=cols))
    return LinearMap(matrix, offset, None if scale is None else Saturator(scale)), x


@given(maps())
def test_apply_map_is_the_row_loop_from_the_offset(case):
    m, x = case
    expected = []
    for row, off in zip(m.matrix, m.offset):
        acc = loop_dot(row, x, off)
        expected.append(acc if m.nonlinearity is None else m.nonlinearity(acc))
    assert list(map(bits, apply_map(m, x))) == list(map(bits, expected))
