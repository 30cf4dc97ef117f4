"""The column writers against kept copies of the row-wise writers they replaced."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from wepolicy.serialize import FloatText, _cell, csv_table, dump_json, float_texts, json_rows


def reference_csv_table(header, rows):
    """The row-wise CSV writer: every cell through `_cell`."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    return "\n".join(lines) + "\n"


def reference_json_rows(header, rows):
    """The record writer: one dict per row through `dump_json`."""
    return dump_json([dict(zip(header, row)) for row in rows])


def columns_of(header, rows):
    """The table's columns, one per header name, empty ones included."""
    return [[row[j] for row in rows] for j in range(len(header))]


edge_floats = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1e16, 1e-7])
finite_floats = st.one_of(edge_floats, st.floats(allow_nan=False, allow_infinity=False))
any_floats = st.one_of(finite_floats, st.sampled_from([math.inf, -math.inf, math.nan]))
ints = st.one_of(st.integers(-10, 10), st.integers(), st.just(2**70))
# JSON escapes: quotes, backslashes, control and non-ASCII characters, and
# `%`, which the JSON row template must not read as a format directive.
texts = st.one_of(st.sampled_from(['', 'a"b', "back\\slash", "tab\tnew\nline", "é", "%s", "%"]),
                  st.text(max_size=6))
cells = {
    "float": any_floats,
    "int": ints,
    "bool": st.booleans(),
    "str": texts,
    "float64": any_floats.map(np.float64),
    "mixed": st.one_of(any_floats, ints, st.booleans(), texts, st.none()),
}


@st.composite
def tables(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(cells)), max_size=4))
    header = draw(st.lists(texts.filter(lambda t: "," not in t), min_size=len(kinds),
                           max_size=len(kinds), unique=True))
    # A table of no columns has no rows in the writers' column form.
    n = draw(st.integers(0, 6)) if kinds else 0
    rows = [tuple(draw(cells[kind]) for kind in kinds) for _ in range(n)]
    return tuple(header), rows


# The first draw of `st.text` in a fresh checkout builds hypothesis's unicode
# table, which can take seconds; that is not slow input generation.
first_run_safe = settings(suppress_health_check=[HealthCheck.too_slow])


class TestCsvTable:
    @first_run_safe
    @given(tables())
    @example(((), []))
    @example((("x", "W"), [(-0.0, 5e-324), (1e308, -1e308), (1, True)]))
    def test_matches_row_writer(self, table):
        header, rows = table
        assert csv_table(header, *columns_of(header, rows)) == reference_csv_table(header, rows)

    def test_ragged_columns_rejected(self):
        """One column per header name, all of one length, or ValueError."""
        for columns in ([1, 3], [2]), ([1], [], [2]), ([1, 2],):
            for write in (csv_table, json_rows):
                with pytest.raises(ValueError, match="^expected 2 columns of one length"):
                    write(("a", "b"), *columns)


class TestJsonRows:
    @first_run_safe
    @given(tables())
    @example(((), []))
    @example((("s", "t", "v"), [(0.5, 0.0, 0.75), (-0.0, 5e-324, 1e308)]))
    @example((("a",), [([1, {"b": [2.5]}],), ({},)]))
    def test_matches_record_writer(self, table):
        header, rows = table
        columns = columns_of(header, rows)
        try:
            expected = reference_json_rows(header, rows)
        except ValueError:
            with pytest.raises(ValueError):
                json_rows(header, *columns)
        else:
            assert json_rows(header, *columns) == expected

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    def test_non_finite_float_raises(self, bad):
        with pytest.raises(ValueError):
            json_rows(("a", "b"), [0.5, bad], [1, 2])

    def test_no_rows(self):
        assert json_rows(("s", "t", "v"), (), (), ()) == "[]\n" == \
            reference_json_rows(("s", "t", "v"), ())


class TestFloatText:
    @given(st.lists(st.one_of(finite_floats, finite_floats.map(np.float64)), max_size=6),
           st.lists(ints, min_size=6, max_size=6))
    @example([-0.0, 5e-324, 1e308, 0.1], [1, 2, 3, 4, 5, 6])
    def test_writes_what_its_floats_write(self, xs, ids):
        """A column of `FloatText` cells is written as its floats are, in
        both writers, also next to another column."""
        ids = ids[:len(xs)]
        texts = list(map(FloatText, xs))
        for write in (csv_table, json_rows):
            assert write(("id", "x"), ids, texts) == write(("id", "x"), ids, xs)
            assert write(("x",), texts) == write(("x",), xs)

    @given(st.lists(st.sampled_from([0.0, -0.0, 0.1, -2.5, 5e-324, 1e308]), max_size=12))
    def test_float_texts_keep_each_value(self, xs):
        """Each distinct value is formatted once, told apart by its bits, so
        -0.0 and 0.0 keep their own text."""
        texts = float_texts(xs)
        assert texts == list(map(float.__repr__, xs))
        assert all(type(t) is FloatText for t in texts)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_raises(self, bad):
        with pytest.raises(ValueError):
            FloatText(bad)
