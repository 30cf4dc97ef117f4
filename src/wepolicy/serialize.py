"""Byte-stable serialization: shortest round-trip floats, CSV tables, JSON reports.

Every float written to an output file is `float.__repr__` text: Python's
shortest round-trip repr (up to 17 significant digits, `.` decimal
separator, no locale dependence), also for numpy's float subclasses. Two
runs over the same inputs therefore produce byte-identical files.

The table writers, `csv_table` and `json_rows`, take a table as its header
and one column per header name, and format it a column at a time.
"""

from __future__ import annotations

import json
import math
import struct
from typing import Iterable, Sequence


class FloatText(str):
    """A finite float's `float.__repr__` text. A column of them is written
    as it is, in CSV and in JSON, which is the text each writer gives the
    float, so a value repeated down a column is formatted once."""

    __slots__ = ()

    def __new__(cls, value: float):
        if not math.isfinite(value):
            raise ValueError(f"not a finite float: {value!r}")
        return super().__new__(cls, float.__repr__(value))


def float_texts(col: Sequence[float]) -> list[FloatText]:
    """The `FloatText` of each float in `col`, each distinct value formatted
    once. Values are told apart by their bits, so -0.0 and 0.0 keep their
    own text."""
    bits = struct.unpack(f"{len(col)}Q", struct.pack(f"{len(col)}d", *col))
    distinct = dict(zip(bits, col))
    texts = dict(zip(distinct, map(FloatText, distinct.values())))
    return list(map(texts.__getitem__, bits))


def csv_table(header: Sequence[str], *columns: Sequence[object]) -> str:
    """Render a CSV with '\\n' line endings and round-trip float cells,
    from one column per header name.

    Cells are formatted a column at a time; a column of exact floats or
    exact ints takes the type's own repr, and a `FloatText` column is
    written as it is. Columns of unequal length raise ValueError.
    """
    _check_columns(header, columns)
    body = map(",".join, zip(*[_column(col, _cell) for col in columns]))
    return "\n".join([",".join(header), *body, ""])  # no second copy to add the last "\n"


def _check_columns(header: Sequence[str], columns: Sequence[Sequence[object]]):
    """Raise ValueError unless there is one column per header name, all of
    one length."""
    if len(columns) != len(header) or len(set(map(len, columns))) > 1:
        raise ValueError(f"expected {len(header)} columns of one length, got lengths "
                         f"{list(map(len, columns))}")


def _column(col: Sequence[object], cell, finite: bool = False) -> Iterable[str]:
    """A column's cells as strings; `cell` formats a mixed column. With
    `finite`, a float column holding inf or nan is also left to `cell`.
    A `FloatText` column is kept as it is."""
    kinds = set(map(type, col))
    if kinds == {float} and (not finite or all(map(math.isfinite, col))):
        return map(float.__repr__, col)
    if kinds == {int}:
        return map(int.__repr__, col)
    if kinds == {FloatText}:
        return col
    return map(cell, col)


def _cell(v: object) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return float.__repr__(v)
    return str(v)


def dump_json(obj: object) -> str:
    """Deterministic JSON text: insertion-ordered keys, round-trip floats."""
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def json_rows(header: Sequence[str], *columns: Sequence[object]) -> str:
    """Same table as `csv_table` rendered as a JSON array of objects.

    The text equals `dump_json([dict(zip(header, row)) for row in
    zip(*columns)])` for distinct header names, with each `FloatText` cell
    read as its float, and a non-finite float raises ValueError as there,
    but cells are formatted a column at a time and each object comes from
    one template. Columns of unequal length raise ValueError.
    """
    _check_columns(header, columns)
    if not columns or not len(columns[0]):
        return "[]\n"
    cols = [_column(col, _json_cell, finite=True) for col in columns]
    keys = [json.dumps(name).replace("%", "%%") + ": %s" for name in header]
    template = "{\n    " + ",\n    ".join(keys) + "\n  }"
    return "[\n  " + ",\n  ".join(map(template.__mod__, zip(*cols))) + "\n]\n"


def _json_cell(v: object) -> str:
    # A non-finite float raises here. Nested values sit two levels deep.
    return json.dumps(v, indent=2, allow_nan=False).replace("\n", "\n    ")
