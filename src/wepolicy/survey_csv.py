"""Reading and checking the survey file, held by question.

An answer column of one-digit answers is one `bytes` of their values from
the reader to the fit, checked with one `bytes.translate`; any other is a
list or tuple of ints. All are `Sequence[int]` and give the same results.
A plain file of integer answers is split in whole-text passes; any other
is read in one `csv.reader` pass, which names the bad header or else the
first bad line in file order. `validate` loads this module without `survey`.
"""

from __future__ import annotations

import csv
import io
from itertools import islice, repeat
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import DimensionError, _quote

if TYPE_CHECKING:  # an annotation only; the scenario builds construct maps
    from .scenario import ConstructMap


class SurveyColumns(NamedTuple):
    """Survey answers by question: `answers[q][i]` is respondent i's
    answer to question q + 1. Each answer column is a `bytes` of one-digit
    answers or a list or tuple of ints; all are `Sequence[int]`."""

    respondents: Sequence[str]
    answers: Sequence[Sequence[int]]


def check_survey(survey: SurveyColumns, cmap: ConstructMap, scale: int):
    """Raise unless `survey` can be fitted on `cmap`: one column per
    question of the construct matrix, a respondent, one answer in
    [1, scale] per respondent and question, and a respondent per design
    column (the intercept and one per construct).

    The range is checked column by column: a `bytes` column by deleting the
    allowed answers in one pass, any other by its min and max. Only when
    one is out of range are the answers scanned respondent by respondent,
    so that the error names the first offending respondent in file order."""
    k = len(survey.answers)
    if k != cmap.question_count:
        raise DimensionError(
            f"CSV has {k} questions, construct_matrix expects {cmap.question_count}"
        )
    n = len(survey.respondents)
    if not n:
        raise ValueError("survey has no responses")
    for q, col in enumerate(survey.answers, start=1):
        if len(col) != n:
            raise DimensionError(f"question {q} has {len(col)} answers for {n} respondents")
    # a bytes column holds digits only; the scale may be as large as a float
    allowed = bytes(range(1, min(scale, 9) + 1))
    in_range = (not col.translate(None, allowed) if isinstance(col, bytes)
                else 1 <= min(col) and max(col) <= scale for col in survey.answers)
    if not all(in_range):
        for i, respondent in enumerate(survey.respondents):
            for col in survey.answers:
                if not 1 <= col[i] <= scale:
                    raise ValueError(
                        f"respondent {_quote(respondent)} answer {col[i]} outside [1, {scale}]"
                    )
    p1 = len(cmap.constructs) + 1
    if n < p1:
        raise ValueError(f"need at least {p1} rows to fit {p1} columns, got {n}")


def read_survey_csv(text: str) -> SurveyColumns:
    """Parse `respondent,q1..qK` CSV text into columns; K is
    `len(result.answers)`.

    A plain text of integer answers (see `_split_plain`) is split in a few
    passes over the whole text. Any other is read row by row (see
    `_read_rows`), which names the bad header or else the first bad line.
    """
    return _split_plain(text) or _read_rows(text)


def _split_plain(text: str) -> SurveyColumns | None:
    """The columns of a text that `csv.reader` would read as plain
    comma-separated lines of integer answers, or None for any other. Plain
    means: no quote, carriage return or NUL, the header `respondent,q1..qK`,
    no line longer than `csv.field_size_limit()` (so no field is either) and
    exactly K commas on every non-blank line, with at least one such line.
    Lines end at line feeds only, as `csv.reader` reads an `io.StringIO`;
    `str.splitlines` would also end them at form feeds and Unicode
    separators. A NUL goes to the reader because Python 3.10's refuses it."""
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    header = lines[0].split(",")
    k = len(header) - 1
    if k < 1 or header != ["respondent", *(f"q{i}" for i in range(1, k + 1))]:
        return None
    if max(map(len, lines)) > csv.field_size_limit():
        return None
    rows = list(filter(None, islice(lines, 1, None)))
    del lines
    if set(map(str.count, rows, repeat(","))) != {k}:
        return None
    fields = ",".join(rows).split(",")
    del rows
    try:
        answers = tuple(_answers(fields[q::k + 1]) for q in range(1, k + 1))
    except ValueError:
        return None
    return SurveyColumns(tuple(fields[::k + 1]), answers)


def _read_rows(text: str) -> SurveyColumns:
    """The columns of `text` as one `csv.reader` pass reads it. The header
    is checked first, as line 1; then each row, in file order, must have
    K + 1 fields and integer answers. A bad row, or a `csv.Error` (such as
    a field over `csv.field_size_limit()`), is named by the physical line
    it ends on, so a quoted field spanning lines does not shift it."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
        if header is None:
            raise ValueError("survey CSV is empty")
        if not header or header[0] != "respondent":
            raise ValueError("survey CSV must start with a 'respondent' column")
        k = len(header) - 1
        if k < 1:
            raise ValueError("survey CSV has no question columns")
        if header[1:] != [f"q{i}" for i in range(1, k + 1)]:
            raise ValueError(f"survey CSV question columns must be q1..q{k}")
        rows = []
        for row in filter(None, reader):  # blank lines are skipped
            if len(row) != k + 1:
                raise ValueError(f"survey CSV line {reader.line_num}: expected {k + 1} fields")
            try:
                rows.append((row[0], *map(int, row[1:])))
            except ValueError:
                raise ValueError(
                    f"survey CSV line {reader.line_num}: answers must be integers") from None
    except csv.Error as err:
        raise ValueError(f"survey CSV line {reader.line_num}: {err}") from None
    respondents, *answers = tuple(zip(*rows)) or ((),) * (k + 1)
    return SurveyColumns(respondents, tuple(answers))


_DIGITS = frozenset("0123456789")
_DIGIT_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def _answers(col: Sequence[str]) -> bytes | list[int]:
    """The ints of one column of answer texts. A column of one ASCII digit
    per field becomes one `bytes` of those digits' values, in one pass over
    its text; any other column becomes a list, with one `int()` per
    distinct text, which raises ValueError as `int()` does."""
    distinct = set(col)
    if distinct <= _DIGITS:
        return "".join(col).encode().translate(_DIGIT_VALUES)
    return list(map({a: int(a) for a in distinct}.__getitem__, col))
