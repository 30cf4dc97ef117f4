"""Questionnaire aggregation and the regression-fitted subjective target.

Likert answers on [1..L] are rescaled linearly to [-1, 1] so the aggregate
sits in the value-function domain centered at 0, then a row-stochastic
construct map folds questions into named constructs. The target function is
an ordinary least-squares fit (orthogonalization-based solver, not normal
equations) of a well-being rating on the construct scores.

The survey is held by question. An answer column of one-digit answers is
one `bytes` of their values from the reader to the fit: it is checked with
one `bytes.translate` and read into numpy as a buffer. Any other column is
a list or tuple of ints; all are `Sequence[int]` and give the same results.
A plain file of integer answers is split in whole-text passes. Any other is
read in one `csv.reader` pass, which names the bad header or else the first
bad line in file order.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import islice, repeat
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import DimensionError, RankDeficiencyError, _quote
from .numeric import dot

if TYPE_CHECKING:  # an annotation only; the scenario builds construct maps
    from .scenario import ConstructMap


class SurveyColumns(NamedTuple):
    """Survey answers by question: `answers[q][i]` is respondent i's
    answer to question q + 1. Each answer column is a `bytes` of one-digit
    answers or a list or tuple of ints; all are `Sequence[int]`."""

    respondents: Sequence[str]
    answers: Sequence[Sequence[int]]


def rescale_answer(value: float, scale: int) -> float:
    """Map a [1..L] answer onto [-1, 1]; the midpoint lands on 0."""
    if scale < 2:
        raise ValueError(f"scale must be >= 2, got {scale}")
    return 2.0 * (value - 1.0) / (scale - 1.0) - 1.0


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


def aggregate_survey(survey: SurveyColumns, cmap: ConstructMap, scale: int) -> list[float]:
    """Consensus construct vector: per-question means, rescaled, mapped.

    Output order follows the construct map rows. Shuffling respondents does
    not change the result: each mean is an exact integer sum divided once.
    `survey` must have passed `check_survey` with the same `cmap` and `scale`.
    """
    n = len(survey.respondents)
    rescaled = [rescale_answer(sum(col) / n, scale) for col in survey.answers]
    return [dot(row, rescaled) for row in cmap.matrix]


def respondent_scores(survey: SurveyColumns, cmap: ConstructMap, scale: int):
    """Per-respondent construct vectors (rescale each answer, then map), as
    an array with one row per respondent and one column per construct.

    Runs as numpy column passes: each question column is rescaled once, and
    each construct column is the `dot` of its map row with those columns
    from a zero column, as a respondent's scalar `dot`. `survey` must have passed
    `check_survey` with the same `cmap` and `scale`.
    """
    # Imported here so that commands which never fit start without numpy.
    import numpy as np

    z = [rescale_answer(answer_floats(answers), scale) for answers in survey.answers]
    zero = np.zeros(len(survey.respondents))
    return np.column_stack([dot(row, z, zero) for row in cmap.matrix])


def answer_floats(answers: Sequence[int]):
    """One answer column as a float array; a `bytes` column is read as its
    buffer, without an int object per answer."""
    import numpy as np

    if isinstance(answers, bytes):
        return np.frombuffer(answers, np.uint8).astype(float)
    return np.array(answers, dtype=float)


# A dataclass, unlike the other value types: callers rescale a fitted
# model with `dataclasses.replace`.
@dataclass(frozen=True)
class RegressionModel:
    """Fitted linear target: intercept + coefficients over named variables."""

    intercept: float
    coefficients: tuple[float, ...]
    names: tuple[str, ...]
    r_squared: float
    residuals: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "intercept": self.intercept,
            "coefficients": dict(zip(self.names, self.coefficients)),
            "r2": self.r_squared,
        }


def fit_target(
    design: Sequence[Sequence[float]],
    y: Sequence[float],
    column_names: Sequence[str] | None = None,
) -> RegressionModel:
    """Least-squares fit of y on a design whose first column is the intercept.

    Solved by an orthogonalization method (LAPACK SVD via lstsq); rank
    deficiency raises RankDeficiencyError naming the dependent columns, and
    a LAPACK failure (numpy's LinAlgError) raises FloatingPointError with
    the same message. A NaN or infinity in the design or in y raises
    FloatingPointError naming which of the two holds it, before LAPACK
    sees it.
    """
    # Imported here so that commands which never fit start without numpy.
    import numpy as np

    X = np.asarray(design, dtype=float)
    yv = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DimensionError("design must be a 2-d matrix")
    n, p1 = X.shape
    if yv.shape != (n,):
        raise DimensionError(f"y has length {yv.shape}, design has {n} rows")
    if n < p1:
        raise ValueError(f"need at least {p1} rows to fit {p1} columns, got {n}")
    for label, values in (("design", X), ("y", yv)):
        if not np.isfinite(values).all():
            raise FloatingPointError(f"{label} has a non-finite value")
    if not np.all(X[:, 0] == 1.0):
        raise ValueError("first design column must be the all-ones intercept")

    names = tuple(column_names) if column_names is not None else tuple(
        f"x{i}" for i in range(1, p1)
    )
    if len(names) != p1 - 1:
        raise DimensionError(f"{len(names)} names for {p1 - 1} non-intercept columns")

    try:
        # lstsq's rank uses matrix_rank's cutoff (s > eps * max(n, p) * s_max),
        # so a full-rank design is decomposed once.
        beta, _, rank, _ = np.linalg.lstsq(X, yv, rcond=None)
        if rank < p1:
            dependent = []
            prev = 0
            for j in range(p1):
                cur = np.linalg.matrix_rank(X[:, : j + 1])
                if cur == prev:
                    dependent.append("intercept" if j == 0 else names[j - 1])
                prev = cur
            raise RankDeficiencyError(dependent)
    except np.linalg.LinAlgError as err:
        raise FloatingPointError(str(err)) from err
    fitted = X @ beta
    resid = yv - fitted
    ss_res = float(resid @ resid)
    centered = yv - yv.mean()
    ss_tot = float(centered @ centered)
    # With an intercept column, R^2 is nonnegative up to rounding; clamp it.
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return RegressionModel(
        intercept=float(beta[0]),
        coefficients=tuple(float(b) for b in beta[1:]),
        names=names,
        r_squared=r2,
        residuals=tuple(resid.tolist()),
    )


def predict(model: RegressionModel, x: Sequence[float]) -> float:
    """intercept + coefficients . x, accumulated left to right."""
    if len(x) != len(model.coefficients):
        raise DimensionError(
            f"model has {len(model.coefficients)} coefficients, input has {len(x)}"
        )
    return dot(model.coefficients, x, model.intercept)


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

