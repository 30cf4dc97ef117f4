"""Questionnaire aggregation and the regression-fitted subjective target.

Likert answers on [1..L] are rescaled linearly to [-1, 1] so the aggregate
sits in the value-function domain centered at 0, then a row-stochastic
construct map folds questions into named constructs. The target function is
an ordinary least-squares fit (orthogonalization-based solver, not normal
equations) of a well-being rating on the construct scores.
"""

from __future__ import annotations

import csv
import io
import random
from dataclasses import dataclass
from typing import Sequence

from .errors import DimensionError, RankDeficiencyError

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class SurveyResponse:
    respondent: str
    answers: tuple[int, ...]


@dataclass(frozen=True)
class ConstructMap:
    """Row-stochastic matrix folding question scores into constructs.

    Rows = constructs (subjective vector layout), cols = questions.
    """

    constructs: tuple[str, ...]
    matrix: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.constructs) != len(self.matrix):
            raise DimensionError(
                f"{len(self.constructs)} construct names for {len(self.matrix)} matrix rows"
            )
        if len(set(self.constructs)) != len(self.constructs):
            raise ValueError("construct names must be unique")
        if not self.matrix:
            raise ValueError("construct map needs at least one row")
        width = len(self.matrix[0])
        for name, row in zip(self.constructs, self.matrix):
            if len(row) != width:
                raise ValueError("construct matrix rows must all have the same length")
            if any(w < 0 for w in row):
                raise ValueError(f"construct {name!r} has negative weights")
            total = sum(row)
            if abs(total - 1.0) > ROW_SUM_TOL:
                raise ValueError(f"construct {name!r} weights sum to {total!r}, not 1")

    @property
    def question_count(self) -> int:
        return len(self.matrix[0])


def rescale_answer(value: float, scale: int) -> float:
    """Map a [1..L] answer onto [-1, 1]; the midpoint lands on 0."""
    if scale < 2:
        raise ValueError(f"scale must be >= 2, got {scale}")
    return 2.0 * (value - 1.0) / (scale - 1.0) - 1.0


def _check_responses(responses: Sequence[SurveyResponse], cmap: ConstructMap, scale: int):
    if not responses:
        raise ValueError("survey has no responses")
    k = cmap.question_count
    for r in responses:
        if len(r.answers) != k:
            raise DimensionError(
                f"respondent {r.respondent!r} has {len(r.answers)} answers, expected {k}"
            )
        for a in r.answers:
            if not 1 <= a <= scale:
                raise ValueError(
                    f"respondent {r.respondent!r} answer {a} outside [1, {scale}]"
                )


def aggregate_survey(
    responses: Sequence[SurveyResponse], cmap: ConstructMap, scale: int
) -> list[float]:
    """Consensus construct vector: per-question means, rescaled, mapped.

    Output order follows the construct map rows. Shuffling respondents does
    not change the result.
    """
    _check_responses(responses, cmap, scale)
    k = cmap.question_count
    n = len(responses)
    means = [sum(r.answers[q] for r in responses) / n for q in range(k)]
    rescaled = [rescale_answer(m, scale) for m in means]
    return [
        sum(w * z for w, z in zip(row, rescaled))
        for row in cmap.matrix
    ]


def respondent_scores(
    responses: Sequence[SurveyResponse], cmap: ConstructMap, scale: int
) -> list[list[float]]:
    """Per-respondent construct vectors (rescale each answer, then map).

    Runs as numpy column passes: each construct column accumulates
    ``0.0 + w * z`` over the questions left to right, which is what `sum()`
    over a respondent's terms computes up to Python 3.11 (3.12's `sum()`
    compensates, so the result no longer depends on the Python version).
    """
    _check_responses(responses, cmap, scale)
    # Imported here so that commands which never fit start without numpy.
    import numpy as np

    n = len(responses)
    cols = [np.zeros(n) for _ in cmap.matrix]
    for q in range(cmap.question_count):
        z = rescale_answer(np.fromiter((r.answers[q] for r in responses), float, n), scale)
        for acc, row in zip(cols, cmap.matrix):
            acc += row[q] * z
    return np.column_stack(cols).tolist()


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
    the same message.
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
    if not np.all(X[:, 0] == 1.0):
        raise ValueError("first design column must be the all-ones intercept")

    names = tuple(column_names) if column_names is not None else tuple(
        f"x{i}" for i in range(1, p1)
    )
    if len(names) != p1 - 1:
        raise DimensionError(f"{len(names)} names for {p1 - 1} non-intercept columns")

    try:
        rank = np.linalg.matrix_rank(X)
        if rank < p1:
            dependent = []
            prev = 0
            for j in range(p1):
                cur = np.linalg.matrix_rank(X[:, : j + 1])
                if cur == prev:
                    dependent.append("intercept" if j == 0 else names[j - 1])
                prev = cur
            raise RankDeficiencyError(dependent)
        beta, _, _, _ = np.linalg.lstsq(X, yv, rcond=None)
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
        residuals=tuple(float(r) for r in resid),
    )


def predict(model: RegressionModel, x: Sequence[float]) -> float:
    """intercept + coefficients . x, accumulated left to right."""
    if len(x) != len(model.coefficients):
        raise DimensionError(
            f"model has {len(model.coefficients)} coefficients, input has {len(x)}"
        )
    acc = model.intercept
    for c, v in zip(model.coefficients, x):
        acc += c * v
    return acc


def read_survey_csv(text: str) -> tuple[list[SurveyResponse], int]:
    """Parse `respondent,q1..qK` CSV text; returns responses and K."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ValueError("survey CSV is empty") from None
    if not header or header[0] != "respondent":
        raise ValueError("survey CSV must start with a 'respondent' column")
    k = len(header) - 1
    if k < 1:
        raise ValueError("survey CSV has no question columns")
    expected = [f"q{i}" for i in range(1, k + 1)]
    if header[1:] != expected:
        raise ValueError(f"survey CSV question columns must be q1..q{k}")
    responses = []
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != k + 1:
            raise ValueError(f"survey CSV line {lineno}: expected {k + 1} fields")
        try:
            answers = tuple(int(v) for v in row[1:])
        except ValueError:
            raise ValueError(f"survey CSV line {lineno}: answers must be integers") from None
        responses.append(SurveyResponse(respondent=row[0], answers=answers))
    return responses, k


def survey_to_csv(responses: Sequence[SurveyResponse]) -> str:
    if not responses:
        raise ValueError("no responses to serialize")
    k = len(responses[0].answers)
    lines = ["respondent," + ",".join(f"q{i}" for i in range(1, k + 1))]
    for r in responses:
        lines.append(r.respondent + "," + ",".join(str(a) for a in r.answers))
    return "\n".join(lines) + "\n"


def synthesize_survey(
    seed: int,
    respondents: int,
    question_probs: Sequence[Sequence[float]],
    scale: int,
) -> list[SurveyResponse]:
    """Seeded synthetic responses with declared per-question answer
    distributions (each a probability vector over [1..L])."""
    if respondents < 1:
        raise ValueError("need at least one respondent")
    for qi, probs in enumerate(question_probs):
        if len(probs) != scale:
            raise DimensionError(f"question {qi + 1} needs {scale} probabilities")
        if any(p < 0 for p in probs) or abs(sum(probs) - 1.0) > 1e-9:
            raise ValueError(f"question {qi + 1} probabilities must be a distribution")
    rng = random.Random(seed)
    out = []
    for i in range(respondents):
        answers = []
        for probs in question_probs:
            u = rng.random()
            acc = 0.0
            pick = scale
            for level, p in enumerate(probs, start=1):
                acc += p
                if u < acc:
                    pick = level
                    break
            answers.append(pick)
        out.append(SurveyResponse(respondent=f"r{i:04d}", answers=tuple(answers)))
    return out
