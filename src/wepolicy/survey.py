"""Questionnaire aggregation and the regression-fitted subjective target.

Likert answers on [1..L] are rescaled linearly to [-1, 1] so the aggregate
sits in the value-function domain centered at 0, then a row-stochastic
construct map folds questions into named constructs. The target function is
an ordinary least-squares fit (orthogonalization-based solver, not normal
equations) of a well-being rating on the construct scores.

The survey file is read and checked in `survey_csv`, which `validate` loads
without this module; its names import from here too. A `bytes` answer
column is read into numpy as a buffer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import DimensionError, RankDeficiencyError
from .numeric import dot
# Re-exported: every caller of this module reads the survey file as well.
from .survey_csv import SurveyColumns, check_survey, read_survey_csv

if TYPE_CHECKING:  # an annotation only; the scenario builds construct maps
    from .scenario import ConstructMap


def rescale_answer(value: float, scale: int) -> float:
    """Map a [1..L] answer onto [-1, 1]; the midpoint lands on 0."""
    if scale < 2:
        raise ValueError(f"scale must be >= 2, got {scale}")
    return 2.0 * (value - 1.0) / (scale - 1.0) - 1.0


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


class RegressionModel(NamedTuple):
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
