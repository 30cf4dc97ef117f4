import functools
import operator
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wepolicy.errors import DimensionError, RankDeficiencyError
from wepolicy.survey import (
    ConstructMap,
    SurveyResponse,
    aggregate_survey,
    fit_target,
    predict,
    read_survey_csv,
    rescale_answer,
    respondent_scores,
    survey_to_csv,
    synthesize_survey,
)


def normal_equations_oracle(design, y):
    """Reference fit by explicitly solving (X^T X) beta = X^T y."""
    X = np.asarray(design, dtype=float)
    yv = np.asarray(y, dtype=float)
    return np.linalg.solve(X.T @ X, X.T @ yv)


class TestRescale:
    def test_endpoints_and_midpoint(self):
        assert rescale_answer(1, 5) == -1.0
        assert rescale_answer(3, 5) == 0.0
        assert rescale_answer(5, 5) == 1.0

    def test_scale_validated(self):
        with pytest.raises(ValueError):
            rescale_answer(1, 1)


class TestAggregateSurvey:
    def _cmap(self):
        return ConstructMap(
            constructs=("c1", "c2"),
            matrix=((0.5, 0.5, 0.0), (0.0, 0.0, 1.0)),
        )

    def test_midpoint_answers_map_to_zero(self):
        responses = [SurveyResponse(f"r{i}", (3, 3, 3)) for i in range(4)]
        assert aggregate_survey(responses, self._cmap(), 5) == [0.0, 0.0]

    def test_top_answers_map_to_one(self):
        responses = [SurveyResponse(f"r{i}", (5, 5, 5)) for i in range(3)]
        out = aggregate_survey(responses, self._cmap(), 5)
        assert out == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_extreme_pair_cancels(self):
        cmap = ConstructMap(constructs=("c",), matrix=((1.0,),))
        responses = [SurveyResponse("a", (1,)), SurveyResponse("b", (5,))]
        assert aggregate_survey(responses, cmap, 5) == [0.0]

    def test_shuffle_invariance(self):
        rng = random.Random(3)
        responses = [
            SurveyResponse(f"r{i}", tuple(rng.randint(1, 5) for _ in range(3)))
            for i in range(20)
        ]
        base = aggregate_survey(responses, self._cmap(), 5)
        shuffled = responses[:]
        rng.shuffle(shuffled)
        assert aggregate_survey(shuffled, self._cmap(), 5) == base

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no responses"):
            aggregate_survey([], self._cmap(), 5)

    def test_scale_violation_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            aggregate_survey([SurveyResponse("a", (6, 1, 1))], self._cmap(), 5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            aggregate_survey([SurveyResponse("a", (1, 2))], self._cmap(), 5)

    @pytest.mark.parametrize("answers, error", [
        ([], ValueError), ([(6, 1, 1)], ValueError), ([(1, 2)], DimensionError),
    ])
    def test_respondent_scores_rejects_bad_answers(self, answers, error):
        responses = [SurveyResponse(f"r{i}", a) for i, a in enumerate(answers)]
        with pytest.raises(error):
            respondent_scores(responses, self._cmap(), 5)

    def test_respondent_scores_mean_matches_aggregate(self):
        # aggregation commutes with the per-respondent construct scores
        rng = random.Random(11)
        responses = [
            SurveyResponse(f"r{i}", tuple(rng.randint(1, 5) for _ in range(3)))
            for i in range(10)
        ]
        scores = respondent_scores(responses, self._cmap(), 5)
        means = [sum(col) / len(col) for col in zip(*scores)]
        agg = aggregate_survey(responses, self._cmap(), 5)
        assert means == pytest.approx(agg, abs=1e-12)


class TestConstructMap:
    def test_row_stochastic_enforced(self):
        with pytest.raises(ValueError, match="sum to"):
            ConstructMap(("c",), ((0.5, 0.4),))

    def test_nonnegative_enforced(self):
        with pytest.raises(ValueError, match="negative"):
            ConstructMap(("c",), ((1.5, -0.5),))

    def test_name_count_checked(self):
        with pytest.raises(DimensionError):
            ConstructMap(("c1", "c2"), ((1.0,),))


class TestFitTarget:
    def _generic_design(self, n=10):
        rng = random.Random(42)
        return [[1.0, rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(n)]

    def test_recovers_noiseless_coefficients(self):
        design = self._generic_design()
        y = [1.0 + 2.0 * row[1] + 3.0 * row[2] for row in design]
        model = fit_target(design, y)
        oracle = normal_equations_oracle(design, y)
        assert model.intercept == pytest.approx(1.0, abs=1e-8)
        assert model.coefficients[0] == pytest.approx(2.0, abs=1e-8)
        assert model.coefficients[1] == pytest.approx(3.0, abs=1e-8)
        assert model.intercept == pytest.approx(oracle[0], abs=1e-8)
        assert list(model.coefficients) == pytest.approx(list(oracle[1:]), abs=1e-8)
        assert model.r_squared == 1.0

    def test_intercept_only(self):
        model = fit_target([[1.0]] * 5, [2.5] * 5)
        assert model.intercept == pytest.approx(2.5, abs=1e-12)
        assert model.coefficients == ()
        assert model.r_squared == 1.0

    def test_duplicate_column_raises_named_error(self):
        design = [[1.0, v, v] for v in (0.0, 1.0, 2.0, 3.0)]
        with pytest.raises(RankDeficiencyError) as err:
            fit_target(design, [0.0, 1.0, 2.0, 3.0], column_names=("x1", "x2"))
        assert "x2" in err.value.columns

    def test_residual_orthogonality(self):
        design = self._generic_design(30)
        rng = random.Random(1)
        y = [0.4 - 1.2 * r[1] + 0.7 * r[2] + rng.gauss(0, 0.3) for r in design]
        model = fit_target(design, y)
        X = np.asarray(design)
        r = np.asarray(model.residuals)
        assert np.max(np.abs(X.T @ r)) <= 1e-8

    def test_idempotent_refit(self):
        design = self._generic_design(20)
        rng = random.Random(2)
        y = [0.1 + 0.5 * r[1] - 0.25 * r[2] + rng.gauss(0, 0.2) for r in design]
        first = fit_target(design, y)
        fitted = [predict(first, r[1:]) for r in design]
        second = fit_target(design, fitted)
        assert second.intercept == pytest.approx(first.intercept, abs=1e-10)
        assert list(second.coefficients) == pytest.approx(list(first.coefficients), abs=1e-10)

    def test_affine_equivariance(self):
        design = self._generic_design(15)
        rng = random.Random(3)
        y = [0.3 + 0.9 * r[1] + 0.2 * r[2] + rng.gauss(0, 0.1) for r in design]
        base = fit_target(design, y)
        c = 7.3
        scaled = fit_target(design, [c * v for v in y])
        assert scaled.intercept == pytest.approx(c * base.intercept, rel=1e-10)
        assert list(scaled.coefficients) == pytest.approx(
            [c * b for b in base.coefficients], rel=1e-10
        )

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="at least"):
            fit_target([[1.0, 2.0]], [1.0])

    def test_intercept_column_required(self):
        with pytest.raises(ValueError, match="intercept"):
            fit_target([[2.0, 1.0], [2.0, 2.0], [2.0, 3.0]], [1.0, 2.0, 3.0])

    def test_r2_between_zero_and_one(self):
        design = self._generic_design(25)
        rng = random.Random(4)
        y = [rng.gauss(0, 1) for _ in design]
        model = fit_target(design, y)
        assert 0.0 <= model.r_squared <= 1.0

    def test_model_dict(self):
        model = fit_target(self._generic_design(), [1.0] * 10, column_names=("a", "b"))
        d = model.to_dict()
        assert set(d) == {"intercept", "coefficients", "r2"}
        assert set(d["coefficients"]) == {"a", "b"}


class TestPredict:
    def test_zero_vector_gives_intercept(self):
        model = fit_target([[1.0, v] for v in (0.0, 1.0, 2.0)], [1.0, 2.0, 3.0])
        assert predict(model, [0.0]) == model.intercept

    def test_hand_dot_product(self):
        design = [[1.0, x1, x2] for x1, x2 in ((0, 0), (1, 0), (0, 1), (1, 1))]
        y = [1.0 + 2.0 * r[1] + 3.0 * r[2] for r in design]
        model = fit_target(design, y)
        assert predict(model, [1.0, 1.0]) == pytest.approx(6.0, abs=1e-9)

    def test_identity_coefficient(self):
        design = [[1.0, v] for v in (0.0, 1.0, 2.0)]
        model = fit_target(design, [0.0, 1.0, 2.0])
        assert predict(model, [0.25]) == pytest.approx(0.25, abs=1e-12)

    def test_dimension_mismatch(self):
        model = fit_target([[1.0, v] for v in (0.0, 1.0, 2.0)], [0.0, 1.0, 2.0])
        with pytest.raises(DimensionError):
            predict(model, [1.0, 2.0])


class TestCsvRoundTrip:
    def test_round_trip(self):
        responses = [SurveyResponse("r0", (1, 5, 3)), SurveyResponse("r1", (2, 2, 4))]
        text = survey_to_csv(responses)
        parsed, k = read_survey_csv(text)
        assert k == 3
        assert parsed == responses

    def test_header_checked(self):
        with pytest.raises(ValueError, match="respondent"):
            read_survey_csv("id,q1\nr0,3\n")
        with pytest.raises(ValueError, match="q1"):
            read_survey_csv("respondent,item1\nr0,3\n")

    def test_bad_answer_type(self):
        with pytest.raises(ValueError, match="integers"):
            read_survey_csv("respondent,q1\nr0,3.5\n")

    def test_field_count_checked(self):
        with pytest.raises(ValueError, match="fields"):
            read_survey_csv("respondent,q1,q2\nr0,3\n")


class TestSynthesize:
    def test_deterministic(self):
        probs = [(0.2, 0.2, 0.2, 0.2, 0.2)] * 3
        a = synthesize_survey(99, 20, probs, 5)
        b = synthesize_survey(99, 20, probs, 5)
        assert a == b

    def test_answers_within_scale(self):
        probs = [(0.5, 0.5, 0.0), (0.0, 0.0, 1.0)]
        responses = synthesize_survey(1, 50, probs, 3)
        for r in responses:
            assert all(1 <= a <= 3 for a in r.answers)
        # the degenerate question always lands on its certain level
        assert all(r.answers[1] == 3 for r in responses)

    def test_distribution_validated(self):
        with pytest.raises(ValueError, match="distribution"):
            synthesize_survey(1, 5, [(0.5, 0.4)], 2)
        with pytest.raises(DimensionError):
            synthesize_survey(1, 5, [(1.0,)], 2)

    @given(st.integers(min_value=0, max_value=2**63 - 1))
    def test_any_seed_accepted(self, seed):
        probs = [(1.0, 0.0)]
        out = synthesize_survey(seed, 1, probs, 2)
        assert out[0].answers == (1,)


def reference_respondent_scores(responses, cmap, scale):
    """The per-respondent loop the column pass replaced. Each construct was
    `sum(w * v ...)`; up to Python 3.11 that is the left fold from 0 below
    (3.12's `sum()` compensates), so the fold is kept as the reference."""
    out = []
    for r in responses:
        z = [rescale_answer(a, scale) for a in r.answers]
        out.append([
            functools.reduce(operator.add, (w * v for w, v in zip(row, z)), 0)
            for row in cmap.matrix
        ])
    return out


@st.composite
def survey_cases(draw):
    scale = draw(st.integers(2, 7))
    k = draw(st.integers(1, 6))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        raw = draw(st.lists(
            st.one_of(st.just(0.0), st.floats(min_value=0.01, max_value=1.0)),
            min_size=k, max_size=k,
        ).filter(lambda ws: sum(ws) > 0))
        total = sum(raw)
        rows.append(tuple(w / total for w in raw))
    try:
        cmap = ConstructMap(tuple(f"c{i}" for i in range(len(rows))), tuple(rows))
    except ValueError:  # normalised weights missed 1 by more than the tolerance
        cmap = ConstructMap(("c0",), ((1.0,) + (0.0,) * (k - 1),))
    responses = [
        SurveyResponse(f"r{i}", tuple(draw(st.integers(1, scale)) for _ in range(k)))
        for i in range(draw(st.integers(1, 30)))
    ]
    return responses, cmap, scale


class TestRespondentScoresColumnPass:
    @given(survey_cases())
    def test_bit_identical_to_row_loop(self, case):
        responses, cmap, scale = case
        got = respondent_scores(responses, cmap, scale)
        expected = reference_respondent_scores(responses, cmap, scale)
        assert [[repr(v) for v in row] for row in got] == \
            [[repr(v) for v in row] for row in expected]
