import functools
import operator
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wepolicy.errors import DimensionError, RankDeficiencyError
from wepolicy.scenario import ConstructMap
from wepolicy.survey import (
    SurveyColumns,
    aggregate_survey,
    check_survey,
    fit_target,
    predict,
    read_survey_csv,
    rescale_answer,
    respondent_scores,
)


def survey_of(*answers, k=3):
    """Columns for one answer tuple per respondent, as the CSV reader gives them."""
    respondents = tuple(f"r{i}" for i in range(len(answers)))
    return SurveyColumns(respondents, tuple(zip(*answers)) if answers else ((),) * k)


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
        assert aggregate_survey(survey_of(*[(3, 3, 3)] * 4), self._cmap(), 5) == [0.0, 0.0]

    def test_top_answers_map_to_one(self):
        out = aggregate_survey(survey_of(*[(5, 5, 5)] * 3), self._cmap(), 5)
        assert out == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_extreme_pair_cancels(self):
        cmap = ConstructMap(constructs=("c",), matrix=((1.0,),))
        assert aggregate_survey(survey_of((1,), (5,)), cmap, 5) == [0.0]

    def test_shuffle_invariance(self):
        rng = random.Random(3)
        answers = [tuple(rng.randint(1, 5) for _ in range(3)) for _ in range(20)]
        base = aggregate_survey(survey_of(*answers), self._cmap(), 5)
        rng.shuffle(answers)
        assert aggregate_survey(survey_of(*answers), self._cmap(), 5) == base

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no responses"):
            check_survey(survey_of(), self._cmap(), 5)

    def test_scale_violation_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            check_survey(survey_of((6, 1, 1)), self._cmap(), 5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            check_survey(survey_of((1, 2)), self._cmap(), 5)

    def test_short_column_rejected(self):
        survey = SurveyColumns(("a", "b"), ((1, 2), (1, 2), (1,)))
        with pytest.raises(DimensionError, match="^question 3 has 1 answers for 2 respondents$"):
            check_survey(survey, self._cmap(), 5)

    @pytest.mark.parametrize("answers, error", [
        ([], ValueError), ([(6, 1, 1)], ValueError), ([(1, 2)], DimensionError),
    ])
    def test_respondent_scores_rejects_bad_answers(self, answers, error):
        with pytest.raises(error):
            check_survey(survey_of(*answers), self._cmap(), 5)

    def test_respondent_scores_mean_matches_aggregate(self):
        # aggregation commutes with the per-respondent construct scores
        rng = random.Random(11)
        survey = survey_of(*[tuple(rng.randint(1, 5) for _ in range(3)) for _ in range(10)])
        scores = respondent_scores(survey, self._cmap(), 5).tolist()
        means = [sum(col) / len(col) for col in zip(*scores)]
        agg = aggregate_survey(survey, self._cmap(), 5)
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

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="^construct map needs at least one row$"):
            ConstructMap((), ())


@st.composite
def likert_designs(draw):
    """An intercept column, then columns of answers in [1, 5], constants, or
    exact integer combinations of earlier columns; optionally rescaled to
    [-1, 1] as the fit sees them. Returns the design and a target column."""
    n = draw(st.integers(2, 40))
    answers = st.lists(st.integers(1, 5), min_size=n, max_size=n)
    cols = [[1] * n]
    for _ in range(draw(st.integers(0, min(n, 6) - 1))):
        kind = draw(st.sampled_from(["answers", "answers", "constant", "combination"]))
        if kind == "answers":
            cols.append(draw(answers))
        elif kind == "constant":
            cols.append([draw(st.integers(1, 5))] * n)
        else:
            coefs = draw(st.lists(st.integers(-3, 3), min_size=len(cols), max_size=len(cols)))
            cols.append([sum(map(operator.mul, coefs, row)) for row in zip(*cols)])
    X = np.array(cols, dtype=float).T
    if draw(st.booleans()):
        X[:, 1:] = rescale_answer(X[:, 1:], 5)
    return X, np.array(draw(answers), dtype=float)


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

    @settings(max_examples=300, deadline=None)
    @given(likert_designs())
    def test_rank_decision_matches_matrix_rank(self, case):
        X, y = case
        try:
            fit_target(X, y)
            deficient = False
        except RankDeficiencyError:
            deficient = True
        assert deficient == (np.linalg.matrix_rank(X) < X.shape[1])

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

    @pytest.mark.parametrize("where", ["design", "y"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_input_is_rejected_before_lapack(self, capfd, where, bad):
        design = self._generic_design()
        y = [0.5 * row[1] for row in design]
        if where == "design":
            design[3][2] = bad
        else:
            y[3] = bad
        with pytest.raises(FloatingPointError, match=f"^{where} has a non-finite value$"):
            fit_target(design, y)
        assert capfd.readouterr().err == ""

    def test_too_few_rows(self):
        with pytest.raises(ValueError, match="at least"):
            fit_target([[1.0, 2.0]], [1.0])

    @pytest.mark.parametrize("design, y, names, message", [
        ([1.0, 1.0, 1.0], [1.0, 2.0, 3.0], None, r"design must be a 2-d matrix"),
        ([[1.0, 2.0]] * 3, [1.0, 2.0], None, r"y has length \(2,\), design has 3 rows"),
        ([[1.0, 2.0]] * 3, [1.0, 2.0, 3.0], ("a", "b"), r"2 names for 1 non-intercept columns"),
    ], ids=["1-d-design", "y-length", "name-count"])
    def test_shapes_checked(self, design, y, names, message):
        with pytest.raises(DimensionError, match=f"^{message}$"):
            fit_target(design, y, column_names=names)

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

    @pytest.mark.parametrize("text, finding", [
        # r0's quoted id spans lines 2 and 3, so the bad row is on line 4
        ('respondent,q1\n"r\n0",1\nr1,x\n', "line 4: answers must be integers"),
        ('respondent,q1\n"r\n0",1\nr1,2,3\n', "line 4: expected 2 fields"),
        ("respondent,q1\nr0,1\n\nr1,x", "line 4: answers must be integers"),
    ])
    def test_findings_name_the_physical_line(self, text, finding):
        with pytest.raises(ValueError, match=f"^survey CSV {finding}$"):
            read_survey_csv(text)

    def test_each_answer_text_parses_as_int_does(self):
        # int() takes surrounding spaces, a sign, leading zeros, underscores
        # and non-ASCII digits; texts of one value share a column
        texts = [" 3", "+3", "03", "3", "\u0663", "3 ", "0_3", "\uff13"]
        rows = "".join(f"r{i},{t},{t}\n" for i, t in enumerate(texts))
        survey = read_survey_csv("respondent,q1,q2\n" + rows + "r8,-0,1_0\n")
        expected = [int(t) for t in texts]
        assert [list(col) for col in survey.answers] == [expected + [0], expected + [10]]
        assert all(type(a) is int for col in survey.answers for a in col)

    @pytest.mark.parametrize("texts", [
        ["0", "9", "0"],
        ["\u0663", "\u0663"],  # ARABIC-INDIC DIGIT THREE: int() reads 3
        ["\uff13", "3"],  # FULLWIDTH DIGIT THREE: int() reads 3
        ["3", "\u00b2", "1"],  # SUPERSCRIPT TWO: isdigit(), but int() refuses it
        ["1", "10", "2", "07"],
    ], ids=["ascii", "arabic-indic", "fullwidth", "superscript", "one-and-two"])
    def test_one_character_answers_read_as_int_does(self, texts):
        """A column of single ASCII digits is converted in one pass; each
        other column gives what `int()` gives, or names the first line whose
        text `int()` refuses."""
        def as_int(t):
            try:
                return int(t)
            except ValueError:
                return None

        rows = "".join(f"r{i},{t},{i % 10}\n" for i, t in enumerate(texts))
        text = "respondent,q1,q2\n" + rows
        expected = list(map(as_int, texts))
        if None in expected:  # line 1 is the header
            line = expected.index(None) + 2
            with pytest.raises(ValueError, match=f"^survey CSV line {line}: "
                                                 "answers must be integers$"):
                read_survey_csv(text)
            return
        survey = read_survey_csv(text)
        assert [list(col) for col in survey.answers] == \
            [expected, [i % 10 for i in range(len(texts))]]
        assert all(type(a) is int for col in survey.answers for a in col)

    @pytest.mark.parametrize("text, line", [
        # q1's bad text is on a later line than q2's; file order decides
        ("respondent,q1,q2\nr0,1,2\nr1,2,x\nr2,y,1\n", 3),
        ("respondent,q1\nr0,3\nr1,3.0\nr2,3\n", 3),
        ("respondent,q1\nr0,3\nr1,\nr2,3\n", 3),
        ("respondent,q1\nr0,3\nr1,3\nr2,\u0663.\u0660\n", 4),
    ])
    def test_a_text_int_rejects_names_its_line(self, text, line):
        finding = f"^survey CSV line {line}: answers must be integers$"
        with pytest.raises(ValueError, match=finding):
            read_survey_csv(text)


def reference_respondent_scores(responses, cmap, scale):
    """The per-respondent loop the column pass replaced. Each construct was
    `sum(w * v ...)`; up to Python 3.11 that is the left fold from 0 below
    (3.12's `sum()` compensates), so the fold is kept as the reference."""
    out = []
    for answers in responses:
        z = [rescale_answer(a, scale) for a in answers]
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
    answers = [
        tuple(draw(st.integers(1, scale)) for _ in range(k))
        for _ in range(draw(st.integers(1, 30)))
    ]
    return answers, cmap, scale


class TestRespondentScoresColumnPass:
    @given(survey_cases())
    def test_bit_identical_to_row_loop(self, case):
        answers, cmap, scale = case
        got = respondent_scores(survey_of(*answers, k=cmap.question_count), cmap, scale).tolist()
        expected = reference_respondent_scores(answers, cmap, scale)
        assert [[repr(v) for v in row] for row in got] == \
            [[repr(v) for v in row] for row in expected]


# --- reference copy of the per-row reader the column reader replaced --------


def reference_read_survey_csv(text):
    """The per-row reader: (respondent, answers) per record, and K. A bad
    record is named by the physical line it ends on."""
    import csv
    import io

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
    if header[1:] != [f"q{i}" for i in range(1, k + 1)]:
        raise ValueError(f"survey CSV question columns must be q1..q{k}")
    rows = []
    for row in reader:
        if not row:
            continue
        lineno = reader.line_num
        if len(row) != k + 1:
            raise ValueError(f"survey CSV line {lineno}: expected {k + 1} fields")
        try:
            answers = tuple(int(v) for v in row[1:])
        except ValueError:
            raise ValueError(f"survey CSV line {lineno}: answers must be integers") from None
        rows.append((row[0], answers))
    return rows, k


def reference_check_survey(rows, k, scale):
    """The row-by-row check for a one-construct map over k questions, which
    fits an intercept and one coefficient."""
    if not rows:
        raise ValueError("survey has no responses")
    for respondent, answers in rows:
        if len(answers) != k:
            raise DimensionError(f"respondent {respondent!r} has {len(answers)} answers, expected {k}")
        for a in answers:
            if not 1 <= a <= scale:
                raise ValueError(f"respondent {respondent!r} answer {a} outside [1, {scale}]")
    if len(rows) < 2:
        raise ValueError(f"need at least 2 rows to fit 2 columns, got {len(rows)}")


def outcome(fn, *args):
    """What a call returns, or the type and text of what it raises."""
    try:
        return "ok", fn(*args)
    except ValueError as err:
        return type(err).__name__, str(err)


# Answers in and out of [1, 5], integers that `int()` reads with signs,
# spaces or non-ASCII digits, non-integers, and quoted fields. Most fields
# are plain answers, so that many texts parse and reach the range check.
odd_answers = st.sampled_from(["0", "6", "-1", "+2", " 4", "٣", "3.5", "x", "", '"3"', '"4,"'])
respondent_fields = st.sampled_from(["r0", "r1", '"r,2"', '"r\n3"', '""', "r 4"])


def mostly(draw, usual, unusual, one_in=6):
    return draw(unusual) if draw(st.integers(1, one_in)) == 1 else draw(usual)


@st.composite
def survey_texts(draw):
    k = draw(st.integers(1, 4))
    header = mostly(draw, st.just("respondent," + ",".join(f"q{i}" for i in range(1, k + 1))),
                    st.sampled_from(["id,q1", f"respondent,q2,q{k + 2}", "respondent", ""]))
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(1, 6)) == 1:
            lines.append("")  # blank line
            continue
        width = mostly(draw, st.just(k), st.sampled_from([k - 1, k + 1]))
        answers = [mostly(draw, st.sampled_from("12345"), odd_answers, one_in=8)
                   for _ in range(width)]
        lines.append(",".join([draw(respondent_fields), *answers]))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


class TestColumnReaderMatchesRowReader:
    @given(survey_texts())
    @example("respondent,q1,q2\nr0,3,1\n\nr1,x,3\nr2,9\n")
    @example("respondent,q1\r\n\"r\n0\",3\r\n\r\nr1,6\r\n")
    @example("respondent,q1,q2\n")
    def test_same_columns_and_errors(self, text):
        got = outcome(read_survey_csv, text)
        expected = outcome(reference_read_survey_csv, text)
        if expected[0] != "ok":
            assert got == expected
            return
        rows, k = expected[1]
        survey = got[1]
        assert len(survey.answers) == k
        assert list(survey.respondents) == [r for r, _ in rows]
        assert [list(col) for col in survey.answers] == \
            [[answers[q] for _, answers in rows] for q in range(k)]
        cmap = ConstructMap(("c",), ((1.0,) + (0.0,) * (k - 1),))
        assert outcome(check_survey, survey, cmap, 5) == \
            outcome(reference_check_survey, rows, k, 5)

    def test_out_of_range_names_first_respondent_in_file_order(self):
        # r1's bad answer is in a later column than r2's, but r1 comes first
        survey = read_survey_csv("respondent,q1,q2\nr0,1,1\nr1,1,7\nr2,0,1\n")
        cmap = ConstructMap(("c",), ((0.5, 0.5),))
        with pytest.raises(ValueError, match=r"^respondent 'r1' answer 7 outside \[1, 5\]$"):
            check_survey(survey, cmap, 5)

    def test_oversized_field_is_a_value_error(self):
        text = "respondent,q1\nr0,1\n\"" + "x" * 200_000 + "\",1\n"
        with pytest.raises(ValueError, match="^survey CSV line 3: field larger than field limit"):
            read_survey_csv(text)
