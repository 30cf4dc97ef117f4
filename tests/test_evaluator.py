import math

import pytest
from hypothesis import example, given, strategies as st

from wepolicy.coupling import FactCoupling, apply_fact_coupling
from wepolicy.errors import DimensionError
from wepolicy.evaluator import (
    RankedPolicies,
    RankedRow,
    WeightingProfile,
    evaluate_policies,
    select_best,
)
from wepolicy.policy_sim import PolicyKnobs, SweepRow, SweepTable
from wepolicy.survey import RegressionModel, fit_target, predict


def make_model(intercept, coefficients):
    """Noiseless fit that reproduces the requested linear target exactly."""
    points = [
        (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
        (1.0, 1.0, 0.0), (0.5, 0.25, 0.75),
    ]
    design = [[1.0, *p] for p in points]
    y = [intercept + sum(c * v for c, v in zip(coefficients, p)) for p in points]
    model = fit_target(design, y, column_names=("c1", "c2", "c3"))
    assert model.r_squared == 1.0
    return model


def make_sweep(indicator_rows):
    knobs = PolicyKnobs(0.1, 0.1, 0.1)
    return SweepTable(rows=tuple(
        SweepRow(i, knobs, tuple(ind)) for i, ind in enumerate(indicator_rows)
    ))


def zero_coupling():
    return FactCoupling("additive", ((0.0, 0.0, 0.0),) * 3)


def identity_coupling():
    return FactCoupling("additive", ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)))


def brute_force_best(target, baseline, profile, sweep):
    """Independent linear scan re-deriving the maximizer, ties to lowest id."""
    best_id = None
    best_w = None
    for row in sweep.rows:
        res = apply_fact_coupling(profile.coupling, baseline, row.indicators)
        w = predict(target, res.x_w_prime)
        if best_w is None or w > best_w or (w == best_w and row.policy_id < best_id):
            best_id, best_w = row.policy_id, w
    return best_id


class TestEvaluatePolicies:
    def test_zero_coupling_ties_rank_by_id(self):
        target = make_model(0.5, (1.0, 1.0, 1.0))
        sweep = make_sweep([(0.9, 0.1, 0.2), (0.1, 0.8, 0.3), (0.4, 0.4, 0.4)])
        ranked = evaluate_policies(target, (0.0, 0.0, 0.0), WeightingProfile("flat", zero_coupling()), sweep)
        assert [r.policy_id for r in ranked.rows] == [0, 1, 2]
        assert len({r.w_prime for r in ranked.rows}) == 1

    def test_economic_only_target_ranks_by_econ(self):
        # identity coupling routes indicator k to construct k, so a target
        # that only weights construct 0 ranks by the econ indicator alone
        target = make_model(0.0, (1.0, 0.0, 0.0))
        sweep = make_sweep([(0.2, 0.9, 0.9), (0.8, 0.0, 0.0), (0.5, 0.5, 0.5)])
        ranked = evaluate_policies(target, (0.0, 0.0, 0.0), WeightingProfile("econ", identity_coupling()), sweep)
        assert [r.policy_id for r in ranked.rows] == [1, 2, 0]

    def test_hand_computed_pair(self):
        target = make_model(0.1, (1.0, 0.0, 0.0))
        sweep = make_sweep([(0.6, 0.0, 0.0), (0.3, 0.0, 0.0)])
        ranked = evaluate_policies(target, (0.0, 0.0, 0.0), WeightingProfile("p", identity_coupling()), sweep)
        # W' = 0.1 + econ: 0.7 vs 0.4
        assert ranked.rows[0].policy_id == 0
        assert ranked.rows[0].w_prime == pytest.approx(0.7, abs=1e-12)
        assert ranked.rows[1].w_prime == pytest.approx(0.4, abs=1e-12)

    def test_x_w_prime_recorded(self):
        target = make_model(0.0, (1.0, 1.0, 1.0))
        sweep = make_sweep([(0.5, 0.25, 0.125)])
        ranked = evaluate_policies(target, (0.1, 0.1, 0.1), WeightingProfile("p", identity_coupling()), sweep)
        assert ranked.rows[0].x_w_prime == (0.6, 0.35, 0.225)

    def test_perturbation_warnings_counted(self):
        coupling = FactCoupling("additive", identity_coupling().matrix, warn_threshold=0.01)
        target = make_model(0.0, (1.0, 1.0, 1.0))
        sweep = make_sweep([(0.5, 0.5, 0.5), (0.0, 0.0, 0.0)])
        ranked = evaluate_policies(target, (1.0, 1.0, 1.0), WeightingProfile("p", coupling), sweep)
        assert ranked.perturbation_warnings == 1

    def test_empty_sweep_rejected(self):
        target = make_model(0.0, (1.0, 1.0, 1.0))
        with pytest.raises(ValueError, match="empty"):
            evaluate_policies(target, (0.0, 0.0, 0.0), WeightingProfile("p", zero_coupling()), SweepTable(rows=()))

    def test_dimension_mismatch_propagates(self):
        target = make_model(0.0, (1.0, 1.0, 1.0))
        sweep = make_sweep([(0.1, 0.2, 0.3)])
        with pytest.raises(DimensionError):
            evaluate_policies(target, (0.0, 0.0), WeightingProfile("p", zero_coupling()), sweep)


class TestSelectBest:
    def test_distinct_scores(self):
        target = make_model(0.0, (1.0, 0.0, 0.0))
        sweep = make_sweep([(0.1, 0, 0), (0.9, 0, 0), (0.5, 0, 0)])
        ranked = evaluate_policies(target, (0.0, 0.0, 0.0), WeightingProfile("p", identity_coupling()), sweep)
        assert select_best(ranked) == 1

    def test_tie_resolves_to_smallest_id(self):
        target = make_model(0.0, (1.0, 0.0, 0.0))
        rows = [(0.2, 0, 0), (0.1, 0, 0), (0.1, 0, 0), (0.9, 0, 0),
                (0.3, 0, 0), (0.4, 0, 0), (0.2, 0, 0), (0.9, 0, 0)]
        sweep = make_sweep(rows)  # ids 3 and 7 tie at 0.9
        ranked = evaluate_policies(target, (0.0, 0.0, 0.0), WeightingProfile("p", identity_coupling()), sweep)
        assert select_best(ranked) == 3
        assert [r.policy_id for r in ranked.rows[:2]] == [3, 7]

    def test_matches_brute_force_scan(self):
        target = make_model(0.2, (0.7, -0.4, 1.1))
        baseline = (0.05, -0.1, 0.2)
        profile = WeightingProfile("p", FactCoupling("additive", (
            (0.2, 0.0, 0.1), (0.0, 0.3, 0.0), (0.4, 0.1, 0.0),
        )))
        import random
        rng = random.Random(6)
        sweep = make_sweep([
            (rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(500)
        ])
        ranked = evaluate_policies(target, baseline, profile, sweep)
        assert select_best(ranked) == brute_force_best(target, baseline, profile, sweep)

    def test_empty_ranking_rejected(self):
        with pytest.raises(ValueError):
            select_best(RankedPolicies(policy_ids=(), w_prime=(), x_w_prime=()))

    def test_appending_worse_row_is_stable(self):
        target = make_model(0.0, (1.0, 0.0, 0.0))
        rows = [(0.5, 0, 0), (0.8, 0, 0), (0.2, 0, 0)]
        profile = WeightingProfile("p", identity_coupling())
        base_best = select_best(evaluate_policies(target, (0.0, 0.0, 0.0), profile, make_sweep(rows)))
        extended = select_best(evaluate_policies(target, (0.0, 0.0, 0.0), profile, make_sweep(rows + [(0.05, 0, 0)])))
        assert base_best == extended == 1


class TestInvariances:
    def test_scaling_target_preserves_order(self):
        target = make_model(0.3, (0.6, 0.2, 0.9))
        scaled = make_model(0.3 * 7.3, tuple(7.3 * c for c in (0.6, 0.2, 0.9)))
        import random
        rng = random.Random(8)
        sweep = make_sweep([
            (rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 1)) for _ in range(200)
        ])
        profile = WeightingProfile("p", identity_coupling())
        baseline = (0.1, 0.0, -0.1)
        order = [r.policy_id for r in evaluate_policies(target, baseline, profile, sweep).rows]
        scaled_order = [r.policy_id for r in evaluate_policies(scaled, baseline, profile, sweep).rows]
        assert order == scaled_order

    def test_monotone_coupling_never_demotes_on_raise(self):
        target = make_model(0.0, (0.5, 0.5, 0.5))
        profile = WeightingProfile("p", FactCoupling("additive", (
            (0.2, 0.1, 0.0), (0.0, 0.3, 0.1), (0.1, 0.0, 0.4),
        )))
        rows = [(0.3, 0.4, 0.5), (0.6, 0.1, 0.2), (0.2, 0.2, 0.2), (0.8, 0.8, 0.1)]
        baseline = (0.0, 0.0, 0.0)
        before = evaluate_policies(target, baseline, profile, make_sweep(rows))
        rank_before = [r.policy_id for r in before.rows].index(2)
        bumped = list(rows)
        bumped[2] = (0.9, 0.2, 0.2)
        after = evaluate_policies(target, baseline, profile, make_sweep(bumped))
        rank_after = [r.policy_id for r in after.rows].index(2)
        assert rank_after <= rank_before


# --- reference copy of the per-row scan that the column pass replaced -------


def reference_coupling(g, x_w, x_c):
    """The scalar fact coupling: one Python pass per row."""
    if len(x_w) != g.subjective_dim:
        raise DimensionError(
            f"x_w has length {len(x_w)}, coupling expects {g.subjective_dim}"
        )
    if len(x_c) != g.fact_dim:
        raise DimensionError(f"x_c has length {len(x_c)}, coupling expects {g.fact_dim}")
    if not all(math.isfinite(v) for v in x_w) or not all(math.isfinite(v) for v in x_c):
        raise ValueError("fact coupling requires finite inputs")
    shift = []
    for row in g.matrix:
        acc = 0.0
        for w, v in zip(row, x_c):
            acc += w * v
        shift.append(acc)
    if g.mode == "additive":
        prime = [wv + sv for wv, sv in zip(x_w, shift)]
    else:
        prime = [wv * (1.0 + sv) for wv, sv in zip(x_w, shift)]
    delta = max(abs(p - w) for p, w in zip(prime, x_w))
    ratio = delta / max(max(abs(w) for w in x_w), 1e-9)
    return tuple(prime), ratio > g.warn_threshold


def reference_evaluate(target, baseline_x_w, profile, sweep):
    if not sweep.rows:
        raise ValueError("sweep table is empty")
    scored = []
    warnings = 0
    for row in sweep.rows:
        prime, warned = reference_coupling(profile.coupling, baseline_x_w, row.indicators)
        warnings += warned
        scored.append(RankedRow(row.policy_id, prime, predict(target, prime)))
    scored.sort(key=lambda r: (-r.w_prime, r.policy_id))
    return tuple(scored), warnings


def fingerprint(rows, warnings):
    """Row order, every float by repr (so -0.0 and the last bit count), warnings."""
    return (
        [(r.policy_id, repr(r.w_prime), [repr(v) for v in r.x_w_prime]) for r in rows],
        warnings,
    )


# A small pool makes exact ties, zeros and -0.0 common.
values = st.one_of(
    st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, 0.1, 0.2, 0.3]),
    st.floats(min_value=-3.0, max_value=3.0),
)


@st.composite
def scoring_cases(draw):
    n_w = draw(st.integers(1, 4))
    n_c = draw(st.integers(1, 4))
    matrix = tuple(tuple(draw(values) for _ in range(n_c)) for _ in range(n_w))
    coupling = FactCoupling(
        draw(st.sampled_from(["additive", "multiplicative"])),
        matrix,
        warn_threshold=draw(st.sampled_from([0.0, 0.2, 1.0, 5.0])),
    )
    baseline = draw(st.one_of(
        st.just((0.0,) * n_w),  # exercises the 1e-9 norm floor
        st.tuples(*[values] * n_w),
    ))
    target = RegressionModel(
        intercept=draw(values),
        coefficients=tuple(draw(values) for _ in range(n_w)),
        names=tuple(f"c{i}" for i in range(n_w)),
        r_squared=1.0,
        residuals=(),
    )
    pool = draw(st.lists(st.tuples(*[values] * n_c), min_size=1, max_size=4))
    indicators = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    ids = draw(st.permutations(range(len(indicators))))
    knobs = PolicyKnobs(0.1, 0.1, 0.1)
    sweep = SweepTable(rows=tuple(
        SweepRow(i, knobs, ind) for i, ind in zip(ids, indicators)
    ))
    return target, baseline, WeightingProfile("p", coupling), sweep


class TestColumnPassMatchesRowScan:
    @given(scoring_cases())
    @example((
        RegressionModel(0.0, (1.0,), ("c",), 1.0, ()),
        (0.0,),
        WeightingProfile("p", FactCoupling("multiplicative", ((-0.0,),))),
        SweepTable(rows=(SweepRow(0, PolicyKnobs(0.1, 0.1, 0.1), (-0.0,)),)),
    ))
    def test_bit_identical(self, case):
        target, baseline, profile, sweep = case
        ranked = evaluate_policies(target, baseline, profile, sweep)
        assert fingerprint(ranked.rows, ranked.perturbation_warnings) == \
            fingerprint(*reference_evaluate(target, baseline, profile, sweep))

    @pytest.mark.parametrize("baseline, indicators, n_coefficients", [
        ((0.0, 0.0), [(0.1, 0.2, 0.3)], 3),  # x_w length
        ((0.0, 0.0, 0.0), [(0.1, 0.2, 0.3), (0.1, 0.2)], 3),  # one short row
        ((0.0, math.nan, 0.0), [(0.1, 0.2, 0.3)], 3),  # non-finite baseline
        ((0.0, 0.0, 0.0), [(0.1, 0.2, 0.3), (0.1, math.inf, 0.3)], 3),  # non-finite fact
        ((0.0, 0.0, 0.0), [(0.1, 0.2, 0.3)], 2),  # model width
    ])
    def test_single_fault_messages_unchanged(self, baseline, indicators, n_coefficients):
        target = RegressionModel(0.0, (1.0,) * n_coefficients, ("c",) * n_coefficients, 1.0, ())
        profile = WeightingProfile("p", identity_coupling())
        sweep = make_sweep(indicators)
        with pytest.raises(ValueError) as expected:
            reference_evaluate(target, baseline, profile, sweep)
        with pytest.raises(type(expected.value)) as got:
            evaluate_policies(target, baseline, profile, sweep)
        assert str(got.value) == str(expected.value)


class TestNonFiniteScores:
    def test_overflowing_coupling_is_a_numerical_failure(self):
        target = make_model(0.0, (1.0, 1.0, 1.0))
        huge = FactCoupling("additive", ((1.79e308,) * 3,) * 3)
        sweep = make_sweep([(0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (1.0, 1.0, 1.0)])
        with pytest.raises(FloatingPointError) as err:
            evaluate_policies(target, (0.0, 0.0, 0.0), WeightingProfile("Type A", huge), sweep)
        assert str(err.value) == (
            "profile 'Type A': coupled vector or score of policy 1 is not finite"
        )

    def test_overflowing_score_is_a_numerical_failure(self):
        # every coupled vector is finite; only the score overflows
        target = RegressionModel(0.0, (1e308, 1e308, 1e308), ("a", "b", "c"), 1.0, ())
        sweep = make_sweep([(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.9, 0.9, 0.9)])
        with pytest.raises(FloatingPointError, match="policy 2 is not finite"):
            evaluate_policies(target, (0.1, 0.1, 0.1), WeightingProfile("p", identity_coupling()), sweep)
