import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from wepolicy import policy_sim
from wepolicy.numeric import left_sum
from wepolicy.policy_sim import (
    DynamicsConfig,
    PolicyKnobs,
    SweepRow,
    SweepTable,
    normalize_ternary,
    run_policy,
    run_sweep,
)


NAN = float("nan")
# Grid values in and out of each knob's range, with the range ends, signed
# zeros, ints and non-finite values.
knob_values = st.one_of(
    st.sampled_from([0.0, -0.0, 0, 1, 0.5, 1.0, -5e-324, 0.75, 1.5, -0.2, NAN, math.inf]),
    st.floats(-0.5, 1.5),
)


def hand_step_reference(cfg: DynamicsConfig, knobs: PolicyKnobs, incomes):
    """Independent literal restatement of the dynamics for given incomes."""
    n = len(incomes)
    rho = 0.0
    connections = [0.0] * n
    disposable = list(incomes)
    for _ in range(cfg.steps):
        pool = knobs.tax * sum(incomes)
        rho = min(1.0, rho + cfg.renewable_rate * knobs.subsidy * pool / n)
        disposable = [y * (1.0 - knobs.tax) + knobs.service * pool / n for y in incomes]
        connections = [
            max(0.0, c + cfg.connection_rate * knobs.service - cfg.connection_decay)
            for c in connections
        ]
    econ = sum(disposable) / n
    env = 1.0 - (sum([1.0] * n) / n) * (1.0 - rho)
    soc = sum(connections) / n
    return (econ, env, soc)


def seeded_incomes(cfg: DynamicsConfig):
    """The module's income draw: one seeded uniform spread per agent."""
    rng = random.Random(cfg.seed)
    return [1.0 + cfg.income_spread * rng.uniform(-1.0, 1.0) for _ in range(cfg.agents)]


WORKED_CFG = DynamicsConfig(
    agents=1, steps=1, seed=123, income_spread=0.0,
    renewable_rate=0.1, connection_rate=0.1, connection_decay=0.05,
)
WORKED_KNOBS = PolicyKnobs(subsidy=0.5, tax=0.2, service=0.5)


class TestRunPolicy:
    def test_worked_single_agent_step(self):
        # zero spread pins income at exactly 1.0; the oracle steps the same
        # recurrence independently and must agree bit for bit
        got = run_policy(WORKED_CFG, WORKED_KNOBS)
        assert got == hand_step_reference(WORKED_CFG, WORKED_KNOBS, [1.0])
        # decimal targets (0.9, 0.01, 0.0); econ and social are exact, env
        # carries ~1e-17 of unavoidable rounding
        assert got[0] == 0.9
        assert got[1] == pytest.approx(0.01, abs=1e-15)
        assert got[2] == 0.0

    def test_no_tax_collapses_revenue(self):
        cfg = DynamicsConfig(agents=3, steps=4, seed=5, income_spread=0.0,
                             renewable_rate=0.3, connection_rate=0.2, connection_decay=0.05)
        knobs = PolicyKnobs(subsidy=0.5, tax=0.0, service=0.5)
        econ, env, soc = run_policy(cfg, knobs)
        assert econ == 1.0  # mean income, untaxed
        assert env == 0.0
        assert soc > 0.0  # kappa_c * v = 0.1 > decay
        lazy = PolicyKnobs(subsidy=0.5, tax=0.0, service=0.1)
        assert run_policy(cfg, lazy)[2] == 0.0  # 0.02 < decay, floored at 0

    def test_deterministic(self):
        cfg = DynamicsConfig(agents=30, steps=5, seed=77, income_spread=0.4)
        knobs = PolicyKnobs(subsidy=0.3, tax=0.2, service=0.4)
        assert run_policy(cfg, knobs) == run_policy(cfg, knobs)

    def test_bounds(self):
        cfg = DynamicsConfig(agents=10, steps=8, seed=9, income_spread=0.5,
                             renewable_rate=0.8, connection_rate=0.4, connection_decay=0.1)
        for s in (0.0, 0.5, 1.0):
            for t in (0.0, 0.25, 0.5):
                v = 1.0 - s
                econ, env, soc = run_policy(cfg, PolicyKnobs(s, t, v))
                assert 0.0 <= env <= 1.0
                assert soc >= 0.0
                assert econ >= 0.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DynamicsConfig(agents=0, steps=1, seed=1)
        with pytest.raises(ValueError):
            DynamicsConfig(agents=1, steps=0, seed=1)
        with pytest.raises(ValueError):
            DynamicsConfig(agents=1, steps=1, seed=1, income_spread=-0.1)

    def test_negative_seed_rejected(self):
        # random.Random seeds from abs(seed), so -7 would silently replay 7
        with pytest.raises(ValueError, match="seed must be >= 0"):
            DynamicsConfig(agents=1, steps=1, seed=-7)
        assert DynamicsConfig(agents=1, steps=1, seed=0).seed == 0

    def test_knob_validation(self):
        with pytest.raises(ValueError):
            PolicyKnobs(subsidy=1.2, tax=0.1, service=0.0)
        with pytest.raises(ValueError):
            PolicyKnobs(subsidy=0.0, tax=0.6, service=0.0)
        with pytest.raises(ValueError):
            PolicyKnobs(subsidy=0.0, tax=0.1, service=-0.2)
        with pytest.raises(ValueError, match="budget"):
            PolicyKnobs(subsidy=0.8, tax=0.1, service=0.8)


class TestRunSweep:
    def _cfg(self, **kw):
        base = dict(agents=4, steps=3, seed=11, income_spread=0.2)
        base.update(kw)
        return DynamicsConfig(**base)

    def test_full_grid_cardinality(self):
        table = run_sweep(self._cfg(), [0.0, 0.25, 0.5], [0.0, 0.1, 0.2], [0.0, 0.25, 0.5])
        assert len(table.rows) == 27
        assert table.skipped == ()
        assert [r.policy_id for r in table.rows] == list(range(27))

    def test_budget_violations_skipped_and_reported(self):
        table = run_sweep(self._cfg(), [0.8], [0.1], [0.1, 0.8])
        assert len(table.rows) == 1
        assert table.skipped == ((0.8, 0.1, 0.8),)

    def test_degenerate_sweep_equals_run_policy(self):
        cfg = self._cfg()
        knobs = PolicyKnobs(0.3, 0.2, 0.4)
        table = run_sweep(cfg, [0.3], [0.2], [0.4])
        assert len(table.rows) == 1
        assert table.rows[0].indicators == run_policy(cfg, knobs)

    def test_every_row_equals_run_policy(self):
        cfg = self._cfg(agents=9, steps=7, income_spread=0.6, renewable_rate=0.9)
        table = run_sweep(cfg, [0.0, 0.3, 0.7], [0.0, 0.25, 0.5], [0.0, 0.4, 0.9])
        assert len(table.rows) == 18 and len(table.skipped) == 9
        for row in table.rows:
            assert row.indicators == run_policy(cfg, row.knobs)

    def test_incomes_drawn_once_per_sweep(self, monkeypatch):
        built = []

        class CountingRandom(random.Random):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(policy_sim.random, "Random", CountingRandom)
        cfg = self._cfg()
        table = run_sweep(cfg, [0.0, 0.25, 0.5], [0.0, 0.1, 0.2], [0.0, 0.25, 0.5])
        assert len(table.rows) == 27
        assert built == [(cfg.seed,)]

    @settings(max_examples=150, deadline=None)
    @given(
        agents=st.integers(1, 64),
        steps=st.integers(1, 40),
        seed=st.integers(0, 2**32 - 1),
        spread=st.floats(0.01, 1.0),
        renewable_rate=st.floats(0.0, 5.0),
        connection_rate=st.floats(0.0, 1.0),
        connection_decay=st.floats(0.0, 0.5),
        subsidies=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
        taxes=st.lists(st.floats(0.0, 0.5), min_size=1, max_size=3),
        services=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
    )
    # rho saturates at 1 (large rate, many steps) and the connection level
    # sits on its max(0, ...) floor (decay above rate * service)
    @example(agents=5, steps=40, seed=1, spread=0.5, renewable_rate=5.0,
             connection_rate=0.1, connection_decay=0.5,
             subsidies=[1.0], taxes=[0.5], services=[0.0])
    @example(agents=64, steps=3, seed=2, spread=0.9, renewable_rate=0.2,
             connection_rate=1.0, connection_decay=0.05,
             subsidies=[0.2, 0.6], taxes=[0.1, 0.4], services=[0.3, 0.9])
    def test_rows_match_hand_step_reference(
        self, agents, steps, seed, spread, renewable_rate, connection_rate,
        connection_decay, subsidies, taxes, services,
    ):
        cfg = DynamicsConfig(agents=agents, steps=steps, seed=seed, income_spread=spread,
                             renewable_rate=renewable_rate, connection_rate=connection_rate,
                             connection_decay=connection_decay)
        incomes = seeded_incomes(cfg)
        table = run_sweep(cfg, subsidies, taxes, services)
        for row in table.rows:
            assert row.indicators == hand_step_reference(cfg, row.knobs, incomes)

    def test_iteration_order_subsidy_tax_service(self):
        table = run_sweep(self._cfg(), [0.0, 0.1], [0.0, 0.1], [0.0, 0.1])
        triples = [(r.knobs.subsidy, r.knobs.tax, r.knobs.service) for r in table.rows]
        assert triples == [
            (0.0, 0.0, 0.0), (0.0, 0.0, 0.1), (0.0, 0.1, 0.0), (0.0, 0.1, 0.1),
            (0.1, 0.0, 0.0), (0.1, 0.0, 0.1), (0.1, 0.1, 0.0), (0.1, 0.1, 0.1),
        ]

    def test_rows_independent_of_grid_permutation(self):
        # every row sees the same seeded incomes, so a permuted grid gives
        # the same indicators for the same knob triple
        cfg = self._cfg(income_spread=0.5)
        a = run_sweep(cfg, [0.0, 0.4], [0.1, 0.2], [0.3, 0.6])
        b = run_sweep(cfg, [0.4, 0.0], [0.2, 0.1], [0.6, 0.3])
        by_knobs_a = {(r.knobs.subsidy, r.knobs.tax, r.knobs.service): r.indicators for r in a.rows}
        by_knobs_b = {(r.knobs.subsidy, r.knobs.tax, r.knobs.service): r.indicators for r in b.rows}
        assert by_knobs_a == by_knobs_b

    def test_monotone_probes_zero_spread(self):
        cfg = self._cfg(income_spread=0.0, renewable_rate=0.5)
        grid = [0.0, 0.25, 0.5]
        table = run_sweep(cfg, grid, grid[:2] + [0.2], grid)
        rows = {(r.knobs.subsidy, r.knobs.tax, r.knobs.service): r.indicators for r in table.rows}
        for t in (0.0, 0.25, 0.2):
            for v in grid:
                env = [rows[(s, t, v)][1] for s in grid if (s, t, v) in rows]
                assert all(a <= b for a, b in zip(env, env[1:]))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(self._cfg(), [], [0.1], [0.1])

    def test_out_of_range_grid_value_rejected(self):
        with pytest.raises(ValueError):
            run_sweep(self._cfg(), [0.1], [0.6], [0.1])

    # Texts recorded from the sweep that built every admissible combination
    # through `PolicyKnobs(...)`: the first admissible combination in grid
    # order with a knob out of range raises the constructor's message.
    @pytest.mark.parametrize("subsidies, taxes, services, message", [
        ([0.5], [0.7], [0.2], "tax must be in [0, 0.5], got 0.7"),
        ([1.5], [0.1], [0.0, -0.6], "subsidy must be in [0, 1], got 1.5"),
        ([NAN], [0.1], [0.2], "subsidy must be in [0, 1], got nan"),
        ([0.2], [NAN], [0.2], "tax must be in [0, 0.5], got nan"),
        ([0.2], [0.1], [NAN], "service must be in [0, 1], got nan"),
        ([0.2, 0.3], [0.1, 0.9], [0.1], "tax must be in [0, 0.5], got 0.9"),
        ([0.2], [0.1], [-0.1], "service must be in [0, 1], got -0.1"),
        ([0.2], [math.inf], [0.1], "tax must be in [0, 0.5], got inf"),
        ([2], [0], [-1], "subsidy must be in [0, 1], got 2"),
        ([0.2], [-0.0, -5e-324], [0.1], "tax must be in [0, 0.5], got -5e-324"),
    ])
    def test_out_of_range_messages_match_the_constructor(self, subsidies, taxes,
                                                         services, message):
        with pytest.raises(ValueError) as err:
            run_sweep(self._cfg(), subsidies, taxes, services)
        assert str(err.value) == message

    @given(st.lists(knob_values, min_size=1, max_size=4),
           st.lists(knob_values, min_size=1, max_size=4),
           st.lists(knob_values, min_size=1, max_size=4))
    @example([0.9, 0.2], [0.1], [0.5, 1.5])  # the bad service only meets skipped subsidies
    @example([1], [0], [-0.0])
    def test_same_knobs_or_error_as_the_constructor(self, subsidies, taxes, services):
        """Knobs built without the constructor's checks equal, in value and
        type, those built through it, and an error has its message."""
        expected_skipped, knobs = [], []
        try:
            for s in subsidies:
                for t in taxes:
                    for v in services:
                        if s + v > 1.0:
                            expected_skipped.append((float(s), float(t), float(v)))
                        else:
                            knobs.append(PolicyKnobs(subsidy=s, tax=t, service=v))
        except ValueError as err:
            with pytest.raises(ValueError) as got:
                run_sweep(self._cfg(), subsidies, taxes, services)
            assert str(got.value) == str(err)
            return
        if not knobs:
            return
        table = run_sweep(self._cfg(), subsidies, taxes, services)
        assert [repr(r.knobs) for r in table.rows] == list(map(repr, knobs))
        assert all(type(r.knobs) is PolicyKnobs for r in table.rows)
        assert table.skipped == tuple(expected_skipped)


class TestIndicatorMemo:
    """Each indicator is simulated once per distinct key it reads:
    economic per (tax, service), environmental per (subsidy, tax) and
    social per service."""

    def test_left_sum_calls_per_distinct_key(self, monkeypatch):
        calls = []

        def counting_left_sum(xs):
            calls.append(None)
            return left_sum(xs)

        monkeypatch.setattr(policy_sim, "left_sum", counting_left_sum)
        cfg = DynamicsConfig(agents=6, steps=5, seed=4, income_spread=0.4)
        # service 0.8 is admissible with neither subsidy, so it is never simulated
        table = run_sweep(cfg, [0.3, 0.6], [0.1, 0.2, 0.1], [0.0, 0.4, 0.4, 0.8])
        assert (len(table.rows), len(table.skipped)) == (18, 6)
        knobs = [row.knobs for row in table.rows]
        distinct = len({(k.tax, k.service) for k in knobs}) + len({k.service for k in knobs})
        # one sum of the incomes, one per economic key and one per social key
        assert len(calls) == 1 + distinct == 7

    def test_repeated_values_and_signed_zeros(self):
        # 0.0 and -0.0 are one key; both give the same indicators
        cfg = DynamicsConfig(agents=7, steps=6, seed=8, income_spread=0.7,
                             renewable_rate=0.9, connection_rate=0.3)
        grid = [0.0, -0.0, 5e-324, 0.25, 0.0, 0.25]
        table = run_sweep(cfg, grid, [0.5, -0.0, 5e-324, 0.5, 0.0], grid)
        assert len(table.rows) == 180
        incomes = seeded_incomes(cfg)
        for row in table.rows:
            assert repr(row.indicators) == repr(run_policy(cfg, row.knobs))
            assert row.indicators == hand_step_reference(cfg, row.knobs, incomes)

    @pytest.mark.parametrize("rates, subsidies, services, message", [
        # the first row fills the memo; the second reuses its environmental
        # entry and is the first with a non-finite social indicator
        ({"connection_rate": 1e308}, [0.0, 0.25], [0.0, 0.5],
         "non-finite indicators (1.0753776274460642, 0.0, inf) for "
         "PolicyKnobs(subsidy=0.0, tax=0.1, service=0.5)"),
        ({"connection_rate": 1e308}, [0.0, 0.25], [0.5, 0.0],
         "non-finite indicators (1.0753776274460642, 0.0, inf) for "
         "PolicyKnobs(subsidy=0.0, tax=0.1, service=0.5)"),
        ({"connection_rate": 1e308}, [0.25, 0.0], [0.0, 0.5],
         "non-finite indicators (1.0753776274460642, 0.011319764499432283, inf) for "
         "PolicyKnobs(subsidy=0.25, tax=0.1, service=0.5)"),
        # the incomes sum to inf, so no row is finite
        ({"income_spread": 1e308, "agents": 20, "steps": 2}, [0.0, 0.25], [0.0, 0.5],
         "non-finite indicators (nan, 1.0, 0.0) for "
         "PolicyKnobs(subsidy=0.0, tax=0.1, service=0.0)"),
    ], ids=["memo-filled", "first-row", "second-subsidy", "income-overflow"])
    def test_first_non_finite_row_in_grid_order(self, rates, subsidies, services, message):
        cfg = DynamicsConfig(**{"agents": 3, "steps": 4, "seed": 5, "income_spread": 0.3, **rates})
        with pytest.raises(FloatingPointError) as err:
            run_sweep(cfg, subsidies, [0.1, 0.2], services)
        assert str(err.value) == message


def reference_normalize_ternary(table):
    """The per-row loop the column version replaced: one share triple per row."""
    cols = list(zip(*(r.indicators for r in table.rows)))
    lo = [min(c) for c in cols]
    hi = [max(c) for c in cols]
    out = []
    for row in table.rows:
        norm = [
            (v - l) / (h - l) if h > l else 0.0
            for v, l, h in zip(row.indicators, lo, hi)
        ]
        total = left_sum(norm)
        if total == 0.0:
            out.append((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))
        else:
            out.append(tuple(v / total for v in norm))
    return out


def indicator_table(rows):
    knobs = PolicyKnobs(0.1, 0.1, 0.1)
    return SweepTable(rows=tuple(SweepRow(i, knobs, tuple(r)) for i, r in enumerate(rows)))


indicator_values = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.1, 1.0, 1e308, -1e308]),
    st.floats(0.0, 10.0),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def indicator_tables(draw):
    """Three indicator columns of 1 to 8 rows, some constant, with some rows
    set to every column's minimum."""
    n = draw(st.integers(1, 8))
    cols = [
        [draw(indicator_values)] * n if draw(st.booleans())
        else draw(st.lists(indicator_values, min_size=n, max_size=n))
        for _ in range(3)
    ]
    rows = [list(r) for r in zip(*cols)]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        rows[i] = [min(c) for c in cols]
    return indicator_table(rows)


class TestNormalizeTernary:
    @given(indicator_tables())
    @example(indicator_table([(-0.0, 5e-324, 0.0)]))
    @example(indicator_table([(0.0, 5e-324, 2.0), (-0.0, 0.0, 2.0), (5e-324, -0.0, 2.0)]))
    @example(indicator_table([(1.0, 2.0, 3.0), (1.0, 1.0, 1.0), (1.0, 5.0, -0.0)]))
    # (0.1 + 0.2) + 0.3 is 0.6000000000000001, and 0.1 + (0.2 + 0.3) is 0.6
    @example(indicator_table([(0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (0.1, 0.2, 0.3)]))
    def test_same_shares_as_the_row_loop(self, table):
        """Every share has the repr the per-row loop gives it: constant
        columns, all-minimum rows at the centroid, signed zeros, subnormals
        and overflowing ranges included."""
        got = normalize_ternary(table)
        assert [len(col) for col in got] == [len(table.rows)] * 3
        assert [tuple(map(repr, row)) for row in zip(*got)] == \
            [tuple(map(repr, row)) for row in reference_normalize_ternary(table)]

    def test_single_row_is_centroid(self):
        table = run_sweep(DynamicsConfig(agents=1, steps=1, seed=1), [0.2], [0.1], [0.3])
        assert normalize_ternary(table) == [[1.0 / 3.0]] * 3

    def test_rows_sum_to_one(self):
        cfg = DynamicsConfig(agents=5, steps=4, seed=3, income_spread=0.3,
                             renewable_rate=0.4, connection_rate=0.3, connection_decay=0.05)
        table = run_sweep(cfg, [0.0, 0.3, 0.6], [0.1, 0.3], [0.0, 0.4])
        for p in zip(*normalize_ternary(table)):
            assert abs(sum(p) - 1.0) <= 1e-12
            assert all(v >= 0.0 for v in p)

    def test_dominated_zero_row_maps_to_centroid(self):
        # one row dominates every indicator, the other is the min on all
        # three; after min-max the loser is all-zero and lands on the centroid
        shares = list(zip(*normalize_ternary(indicator_table([(2.0, 3.0, 4.0), (1.0, 1.0, 1.0)]))))
        assert shares[0] == (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
        assert shares[1] == (1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            normalize_ternary(SweepTable(rows=()))
