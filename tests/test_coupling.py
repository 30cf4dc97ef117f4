import math
import random

import pytest
from hypothesis import given, strategies as st

from wepolicy.coupling import (
    FactCoupling,
    LinearMap,
    NetworkEdge,
    ParameterNetwork,
    Saturator,
    ScopeFunction,
    apply_fact_coupling,
    apply_map,
    check_consensus,
    propagate_network,
)
from wepolicy.errors import DimensionError, UnknownNodeError
from wepolicy.graphs import CycleError
from wepolicy.valuefn import AsymmetricSpec, ValueFunctionSpec
from wepolicy.we_model import aggregate, weighted_pair

finite = st.floats(min_value=-100.0, max_value=100.0)


class TestApplyMap:
    def test_identity(self):
        m = LinearMap(matrix=((1.0, 0.0), (0.0, 1.0)), offset=(0.0, 0.0))
        assert apply_map(m, (0.3, -0.7)) == [0.3, -0.7]

    def test_row_sum(self):
        m = LinearMap(matrix=((1.0, 1.0),), offset=(0.0,))
        assert apply_map(m, (2.0, 3.0)) == [5.0]

    def test_scale_and_offset(self):
        m = LinearMap(matrix=((2.0, 0.0), (0.0, 2.0)), offset=(1.0, 1.0))
        assert apply_map(m, (1.0, 1.0)) == [3.0, 3.0]

    def test_dimension_mismatch(self):
        m = LinearMap(matrix=((1.0, 0.0),), offset=(0.0,))
        with pytest.raises(DimensionError):
            apply_map(m, (1.0, 2.0, 3.0))

    def test_offset_length_checked(self):
        with pytest.raises(DimensionError):
            LinearMap(matrix=((1.0,),), offset=(0.0, 0.0))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="^matrix must have at least one row$"):
            LinearMap(matrix=(), offset=())

    @given(finite, finite, finite, finite, finite, finite)
    def test_homogeneous_linearity(self, a, b, x1, x2, y1, y2):
        # zero offset: f(a x + b y) == a f(x) + b f(y) up to rounding
        m = LinearMap(matrix=((0.5, -1.5), (2.0, 0.25)), offset=(0.0, 0.0))
        x, y = (x1, x2), (y1, y2)
        combo = [a * xv + b * yv for xv, yv in zip(x, y)]
        left = apply_map(m, combo)
        fx, fy = apply_map(m, x), apply_map(m, y)
        right = [a * fxv + b * fyv for fxv, fyv in zip(fx, fy)]
        for l, r in zip(left, right):
            assert abs(l - r) <= 1e-9 * max(1.0, abs(l), abs(r))

    def test_saturator(self):
        sat = Saturator(scale=2.0)
        m = LinearMap(matrix=((1.0,),), offset=(0.0,), nonlinearity=sat)
        assert apply_map(m, (0.5,)) == [2.0 * math.tanh(0.25)]
        # compresses toward the scale bound (tanh hits 1.0 exactly in floats
        # for large arguments, so the bound itself is attainable)
        assert apply_map(m, (3.0,))[0] < 3.0
        assert apply_map(m, (100.0,))[0] <= 2.0
        with pytest.raises(ValueError):
            Saturator(scale=0.0)


class TestCheckConsensus:
    def _identity(self):
        return LinearMap(matrix=((1.0, 0.0), (0.0, 1.0)), offset=(0.0, 0.0))

    def _fn(self):
        return ScopeFunction((0.6, 0.4), AsymmetricSpec())

    def _grid(self):
        return [(x, y) for x in (-2.0, -0.5, 0.0, 0.5, 2.0) for y in (-2.0, 0.0, 2.0)]

    def test_identical_functions_hold_exactly(self):
        report = check_consensus(self._fn(), self._identity(), self._fn(), self._grid(), 1e-6)
        assert report.holds
        assert report.max_deviation == 0.0
        assert report.probes == 15

    def test_constant_shift_detected(self):
        fn = self._fn()
        shifted = lambda v: fn(v) + 0.1
        report = check_consensus(fn, self._identity(), shifted, self._grid(), 1e-6)
        assert not report.holds
        assert report.max_deviation == pytest.approx(0.1, abs=1e-9)

    def test_worst_point_reported(self):
        fn = self._fn()
        bumped = lambda v: fn(v) + (0.5 if tuple(v) == (2.0, 2.0) else 0.0)
        report = check_consensus(fn, self._identity(), bumped, self._grid(), 1e-6)
        assert report.worst_point == (2.0, 2.0)
        assert report.max_deviation == pytest.approx(0.5, abs=1e-12)

    def test_nan_deviation_raises(self):
        # 10 * 1e308 overflows to inf on both sides, and inf - inf is NaN
        fn = ScopeFunction((10.0,), ValueFunctionSpec("linear"))
        identity = LinearMap(matrix=((1.0,),), offset=(0.0,))
        with pytest.raises(FloatingPointError, match="probe 1"):
            check_consensus(fn, identity, fn, [(1.0,), (1e308,)], 1e-9)

    @pytest.mark.parametrize("weight, scale, dev", [(10.0, 1.0, "nan"), (1.0, 2.0, "inf")])
    def test_non_finite_deviation_is_named(self, weight, scale, dev):
        # inf - inf when both sides overflow; inf when only the mapped side does
        fn = ScopeFunction((weight,), ValueFunctionSpec("linear"))
        f = LinearMap(matrix=((scale,),), offset=(0.0,))
        with pytest.raises(FloatingPointError) as err:
            check_consensus(fn, f, fn, [(1.0,), (1e308,)], 1e-9)
        assert str(err.value) == f"consensus deviation at probe 1 is not finite: {dev}"

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            check_consensus(self._fn(), self._identity(), self._fn(), [], 1e-6)

    def test_scope_function_checks_length(self):
        fn = ScopeFunction((0.5, 0.5), ValueFunctionSpec("linear"))
        with pytest.raises(DimensionError,
                           match="^scope function expects 2-vectors, got length 3$"):
            fn((1.0, 2.0, 3.0))

    def test_weights_disappear_under_consensus(self):
        # consensus makes the scope weights irrelevant at the model level
        fn = self._fn()
        f = self._identity()
        for probe in self._grid():
            xn = apply_map(f, probe)
            values = []
            for r in (0.0, 0.25, 0.5, 0.75, 1.0):
                model = weighted_pair(r)
                values.append(
                    aggregate(model, {
                        "narrow": 0.6 * xn[0] + 0.4 * xn[1],
                        "wide": 0.6 * probe[0] + 0.4 * probe[1],
                    })
                )
            assert max(values) - min(values) <= 1e-12

    def test_report_dict_shape(self):
        report = check_consensus(self._fn(), self._identity(), self._fn(), self._grid(), 1e-9)
        d = report.to_dict()
        assert set(d) == {"holds", "max_deviation", "worst_point", "tol", "probes"}


class TestFactCoupling:
    def test_zero_facts_identity_additive(self):
        g = FactCoupling("additive", ((0.3, -0.2), (0.1, 0.4)))
        res = apply_fact_coupling(g, (0.7, -1.3), (0.0, 0.0))
        assert res.x_w_prime == (0.7, -1.3)
        assert res.perturbation_ratio == 0.0
        assert not res.warned

    def test_zero_facts_identity_multiplicative(self):
        g = FactCoupling("multiplicative", ((0.3, -0.2), (0.1, 0.4)))
        res = apply_fact_coupling(g, (0.7, -1.3), (0.0, 0.0))
        assert res.x_w_prime == (0.7, -1.3)
        assert res.perturbation_ratio == 0.0

    def test_small_additive_shift(self):
        g = FactCoupling("additive", ((0.1,),))
        res = apply_fact_coupling(g, (1.0,), (1.0,))
        assert res.x_w_prime == (1.1,)
        assert res.perturbation_ratio == pytest.approx(0.1, abs=1e-12)
        assert not res.warned

    def test_large_shift_warns(self):
        g = FactCoupling("additive", ((0.5,),), warn_threshold=0.2)
        res = apply_fact_coupling(g, (1.0,), (1.0,))
        assert res.warned

    def test_multiplicative_mode(self):
        g = FactCoupling("multiplicative", ((0.25,),))
        res = apply_fact_coupling(g, (2.0,), (1.0,))
        assert res.x_w_prime == (2.5,)

    def test_dimension_mismatch(self):
        g = FactCoupling("additive", ((0.1, 0.2),))
        with pytest.raises(DimensionError):
            apply_fact_coupling(g, (1.0, 2.0), (1.0, 2.0))
        with pytest.raises(DimensionError):
            apply_fact_coupling(g, (1.0,), (1.0,))

    def test_non_finite_rejected(self):
        g = FactCoupling("additive", ((0.1,),))
        with pytest.raises(ValueError, match="finite"):
            apply_fact_coupling(g, (math.nan,), (1.0,))
        with pytest.raises(ValueError, match="finite"):
            apply_fact_coupling(g, (1.0,), (math.inf,))

    def test_mode_validated(self):
        with pytest.raises(ValueError):
            FactCoupling("divisive", ((0.1,),))

    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match="^coupling matrix must have at least one row$"):
            FactCoupling("additive", ())

    @given(st.lists(finite, min_size=2, max_size=2), st.sampled_from(["additive", "multiplicative"]))
    def test_zero_fact_identity_property(self, x_w, mode):
        g = FactCoupling(mode, ((0.3, -0.2), (0.1, 0.4)))
        res = apply_fact_coupling(g, tuple(x_w), (0.0, 0.0))
        assert res.x_w_prime == tuple(x_w)


def diamond_network():
    return ParameterNetwork(
        fact_nodes=("fact",),
        value_nodes=("v",),
        edges=(
            NetworkEdge("fact", "m1", 0.5),
            NetworkEdge("fact", "m2", 0.5),
            NetworkEdge("m1", "v", 1.0),
            NetworkEdge("m2", "v", 1.0),
        ),
    )


class TestParameterNetwork:
    def test_single_edge(self):
        net = ParameterNetwork(("f",), ("v",), (NetworkEdge("f", "v", 0.4),))
        assert propagate_network(net, {"f": 1.0}) == {"v": 0.4}

    def test_zero_deltas(self):
        net = diamond_network()
        assert propagate_network(net, {"fact": 0.0}) == {"v": 0.0}
        assert propagate_network(net, {}) == {"v": 0.0}

    def test_diamond_path_sum(self):
        assert propagate_network(diamond_network(), {"fact": 2.0}) == {"v": 2.0}

    def test_unknown_delta_key(self):
        with pytest.raises(UnknownNodeError):
            propagate_network(diamond_network(), {"m1": 1.0})

    def test_cycle_rejected(self):
        with pytest.raises(CycleError):
            ParameterNetwork(
                ("f",), ("v",),
                (NetworkEdge("f", "a", 1.0), NetworkEdge("a", "b", 1.0),
                 NetworkEdge("b", "a", 1.0), NetworkEdge("a", "v", 1.0)),
            )

    def test_fact_nodes_are_sources(self):
        with pytest.raises(ValueError, match="incoming"):
            ParameterNetwork(("f",), ("v",), (NetworkEdge("v", "f", 1.0),))

    def test_fact_value_disjoint(self):
        with pytest.raises(ValueError, match="both"):
            ParameterNetwork(("f",), ("f",), ())

    @pytest.mark.parametrize("weight", [math.inf, math.nan])
    def test_edge_weight_finite(self, weight):
        with pytest.raises(ValueError, match="^edge f->v weight must be finite$"):
            ParameterNetwork(("f",), ("v",), (NetworkEdge("f", "v", weight),))

    def test_linearity(self):
        rng = random.Random(20240809)
        net = _random_layered_network(rng, widths=(3, 4, 2))
        d1 = {f: rng.uniform(-2, 2) for f in net.fact_nodes}
        d2 = {f: rng.uniform(-2, 2) for f in net.fact_nodes}
        a, b = 1.7, -0.6
        combo = {f: a * d1[f] + b * d2[f] for f in net.fact_nodes}
        left = propagate_network(net, combo)
        r1 = propagate_network(net, d1)
        r2 = propagate_network(net, d2)
        for v in net.value_nodes:
            assert abs(left[v] - (a * r1[v] + b * r2[v])) <= 1e-12

    def test_matches_path_enumeration(self):
        rng = random.Random(7)
        for _ in range(10):
            net = _random_layered_network(rng, widths=(2, 3, 2))
            deltas = {f: rng.uniform(-1, 1) for f in net.fact_nodes}
            got = propagate_network(net, deltas)
            want = _path_sum_oracle(net, deltas)
            for v in net.value_nodes:
                assert abs(got[v] - want[v]) <= 1e-12


def _random_layered_network(rng: random.Random, widths) -> ParameterNetwork:
    """Fully connected consecutive layers with seeded weights."""
    layers = [[f"n{i}_{j}" for j in range(w)] for i, w in enumerate(widths)]
    edges = []
    for upper, lower in zip(layers, layers[1:]):
        for src in upper:
            for dst in lower:
                edges.append(NetworkEdge(src, dst, rng.uniform(-1.0, 1.0)))
    return ParameterNetwork(
        fact_nodes=tuple(layers[0]),
        value_nodes=tuple(layers[-1]),
        edges=tuple(edges),
    )


def _path_sum_oracle(net: ParameterNetwork, deltas) -> dict[str, float]:
    """Brute force: sum over every fact-to-value path of the weight product."""
    out_edges: dict[str, list[NetworkEdge]] = {}
    for e in net.edges:
        out_edges.setdefault(e.source, []).append(e)

    def paths_value(node: str, acc: float, target: str) -> float:
        if node == target:
            return acc
        return sum(
            paths_value(e.target, acc * e.weight, target)
            for e in out_edges.get(node, [])
        )

    result = {}
    for v in net.value_nodes:
        result[v] = sum(
            deltas.get(f, 0.0) * paths_value(f, 1.0, v) for f in net.fact_nodes
        )
    return result
