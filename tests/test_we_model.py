import math
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from wepolicy.coupling import ScopeFunction
from wepolicy.errors import DimensionError, MissingScopeError
from wepolicy.valuefn import AsymmetricSpec, ValueFunctionSpec
from wepolicy.we_model import (
    WellbeingModel,
    WELayer,
    WEScope,
    aggregate,
    consensus_curve,
    sample_surface,
    surface_terms,
    weighted_pair,
)

LN2 = math.log(2.0)


def test_zero_everywhere_is_zero():
    model = weighted_pair(0.5)
    assert aggregate(model, {"narrow": 0.0, "wide": 0.0}) == 0.0


def test_weighted_halves():
    # 0.8 * 0.5 + 0.2 * 0.5
    model = weighted_pair(0.8)
    assert aggregate(model, {"narrow": LN2, "wide": LN2}) == pytest.approx(0.5, abs=1e-12)


def test_saturates_to_one():
    model = weighted_pair(0.5)
    assert abs(aggregate(model, {"narrow": 20.0, "wide": 20.0}) - 1.0) <= 1e-6


def test_missing_scope_error_lists_labels():
    model = weighted_pair(0.5)
    with pytest.raises(MissingScopeError) as err:
        aggregate(model, {"narrow": 0.0})
    assert err.value.missing == ["wide"]


def test_extra_labels_ignored():
    model = weighted_pair(0.5)
    assert aggregate(model, {"narrow": 1.0, "wide": 1.0, "spare": 9.9}) == aggregate(
        model, {"narrow": 1.0, "wide": 1.0}
    )


def test_weights_must_normalize():
    fn = AsymmetricSpec()
    with pytest.raises(ValueError, match="sum to 1"):
        WellbeingModel(layers=(
            WELayer(WEScope("a"), fn, 0.5),
            WELayer(WEScope("b"), fn, 0.4),
        ))


def test_duplicate_labels_rejected():
    fn = AsymmetricSpec()
    with pytest.raises(ValueError, match="unique"):
        WellbeingModel(layers=(
            WELayer(WEScope("a"), fn, 0.5),
            WELayer(WEScope("a"), fn, 0.5),
        ))


def test_scope_label_required():
    with pytest.raises(ValueError, match="^scope label must be non-empty$"):
        WEScope("")


def test_layers_required():
    with pytest.raises(ValueError, match="^model needs at least one layer$"):
        WellbeingModel(layers=())


def test_weight_range_enforced():
    with pytest.raises(ValueError, match="weight"):
        WELayer(WEScope("a"), AsymmetricSpec(), 1.5)


def test_degenerate_weights_ignore_other_scope():
    narrow_only = weighted_pair(1.0)
    values = {aggregate(narrow_only, {"narrow": 1.0, "wide": xw}) for xw in (-5.0, 0.0, 5.0)}
    assert len(values) == 1
    wide_only = weighted_pair(0.0)
    values = {aggregate(wide_only, {"narrow": xn, "wide": 1.0}) for xn in (-5.0, 0.0, 5.0)}
    assert len(values) == 1


def test_identical_layers_are_a_fixed_point():
    # k equal-weight copies of one function reduce to the function itself
    fn = AsymmetricSpec()
    k = 5
    model = WellbeingModel(layers=tuple(
        WELayer(WEScope(f"s{i}"), fn, 1.0 / k) for i in range(k)
    ))
    for x in (-3.0, -0.2, 0.0, 0.7, 4.0):
        got = aggregate(model, {f"s{i}": x for i in range(k)})
        assert abs(got - fn(x)) <= 1e-12


def test_range_bound():
    model = weighted_pair(0.3, AsymmetricSpec(1.0, 1.0, 2.0), AsymmetricSpec(1.0, 1.0, 3.0))
    lower = -(0.3 * 2.0 + 0.7 * 3.0)
    for xn in (-20.0, -1.0, 0.0, 1.0, 20.0):
        for xw in (-20.0, -1.0, 0.0, 1.0, 20.0):
            w = aggregate(model, {"narrow": xn, "wide": xw})
            assert lower < w < 1.0


class TestSurface:
    def test_deep_loss_corner(self):
        rows = sample_surface(weighted_pair(0.5), [-20.0, 0.0, 20.0], [-20.0, 0.0, 20.0])
        assert len(rows) == 9
        corner = rows[0]
        assert corner[:2] == (-20.0, -20.0)
        assert abs(corner[2] - (-2.0)) <= 1e-6

    def test_single_point_grid(self):
        rows = sample_surface(weighted_pair(0.5), [0.0], [0.0])
        assert rows == [(0.0, 0.0, 0.0)]

    def test_consensus_point_closed_form(self):
        rows = sample_surface(weighted_pair(0.2), [0.0, LN2], [0.0, LN2])
        point = {(xn, xw): w for xn, xw, w in rows}
        assert point[(LN2, LN2)] == pytest.approx(0.5, abs=1e-12)

    def test_row_major_order(self):
        rows = sample_surface(weighted_pair(0.5), [0.0, 1.0], [2.0, 3.0])
        assert [(r[0], r[1]) for r in rows] == [(0.0, 2.0), (0.0, 3.0), (1.0, 2.0), (1.0, 3.0)]

    def test_layer_count_enforced(self):
        fn = AsymmetricSpec()
        single = WellbeingModel(layers=(WELayer(WEScope("a"), fn, 1.0),))
        with pytest.raises(DimensionError, match="2 layers"):
            sample_surface(single, [0.0], [0.0])

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            sample_surface(weighted_pair(0.5), [], [0.0])

    @pytest.mark.parametrize("quadratic_layer, xs_n, xs_w, cell", [
        (0, [0.0, 1e200], [0.0, 1.0], "x_n=1e+200, x_w=0.0"),
        (1, [0.0, 1.0], [0.0, 1e200], "x_n=0.0, x_w=1e+200"),
    ])
    def test_first_non_finite_cell_is_named(self, quadratic_layer, xs_n, xs_w, cell):
        # a*x - x*x overflows to -inf at x = 1e200; cells are named in row-major order
        fns = [AsymmetricSpec(), AsymmetricSpec()]
        fns[quadratic_layer] = ValueFunctionSpec("quadratic", a=1.0)
        with pytest.raises(FloatingPointError) as err:
            sample_surface(weighted_pair(0.5, *fns), xs_n, xs_w)
        assert str(err.value) == f"surface value at {cell} is not finite: -inf"


def terms_model(narrow_terms, wide_terms):
    """A stand-in two-layer model whose weighted curve at grid value i is
    the i-th given term (weight 1.0 keeps every term, -0.0 and nan too)."""
    def layer(terms):
        return SimpleNamespace(weight=1.0, value_function=lambda x: terms[int(x)])
    return SimpleNamespace(layers=(layer(narrow_terms), layer(wide_terms)))


def scan_cells(narrow_terms, wide_terms):
    """The first non-finite cell's message, scanning every cell in row-major order."""
    for i, wn in enumerate(narrow_terms):
        for j, t in enumerate(wide_terms):
            if not math.isfinite(wn + t):
                cell = f"x_n={float(i)!r}, x_w={float(j)!r}"
                return f"surface value at {cell} is not finite: {wn + t!r}"
    return None


surface_term_values = st.one_of(
    st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308, -0.0, 0.0, 1.0, -2.5]),
    st.floats(),
)


class TestSurfaceTerms:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(surface_term_values, min_size=1, max_size=6),
           st.lists(surface_term_values, min_size=1, max_size=6))
    @example([1e308, 0.0], [-1e308, 1e308])  # the second cell of row 0 overflows
    @example([1.0, -1e308], [1e308, -1e308])  # row 1's second cell overflows to -inf
    @example([-0.0, 1e308], [-0.0, 0.0, 1e308])
    @example([1.0, 2.0], [math.nan, 1e308])
    @example([math.inf], [-math.inf])
    def test_first_non_finite_cell_matches_a_cell_scan(self, narrow_terms, wide_terms):
        xs_n = [float(i) for i in range(len(narrow_terms))]
        xs_w = [float(j) for j in range(len(wide_terms))]
        model = terms_model(narrow_terms, wide_terms)
        expected = scan_cells(narrow_terms, wide_terms)
        if expected is not None:
            for check in (surface_terms, sample_surface):
                with pytest.raises(FloatingPointError) as err:
                    check(model, xs_n, xs_w)
                assert str(err.value) == expected
            return
        assert repr(surface_terms(model, xs_n, xs_w)) == repr((narrow_terms, wide_terms))
        rows = sample_surface(model, xs_n, xs_w)
        assert repr(rows) == repr([(xn, xw, wn + t) for xn, wn in zip(xs_n, narrow_terms)
                                   for xw, t in zip(xs_w, wide_terms)])


class TestConsensusCurve:
    def test_reference_points(self):
        layer = WELayer(WEScope("both"), AsymmetricSpec(), 1.0)
        curve = dict(consensus_curve(layer, [-20.0, 0.0, LN2]))
        assert curve[0.0] == 0.0
        assert abs(curve[-20.0] + 2.0) <= 1e-6
        assert curve[LN2] == pytest.approx(0.5, abs=1e-15)

    def test_empty_grid_rejected(self):
        layer = WELayer(WEScope("both"), AsymmetricSpec(), 1.0)
        with pytest.raises(ValueError):
            consensus_curve(layer, [])

    def test_first_non_finite_point_is_named(self):
        layer = WELayer(WEScope("both"), ValueFunctionSpec("quadratic", a=1.0), 1.0)
        with pytest.raises(FloatingPointError) as err:
            consensus_curve(layer, [0.0, 1e200, 1e300])
        assert str(err.value) == "curve value at x=1e+200 is not finite: -inf"

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.7, 1.0])
    def test_matches_surface_diagonal_for_any_weight(self, r):
        # shared function on both layers: the surface restricted to the
        # diagonal is the curve, whatever the weights
        fn = AsymmetricSpec()
        model = weighted_pair(r, fn, fn)
        xs = [-10.0, -2.0, -0.5, 0.0, 0.5, 2.0, 10.0]
        diag = {x: w for xn, xw, w in sample_surface(model, xs, xs) for x in [xn] if xn == xw}
        curve = dict(consensus_curve(model.layers[0], xs))
        for x in xs:
            assert abs(diag[x] - curve[x]) <= 1e-12


def test_layer_hands_out_its_scope_function():
    layer = WELayer(WEScope("I"), AsymmetricSpec(), 0.5, (0.6, 0.4))
    assert layer.scope_function() == ScopeFunction((0.6, 0.4), AsymmetricSpec())
    assert layer.scope_function()((1.0, -2.0)) == AsymmetricSpec()(0.6 * 1.0 + 0.4 * -2.0)
