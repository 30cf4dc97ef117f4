import math

import pytest
from hypothesis import given, strategies as st

from wepolicy.errors import DomainError
from wepolicy.valuefn import (
    AsymmetricSpec,
    MirroredFamily,
    ValueFunctionSpec,
    asymmetric_derivative,
    evaluate_asymmetric,
    evaluate_family,
    quadratic_monotone_limit,
)


class TestFamilies:
    def test_exponential_at_zero(self):
        assert evaluate_family(ValueFunctionSpec("exponential", a=1.0), 0.0) == 0.0

    def test_power_closed_form(self):
        assert evaluate_family(ValueFunctionSpec("power", a=0.5), 4.0) == 2.0

    def test_quadratic_closed_form(self):
        assert evaluate_family(ValueFunctionSpec("quadratic", a=2.0), 1.0) == 1.0

    def test_linear_identity(self):
        assert evaluate_family(ValueFunctionSpec("linear"), 7.25) == 7.25

    def test_logarithmic(self):
        spec = ValueFunctionSpec("logarithmic", a=1.0)
        assert evaluate_family(spec, 0.0) == 0.0
        assert evaluate_family(spec, math.e - 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_lin_exp(self):
        spec = ValueFunctionSpec("lin_exp", a=1.0, b=2.0)
        assert evaluate_family(spec, 0.0) == -1.0  # b*0 - e^0

    @pytest.mark.parametrize("family", ["linear", "logarithmic", "power", "quadratic", "exponential", "lin_exp"])
    def test_negative_input_rejected(self, family):
        with pytest.raises(DomainError):
            evaluate_family(ValueFunctionSpec(family, a=1.0, b=1.0), -0.5)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="unknown family"):
            ValueFunctionSpec("cubic")

    @pytest.mark.parametrize("family", ["logarithmic", "power", "exponential"])
    def test_positive_coefficient_required(self, family):
        with pytest.raises(ValueError, match="a > 0"):
            ValueFunctionSpec(family, a=0.0)

    @pytest.mark.parametrize("a, b", [(math.inf, 1.0), (1.0, math.nan)])
    def test_finite_coefficients_required(self, a, b):
        with pytest.raises(ValueError, match="^coefficients must be finite$"):
            ValueFunctionSpec("linear", a=a, b=b)

    def test_quadratic_monotone_limit(self):
        assert quadratic_monotone_limit(ValueFunctionSpec("quadratic", a=2.0)) == 1.0
        with pytest.raises(ValueError):
            quadratic_monotone_limit(ValueFunctionSpec("linear"))


class TestAsymmetric:
    def test_zero_at_origin(self):
        assert evaluate_asymmetric(AsymmetricSpec(1.0, 1.0, 2.0), 0.0) == 0.0

    def test_deep_loss_asymptote(self):
        # closed form -2 + 2 e^-20; asymptotically -2
        w = evaluate_asymmetric(AsymmetricSpec(1.0, 1.0, 2.0), -20.0)
        assert w == -2.0 * (1.0 - math.exp(-20.0))
        assert abs(w - (-2.0 + 2.0 * math.exp(-20.0))) <= 1e-8
        assert abs(w + 2.0) <= 1e-6

    def test_half_gain_at_ln2(self):
        w = evaluate_asymmetric(AsymmetricSpec(1.0, 1.0, 2.0), math.log(2.0))
        assert w == pytest.approx(0.5, abs=1e-15)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            AsymmetricSpec(gain_alpha=0.0)
        with pytest.raises(ValueError):
            AsymmetricSpec(loss_beta=-1.0)
        with pytest.raises(ValueError):
            AsymmetricSpec(loss_lambda=0.5)

    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=1e-4, max_value=5.0),
    )
    def test_strictly_increasing(self, x1, gap):
        spec = AsymmetricSpec(1.0, 1.0, 2.0)
        assert evaluate_asymmetric(spec, x1) < evaluate_asymmetric(spec, x1 + gap)

    @given(st.floats(min_value=-30.0, max_value=30.0))
    def test_bounds(self, x):
        spec = AsymmetricSpec(1.0, 1.0, 2.0)
        assert -spec.loss_lambda < evaluate_asymmetric(spec, x) < 1.0

    @given(
        st.floats(min_value=1e-6, max_value=30.0),
        st.floats(min_value=0.2, max_value=3.0),
        st.floats(min_value=1.0, max_value=4.0),
    )
    def test_loss_aversion_identity(self, x, ab, lam):
        # with alpha == beta the negative branch is exactly -lambda times
        # the positive branch, bit for bit
        spec = AsymmetricSpec(gain_alpha=ab, loss_beta=ab, loss_lambda=lam)
        assert abs(evaluate_asymmetric(spec, -x)) == lam * evaluate_asymmetric(spec, x)

    def test_continuity_at_origin(self):
        spec = AsymmetricSpec(1.0, 1.0, 2.0)
        eps = 1e-8
        assert abs(evaluate_asymmetric(spec, eps) - evaluate_asymmetric(spec, -eps)) <= 1e-7

    def test_derivative_matches_finite_differences(self):
        # central differences as the independent check on the analytic form
        spec = AsymmetricSpec(1.3, 0.8, 2.0)
        h = 1e-6
        for x in [-8.0, -3.1, -0.5, 0.5, 1.7, 4.0, 8.0]:
            fd = (evaluate_asymmetric(spec, x + h) - evaluate_asymmetric(spec, x - h)) / (2 * h)
            analytic = asymmetric_derivative(spec, x)
            assert abs(fd - analytic) / abs(analytic) <= 1e-5


class TestMirroredFamily:
    def test_mirrors_power(self):
        m = MirroredFamily(ValueFunctionSpec("power", a=0.5), loss_lambda=2.0)
        assert m(4.0) == 2.0
        assert m(-4.0) == -4.0

    def test_exponential_mirror_matches_asymmetric(self):
        # the asymmetric curve is exactly the mirror wrapper on the
        # exponential family when alpha == beta
        m = MirroredFamily(ValueFunctionSpec("exponential", a=1.0), loss_lambda=2.0)
        a = AsymmetricSpec(1.0, 1.0, 2.0)
        for x in [-5.0, -1.2, 0.0, 0.3, 2.0, 10.0]:
            assert m(x) == a(x)

    def test_lambda_validation(self):
        with pytest.raises(ValueError):
            MirroredFamily(ValueFunctionSpec("linear"), loss_lambda=0.9)
