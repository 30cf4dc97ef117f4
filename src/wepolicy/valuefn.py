"""Well-being value functions.

Two families live here:

* `ValueFunctionSpec` — the classic curve menagerie (linear, logarithmic,
  power, quadratic, exponential, linear+exponential), defined for x >= 0.
* `AsymmetricSpec` — the loss-averse two-branch exponential: saturating
  gains, amplified losses, continuous and zero at the origin.

All specs are immutable and callable; evaluation is pure, so concurrent use
is safe.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import DomainError, _cut, _quote
from .scenario import Scenario, _check, _floats, _object, _str

FAMILIES = ("linear", "logarithmic", "power", "quadratic", "exponential", "lin_exp")


class ValueFunctionSpec(namedtuple("ValueFunctionSpec", "family a b")):
    """One member of the curve menagerie, defined on x >= 0.

    Coefficient meaning per family:
        linear       x            (a, b unused)
        logarithmic  ln(a + x)    (a > 0 so the curve exists at x = 0)
        power        x ** a       (a > 0)
        quadratic    a*x - x^2    (non-monotone past x = a/2; see
                                   `quadratic_monotone_limit`)
        exponential  1 - e^(-a*x) (a > 0)
        lin_exp      b*x - e^(-a*x)
    """

    __slots__ = ()

    def __new__(cls, family: str, a: float = 1.0, b: float = 1.0):
        if family not in FAMILIES:
            raise ValueError(
                f"unknown family {_quote(family)}; expected one of {', '.join(FAMILIES)}"
            )
        if family in ("logarithmic", "power", "exponential") and not a > 0:
            raise ValueError(f"{family} family requires a > 0, got {a}")
        if not (math.isfinite(a) and math.isfinite(b)):
            raise ValueError("coefficients must be finite")
        return super().__new__(cls, family, a, b)

    def __call__(self, x: float) -> float:
        return evaluate_family(self, x)


def evaluate_family(spec: ValueFunctionSpec, x: float) -> float:
    """Evaluate the family formula at x >= 0, as IEEE rounds past the float range.

    Raises DomainError for x < 0.
    """
    if x < 0:
        raise DomainError(f"{spec.family} family is defined for x >= 0, got {x}")
    if spec.family == "linear":
        return x
    if spec.family == "logarithmic":
        return math.log(spec.a + x)
    if spec.family == "quadratic":
        return spec.a * x - x * x
    if spec.family == "exponential":
        return 1.0 - math.exp(-spec.a * x)
    try:
        if spec.family == "power":
            return x**spec.a
        return spec.b * x - math.exp(-spec.a * x)  # lin_exp
    except OverflowError:
        return math.inf if spec.family == "power" else spec.b * x - math.inf


def quadratic_monotone_limit(spec: ValueFunctionSpec) -> float:
    """Largest x up to which the quadratic family is increasing (its peak a/2)."""
    if spec.family != "quadratic":
        raise ValueError("monotone limit only applies to the quadratic family")
    return spec.a / 2.0


class AsymmetricSpec(namedtuple("AsymmetricSpec", "gain_alpha loss_beta loss_lambda")):
    """Loss-averse two-branch exponential value function.

        W(x) = 1 - e^(-gain_alpha * x)            x >= 0
        W(x) = -loss_lambda * (1 - e^(loss_beta * x))   x < 0

    Continuous at 0 with W(0) = 0, strictly increasing, bounded in
    (-loss_lambda, 1). loss_lambda >= 1 makes losses loom at least as
    large as gains.
    """

    __slots__ = ()

    def __new__(cls, gain_alpha: float = 1.0, loss_beta: float = 1.0,
                loss_lambda: float = 2.0):
        if not gain_alpha > 0:
            raise ValueError(f"gain_alpha must be > 0, got {gain_alpha}")
        if not loss_beta > 0:
            raise ValueError(f"loss_beta must be > 0, got {loss_beta}")
        if not loss_lambda >= 1:
            raise ValueError(f"loss_lambda must be >= 1, got {loss_lambda}")
        return super().__new__(cls, gain_alpha, loss_beta, loss_lambda)

    def __call__(self, x: float) -> float:
        return evaluate_asymmetric(self, x)


def evaluate_asymmetric(spec: AsymmetricSpec, x: float) -> float:
    if x >= 0:
        return 1.0 - math.exp(-spec.gain_alpha * x)
    return -spec.loss_lambda * (1.0 - math.exp(spec.loss_beta * x))


def asymmetric_derivative(spec: AsymmetricSpec, x: float) -> float:
    """Analytic dW/dx; the right derivative is used at x = 0."""
    if x >= 0:
        return spec.gain_alpha * math.exp(-spec.gain_alpha * x)
    return spec.loss_lambda * spec.loss_beta * math.exp(spec.loss_beta * x)


class MirroredFamily(namedtuple("MirroredFamily", "base loss_lambda")):
    """Any x >= 0 family extended to losses as -loss_lambda * family(-x).

    The asymmetric exponential is exactly this wrapper applied to the
    exponential family; the wrapper makes the rest of the menagerie usable
    on the full line with the same loss asymmetry.
    """

    __slots__ = ()

    def __new__(cls, base: ValueFunctionSpec, loss_lambda: float = 2.0):
        if not loss_lambda >= 1:
            raise ValueError(f"loss_lambda must be >= 1, got {loss_lambda}")
        return super().__new__(cls, base, loss_lambda)

    def __call__(self, x: float) -> float:
        if x >= 0:
            return evaluate_family(self.base, x)
        return -self.loss_lambda * evaluate_family(self.base, -x)


# Anything a WE layer can evaluate: full-line curves plus the raw families
# (raw families are restricted to x >= 0 and raise DomainError below it).
ValueCurve = AsymmetricSpec | MirroredFamily | ValueFunctionSpec


def _parse_value_function(spec, where: str) -> ValueCurve:
    spec = _object(spec, where)
    kind = spec.get("kind", "asymmetric")
    if kind == "asymmetric":
        return _check(where, AsymmetricSpec, **_floats(spec, where, AsymmetricSpec._fields))
    if kind not in ("family", "mirrored"):
        raise ValueError(f"{where}.kind: unknown kind {_quote(kind)}")
    base = _check(where, ValueFunctionSpec, family=_str(spec.get("family", ""), f"{where}.family"),
                  **_floats(spec, where, ("a", "b")))
    if kind == "family":
        return base
    return _check(where, MirroredFamily, base, **_floats(spec, where, ("loss_lambda",)))


def parse_value_functions(sc: Scenario, raw):
    if not isinstance(raw, dict):
        raise ValueError("value_functions: expected an object of named functions")
    for name, spec in raw.items():
        fn = sc.attempt(_parse_value_function, spec, f"value_functions.{_cut(name)}")
        if fn is not None:
            sc.value_functions[name] = fn
