"""Weighted aggregation of well-being across nested WE scopes.

A model is an ordered list of scope layers, each carrying a value function
and a normalized weight. The two-layer case covers the narrow/wide split;
more layers extend the same convex combination. Sampling helpers produce
the 3-d surface over a two-scope grid and the single consensus curve.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass
from typing import Mapping, Sequence

from .coupling import ScopeFunction
from .errors import DimensionError, MissingScopeError, _listed, _quote
from .numeric import dot
from .valuefn import AsymmetricSpec, ValueCurve

WEIGHT_SUM_TOL = 1e-12


class WEScope(namedtuple("WEScope", "label")):
    """A named scope on the I-to-world gradation (or any free-form group)."""

    __slots__ = ()

    def __new__(cls, label: str):
        if not label:
            raise ValueError("scope label must be non-empty")
        return super().__new__(cls, label)


# A dataclass, unlike the other value types: callers vary one field of a
# layer with `dataclasses.replace`.
@dataclass(frozen=True)
class WELayer:
    """One scope's contribution: value function, weight, optional aggregator.

    `element_weights` turns an element vector into the layer's scalar input
    (weighted sum, then the value function); layers used only with scalar
    assignments can leave it None.
    """

    scope: WEScope
    value_function: ValueCurve
    weight: float
    element_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 0.0 <= self.weight <= 1.0:
            raise ValueError(
                f"layer {_quote(self.scope.label)} weight must be in [0, 1], got {self.weight}"
            )

    def scope_function(self) -> ScopeFunction:
        """The layer's map from an element vector to its value; needs
        `element_weights`."""
        return ScopeFunction(self.element_weights, self.value_function)


class WellbeingModel(namedtuple("WellbeingModel", "layers")):
    """Ordered scope layers whose weights form a convex combination."""

    __slots__ = ()

    def __new__(cls, layers: tuple[WELayer, ...]):
        if not layers:
            raise ValueError("model needs at least one layer")
        labels = [layer.scope.label for layer in layers]
        if len(set(labels)) != len(labels):
            # the list's repr, each label cut
            raise ValueError(f"scope labels must be unique, got [{_listed(labels, _quote)}]")
        total = math.fsum(layer.weight for layer in layers)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"layer weights must sum to 1, got {total!r}")
        return super().__new__(cls, layers)


def weighted_pair(
    r: float,
    narrow_fn: ValueCurve | None = None,
    wide_fn: ValueCurve | None = None,
    labels: tuple[str, str] = ("narrow", "wide"),
) -> WellbeingModel:
    """Two-layer model with weights (r, 1 - r); defaults to the standard
    asymmetric curve (alpha = beta = 1, lambda = 2) on both layers."""
    narrow_fn = narrow_fn if narrow_fn is not None else AsymmetricSpec()
    wide_fn = wide_fn if wide_fn is not None else AsymmetricSpec()
    return WellbeingModel(
        layers=(
            WELayer(WEScope(labels[0]), narrow_fn, r),
            WELayer(WEScope(labels[1]), wide_fn, 1.0 - r),
        )
    )


def aggregate(model: WellbeingModel, assignment: Mapping[str, float]) -> float:
    """Weighted sum of per-layer values at the assigned scalar inputs.

    Raises MissingScopeError listing every scope label absent from the
    assignment. Extra labels are ignored.
    """
    missing = [l.scope.label for l in model.layers if l.scope.label not in assignment]
    if missing:
        raise MissingScopeError(missing)
    values = [layer.value_function(assignment[layer.scope.label]) for layer in model.layers]
    return dot([layer.weight for layer in model.layers], values)


def surface_layers(model: WellbeingModel) -> tuple[WELayer, WELayer]:
    """The (narrow, wide) layers a surface samples; raises DimensionError
    unless the model has exactly two."""
    if len(model.layers) != 2:
        raise DimensionError(
            f"surface sampling needs exactly 2 layers, model has {len(model.layers)}"
        )
    return model.layers


def sample_surface(
    model: WellbeingModel,
    xs_narrow: Sequence[float],
    xs_wide: Sequence[float],
) -> list[tuple[float, float, float]]:
    """Evaluate a two-layer model over a rectangular grid.

    Rows come back in row-major order (narrow axis outer, wide axis inner)
    so CSV output is byte-stable. Each layer's weighted curve is evaluated
    once per grid value; a cell adds the two. Raises FloatingPointError
    naming the first cell, in that order, whose value is not finite.
    """
    narrow, wide = surface_layers(model)
    if not xs_narrow or not xs_wide:
        raise ValueError("grid must be non-empty on both axes")
    wide_terms = [wide.weight * wide.value_function(xw) for xw in xs_wide]
    rows = []
    for xn in xs_narrow:
        wn = narrow.weight * narrow.value_function(xn)
        rows += [(xn, xw, wn + t) for xw, t in zip(xs_wide, wide_terms)]
    for xn, xw, w in rows:
        if not math.isfinite(w):
            raise FloatingPointError(
                f"surface value at x_n={xn!r}, x_w={xw!r} is not finite: {w!r}"
            )
    return rows


def consensus_curve(layer: WELayer, xs: Sequence[float]) -> list[tuple[float, float]]:
    """Value of a single shared function along a grid — the curve the
    surface collapses to when both scopes agree, independent of weights.
    Raises FloatingPointError naming the first point whose value is not
    finite."""
    if not xs:
        raise ValueError("grid must be non-empty")
    curve = [(x, layer.value_function(x)) for x in xs]
    for x, w in curve:
        if not math.isfinite(w):
            raise FloatingPointError(f"curve value at x={x!r} is not finite: {w!r}")
    return curve
