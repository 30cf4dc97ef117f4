"""Weighted aggregation of well-being across nested WE scopes.

A model is an ordered list of scope layers, each carrying a value function
and a normalized weight. The two-layer case covers the narrow/wide split;
more layers extend the same convex combination. Sampling helpers produce
the 3-d surface over a two-scope grid and the single consensus curve.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, Mapping, NamedTuple, Sequence

from . import scenario
from .errors import DimensionError, MissingScopeError, _listed, _quote
from .numeric import dot
from .scenario import Scenario, _check, _float, _object, _str, _vector, grid_values
from .valuefn import (AsymmetricSpec, MirroredFamily, ValueCurve, ValueFunctionSpec,
                      quadratic_monotone_limit)

if TYPE_CHECKING:  # only consensus reads it, so `surface` never loads `consensus`
    from .consensus import ScopeFunction

WEIGHT_SUM_TOL = 1e-12


class WEScope(namedtuple("WEScope", "label")):
    """A named scope on the I-to-world gradation (or any free-form group)."""

    __slots__ = ()

    def __new__(cls, label: str):
        if not label:
            raise ValueError("scope label must be non-empty")
        return super().__new__(cls, label)


class WELayer(namedtuple("WELayer", "scope value_function weight element_weights")):
    """One scope's contribution: value function, weight, optional aggregator.

    `element_weights` turns an element vector into the layer's scalar input
    (weighted sum, then the value function); layers used only with scalar
    assignments can leave it None.
    """

    __slots__ = ()

    def __new__(cls, scope: WEScope, value_function: ValueCurve, weight: float,
                element_weights: tuple[float, ...] | None = None):
        if not 0.0 <= weight <= 1.0:
            raise ValueError(f"layer {_quote(scope.label)} weight must be in [0, 1], got {weight}")
        return super().__new__(cls, scope, value_function, weight, element_weights)

    def scope_function(self) -> ScopeFunction:
        """The layer's map from an element vector to its value; needs
        `element_weights`."""
        from .consensus import ScopeFunction

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
    """Evaluate a two-layer model over a rectangular grid, in row-major order
    (narrow axis outer, wide axis inner) so CSV output is byte-stable. A
    cell adds the two layers' `surface_terms`, which raise for the first
    cell whose value is not finite."""
    narrow_terms, wide_terms = surface_terms(model, xs_narrow, xs_wide)
    return [(xn, xw, wn + t) for xn, wn in zip(xs_narrow, narrow_terms)
            for xw, t in zip(xs_wide, wide_terms)]


def surface_terms(model: WellbeingModel, xs_narrow: Sequence[float],
                  xs_wide: Sequence[float]) -> tuple[list[float], list[float]]:
    """Each layer's weighted curve at its grid values, (narrow, wide): a cell
    adds one term of each. Raises FloatingPointError naming the first cell,
    in row-major order, whose value is not finite. Rounded addition is
    monotone, so with finite wide terms a row is scanned cell by cell only
    when its term plus the largest or the smallest wide term is not finite."""
    narrow, wide = surface_layers(model)
    if not xs_narrow or not xs_wide:
        raise ValueError("grid must be non-empty on both axes")
    wide_terms = [wide.weight * wide.value_function(xw) for xw in xs_wide]
    narrow_terms = [narrow.weight * narrow.value_function(xn) for xn in xs_narrow]
    finite, hi, lo = all(map(math.isfinite, wide_terms)), max(wide_terms), min(wide_terms)
    for xn, wn in zip(xs_narrow, narrow_terms):
        if finite and math.isfinite(wn + hi) and math.isfinite(wn + lo):
            continue
        for xw, t in zip(xs_wide, wide_terms):
            if not math.isfinite(wn + t):
                raise FloatingPointError(
                    f"surface value at x_n={xn!r}, x_w={xw!r} is not finite: {wn + t!r}"
                )
    return narrow_terms, wide_terms


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


class ConsensusConfig(NamedTuple):
    narrow_label: str
    wide_label: str
    probes: tuple[tuple[float, ...], ...]
    tol: float


def _layer(sc: Scenario, spec, where: str) -> WELayer:
    spec = _object(spec, where)
    fn_name = _str(spec.get("value_function"), f"{where}.value_function")
    if fn_name not in sc.value_functions:
        raise ValueError(f"{where}.value_function: unknown function {_quote(fn_name)}")
    weights = spec.get("element_weights")
    return _check(
        f"{where}.weight", WELayer, WEScope(_str(spec.get("scope"), f"{where}.scope")),
        sc.value_functions[fn_name], _float(spec.get("weight"), f"{where}.weight"),
        tuple(_vector(weights, f"{where}.element_weights")) if weights is not None else None,
    )


def parse_layers(sc: Scenario, raw):
    if not isinstance(raw, list) or not raw:
        raise ValueError("layers: expected a non-empty array")
    built = [sc.attempt(_layer, sc, spec, f"layers[{i}]") for i, spec in enumerate(raw)]
    if None not in built:
        sc.model = _check("layers", WellbeingModel, tuple(built))


def _grid_len(spec) -> int:
    """The number of points `grid_values` builds from `spec`, read without
    building them; 1 for a spec it rejects or a count below 1, which it
    then reports."""
    if not isinstance(spec, dict):
        return 1
    if "values" in spec:
        return len(spec["values"]) if isinstance(spec["values"], list) else 1
    count = spec.get("count")
    return max(count, 1) if isinstance(count, int) else 1


def parse_surface(sc: Scenario, raw):
    _object(raw, "surface")
    x_n, x_w = raw.get("x_n"), raw.get("x_w")
    n, w = _grid_len(x_n), _grid_len(x_w)
    if n * w > scenario.MAX_GRID_POINTS:
        raise ValueError(
            f"surface: {n} x {w} = {n * w} cells exceeds the cap of {scenario.MAX_GRID_POINTS}"
        )
    grids = (grid_values(x_n, "surface.x_n"), grid_values(x_w, "surface.x_w"))
    sc.surface_grids = grids
    model = sc.layers_model("surface")
    if model is not None:
        layers = _check("surface", surface_layers, model)
        for layer, xs, where in zip(layers, grids, ("surface.x_n", "surface.x_w")):
            _grid_check(sc, layer, xs, where)


def parse_curve(sc: Scenario, raw):
    _object(raw, "curve")
    label = _str(raw.get("layer"), "curve.layer")
    n = _grid_len(raw.get("grid"))
    if n > scenario.MAX_GRID_POINTS:
        raise ValueError(f"curve.grid: {n} points exceeds the cap of {scenario.MAX_GRID_POINTS}")
    grid = grid_values(raw.get("grid"), "curve.grid")
    if sc.layers_model("curve") is not None:
        layer = sc.layer(label, "curve.layer")
        if layer is not None:
            sc.curve = (layer, grid)
            _grid_check(sc, layer, grid, "curve.grid")


def _grid_check(sc: Scenario, layer: WELayer, xs: list[float], where: str):
    """A raw family is defined for x >= 0 only, so a grid reaching below
    0 is a finding. Quadratic curves turn over past a/2; warn when a grid
    reaches beyond that point, since ranking semantics silently flip
    there."""
    fn = layer.value_function
    if isinstance(fn, ValueFunctionSpec) and min(xs) < 0:
        sc.error(
            f"{where}: grid reaches {min(xs)!r}, below the {fn.family} family's "
            f"domain x >= 0 for layer {_quote(layer.scope.label)}"
        )
    base = fn.base if isinstance(fn, MirroredFamily) else fn
    if isinstance(base, ValueFunctionSpec) and base.family == "quadratic":
        lim = quadratic_monotone_limit(base)
        if any(abs(x) > lim for x in xs):
            sc.warnings.append(
                f"{where}: grid reaches beyond the quadratic peak at {lim!r} for "
                f"layer {_quote(layer.scope.label)}; values are non-monotone past it"
            )


def parse_consensus(sc: Scenario, raw):
    where = "consensus"
    _object(raw, where)
    probes_raw = raw.get("probes")
    if not isinstance(probes_raw, list) or not probes_raw:
        raise ValueError(f"{where}.probes: expected a non-empty array of vectors")
    probes = tuple(
        tuple(_vector(p, f"{where}.probes[{i}]")) for i, p in enumerate(probes_raw)
    )
    tol = _float(raw.get("tol", 1e-9), f"{where}.tol")
    if not tol > 0:
        raise ValueError(f"{where}.tol: must be > 0")
    cfg = sc.consensus = ConsensusConfig(
        narrow_label=_str(raw.get("narrow_layer"), f"{where}.narrow_layer"),
        wide_label=_str(raw.get("wide_layer"), f"{where}.wide_layer"), probes=probes, tol=tol,
    )
    f = None if "mapping_f" in sc.failed else sc.mapping_f
    layers = []  # the narrow and wide layers that resolve
    if sc.layers_model(where) is not None:
        # The narrow layer weighs the mapping's target, the wide its source.
        for key, label, side in (
            ("narrow_layer", cfg.narrow_label, "target"),
            ("wide_layer", cfg.wide_label, "source"),
        ):
            layer = sc.layer(label, f"{where}.{key}")
            if layer is None:
                continue
            layers.append(layer)
            weights = layer.element_weights
            if weights is None:
                sc.error(f"{where}.{key}: layer {_quote(label)} declares no element_weights")
            elif f is not None:
                dim = f.target_dim if side == "target" else f.source_dim
                if len(weights) != dim:
                    sc.error(
                        f"{where}.{key}: element_weights length {len(weights)} != "
                        f"mapping {side} dimension {dim}"
                    )
    if "mapping_f" in sc.failed:
        return
    if f is None:
        raise ValueError(f"{where}: requires a mapping_f section")
    for i, p in enumerate(probes):
        if len(p) != f.source_dim:
            raise ValueError(
                f"{where}.probes[{i}]: length {len(p)} != mapping source dimension "
                f"{f.source_dim}"
            )
    if len(layers) < 2 or where in sc.failed:
        return
    from .consensus import apply_map  # `consensus` is loaded already: it parsed mapping_f

    # A layer's input at probe p: its weights times f(p) (narrow) or p (wide).
    mapped = [apply_map(f, p) for p in probes]
    for layer, vectors in zip(layers, (mapped, probes)):
        xs = [dot(layer.element_weights, x) for x in vectors]
        _grid_check(sc, layer, xs, f"{where}.probes")
