"""Scenario documents: one JSON file drives every pipeline.

A scenario is a single self-describing JSON object whose sections declare
value functions, scope layers, element sets, mappings, survey and
dynamics configuration, sweep grids, weighting profiles (the fact
couplings), a logic model, and sampling grids. Validation walks the present
sections once, in a fixed order, before anything runs (a run command only
those it reads): each section checks its own fields and its agreement with
the sections before it, and reports findings naming `section.field` in that
order. It also bounds the work a scenario may ask for before any grid or
sweep is built. An optional number that a section leaves out takes the
default its value type's constructor declares.
"""

from __future__ import annotations

import json
import math
import re
from collections import namedtuple
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple

from .coupling import FactCoupling, LinearMap, ParameterNetwork, Saturator, apply_map
from .errors import MAX_LISTED, DimensionError, ScenarioError, _cut, _quote
from .graphs import Edge
from .numeric import dot, left_sum

# A section parser imports the modules it builds from (evaluator, logicmodel,
# policy_sim, valuefn, we_model) where it uses them, so loading a scenario
# loads only the modules its sections need. Building one never loads survey:
# only the commands that read the survey file (fit, select, validate) do.
if TYPE_CHECKING:
    from .evaluator import WeightingProfile
    from .logicmodel import FactBinding, LogicModel, Node
    from .policy_sim import DynamicsConfig
    from .valuefn import ValueCurve
    from .we_model import WellbeingModel, WELayer

# The most points a `surface` (x_n by x_w cells) or a `curve` may sample, or
# (subsidy, tax, service) combinations a `sweep` may list; and the most work
# a sweep may ask for: admissible rows x (agents + steps). The simulator runs
# each indicator once per distinct knob key it reads, so that product is an
# upper bound on the work done.
MAX_GRID_POINTS = 1_000_000
MAX_SWEEP_WORK = 10_000_000

ROW_SUM_TOL = 1e-12


class ConstructMap(namedtuple("ConstructMap", "constructs matrix")):
    """Row-stochastic matrix folding question scores into constructs.

    Rows = constructs (subjective vector layout), cols = questions.
    """

    __slots__ = ()

    def __new__(cls, constructs: tuple[str, ...], matrix: tuple[tuple[float, ...], ...]):
        if len(constructs) != len(matrix):
            raise DimensionError(
                f"{len(constructs)} construct names for {len(matrix)} matrix rows"
            )
        if len(set(constructs)) != len(constructs):
            raise ValueError("construct names must be unique")
        if not matrix:
            raise ValueError("construct map needs at least one row")
        width = len(matrix[0])
        for name, row in zip(constructs, matrix):
            if len(row) != width:
                raise ValueError("construct matrix rows must all have the same length")
            if any(w < 0 for w in row):
                raise ValueError(f"construct {_quote(name)} has negative weights")
            total = left_sum(row)
            if abs(total - 1.0) > ROW_SUM_TOL:
                raise ValueError(f"construct {_quote(name)} weights sum to {total!r}, not 1")
        return super().__new__(cls, constructs, matrix)

    @property
    def question_count(self) -> int:
        return len(self.matrix[0])


class SurveyConfig(NamedTuple):
    file: str
    scale: int
    construct_map: ConstructMap
    target_question: int  # 1-based question index holding the rating


class ConsensusConfig(NamedTuple):
    narrow_label: str
    wide_label: str
    probes: tuple[tuple[float, ...], ...]
    tol: float


class Scenario:
    """Parsed scenario with constructed module objects (None when absent or not read)."""

    def __init__(self, base_dir: Path):
        self.base_dir = base_dir
        self.model: WellbeingModel | None = None
        self.mapping_f: LinearMap | None = None
        self.network: ParameterNetwork | None = None
        self.network_deltas: dict[str, float] = {}
        self.survey: SurveyConfig | None = None
        self.dynamics: DynamicsConfig | None = None
        self.sweep_grid: dict[str, list[float]] | None = None
        self.profiles: list[WeightingProfile] | None = None
        self.logic_model: LogicModel | None = None
        self.logic_inputs: dict[str, float] = {}
        self.fact_binding: FactBinding | None = None
        self.surface_grids: tuple[list[float], list[float]] | None = None
        self.curve: tuple[WELayer, list[float]] | None = None
        self.consensus: ConsensusConfig | None = None
        self.warnings: list[str] = []
        self.failed: dict[str, int] = {}  # section -> its findings

    def layer_by_label(self, label: str) -> WELayer | None:
        """The layer with scope `label`, or None (also without a model)."""
        if self.model is None:
            return None
        return next((l for l in self.model.layers if l.scope.label == label), None)


def _float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a number, got {_quote(value)}")
    try:
        v = float(value)
    except OverflowError:  # an int beyond the float range
        v = math.inf
    if not math.isfinite(v):
        raise ValueError(f"{where}: value must be finite")
    return v


def _floats(spec: dict, where: str, keys: tuple[str, ...]) -> dict[str, float]:
    """`spec`'s numbers for `keys`, in order; an absent key takes its field's default."""
    return {k: _float(spec[k], f"{where}.{k}") for k in keys if k in spec}


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected an integer, got {_quote(value)}")
    return value


def _str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{where}: expected a non-empty string, got {_quote(value)}")
    return value


def _matrix(value, where: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{where}: expected a non-empty row-major array of rows")
    return tuple(tuple(_vector(row, f"{where}[{i}]")) for i, row in enumerate(value))


def _vector(value, where: str) -> list[float]:
    if not isinstance(value, list):
        raise ValueError(f"{where}: expected an array of numbers")
    return [_float(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _array(value, where: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{where}: expected an array")
    return value


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{where}: expected an object")
    return value


def _names(value, where: str) -> tuple[str, ...]:
    return tuple(_str(v, f"{where}[{i}]") for i, v in enumerate(_array(value, where)))


# `_edges` and `_nodes`, whose graphs run to thousands of entries, check each
# entry inline and build its field path only when a check fails. They then
# go through the accessors above, which word the finding, or accept what the
# inline check declined, such as an int or a str subclass. `v - v == 0.0`
# holds for exactly the finite floats: inf - inf and nan - nan are nan.


def _edges(value, where: str) -> tuple[Edge, ...]:
    edges = []
    for i, e in enumerate(_array(value, where)):
        if type(e) is not dict:
            e = _object(e, f"{where}[{i}]")
        src, dst, w = e.get("from"), e.get("to"), e.get("weight")
        if not (type(src) is str and src and type(dst) is str and dst
                and type(w) is float and w - w == 0.0):
            at = f"{where}[{i}]"
            src, dst, w = _str(src, f"{at}.from"), _str(dst, f"{at}.to"), _float(w, f"{at}.weight")
        edges.append(Edge(src, dst, w))
    return tuple(edges)


def _nodes(value, where: str) -> tuple[Node, ...]:
    from . import logicmodel

    nodes = []
    for i, n in enumerate(_array(value, where)):
        if type(n) is dict:
            name, stage, base = n.get("name"), n.get("stage"), n.get("baseline", 0.0)
            if (type(name) is str and name and type(stage) is str
                    and stage in logicmodel.STAGES and type(base) is float
                    and base - base == 0.0):
                nodes.append(logicmodel.Node(name, stage, base))
                continue
        at = f"{where}[{i}]"
        n = _object(n, at)
        nodes.append(_check(
            at,
            logicmodel.Node,
            _str(n.get("name"), f"{at}.name"),
            _str(n.get("stage"), f"{at}.stage"),
            _float(n.get("baseline", 0.0), f"{at}.baseline"),
        ))
    return tuple(nodes)


def _check(where: str, fn, *args, **kwargs):
    """Call fn, prefixing the message of any ValueError with the field path."""
    try:
        return fn(*args, **kwargs)
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None


def grid_values(spec, where: str) -> list[float]:
    """A grid is either {"values": [...]} or {"start", "stop", "count"}."""
    if not isinstance(spec, dict):
        raise ValueError(f"{where}: expected a grid object")
    if "values" in spec:
        vals = _vector(spec["values"], f"{where}.values")
        if not vals:
            raise ValueError(f"{where}.values: grid must be non-empty")
        return vals
    for key in ("start", "stop", "count"):
        if key not in spec:
            raise ValueError(f"{where}: grid needs values or start/stop/count")
    start = _float(spec["start"], f"{where}.start")
    stop = _float(spec["stop"], f"{where}.stop")
    count = _int(spec["count"], f"{where}.count")
    if count < 1:
        raise ValueError(f"{where}.count: must be >= 1, got {count}")
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    vals = [start + i * step for i in range(count)]
    for i, v in enumerate(vals):
        if not math.isfinite(v):  # stop - start can overflow
            raise ValueError(f"{where}: grid value {i} is not finite: {v!r}")
    return vals


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


def _parse_value_function(spec, where: str) -> ValueCurve:
    from .valuefn import AsymmetricSpec, MirroredFamily, ValueFunctionSpec

    spec = _object(spec, where)
    kind = spec.get("kind", "asymmetric")
    if kind == "asymmetric":
        return _check(where, AsymmetricSpec, **_floats(spec, where, AsymmetricSpec._fields))
    if kind not in ("family", "mirrored"):
        raise ValueError(f"{where}.kind: unknown kind {_quote(kind)}")
    base = _check(
        where,
        ValueFunctionSpec,
        family=_str(spec.get("family", ""), f"{where}.family"),
        **_floats(spec, where, ("a", "b")),
    )
    if kind == "family":
        return base
    return _check(where, MirroredFamily, base, **_floats(spec, where, ("loss_lambda",)))


def _parse_element_set(name: str, spec, where: str) -> tuple[str, ...]:
    """The set's variable names in declaration order, which is the layout of
    its vectors. A variable's `unit` is a label that is not read."""
    if not isinstance(spec, dict) or not isinstance(spec.get("variables"), list):
        raise ValueError(f"{where}.variables: expected an array")
    variables = [
        _object(v, f"{where}.variables[{i}]") for i, v in enumerate(spec["variables"])
    ]
    names = [_str(v.get("name"), f"{where}.variables[{i}].name") for i, v in enumerate(variables)]
    if len(set(names)) != len(names):
        raise ValueError(
            f"{where}: element names in {_quote(name)} must be unique: {_quote(names)}"
        )
    return tuple(names)


def profile_slug(name: str) -> str:
    """The stem of a profile's ranked table: `select` writes `ranked_<slug>`."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def _parse_profile(spec, where: str, slugs: dict[str, str]) -> WeightingProfile:
    """A profile whose name and slug no earlier profile has taken; `slugs`
    maps each earlier profile's slug to its name."""
    from .evaluator import WeightingProfile

    spec = _object(spec, where)
    name = _str(spec.get("name"), f"{where}.name")
    slug = profile_slug(name)
    other = slugs.get(slug)
    if other == name:
        raise ValueError(f"{where}.name: duplicate profile name {_quote(name)}")
    if other is not None:
        raise ValueError(
            f"{where}.name: profiles {_quote(other)} and {_quote(name)} would both write "
            f"ranked_{_cut(slug)}"
        )
    slugs[slug] = name
    mode = _str(spec.get("mode", "additive"), f"{where}.mode")
    matrix = _matrix(spec.get("matrix"), f"{where}.matrix")
    rest = _floats(spec, where, ("warn_threshold",))
    return WeightingProfile(name, _check(where, FactCoupling, mode, matrix, **rest))


class _Builder:
    """Builds a Scenario section by section (see `_SECTIONS`).

    Every finding goes through `error`, which also records the section
    being parsed as failed. A check that reads an earlier section skips it
    when it has a finding of its own, so no follow-on finding names the
    wrong cause. A section keeps its first MAX_LISTED findings; one more
    finding counts the rest."""

    def __init__(self, base_dir: Path):
        self.sc = Scenario(base_dir)
        # Read only here, by name: a Scenario keeps what they resolve to.
        self.value_functions: dict[str, ValueCurve] = {}
        self.element_sets: dict[str, tuple[str, ...]] = {}  # set name -> variable names
        self.errors: list[str] = []
        self.failed = self.sc.failed
        self.section = ""

    def error(self, msg: str):
        count = self.failed[self.section] = self.failed.get(self.section, 0) + 1
        if count > MAX_LISTED:  # a section's findings are contiguous, the count last
            if count > MAX_LISTED + 1:
                self.errors.pop()
            msg = f"{self.section}: ... ({count - MAX_LISTED} more findings)"
        self.errors.append(msg)

    def attempt(self, parse, *args):
        """parse(*args), or None when it raises a ValueError, whose message
        becomes a finding of the section being parsed."""
        try:
            return parse(*args)
        except ValueError as err:
            self.error(str(err))
            return None

    def model(self, where: str) -> WellbeingModel | None:
        """The layers' model, or None: with a finding at `where` when the
        document has no layers section, and without one when that section
        has findings of its own."""
        if self.sc.model is None and "layers" not in self.failed:
            self.error(f"{where}: requires a layers section")
        return self.sc.model

    def layer(self, label: str, where: str) -> WELayer | None:
        """The layer with scope `label`, or None and a finding at `where`."""
        layer = self.sc.layer_by_label(label)
        if layer is None:
            self.error(f"{where}: unknown scope label {_quote(label)}")
        return layer

    def _value_functions(self, raw):
        if not isinstance(raw, dict):
            raise ValueError("value_functions: expected an object of named functions")
        for name, spec in raw.items():
            fn = self.attempt(_parse_value_function, spec, f"value_functions.{_cut(name)}")
            if fn is not None:
                self.value_functions[name] = fn

    def _element_sets(self, raw):
        if not isinstance(raw, dict):
            raise ValueError("element_sets: expected an object of named sets")
        for name, spec in raw.items():
            es = self.attempt(_parse_element_set, name, spec, f"element_sets.{_cut(name)}")
            if es is not None:
                self.element_sets[name] = es

    def _layer(self, spec, where: str) -> WELayer:
        from .we_model import WELayer, WEScope

        spec = _object(spec, where)
        fn_name = _str(spec.get("value_function"), f"{where}.value_function")
        if fn_name not in self.value_functions:
            raise ValueError(f"{where}.value_function: unknown function {_quote(fn_name)}")
        weights = spec.get("element_weights")
        return _check(
            f"{where}.weight",
            WELayer,
            WEScope(_str(spec.get("scope"), f"{where}.scope")),
            self.value_functions[fn_name],
            _float(spec.get("weight"), f"{where}.weight"),
            tuple(_vector(weights, f"{where}.element_weights")) if weights is not None else None,
        )

    def _layers(self, raw):
        from .we_model import WellbeingModel

        if not isinstance(raw, list) or not raw:
            raise ValueError("layers: expected a non-empty array")
        built = [self.attempt(self._layer, spec, f"layers[{i}]") for i, spec in enumerate(raw)]
        if None not in built:
            self.sc.model = _check("layers", WellbeingModel, tuple(built))

    def _mapping(self, raw):
        where = "mapping_f"
        _object(raw, where)
        nl = raw.get("nonlinearity")
        saturator = None
        if nl is not None:
            nl = _object(nl, f"{where}.nonlinearity")
            kind = nl.get("kind", "none")
            if kind == "saturator":
                saturator = _check(
                    f"{where}.nonlinearity",
                    Saturator,
                    scale=_float(nl.get("scale"), f"{where}.nonlinearity.scale"),
                )
            elif kind != "none":
                raise ValueError(f"{where}.nonlinearity.kind: unknown kind {_quote(kind)}")
        m = _matrix(raw.get("matrix"), f"{where}.matrix")
        offset = raw.get("offset", [0.0] * len(m))
        f = self.sc.mapping_f = _check(
            where,
            LinearMap,
            matrix=m,
            offset=tuple(_vector(offset, f"{where}.offset")),
            nonlinearity=saturator,
        )
        for key, dim, side in (
            ("source", f.source_dim, "columns"), ("target", f.target_dim, "rows")
        ):
            name = raw.get(key)
            if name is None:
                continue
            es = self.element_sets.get(_str(name, f"{where}.{key}"))
            if es is None:
                if "element_sets" not in self.failed:
                    raise ValueError(f"{where}.{key}: unknown element set {_quote(name)}")
            elif len(es) != dim:
                raise ValueError(
                    f"{where}.matrix: {dim} {side} for {len(es)}-element set {_quote(name)}"
                )

    def _network(self, raw):
        where = "parameter_network"
        _object(raw, where)
        facts = _names(raw.get("facts", []), f"{where}.facts")
        values = _names(raw.get("values", []), f"{where}.values")
        edges = _edges(raw.get("edges", []), f"{where}.edges")
        self.sc.network = _check(where, ParameterNetwork, facts, values, edges)
        deltas = _object(raw.get("deltas", {}), f"{where}.deltas")
        fact_set = set(facts)
        for k, v in deltas.items():
            if k not in fact_set:
                raise ValueError(f"{where}.deltas: {_quote(k)} is not a fact node")
            self.sc.network_deltas[k] = _float(v, f"{where}.deltas.{_cut(k)}")

    def _survey(self, raw):
        where = "survey"
        _object(raw, where)
        constructs = raw.get("constructs")
        if not isinstance(constructs, list) or not constructs:
            raise ValueError(f"{where}.constructs: expected a non-empty array")
        cmap = _check(
            where,
            ConstructMap,
            constructs=tuple(_str(c, f"{where}.constructs[{i}]") for i, c in enumerate(constructs)),
            matrix=_matrix(raw.get("construct_matrix"), f"{where}.construct_matrix"),
        )
        scale = _int(raw.get("scale"), f"{where}.scale")
        if scale < 2:
            raise ValueError(f"{where}.scale: must be >= 2, got {scale}")
        _float(scale, f"{where}.scale")  # answers are rescaled in floats
        target_q = _int(raw.get("target_question"), f"{where}.target_question")
        if not 1 <= target_q <= cmap.question_count:
            raise ValueError(
                f"{where}.target_question: {target_q} outside 1..{cmap.question_count}"
            )
        self.sc.survey = SurveyConfig(
            file=_str(raw.get("file"), f"{where}.file"),
            scale=scale,
            construct_map=cmap,
            target_question=target_q,
        )
        xw = self.element_sets.get("X_w")
        if xw is not None and xw != cmap.constructs:
            raise ValueError(
                f"{where}.constructs: must match element_sets.X_w variable names "
                f"({_quote(list(xw))})"
            )

    def _dynamics(self, raw):
        from .policy_sim import DynamicsConfig

        where = "dynamics"
        _object(raw, where)
        counts = [_int(raw.get(k), f"{where}.{k}") for k in ("agents", "steps", "seed")]
        rates = _floats(raw, where, DynamicsConfig._fields[3:])
        try:
            self.sc.dynamics = DynamicsConfig(*counts, **rates)
        except ValueError as err:  # worded from the field: "seed must be >= 0, got -7"
            raise ValueError(f"{where}.{err}") from None

    def _sweep(self, raw):
        from .policy_sim import KNOB_RANGES

        where = "sweep"
        _object(raw, where)
        grid = {}
        for knob in KNOB_RANGES:
            grid[knob] = _vector(raw.get(knob), f"{where}.{knob}")
            if not grid[knob]:
                raise ValueError(f"{where}.{knob}: grid must be non-empty")
        # run_sweep lists every (s, t, v) combination, as a row or as skipped.
        sizes = [len(vals) for vals in grid.values()]
        if math.prod(sizes) > MAX_GRID_POINTS:
            raise ValueError(
                f"{where}: {' x '.join(map(str, sizes))} = {math.prod(sizes)} combinations "
                f"exceeds the cap of {MAX_GRID_POINTS}"
            )
        for knob, (lo, hi) in KNOB_RANGES.items():
            for v in grid[knob]:
                if not lo <= v <= hi:
                    raise ValueError(f"{where}.{knob}: value {v} outside [{lo}, {hi}]")
        # Admissible (subsidy, service) pairs, decided as run_sweep decides.
        pairs = sum(not s + v > 1.0 for s in grid["subsidy"] for v in grid["service"])
        if not pairs:
            raise ValueError(
                f"{where}: s + v > 1 for every (subsidy, service) pair; "
                "no admissible policy to simulate"
            )
        dyn = self.sc.dynamics
        if dyn is not None:
            rows = pairs * len(grid["tax"])
            work = rows * (dyn.agents + dyn.steps)
            if work > MAX_SWEEP_WORK:
                raise ValueError(
                    f"{where}: {rows} admissible rows x ({dyn.agents} agents + {dyn.steps} "
                    f"steps) = {work} exceeds the cap of {MAX_SWEEP_WORK}"
                )
        self.sc.sweep_grid = grid

    def _profiles(self, raw):
        from .policy_sim import INDICATORS

        if not isinstance(raw, list) or not raw:
            raise ValueError("weighting_profiles: expected a non-empty array")
        subjective = None if "survey" in self.failed else self.element_sets.get("X_w")
        if self.sc.survey is not None:
            subjective = self.sc.survey.construct_map.constructs
        facts = self.element_sets.get("X_c")
        slugs: dict[str, str] = {}
        self.sc.profiles = []
        for i, spec in enumerate(raw):
            profile = self.attempt(_parse_profile, spec, f"weighting_profiles[{i}]", slugs)
            if profile is None:
                continue
            self.sc.profiles.append(profile)
            where = f"weighting_profiles[{_quote(profile.name)}].matrix"
            rows, cols = profile.coupling.subjective_dim, profile.coupling.fact_dim
            if subjective is not None and rows != len(subjective):
                self.error(f"{where}: {rows} rows for {len(subjective)} subjective constructs")
            if cols != len(INDICATORS):
                self.error(f"{where}: {cols} columns for {len(INDICATORS)} simulator indicators")
            elif facts is not None and cols != len(facts):
                self.error(f"{where}: {cols} columns for {len(facts)} fact elements")

    def _logic_model(self, raw):
        from . import logicmodel

        where = "logic_model"
        _object(raw, where)
        nodes = _nodes(raw.get("nodes", []), f"{where}.nodes")
        edges = _edges(raw.get("edges", []), f"{where}.edges")
        model = logicmodel.LogicModel(nodes=nodes, edges=edges)
        findings = logicmodel.validate(model)
        for finding in findings:
            self.error(f"{where}: {finding}")
        if findings:
            return
        self.sc.logic_model = model

        inputs = _object(raw.get("inputs", {}), f"{where}.inputs")
        for k, v in inputs.items():
            self.sc.logic_inputs[k] = _float(v, f"{where}.inputs.{_cut(k)}")
        _check(f"{where}.inputs", logicmodel.check_inputs, model, self.sc.logic_inputs)

        fb = raw.get("fact_bindings")
        if fb is not None:
            if not isinstance(fb, dict) or not isinstance(fb.get("bindings"), dict):
                raise ValueError(f"{where}.fact_bindings.bindings: expected an object")
            elements = _names(fb.get("elements", []), f"{where}.fact_bindings.elements")
            values = tuple(_vector(fb.get("values", []), f"{where}.fact_bindings.values"))
            bindings = {}
            for k, v in fb["bindings"].items():
                _str(k, f"{where}.fact_bindings.bindings")
                bindings[k] = _str(v, f"{where}.fact_bindings.bindings.{_cut(k)}")
            binding = _check(
                f"{where}.fact_bindings", logicmodel.FactBinding, bindings, elements, values
            )
            _check(f"{where}.fact_bindings", logicmodel.check_binding, model, binding)
            self.sc.fact_binding = binding

    def _surface(self, raw):
        _object(raw, "surface")
        x_n, x_w = raw.get("x_n"), raw.get("x_w")
        n, w = _grid_len(x_n), _grid_len(x_w)
        if n * w > MAX_GRID_POINTS:
            raise ValueError(
                f"surface: {n} x {w} = {n * w} cells exceeds the cap of {MAX_GRID_POINTS}"
            )
        grids = (grid_values(x_n, "surface.x_n"), grid_values(x_w, "surface.x_w"))
        self.sc.surface_grids = grids
        model = self.model("surface")
        if model is not None:
            from .we_model import surface_layers

            layers = _check("surface", surface_layers, model)
            for layer, xs, where in zip(layers, grids, ("surface.x_n", "surface.x_w")):
                self._grid_check(layer, xs, where)

    def _curve(self, raw):
        _object(raw, "curve")
        label = _str(raw.get("layer"), "curve.layer")
        n = _grid_len(raw.get("grid"))
        if n > MAX_GRID_POINTS:
            raise ValueError(f"curve.grid: {n} points exceeds the cap of {MAX_GRID_POINTS}")
        grid = grid_values(raw.get("grid"), "curve.grid")
        if self.model("curve") is not None:
            layer = self.layer(label, "curve.layer")
            if layer is not None:
                self.sc.curve = (layer, grid)
                self._grid_check(layer, grid, "curve.grid")

    def _grid_check(self, layer: WELayer, xs: list[float], where: str):
        """A raw family is defined for x >= 0 only, so a grid reaching below
        0 is a finding. Quadratic curves turn over past a/2; warn when a grid
        reaches beyond that point, since ranking semantics silently flip
        there."""
        from .valuefn import MirroredFamily, ValueFunctionSpec, quadratic_monotone_limit

        fn = layer.value_function
        if isinstance(fn, ValueFunctionSpec) and min(xs) < 0:
            self.error(
                f"{where}: grid reaches {min(xs)!r}, below the {fn.family} family's "
                f"domain x >= 0 for layer {_quote(layer.scope.label)}"
            )
        base = fn.base if isinstance(fn, MirroredFamily) else fn
        if isinstance(base, ValueFunctionSpec) and base.family == "quadratic":
            lim = quadratic_monotone_limit(base)
            if any(abs(x) > lim for x in xs):
                self.sc.warnings.append(
                    f"{where}: grid reaches beyond the quadratic peak at {lim!r} for "
                    f"layer {_quote(layer.scope.label)}; values are non-monotone past it"
                )

    def _consensus(self, raw):
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
        cfg = self.sc.consensus = ConsensusConfig(
            narrow_label=_str(raw.get("narrow_layer"), f"{where}.narrow_layer"),
            wide_label=_str(raw.get("wide_layer"), f"{where}.wide_layer"),
            probes=probes,
            tol=tol,
        )
        f = None if "mapping_f" in self.failed else self.sc.mapping_f
        layers = []  # the narrow and wide layers that resolve
        if self.model(where) is not None:
            # The narrow layer weighs the mapping's target, the wide its source.
            for key, label, side in (
                ("narrow_layer", cfg.narrow_label, "target"),
                ("wide_layer", cfg.wide_label, "source"),
            ):
                layer = self.layer(label, f"{where}.{key}")
                if layer is None:
                    continue
                layers.append(layer)
                weights = layer.element_weights
                if weights is None:
                    self.error(f"{where}.{key}: layer {_quote(label)} declares no element_weights")
                elif f is not None:
                    dim = f.target_dim if side == "target" else f.source_dim
                    if len(weights) != dim:
                        self.error(
                            f"{where}.{key}: element_weights length {len(weights)} != "
                            f"mapping {side} dimension {dim}"
                        )
        if "mapping_f" in self.failed:
            return
        if f is None:
            raise ValueError(f"{where}: requires a mapping_f section")
        for i, p in enumerate(probes):
            if len(p) != f.source_dim:
                raise ValueError(
                    f"{where}.probes[{i}]: length {len(p)} != mapping source dimension "
                    f"{f.source_dim}"
                )
        if len(layers) < 2 or where in self.failed:
            return
        # A layer's input at probe p: its weights times f(p) (narrow) or p (wide).
        mapped = [apply_map(f, p) for p in probes]
        for layer, vectors in zip(layers, (mapped, probes)):
            xs = [dot(layer.element_weights, x) for x in vectors]
            self._grid_check(layer, xs, f"{where}.probes")


# Every section a scenario may hold, in the order it is parsed and its findings
# are reported, and the run commands that read it. A section checks its agreement
# with those before it, which a command that reads it reads too: layers read
# value_functions; mapping_f and survey read element_sets; weighting_profiles read
# survey and element_sets; sweep reads dynamics; surface and curve read layers;
# and consensus reads layers and mapping_f. Any other key is ignored.
_SECTIONS = (
    ("value_functions", _Builder._value_functions, ("surface", "consensus-check")),
    ("element_sets", _Builder._element_sets, ("consensus-check", "fit", "select")),
    ("layers", _Builder._layers, ("surface", "consensus-check")),
    ("mapping_f", _Builder._mapping, ("consensus-check",)),
    ("parameter_network", _Builder._network, ("network",)),
    ("survey", _Builder._survey, ("fit", "select")),
    ("dynamics", _Builder._dynamics, ("sweep", "select")),
    ("sweep", _Builder._sweep, ("sweep", "select")),
    ("weighting_profiles", _Builder._profiles, ("select",)),
    ("logic_model", _Builder._logic_model, ("impact",)),
    ("surface", _Builder._surface, ("surface",)),
    ("curve", _Builder._curve, ("surface",)),
    ("consensus", _Builder._consensus, ("consensus-check",)),
)


def sections_read(command: str | None) -> dict:
    """Section name -> parser of each section run command `command` reads, in order."""
    return {name: parse for name, parse, readers in _SECTIONS if command in (None, *readers)}


def parse_scenario(doc: dict, base_dir: Path,
                   command: str | None = None) -> tuple[Scenario, list[str], list[str]]:
    """Construct module objects from the sections `command` reads (all for None).

    Returns (scenario, errors, warnings); the scenario is only usable when
    errors is empty.
    """
    if not isinstance(doc, dict):
        return Scenario(base_dir), ["scenario: expected a JSON object"], []
    builder = _Builder(base_dir)
    for name, parse in sections_read(command).items():
        raw = doc.get(name)
        if raw is not None:
            builder.section = name
            builder.attempt(parse, builder, raw)
    return builder.sc, builder.errors, builder.sc.warnings


def read_scenario_file(path: str | Path) -> tuple[dict, bytes]:
    """Read and JSON-parse a scenario; parse errors name line and column."""
    p = Path(path)
    data = p.read_bytes()
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as err:
        raise ScenarioError([f"scenario: not valid UTF-8 ({err})"]) from None
    except json.JSONDecodeError as err:
        raise ScenarioError(
            [f"scenario: JSON parse error at line {err.lineno}, column {err.colno}: {err.msg}"]
        ) from None
    # Worded here: the interpreter's own messages differ between versions.
    except ValueError:  # int() refuses a literal over sys.get_int_max_str_digits()
        raise ScenarioError(["scenario: an integer literal has too many digits"]) from None
    except RecursionError:
        raise ScenarioError(["scenario: JSON nests arrays or objects too deeply"]) from None
    return doc, data


def load_scenario(path: str | Path, command: str | None = None) -> tuple[Scenario, bytes]:
    """Load a scenario file and validate the sections `command` reads (all for
    None); raises ScenarioError with every finding when validation fails."""
    doc, data = read_scenario_file(path)
    sc, errors, _ = parse_scenario(doc, Path(path).resolve().parent, command)
    if errors:
        raise ScenarioError(errors)
    return sc, data

