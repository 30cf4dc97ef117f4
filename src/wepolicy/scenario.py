"""Scenario documents: one JSON file drives every pipeline.

A scenario is a single self-describing JSON object whose sections declare
value functions, scope layers, element sets, mappings, couplings, survey
and dynamics configuration, sweep grids, weighting profiles, a logic model,
and sampling grids. Validation walks every present section, collects
errors naming `section.field`, and cross-checks dimensions between
sections before anything runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from . import logicmodel
from .coupling import (
    Element,
    ElementSet,
    FactCoupling,
    LinearMap,
    NetworkEdge,
    ParameterNetwork,
    Saturator,
)
from .errors import ScenarioError
from .evaluator import WeightingProfile
from .policy_sim import DynamicsConfig
from .survey import ConstructMap
from .valuefn import (
    AsymmetricSpec,
    MirroredFamily,
    ValueCurve,
    ValueFunctionSpec,
    quadratic_monotone_limit,
)
from .we_model import WellbeingModel, WELayer, WEScope


@dataclass(frozen=True)
class SurveyConfig:
    file: str
    scale: int
    construct_map: ConstructMap
    target_question: int  # 1-based question index holding the rating


@dataclass(frozen=True)
class ConsensusConfig:
    narrow_label: str
    wide_label: str
    probes: tuple[tuple[float, ...], ...]
    tol: float


@dataclass
class Scenario:
    """Parsed scenario with constructed module objects (None when absent)."""

    doc: dict
    base_dir: Path
    value_functions: dict[str, ValueCurve] = field(default_factory=dict)
    layers: list[WELayer] = field(default_factory=list)
    model: WellbeingModel | None = None
    element_sets: dict[str, ElementSet] = field(default_factory=dict)
    mapping_f: LinearMap | None = None
    fact_coupling: FactCoupling | None = None
    network: ParameterNetwork | None = None
    network_deltas: dict[str, float] = field(default_factory=dict)
    survey: SurveyConfig | None = None
    dynamics: DynamicsConfig | None = None
    sweep_grid: dict[str, list[float]] | None = None
    profiles: list[WeightingProfile] = field(default_factory=list)
    logic_model: logicmodel.LogicModel | None = None
    logic_inputs: dict[str, float] = field(default_factory=dict)
    fact_binding: logicmodel.FactBinding | None = None
    surface_grids: tuple[list[float], list[float]] | None = None
    curve: tuple[str, list[float]] | None = None
    consensus: ConsensusConfig | None = None
    warnings: list[str] = field(default_factory=list)

    def layer_by_label(self, label: str) -> WELayer:
        for layer in self.layers:
            if layer.scope.label == label:
                return layer
        raise KeyError(label)


def _float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{where}: expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ValueError(f"{where}: value must be finite")
    return v


def _int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{where}: expected an integer, got {value!r}")
    return value


def _str(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{where}: expected a non-empty string, got {value!r}")
    return value


def _matrix(value, where: str) -> tuple[tuple[float, ...], ...]:
    if not isinstance(value, list) or not value:
        raise ValueError(f"{where}: expected a non-empty row-major array of rows")
    rows = []
    for i, row in enumerate(value):
        if not isinstance(row, list):
            raise ValueError(f"{where}[{i}]: expected an array of numbers")
        rows.append(tuple(_float(v, f"{where}[{i}][{j}]") for j, v in enumerate(row)))
    return tuple(rows)


def _vector(value, where: str) -> list[float]:
    if not isinstance(value, list):
        raise ValueError(f"{where}: expected an array of numbers")
    return [_float(v, f"{where}[{i}]") for i, v in enumerate(value)]


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
    return [start + i * step for i in range(count)]


def _parse_value_function(name: str, spec, where: str) -> ValueCurve:
    if not isinstance(spec, dict):
        raise ValueError(f"{where}: expected an object")
    kind = spec.get("kind", "asymmetric")
    if kind == "asymmetric":
        return AsymmetricSpec(
            gain_alpha=_float(spec.get("gain_alpha", 1.0), f"{where}.gain_alpha"),
            loss_beta=_float(spec.get("loss_beta", 1.0), f"{where}.loss_beta"),
            loss_lambda=_float(spec.get("loss_lambda", 2.0), f"{where}.loss_lambda"),
        )
    if kind == "family":
        return ValueFunctionSpec(
            family=_str(spec.get("family", ""), f"{where}.family"),
            a=_float(spec.get("a", 1.0), f"{where}.a"),
            b=_float(spec.get("b", 1.0), f"{where}.b"),
        )
    if kind == "mirrored":
        base = ValueFunctionSpec(
            family=_str(spec.get("family", ""), f"{where}.family"),
            a=_float(spec.get("a", 1.0), f"{where}.a"),
            b=_float(spec.get("b", 1.0), f"{where}.b"),
        )
        return MirroredFamily(
            base=base,
            loss_lambda=_float(spec.get("loss_lambda", 2.0), f"{where}.loss_lambda"),
        )
    raise ValueError(f"{where}.kind: unknown kind {kind!r}")


def _parse_coupling(spec, where: str) -> FactCoupling:
    if not isinstance(spec, dict):
        raise ValueError(f"{where}: expected an object")
    return FactCoupling(
        mode=_str(spec.get("mode", "additive"), f"{where}.mode"),
        matrix=_matrix(spec.get("matrix"), f"{where}.matrix"),
        warn_threshold=_float(spec.get("warn_threshold", 0.2), f"{where}.warn_threshold"),
    )


class _Builder:
    def __init__(self, doc: dict, base_dir: Path):
        self.sc = Scenario(doc=doc, base_dir=base_dir)
        self.errors: list[str] = []

    def error(self, msg: str):
        self.errors.append(msg)

    def section(self, name: str):
        return self.sc.doc.get(name)

    def build(self) -> None:
        for step in (
            self._value_functions,
            self._element_sets,
            self._layers,
            self._mapping,
            self._fact_coupling,
            self._network,
            self._survey,
            self._dynamics,
            self._sweep,
            self._profiles,
            self._logic_model,
            self._grids,
            self._consensus,
        ):
            step()
        self._cross_checks()

    def _value_functions(self):
        raw = self.section("value_functions")
        if raw is None:
            return
        if not isinstance(raw, dict):
            self.error("value_functions: expected an object of named functions")
            return
        for name, spec in raw.items():
            try:
                self.sc.value_functions[name] = _parse_value_function(
                    name, spec, f"value_functions.{name}"
                )
            except ValueError as err:
                self.error(str(err))

    def _element_sets(self):
        raw = self.section("element_sets")
        if raw is None:
            return
        if not isinstance(raw, dict):
            self.error("element_sets: expected an object of named sets")
            return
        for name, spec in raw.items():
            where = f"element_sets.{name}"
            try:
                if not isinstance(spec, dict) or not isinstance(spec.get("variables"), list):
                    raise ValueError(f"{where}.variables: expected an array")
                elements = tuple(
                    Element(
                        name=_str(v.get("name"), f"{where}.variables[{i}].name"),
                        unit=str(v.get("unit", "")),
                    )
                    for i, v in enumerate(spec["variables"])
                )
                self.sc.element_sets[name] = ElementSet(name=name, elements=elements)
            except ValueError as err:
                self.error(str(err))

    def _layers(self):
        raw = self.section("layers")
        if raw is None:
            return
        if not isinstance(raw, list) or not raw:
            self.error("layers: expected a non-empty array")
            return
        built = []
        for i, spec in enumerate(raw):
            where = f"layers[{i}]"
            try:
                fn_name = _str(spec.get("value_function"), f"{where}.value_function")
                if fn_name not in self.sc.value_functions:
                    raise ValueError(
                        f"{where}.value_function: unknown function {fn_name!r}"
                    )
                weights = spec.get("element_weights")
                built.append(
                    WELayer(
                        scope=WEScope(_str(spec.get("scope"), f"{where}.scope")),
                        value_function=self.sc.value_functions[fn_name],
                        weight=_float(spec.get("weight"), f"{where}.weight"),
                        element_weights=(
                            tuple(_vector(weights, f"{where}.element_weights"))
                            if weights is not None
                            else None
                        ),
                    )
                )
            except ValueError as err:
                self.error(str(err))
        if len(built) == len(raw):
            self.sc.layers = built
            try:
                self.sc.model = WellbeingModel(layers=tuple(built))
            except ValueError as err:
                self.error(f"layers: {err}")

    def _mapping(self):
        raw = self.section("mapping_f")
        if raw is None:
            return
        where = "mapping_f"
        try:
            if not isinstance(raw, dict):
                raise ValueError(f"{where}: expected an object")
            nl = raw.get("nonlinearity")
            saturator = None
            if nl is not None:
                kind = nl.get("kind", "none")
                if kind == "saturator":
                    saturator = Saturator(scale=_float(nl.get("scale"), f"{where}.nonlinearity.scale"))
                elif kind != "none":
                    raise ValueError(f"{where}.nonlinearity.kind: unknown kind {kind!r}")
            m = _matrix(raw.get("matrix"), f"{where}.matrix")
            offset = raw.get("offset", [0.0] * len(m))
            self.sc.mapping_f = LinearMap(
                matrix=m,
                offset=tuple(_vector(offset, f"{where}.offset")),
                nonlinearity=saturator,
            )
            src, dst = raw.get("source"), raw.get("target")
            if src is not None and src in self.sc.element_sets:
                if self.sc.element_sets[src].dim != self.sc.mapping_f.source_dim:
                    raise ValueError(
                        f"{where}.matrix: {self.sc.mapping_f.source_dim} columns for "
                        f"{self.sc.element_sets[src].dim}-element set {src!r}"
                    )
            if dst is not None and dst in self.sc.element_sets:
                if self.sc.element_sets[dst].dim != self.sc.mapping_f.target_dim:
                    raise ValueError(
                        f"{where}.matrix: {self.sc.mapping_f.target_dim} rows for "
                        f"{self.sc.element_sets[dst].dim}-element set {dst!r}"
                    )
        except ValueError as err:
            self.error(str(err))

    def _fact_coupling(self):
        raw = self.section("fact_coupling")
        if raw is None:
            return
        try:
            self.sc.fact_coupling = _parse_coupling(raw, "fact_coupling")
        except ValueError as err:
            self.error(str(err))

    def _network(self):
        raw = self.section("parameter_network")
        if raw is None:
            return
        where = "parameter_network"
        try:
            if not isinstance(raw, dict):
                raise ValueError(f"{where}: expected an object")
            facts = [_str(v, f"{where}.facts[{i}]") for i, v in enumerate(raw.get("facts", []))]
            values = [_str(v, f"{where}.values[{i}]") for i, v in enumerate(raw.get("values", []))]
            edges = []
            for i, e in enumerate(raw.get("edges", [])):
                edges.append(
                    NetworkEdge(
                        source=_str(e.get("from"), f"{where}.edges[{i}].from"),
                        target=_str(e.get("to"), f"{where}.edges[{i}].to"),
                        weight=_float(e.get("weight"), f"{where}.edges[{i}].weight"),
                    )
                )
            net = ParameterNetwork(
                fact_nodes=tuple(facts), value_nodes=tuple(values), edges=tuple(edges)
            )
            self.sc.network = net
            deltas = raw.get("deltas", {})
            if not isinstance(deltas, dict):
                raise ValueError(f"{where}.deltas: expected an object")
            fact_set = set(facts)
            for k, v in deltas.items():
                if k not in fact_set:
                    raise ValueError(f"{where}.deltas: {k!r} is not a fact node")
                self.sc.network_deltas[k] = _float(v, f"{where}.deltas.{k}")
        except ValueError as err:
            self.error(str(err))

    def _survey(self):
        raw = self.section("survey")
        if raw is None:
            return
        where = "survey"
        try:
            if not isinstance(raw, dict):
                raise ValueError(f"{where}: expected an object")
            constructs = raw.get("constructs")
            if not isinstance(constructs, list) or not constructs:
                raise ValueError(f"{where}.constructs: expected a non-empty array")
            cmap = ConstructMap(
                constructs=tuple(_str(c, f"{where}.constructs[{i}]") for i, c in enumerate(constructs)),
                matrix=_matrix(raw.get("construct_matrix"), f"{where}.construct_matrix"),
            )
            scale = _int(raw.get("scale"), f"{where}.scale")
            if scale < 2:
                raise ValueError(f"{where}.scale: must be >= 2, got {scale}")
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
        except ValueError as err:
            self.error(str(err))

    def _dynamics(self):
        raw = self.section("dynamics")
        if raw is None:
            return
        where = "dynamics"
        try:
            if not isinstance(raw, dict):
                raise ValueError(f"{where}: expected an object")
            self.sc.dynamics = DynamicsConfig(
                agents=_int(raw.get("agents"), f"{where}.agents"),
                steps=_int(raw.get("steps"), f"{where}.steps"),
                seed=_int(raw.get("seed"), f"{where}.seed"),
                income_spread=_float(raw.get("income_spread", 0.0), f"{where}.income_spread"),
                renewable_rate=_float(raw.get("renewable_rate", 0.1), f"{where}.renewable_rate"),
                connection_rate=_float(raw.get("connection_rate", 0.1), f"{where}.connection_rate"),
                connection_decay=_float(raw.get("connection_decay", 0.05), f"{where}.connection_decay"),
            )
        except ValueError as err:
            self.error(f"{where}: {err}" if not str(err).startswith(where) else str(err))

    def _sweep(self):
        raw = self.section("sweep")
        if raw is None:
            return
        where = "sweep"
        try:
            if not isinstance(raw, dict):
                raise ValueError(f"{where}: expected an object")
            grid = {}
            for knob in ("subsidy", "tax", "service"):
                grid[knob] = _vector(raw.get(knob), f"{where}.{knob}")
                if not grid[knob]:
                    raise ValueError(f"{where}.{knob}: grid must be non-empty")
            lo_hi = {"subsidy": (0.0, 1.0), "tax": (0.0, 0.5), "service": (0.0, 1.0)}
            for knob, vals in grid.items():
                lo, hi = lo_hi[knob]
                for v in vals:
                    if not lo <= v <= hi:
                        raise ValueError(f"{where}.{knob}: value {v} outside [{lo}, {hi}]")
            if min(grid["subsidy"]) + min(grid["service"]) > 1.0:
                raise ValueError(
                    f"{where}: s + v > 1 for every (subsidy, service) pair; "
                    "no admissible policy to simulate"
                )
            self.sc.sweep_grid = grid
        except ValueError as err:
            self.error(str(err))

    def _profiles(self):
        raw = self.section("weighting_profiles")
        if raw is None:
            return
        if not isinstance(raw, list):
            self.error("weighting_profiles: expected an array")
            return
        names = set()
        for i, spec in enumerate(raw):
            where = f"weighting_profiles[{i}]"
            try:
                name = _str(spec.get("name"), f"{where}.name")
                if name in names:
                    raise ValueError(f"{where}.name: duplicate profile name {name!r}")
                names.add(name)
                self.sc.profiles.append(
                    WeightingProfile(name=name, coupling=_parse_coupling(spec, where))
                )
            except ValueError as err:
                self.error(str(err))

    def _logic_model(self):
        raw = self.section("logic_model")
        if raw is None:
            return
        where = "logic_model"
        try:
            if not isinstance(raw, dict):
                raise ValueError(f"{where}: expected an object")
            nodes = []
            for i, n in enumerate(raw.get("nodes", [])):
                nodes.append(
                    logicmodel.Node(
                        name=_str(n.get("name"), f"{where}.nodes[{i}].name"),
                        stage=_str(n.get("stage"), f"{where}.nodes[{i}].stage"),
                        baseline=_float(n.get("baseline", 0.0), f"{where}.nodes[{i}].baseline"),
                    )
                )
            edges = []
            for i, e in enumerate(raw.get("edges", [])):
                edges.append(
                    logicmodel.Edge(
                        source=_str(e.get("from"), f"{where}.edges[{i}].from"),
                        target=_str(e.get("to"), f"{where}.edges[{i}].to"),
                        weight=_float(e.get("weight"), f"{where}.edges[{i}].weight"),
                    )
                )
            model = logicmodel.LogicModel(nodes=tuple(nodes), edges=tuple(edges))
            findings = logicmodel.validate(model)
            if findings:
                raise ValueError(f"{where}: " + "; ".join(findings))
            self.sc.logic_model = model

            inputs = raw.get("inputs", {})
            if not isinstance(inputs, dict):
                raise ValueError(f"{where}.inputs: expected an object")
            input_names = {n.name for n in model.stage_nodes("inputs")}
            for k, v in inputs.items():
                if k not in input_names:
                    raise ValueError(f"{where}.inputs: {k!r} is not an inputs-stage node")
                self.sc.logic_inputs[k] = _float(v, f"{where}.inputs.{k}")
            missing = sorted(input_names - set(self.sc.logic_inputs))
            if missing:
                raise ValueError(
                    f"{where}.inputs: missing values for inputs nodes: {', '.join(missing)}"
                )

            fb = raw.get("fact_bindings")
            if fb is not None:
                if not isinstance(fb, dict) or not isinstance(fb.get("bindings"), dict):
                    raise ValueError(f"{where}.fact_bindings.bindings: expected an object")
                elements = [
                    _str(e, f"{where}.fact_bindings.elements[{i}]")
                    for i, e in enumerate(fb.get("elements", []))
                ]
                values = _vector(fb.get("values", []), f"{where}.fact_bindings.values")
                binding = logicmodel.FactBinding(
                    bindings={
                        _str(k, f"{where}.fact_bindings.bindings"): _str(
                            v, f"{where}.fact_bindings.bindings.{k}"
                        )
                        for k, v in fb["bindings"].items()
                    },
                    elements=tuple(elements),
                    values=tuple(values),
                )
                by_name = model.node_map()
                for node in binding.bindings:
                    if node not in by_name:
                        raise ValueError(
                            f"{where}.fact_bindings: unknown node {node!r}"
                        )
                    if by_name[node].stage not in logicmodel.BINDABLE_STAGES:
                        raise ValueError(
                            f"{where}.fact_bindings: node {node!r} is "
                            f"{by_name[node].stage}-stage; facts bind to "
                            f"{', '.join(logicmodel.BINDABLE_STAGES)}"
                        )
                self.sc.fact_binding = binding
        except ValueError as err:
            self.error(str(err))

    def _grids(self):
        raw = self.section("surface")
        if raw is not None:
            try:
                if not isinstance(raw, dict):
                    raise ValueError("surface: expected an object")
                xs_n = grid_values(raw.get("x_n"), "surface.x_n")
                xs_w = grid_values(raw.get("x_w"), "surface.x_w")
                self.sc.surface_grids = (xs_n, xs_w)
            except ValueError as err:
                self.error(str(err))
        raw = self.section("curve")
        if raw is not None:
            try:
                if not isinstance(raw, dict):
                    raise ValueError("curve: expected an object")
                label = _str(raw.get("layer"), "curve.layer")
                xs = grid_values(raw.get("grid"), "curve.grid")
                self.sc.curve = (label, xs)
            except ValueError as err:
                self.error(str(err))

    def _consensus(self):
        raw = self.section("consensus")
        if raw is None:
            return
        where = "consensus"
        try:
            if not isinstance(raw, dict):
                raise ValueError(f"{where}: expected an object")
            probes_raw = raw.get("probes")
            if not isinstance(probes_raw, list) or not probes_raw:
                raise ValueError(f"{where}.probes: expected a non-empty array of vectors")
            probes = tuple(
                tuple(_vector(p, f"{where}.probes[{i}]")) for i, p in enumerate(probes_raw)
            )
            tol = _float(raw.get("tol", 1e-9), f"{where}.tol")
            if not tol > 0:
                raise ValueError(f"{where}.tol: must be > 0")
            self.sc.consensus = ConsensusConfig(
                narrow_label=_str(raw.get("narrow_layer"), f"{where}.narrow_layer"),
                wide_label=_str(raw.get("wide_layer"), f"{where}.wide_layer"),
                probes=probes,
                tol=tol,
            )
        except ValueError as err:
            self.error(str(err))

    def _cross_checks(self):
        sc = self.sc
        if sc.curve is not None:
            label = sc.curve[0]
            if all(l.scope.label != label for l in sc.layers):
                self.error(f"curve.layer: unknown scope label {label!r}")
        if sc.consensus is not None:
            for key, label in (
                ("narrow_layer", sc.consensus.narrow_label),
                ("wide_layer", sc.consensus.wide_label),
            ):
                layer = next((l for l in sc.layers if l.scope.label == label), None)
                if layer is None:
                    self.error(f"consensus.{key}: unknown scope label {label!r}")
                elif layer.element_weights is None:
                    self.error(
                        f"consensus.{key}: layer {label!r} declares no element_weights"
                    )
            if sc.mapping_f is None:
                self.error("consensus: requires a mapping_f section")
            else:
                for i, p in enumerate(sc.consensus.probes):
                    if len(p) != sc.mapping_f.source_dim:
                        self.error(
                            f"consensus.probes[{i}]: length {len(p)} != mapping source "
                            f"dimension {sc.mapping_f.source_dim}"
                        )
                        break
                narrow = next(
                    (l for l in sc.layers if l.scope.label == sc.consensus.narrow_label), None
                )
                wide = next(
                    (l for l in sc.layers if l.scope.label == sc.consensus.wide_label), None
                )
                if narrow is not None and narrow.element_weights is not None:
                    if len(narrow.element_weights) != sc.mapping_f.target_dim:
                        self.error(
                            "consensus.narrow_layer: element_weights length "
                            f"{len(narrow.element_weights)} != mapping target dimension "
                            f"{sc.mapping_f.target_dim}"
                        )
                if wide is not None and wide.element_weights is not None:
                    if len(wide.element_weights) != sc.mapping_f.source_dim:
                        self.error(
                            "consensus.wide_layer: element_weights length "
                            f"{len(wide.element_weights)} != mapping source dimension "
                            f"{sc.mapping_f.source_dim}"
                        )

        subjective_dim = None
        if sc.survey is not None:
            subjective_dim = len(sc.survey.construct_map.constructs)
            xw = sc.element_sets.get("X_w")
            if xw is not None and xw.names != sc.survey.construct_map.constructs:
                self.error(
                    "survey.constructs: must match element_sets.X_w variable names "
                    f"({list(xw.names)})"
                )
        elif "X_w" in sc.element_sets:
            subjective_dim = sc.element_sets["X_w"].dim

        fact_dim = sc.element_sets["X_c"].dim if "X_c" in sc.element_sets else None
        for profile in sc.profiles:
            c = profile.coupling
            if subjective_dim is not None and c.subjective_dim != subjective_dim:
                self.error(
                    f"weighting_profiles[{profile.name!r}].matrix: {c.subjective_dim} rows "
                    f"for {subjective_dim} subjective constructs"
                )
            if fact_dim is not None and c.fact_dim != fact_dim:
                self.error(
                    f"weighting_profiles[{profile.name!r}].matrix: {c.fact_dim} columns "
                    f"for {fact_dim} fact elements"
                )
        if sc.fact_coupling is not None:
            if subjective_dim is not None and sc.fact_coupling.subjective_dim != subjective_dim:
                self.error(
                    f"fact_coupling.matrix: {sc.fact_coupling.subjective_dim} rows for "
                    f"{subjective_dim} subjective constructs"
                )
            if fact_dim is not None and sc.fact_coupling.fact_dim != fact_dim:
                self.error(
                    f"fact_coupling.matrix: {sc.fact_coupling.fact_dim} columns for "
                    f"{fact_dim} fact elements"
                )

        self._quadratic_warnings()

    def _quadratic_warnings(self):
        """Quadratic curves turn over past a/2; warn when a grid reaches
        beyond that point, since ranking semantics silently flip there."""
        sc = self.sc

        def limit(fn) -> float | None:
            if isinstance(fn, ValueFunctionSpec) and fn.family == "quadratic":
                return quadratic_monotone_limit(fn)
            if isinstance(fn, MirroredFamily) and fn.base.family == "quadratic":
                return quadratic_monotone_limit(fn.base)
            return None

        checks = []
        if sc.surface_grids is not None and len(sc.layers) == 2:
            checks.append((sc.layers[0], sc.surface_grids[0], "surface.x_n"))
            checks.append((sc.layers[1], sc.surface_grids[1], "surface.x_w"))
        if sc.curve is not None:
            layer = next((l for l in sc.layers if l.scope.label == sc.curve[0]), None)
            if layer is not None:
                checks.append((layer, sc.curve[1], "curve.grid"))
        for layer, xs, where in checks:
            lim = limit(layer.value_function)
            if lim is not None and any(abs(x) > lim for x in xs):
                sc.warnings.append(
                    f"{where}: grid reaches beyond the quadratic peak at {lim!r} for "
                    f"layer {layer.scope.label!r}; values are non-monotone past it"
                )


def parse_scenario(doc: dict, base_dir: Path) -> tuple[Scenario, list[str], list[str]]:
    """Construct module objects from a scenario document.

    Returns (scenario, errors, warnings); the scenario is only usable when
    errors is empty.
    """
    if not isinstance(doc, dict):
        return Scenario(doc={}, base_dir=base_dir), ["scenario: expected a JSON object"], []
    builder = _Builder(doc, base_dir)
    builder.build()
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
    return doc, data


def load_scenario(path: str | Path) -> tuple[Scenario, bytes]:
    """Load and fully validate a scenario file; raises ScenarioError with
    every finding when validation fails."""
    doc, data = read_scenario_file(path)
    sc, errors, _ = parse_scenario(doc, Path(path).resolve().parent)
    if errors:
        raise ScenarioError(errors)
    return sc, data


def validate_scenario(path: str | Path) -> tuple[list[str], list[str]]:
    """Full cross-section consistency findings without running anything.

    Returns (errors, warnings). I/O problems propagate as OSError.
    """
    try:
        doc, _ = read_scenario_file(path)
    except ScenarioError as err:
        return list(err.findings), []
    _, errors, warnings = parse_scenario(doc, Path(path).resolve().parent)
    return errors, warnings
