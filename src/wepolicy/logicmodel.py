"""Staged cause-and-effect graphs for impact evaluation.

A logic model is an acyclic weighted graph over the five stages
inputs -> activities -> outputs -> outcomes -> impacts. Propagation is
linear with additive baselines, which keeps every impact auditable as a
sum over paths. Fact values couple on the left side only: they replace the
exogenous value of inputs nodes and inject into activities/outputs nodes.
Negative edge weights are allowed so policies can carry negative impact.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from itertools import repeat
from typing import Mapping

from .errors import StageBindingError, UnknownNodeError, _cut, _listed, _quote
from .graphs import CycleError, Edge, parse_edges, propagate_linear, topological_order
from .scenario import (Scenario, _all_finite, _all_str, _array, _check, _float, _names, _object,
                       _str, _vector)

STAGES = ("inputs", "activities", "outputs", "outcomes", "impacts")
BINDABLE_STAGES = ("inputs", "activities", "outputs")
_RANK = {stage: i for i, stage in enumerate(STAGES)}


class Node(namedtuple("Node", "name stage baseline")):
    __slots__ = ()

    def __new__(cls, name: str, stage: str, baseline: float = 0.0):
        if stage not in STAGES:
            raise ValueError(f"unknown stage {_quote(stage)} for node {_quote(name)}")
        if not math.isfinite(baseline):
            raise ValueError(f"node {_quote(name)} baseline must be finite")
        return super().__new__(cls, name, stage, baseline)


class LogicModel(namedtuple("LogicModel", "nodes edges")):
    """Validated and sorted once, when built; `validate` reports findings.

    The findings and the topological order (None when the model has
    duplicate names or a cycle) are instance attributes, outside equality
    and repr."""

    def __new__(cls, nodes: tuple[Node, ...], edges: tuple[Edge, ...]):
        self = super().__new__(cls, nodes, edges)
        findings, self._order = _inspect(self)
        self._findings = tuple(findings)
        return self

    def node_map(self) -> dict[str, Node]:
        return {n.name: n for n in self.nodes}

    def stage_nodes(self, stage: str) -> tuple[Node, ...]:
        return tuple(n for n in self.nodes if n.stage == stage)


def _inspect(model: LogicModel) -> tuple[list[str], tuple[str, ...] | None]:
    """(findings, topological order or None); no findings means the model is ok.

    Checks: duplicate names, unknown edge endpoints, stage-order violations
    (edges may only run to the same or a later stage), cycles, and the
    presence of at least one impacts node.
    """
    findings = []
    names = [n.name for n in model.nodes]
    index = {name: i for i, name in enumerate(names)}  # a duplicate keeps its last position
    dupes = len(index) != len(names)
    if dupes:
        dupe_names = sorted(n for n, k in Counter(names).items() if k > 1)
        findings.append(f"duplicate node names: {_listed(dupe_names)}")

    ranks = [_RANK[n.stage] for n in model.nodes]
    pairs = []
    for src, dst, _ in model.edges:
        i, j = index.get(src), index.get(dst)
        if i is None or j is None:
            unknown = ", ".join(_cut(x) for x in (src, dst) if x not in index)
            findings.append(f"edge {_cut(src)}->{_cut(dst)} references unknown nodes: {unknown}")
            continue
        if ranks[i] > ranks[j]:
            findings.append(
                f"edge {_cut(src)}->{_cut(dst)} runs backwards: "
                f"{model.nodes[i].stage} -> {model.nodes[j].stage}"
            )
        pairs.append((i, j))

    order = None
    if not dupes:
        try:
            order = tuple(topological_order(names, pairs))
        except CycleError as err:
            findings.append(str(err))

    if not model.stage_nodes("impacts"):
        findings.append("model has no impacts-stage node")
    return findings, order


def validate(model: LogicModel) -> list[str]:
    """The model's structural findings; an empty list means it is ok."""
    return list(model._findings)


def _require_valid(model: LogicModel):
    if model._findings:
        raise ValueError("invalid logic model: " + _listed(model._findings, cut=str, sep="; "))


def check_inputs(model: LogicModel, input_values: Mapping[str, float]):
    """Raise unless `input_values` covers exactly the inputs-stage nodes."""
    _check_inputs({n.name for n in model.stage_nodes("inputs")}, input_values)


def _check_inputs(input_names: set[str], input_values: Mapping[str, float]):
    unknown = [k for k in input_values if k not in input_names]
    if unknown:
        raise UnknownNodeError(f"values given for non-inputs nodes: {_listed(sorted(unknown))}")
    missing = sorted(input_names - set(input_values))
    if missing:
        raise ValueError(f"missing values for inputs nodes: {_listed(missing)}")


def _propagate_values(
    model: LogicModel, exogenous: Mapping[str, float]
) -> tuple[dict[str, float], dict[str, float]]:
    base = {n.name: n.baseline + exogenous.get(n.name, 0.0) for n in model.nodes}
    values = propagate_linear(model._order, model.edges, base)
    impacts = {n.name: values[n.name] for n in model.stage_nodes("impacts")}
    return {n.name: values[n.name] for n in model.nodes}, impacts


def propagate(
    model: LogicModel, input_values: Mapping[str, float]
) -> tuple[dict[str, float], dict[str, float]]:
    """Evaluate the model given exogenous values for every inputs node.

    Each node's value is its baseline plus the weight-sum of its upstream
    values; inputs nodes additionally receive their given exogenous value.
    Returns (all node values, impacts-stage vector), both in declaration
    order.
    """
    _require_valid(model)
    check_inputs(model, input_values)
    return _propagate_values(model, dict(input_values))


class FactBinding(namedtuple("FactBinding", "bindings elements values")):
    """Fact elements bound onto left-side nodes of a logic model;
    `bindings` maps a node name to a fact element name."""

    __slots__ = ()

    def __new__(cls, bindings: Mapping[str, str], elements: tuple[str, ...],
                values: tuple[float, ...]):
        if len(elements) != len(values):
            raise ValueError(f"{len(elements)} element names for {len(values)} values")
        if len(set(elements)) != len(elements):
            raise ValueError("fact element names must be unique")
        unknown = sorted({e for e in bindings.values() if e not in elements})
        if unknown:
            raise UnknownNodeError(
                f"bindings reference unknown fact elements: {_listed(unknown)}"
            )
        return super().__new__(cls, bindings, elements, values)

    def value_for(self, node: str) -> float:
        return self.values[self.elements.index(self.bindings[node])]


def check_binding(model: LogicModel, binding: FactBinding):
    """Raise unless every bound node exists and sits on the left side."""
    _check_binding(model.node_map(), binding)


def _check_binding(by_name: Mapping[str, Node], binding: FactBinding):
    for node in binding.bindings:
        if node not in by_name:
            raise UnknownNodeError(f"binding references unknown node {_quote(node)}")
        if by_name[node].stage not in BINDABLE_STAGES:
            raise StageBindingError(
                f"cannot bind fact to {by_name[node].stage}-stage node {_quote(node)}; "
                f"facts couple to the left side ({', '.join(BINDABLE_STAGES)})"
            )


def couple_facts(
    model: LogicModel,
    binding: FactBinding,
    input_values: Mapping[str, float] | None = None,
) -> dict[str, float]:
    """Impacts after coupling fact values onto the model's left side.

    Facts replace the exogenous value of bound inputs nodes and add an
    exogenous injection at bound activities/outputs nodes. Binding to
    outcomes or impacts stages is rejected: those ends of the model stay
    subjective. Unbound inputs default to the given input_values (or 0).
    """
    _require_valid(model)
    by_name = model.node_map()
    _check_binding(by_name, binding)
    exogenous = {n.name: 0.0 for n in model.stage_nodes("inputs")}
    input_names = set(exogenous)
    exogenous.update(input_values or {})
    _check_inputs(input_names, exogenous)
    for node in binding.bindings:
        value = binding.value_for(node)
        if by_name[node].stage == "inputs":
            exogenous[node] = value
        else:
            exogenous[node] = exogenous.get(node, 0.0) + value
    _, impacts = _propagate_values(model, exogenous)
    return impacts


def _nodes(value, where: str) -> tuple[Node, ...]:
    """The logic model's nodes, checked by column as `graphs.parse_edges` checks edges."""
    entries = _array(value, where)
    if {*map(type, entries)} <= {dict}:
        names, stages = ([*map(dict.get, entries, repeat(k))] for k in ("name", "stage"))
        bases = [*map(dict.get, entries, repeat("baseline"), repeat(0.0))]
        if (_all_str(names) and _all_str(stages) and {*stages} <= _RANK.keys()
                and _all_finite(bases)):
            return tuple(map(tuple.__new__, repeat(Node), zip(names, stages, bases)))
    nodes = []
    for i, n in enumerate(entries):
        at = f"{where}[{i}]"
        n = _object(n, at)
        nodes.append(_check(at, Node, _str(n.get("name"), f"{at}.name"),
                            _str(n.get("stage"), f"{at}.stage"),
                            _float(n.get("baseline", 0.0), f"{at}.baseline")))
    return tuple(nodes)


def parse_logic_model(sc: Scenario, raw):
    where = "logic_model"
    _object(raw, where)
    nodes = _nodes(raw.get("nodes", []), f"{where}.nodes")
    edges = parse_edges(raw.get("edges", []), f"{where}.edges")
    model = LogicModel(nodes=nodes, edges=edges)
    findings = validate(model)
    for finding in findings:
        sc.error(f"{where}: {finding}")
    if findings:
        return
    sc.logic_model = model

    inputs = _object(raw.get("inputs", {}), f"{where}.inputs")
    if _all_finite(inputs.values()):
        sc.logic_inputs.update(inputs)
    else:
        for k, v in inputs.items():
            sc.logic_inputs[k] = _float(v, f"{where}.inputs.{_cut(k)}")
    _check(f"{where}.inputs", check_inputs, model, sc.logic_inputs)

    fb = raw.get("fact_bindings")
    if fb is not None:
        if not isinstance(fb, dict) or not isinstance(fb.get("bindings"), dict):
            raise ValueError(f"{where}.fact_bindings.bindings: expected an object")
        elements = _names(fb.get("elements", []), f"{where}.fact_bindings.elements")
        values = tuple(_vector(fb.get("values", []), f"{where}.fact_bindings.values"))
        bindings = dict(fb["bindings"])
        if not (_all_str(bindings) and _all_str(bindings.values())):
            for k, v in bindings.items():
                _str(k, f"{where}.fact_bindings.bindings")
                _str(v, f"{where}.fact_bindings.bindings.{_cut(k)}")
        binding = _check(f"{where}.fact_bindings", FactBinding, bindings, elements, values)
        _check(f"{where}.fact_bindings", check_binding, model, binding)
        sc.fact_binding = binding
