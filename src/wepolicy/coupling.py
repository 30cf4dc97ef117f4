"""The parameter network: fact-parameter deltas carried to value parameters.

`ParameterNetwork` is a layered linear graph that the `parameter_network`
section builds; `propagate_network` carries deltas along its topological
order. The map and consensus check live in `consensus`, and the fact
coupling in `evaluator`, its only caller. Their names also import from
here: a module `__getattr__` loads a name's module on its first access.
"""

from __future__ import annotations

import importlib
import math
from collections import namedtuple
from typing import Mapping

from .errors import UnknownNodeError, _cut, _listed, _quote
from .graphs import Edge as NetworkEdge, parse_edges, propagate_linear, topological_order
from .scenario import Scenario, _all_finite, _check, _float, _names, _object

# Each moved name and the module that now defines it.
_MOVED = {
    **dict.fromkeys(("Saturator", "LinearMap", "apply_map", "ScopeFunction", "ConsensusReport",
                     "check_consensus", "parse_mapping_f"), "consensus"),
    **dict.fromkeys(("FactCoupling", "CouplingResult", "couple_rows", "apply_fact_coupling",
                     "ADDITIVE", "MULTIPLICATIVE", "DEFAULT_WARN_THRESHOLD"), "evaluator"),
}


def __getattr__(name: str):
    module = _MOVED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __package__), name)


class ParameterNetwork(namedtuple("ParameterNetwork", "fact_nodes value_nodes edges")):
    """Acyclic weighted graph carrying fact-parameter deltas to value
    parameters. Fact nodes are exogenous (no incoming edges); nodes that are
    neither fact nor value act as intermediates.

    The node names and their topological order are derived once, when the
    network is built, and kept as instance attributes outside equality and
    repr."""

    def __new__(cls, fact_nodes: tuple[str, ...], value_nodes: tuple[str, ...],
                edges: tuple[NetworkEdge, ...]):
        facts, values = set(fact_nodes), set(value_nodes)
        if len(facts) != len(fact_nodes):
            raise ValueError("fact node names must be unique")
        if len(values) != len(value_nodes):
            raise ValueError("value node names must be unique")
        overlap = sorted(facts & values)
        if overlap:  # a list's repr, each name cut
            raise ValueError(f"nodes cannot be both fact and value: [{_listed(overlap, _quote)}]")
        # Name -> position in node_names(): facts, values, then the other
        # edge endpoints in first-seen order; one pass also collects the
        # (source, target) position pairs.
        index = {n: i for i, n in enumerate((*fact_nodes, *value_nodes))}
        pairs = []
        for src, dst, weight in edges:
            if dst in facts:
                raise ValueError(f"fact node {_quote(dst)} cannot have incoming edges")
            if not math.isfinite(weight):
                raise ValueError(f"edge {_cut(src)}->{_cut(dst)} weight must be finite")
            pairs.append((index.setdefault(src, len(index)), index.setdefault(dst, len(index))))
        self = super().__new__(cls, fact_nodes, value_nodes, edges)
        self._names = tuple(index)
        # Raises CycleError on a cycle; cached for propagation.
        self._order = tuple(topological_order(self._names, pairs))
        return self

    def node_names(self) -> tuple[str, ...]:
        return self._names


def propagate_network(
    net: ParameterNetwork, delta_facts: Mapping[str, float]
) -> dict[str, float]:
    """Linear delta propagation: each node's delta is the weight-sum of its
    upstream deltas; fact nodes take the given deltas (absent ones are 0).

    Returns value-node deltas in declaration order.
    """
    facts = set(net.fact_nodes)
    for name in delta_facts:
        if name not in facts:
            raise UnknownNodeError(f"delta key {_quote(name)} is not a fact node of the network")

    base = {name: float(delta_facts.get(name, 0.0)) for name in net.fact_nodes}
    delta = propagate_linear(net._order, net.edges, base)
    return {name: delta[name] for name in net.value_nodes}


def parse_parameter_network(sc: Scenario, raw):
    where = "parameter_network"
    _object(raw, where)
    facts = _names(raw.get("facts", []), f"{where}.facts")
    values = _names(raw.get("values", []), f"{where}.values")
    edges = parse_edges(raw.get("edges", []), f"{where}.edges")
    sc.network = _check(where, ParameterNetwork, facts, values, edges)
    deltas = _object(raw.get("deltas", {}), f"{where}.deltas")
    fact_set = set(facts)
    if deltas.keys() <= fact_set and _all_finite(deltas.values()):
        sc.network_deltas.update(deltas)
        return
    for k, v in deltas.items():
        if k not in fact_set:
            raise ValueError(f"{where}.deltas: {_quote(k)} is not a fact node")
        sc.network_deltas[k] = _float(v, f"{where}.deltas.{_cut(k)}")
