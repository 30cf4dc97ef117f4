"""Weighted DAGs shared by the parameter network and the logic model: one
edge type, a stable topological order and the one linear propagation loop.
"""

from __future__ import annotations

import heapq
import math
from typing import Mapping, NamedTuple, Sequence, Tuple

from .errors import _listed, _quote
from .scenario import _array, _float, _object, _str


class CycleError(ValueError):
    """The graph contains a directed cycle."""


class Edge(NamedTuple):
    source: str
    target: str
    weight: float


# A scenario's graphs run to thousands of edges (and logic-model nodes), so
# `parse_edges` and `logicmodel._nodes` check each entry inline and build its
# field path only when a check fails. They then go through the scenario's
# field readers, which word the finding, or accept what the inline check
# declined, such as an int or a str subclass. `v - v == 0.0` holds for
# exactly the finite floats: inf - inf and nan - nan are nan.


def parse_edges(value, where: str) -> tuple[Edge, ...]:
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


def topological_order(names: Sequence[str], edges: Sequence[Tuple[int, int]]) -> list[str]:
    """Kahn's algorithm; ties broken by declaration order so results are stable.

    Each edge is a (source, target) pair of positions in `names`. Raises
    CycleError naming the nodes left on a cycle. Names must be unique.
    """
    indegree = [0] * len(names)
    outgoing: list[list[int]] = [[] for _ in names]
    for src, dst in edges:
        outgoing[src].append(dst)
        indegree[dst] += 1

    ready = [i for i, d in enumerate(indegree) if d == 0]  # ascending, so a heap
    order: list[str] = []
    while ready:
        i = heapq.heappop(ready)
        order.append(names[i])
        for j in outgoing[i]:
            indegree[j] -= 1
            if indegree[j] == 0:
                heapq.heappush(ready, j)
    if len(order) != len(names):
        stuck = [n for n, d in zip(names, indegree) if d]
        raise CycleError(f"cycle involving nodes: {_listed(stuck)}")
    return order


def propagate_linear(order: Sequence[str], edges: Sequence[Edge],
                     base: Mapping[str, float]) -> dict[str, float]:
    """Each node's base value (0.0 when absent) plus weight * upstream
    value over its incoming edges, summed in edge order.

    Raises FloatingPointError naming the first node, in `order`, whose
    value is not finite (finite weights can still overflow).
    """
    incoming: dict[str, list[Edge]] = {n: [] for n in order}
    for e in edges:
        incoming[e.target].append(e)
    values: dict[str, float] = {}
    for name in order:
        acc = base.get(name, 0.0)
        for e in incoming[name]:
            acc += e.weight * values[e.source]
        if not math.isfinite(acc):
            raise FloatingPointError(f"value of node {_quote(name)} is not finite: {acc!r}")
        values[name] = acc
    return values
