"""Weighted DAGs shared by the parameter network and the logic model: one
edge type, a stable topological order and the one linear propagation loop.
"""

from __future__ import annotations

import heapq
import math
from itertools import repeat, starmap
from operator import lt
from typing import Mapping, NamedTuple, Sequence, Tuple

from .errors import _listed, _quote
from .scenario import _all_finite, _all_str, _array, _float, _object, _str


class CycleError(ValueError):
    """The graph contains a directed cycle."""


class Edge(NamedTuple):
    source: str
    target: str
    weight: float


# A scenario's graphs run to thousands of edges (and logic-model nodes), so
# `parse_edges` and `logicmodel._nodes` check a section one field at a time:
# one C-level pass per column for its types, then one for non-empty names,
# known stages or finite floats, and build the tuples with `tuple.__new__`.
# Only when a column check fails does the per-entry loop run, through the
# scenario's field readers: it names the first bad entry, and converts what
# the column checks decline but a reader accepts, such as an int weight.


def parse_edges(value, where: str) -> tuple[Edge, ...]:
    entries = _array(value, where)
    if {*map(type, entries)} <= {dict}:
        src, dst, w = ([*map(dict.get, entries, repeat(k))] for k in ("from", "to", "weight"))
        if _all_str(src) and _all_str(dst) and _all_finite(w):
            return tuple(map(tuple.__new__, repeat(Edge), zip(src, dst, w)))
    edges = []
    for i, e in enumerate(entries):
        at = f"{where}[{i}]"
        e = _object(e, at)
        edges.append(Edge(_str(e.get("from"), f"{at}.from"), _str(e.get("to"), f"{at}.to"),
                          _float(e.get("weight"), f"{at}.weight")))
    return tuple(edges)


def topological_order(names: Sequence[str], edges: Sequence[Tuple[int, int]]) -> list[str]:
    """Kahn's algorithm; ties broken by declaration order so results are stable.

    Each edge is a (source, target) pair of positions in `names`. Raises
    CycleError naming the nodes left on a cycle. Names must be unique.
    """
    if all(starmap(lt, edges)):  # every edge runs forward: the heap pops 0, 1, 2, ...
        return list(names)
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
