"""Maps between element vectors, and the couplings built on them.

An element vector lists the values of one element set (X_n, X_w or X_c) in
the order the scenario declares its variables. Four pieces:

* `LinearMap` — the affine map (optionally saturated) carrying wide-scope
  vectors into narrow-scope ones.
* `check_consensus` — grid test of whether the narrow function composed with
  the map coincides with the wide function; when it does, scope weights stop
  mattering.
* `FactCoupling` — perturbative injection of jointly accepted fact
  indicators into the agreed subjective vector, with a warning when the
  perturbation stops being small.
* `ParameterNetwork` — layered linear propagation of fact-parameter deltas
  into value-parameter deltas.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple, Sequence

from .errors import DimensionError, UnknownNodeError, _cut, _listed, _quote
from .graphs import Edge as NetworkEdge, parse_edges, propagate_linear, topological_order
from .numeric import dot
from .scenario import (Scenario, _all_finite, _check, _float, _matrix, _names, _object, _str,
                       _vector)

if TYPE_CHECKING:  # an annotation only; valuefn is not loaded at run time
    from .valuefn import ValueCurve

VectorFn = Callable[[Sequence[float]], float]

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"

# Relative perturbation above which fact coupling warns. The coupling is
# meant to nudge a consensus, not replace it; 20% is the default ceiling.
DEFAULT_WARN_THRESHOLD = 0.2


class Saturator(namedtuple("Saturator", "scale")):
    """Elementwise saturation y -> scale * tanh(y / scale); identity as
    scale grows large."""

    __slots__ = ()

    def __new__(cls, scale: float):
        if not scale > 0:
            raise ValueError(f"saturator scale must be > 0, got {scale}")
        return super().__new__(cls, scale)

    def __call__(self, y: float) -> float:
        return self.scale * math.tanh(y / self.scale)


class LinearMap(namedtuple("LinearMap", "matrix offset nonlinearity")):
    """Affine map between element layouts: matrix @ x + offset, then an
    optional elementwise saturator. Rows = target dim, cols = source dim."""

    __slots__ = ()

    def __new__(cls, matrix: tuple[tuple[float, ...], ...], offset: tuple[float, ...],
                nonlinearity: Saturator | None = None):
        if not matrix:
            raise ValueError("matrix must have at least one row")
        width = len(matrix[0])
        if width == 0:
            raise ValueError("matrix must have at least one column")
        if any(len(row) != width for row in matrix):
            raise ValueError("matrix rows must all have the same length")
        if len(offset) != len(matrix):
            raise DimensionError(f"offset length {len(offset)} != matrix rows {len(matrix)}")
        return super().__new__(cls, matrix, offset, nonlinearity)

    @property
    def source_dim(self) -> int:
        return len(self.matrix[0])

    @property
    def target_dim(self) -> int:
        return len(self.matrix)


def apply_map(m: LinearMap, x: Sequence[float]) -> list[float]:
    """matrix @ x + offset with row-sequential dot products."""
    if len(x) != m.source_dim:
        raise DimensionError(f"map expects {m.source_dim}-vectors, got length {len(x)}")
    out = [dot(row, x, off) for row, off in zip(m.matrix, m.offset)]
    return out if m.nonlinearity is None else list(map(m.nonlinearity, out))


class ScopeFunction(NamedTuple):
    """Scalar well-being of an element vector: weighted sum, then curve."""

    element_weights: tuple[float, ...]
    value_function: ValueCurve

    def __call__(self, x: Sequence[float]) -> float:
        if len(x) != len(self.element_weights):
            raise DimensionError(
                f"scope function expects {len(self.element_weights)}-vectors, "
                f"got length {len(x)}"
            )
        return self.value_function(dot(self.element_weights, x))


class ConsensusReport(NamedTuple):
    holds: bool
    max_deviation: float
    worst_point: tuple[float, ...]
    tol: float
    probes: int

    def to_dict(self) -> dict:
        return dict(self._asdict(), worst_point=list(self.worst_point))


def check_consensus(
    narrow: VectorFn,
    f: LinearMap,
    wide: VectorFn,
    probe_grid: Sequence[Sequence[float]],
    tol: float,
) -> ConsensusReport:
    """Decide narrow∘f == wide on a finite probe grid within tol.

    The report carries the worst probe so a failed check is actionable.
    Raises FloatingPointError naming the first probe whose deviation is
    not finite.
    """
    if not probe_grid:
        raise ValueError("probe grid must be non-empty")
    worst = probe_grid[0]
    max_dev = -1.0
    for i, xw in enumerate(probe_grid):
        dev = abs(narrow(apply_map(f, xw)) - wide(xw))
        if not math.isfinite(dev):
            raise FloatingPointError(f"consensus deviation at probe {i} is not finite: {dev!r}")
        if dev > max_dev:
            max_dev = dev
            worst = xw
    return ConsensusReport(
        holds=max_dev <= tol,
        max_deviation=max_dev,
        worst_point=tuple(float(v) for v in worst),
        tol=tol,
        probes=len(probe_grid),
    )


class FactCoupling(namedtuple("FactCoupling", "mode matrix warn_threshold")):
    """Perturbative coupling of fact indicators into the subjective vector.

    additive:        x_w' = x_w + C @ x_c
    multiplicative:  x_w'_j = x_w_j * (1 + (C @ x_c)_j)

    A zero fact vector leaves x_w untouched in both modes.
    """

    __slots__ = ()

    def __new__(cls, mode: str, matrix: tuple[tuple[float, ...], ...],
                warn_threshold: float = DEFAULT_WARN_THRESHOLD):
        if mode not in (ADDITIVE, MULTIPLICATIVE):
            raise ValueError(f"mode must be additive or multiplicative, got {_quote(mode)}")
        if not matrix:
            raise ValueError("coupling matrix must have at least one row")
        width = len(matrix[0])
        if any(len(row) != width for row in matrix):
            raise ValueError("coupling matrix rows must all have the same length")
        if not warn_threshold >= 0:
            raise ValueError("warn threshold must be >= 0")
        return super().__new__(cls, mode, matrix, warn_threshold)

    @property
    def subjective_dim(self) -> int:
        return len(self.matrix)

    @property
    def fact_dim(self) -> int:
        return len(self.matrix[0])


class CouplingResult(NamedTuple):
    x_w_prime: tuple[float, ...]
    perturbation_ratio: float
    warned: bool


def couple_rows(g: FactCoupling, x_w: Sequence[float], rows: Sequence[Sequence[float]]):
    """Couple a block of fact rows into x_w, one numpy column per element.

    Returns (x_w' columns, perturbation ratio column), both float64 arrays
    over `rows`. Every element is computed as the scalar formula would:
    each shift is a `dot` over the fact columns from a zero column, and the
    perturbation keeps the first maximum, as builtin `max` does. Overflow
    yields inf (or NaN) unwarned; callers decide whether that is a failure.
    """
    # Imported here so that commands which never couple start without numpy.
    import numpy as np

    if len(x_w) != g.subjective_dim:
        raise DimensionError(
            f"x_w has length {len(x_w)}, coupling expects {g.subjective_dim}"
        )
    dim = g.fact_dim
    for x_c in rows:
        if len(x_c) != dim:
            raise DimensionError(f"x_c has length {len(x_c)}, coupling expects {dim}")
    facts = np.array(rows, dtype=float).reshape(len(rows), dim)
    if not all(math.isfinite(v) for v in x_w) or not np.isfinite(facts).all():
        raise ValueError("fact coupling requires finite inputs")

    norm = max(max(abs(w) for w in x_w), 1e-9)
    with np.errstate(over="ignore", invalid="ignore"):
        prime = []
        for wv, row in zip(x_w, g.matrix):
            shift = dot(row, facts.T, np.zeros(len(rows)))
            prime.append(wv + shift if g.mode == ADDITIVE else wv * (1.0 + shift))
        delta = None
        for p, wv in zip(prime, x_w):
            d = abs(p - wv)
            delta = d if delta is None else np.where(d > delta, d, delta)
        return prime, delta / norm


def apply_fact_coupling(
    g: FactCoupling, x_w: Sequence[float], x_c: Sequence[float]
) -> CouplingResult:
    """Couple facts into the subjective vector and measure the perturbation.

    perturbation_ratio = ||x_w' - x_w||_inf / max(||x_w||_inf, 1e-9);
    `warned` flags ratios above the coupling's threshold. This is
    `couple_rows` on a single row.
    """
    prime, ratio = couple_rows(g, x_w, (x_c,))
    r = float(ratio[0])
    return CouplingResult(
        x_w_prime=tuple(float(col[0]) for col in prime),
        perturbation_ratio=r,
        warned=r > g.warn_threshold,
    )


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


def parse_mapping_f(sc: Scenario, raw):
    where = "mapping_f"
    _object(raw, where)
    nl = raw.get("nonlinearity")
    saturator = None
    if nl is not None:
        nl = _object(nl, f"{where}.nonlinearity")
        kind = nl.get("kind", "none")
        if kind == "saturator":
            saturator = _check(f"{where}.nonlinearity", Saturator,
                               scale=_float(nl.get("scale"), f"{where}.nonlinearity.scale"))
        elif kind != "none":
            raise ValueError(f"{where}.nonlinearity.kind: unknown kind {_quote(kind)}")
    m = _matrix(raw.get("matrix"), f"{where}.matrix")
    offset = raw.get("offset", [0.0] * len(m))
    f = sc.mapping_f = _check(where, LinearMap, matrix=m, nonlinearity=saturator,
                              offset=tuple(_vector(offset, f"{where}.offset")))
    for key, dim, side in (
        ("source", f.source_dim, "columns"), ("target", f.target_dim, "rows")
    ):
        name = raw.get(key)
        if name is None:
            continue
        es = sc.element_sets.get(_str(name, f"{where}.{key}"))
        if es is None:
            if "element_sets" not in sc.failed:
                raise ValueError(f"{where}.{key}: unknown element set {_quote(name)}")
        elif len(es) != dim:
            raise ValueError(
                f"{where}.matrix: {dim} {side} for {len(es)}-element set {_quote(name)}"
            )


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
