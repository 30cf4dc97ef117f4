"""Element sets and the mappings between them.

Four pieces:

* `ElementSet` / `LinearMap` — named element vectors and the affine map
  (optionally saturated) carrying wide-scope vectors into narrow-scope ones.
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
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .errors import DimensionError, UnknownNodeError
from .graphs import Edge as NetworkEdge, propagate_linear, topological_order
from .valuefn import ValueCurve

VectorFn = Callable[[Sequence[float]], float]

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"

# Relative perturbation above which fact coupling warns. The coupling is
# meant to nudge a consensus, not replace it; 20% is the default ceiling.
DEFAULT_WARN_THRESHOLD = 0.2


@dataclass(frozen=True)
class Element:
    name: str
    unit: str = ""


@dataclass(frozen=True)
class ElementSet:
    """Ordered named elements; order defines the vector layout."""

    name: str
    elements: tuple[Element, ...]

    def __post_init__(self):
        names = [e.name for e in self.elements]
        if len(set(names)) != len(names):
            raise ValueError(f"element names in {self.name!r} must be unique: {names}")

    @property
    def dim(self) -> int:
        return len(self.elements)

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.elements)


@dataclass(frozen=True)
class Saturator:
    """Elementwise saturation y -> scale * tanh(y / scale); identity as
    scale grows large."""

    scale: float

    def __post_init__(self):
        if not self.scale > 0:
            raise ValueError(f"saturator scale must be > 0, got {self.scale}")

    def __call__(self, y: float) -> float:
        return self.scale * math.tanh(y / self.scale)


@dataclass(frozen=True)
class LinearMap:
    """Affine map between element layouts: matrix @ x + offset, then an
    optional elementwise saturator. Rows = target dim, cols = source dim."""

    matrix: tuple[tuple[float, ...], ...]
    offset: tuple[float, ...]
    nonlinearity: Saturator | None = None

    def __post_init__(self):
        if not self.matrix:
            raise ValueError("matrix must have at least one row")
        width = len(self.matrix[0])
        if width == 0:
            raise ValueError("matrix must have at least one column")
        if any(len(row) != width for row in self.matrix):
            raise ValueError("matrix rows must all have the same length")
        if len(self.offset) != len(self.matrix):
            raise DimensionError(
                f"offset length {len(self.offset)} != matrix rows {len(self.matrix)}"
            )

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
    out = []
    for row, off in zip(m.matrix, m.offset):
        acc = off
        for w, v in zip(row, x):
            acc += w * v
        out.append(m.nonlinearity(acc) if m.nonlinearity is not None else acc)
    return out


@dataclass(frozen=True)
class ScopeFunction:
    """Scalar well-being of an element vector: weighted sum, then curve."""

    element_weights: tuple[float, ...]
    value_function: ValueCurve

    def __call__(self, x: Sequence[float]) -> float:
        if len(x) != len(self.element_weights):
            raise DimensionError(
                f"scope function expects {len(self.element_weights)}-vectors, "
                f"got length {len(x)}"
            )
        acc = 0.0
        for w, v in zip(self.element_weights, x):
            acc += w * v
        return self.value_function(acc)


@dataclass(frozen=True)
class ConsensusReport:
    holds: bool
    max_deviation: float
    worst_point: tuple[float, ...]
    tol: float
    probes: int

    def to_dict(self) -> dict:
        return {
            "holds": self.holds,
            "max_deviation": self.max_deviation,
            "worst_point": list(self.worst_point),
            "tol": self.tol,
            "probes": self.probes,
        }


def check_consensus(
    narrow: VectorFn,
    f: LinearMap,
    wide: VectorFn,
    probe_grid: Sequence[Sequence[float]],
    tol: float,
) -> ConsensusReport:
    """Decide narrow∘f == wide on a finite probe grid within tol.

    The report carries the worst probe so a failed check is actionable.
    Raises FloatingPointError when a probe's deviation is NaN.
    """
    if not probe_grid:
        raise ValueError("probe grid must be non-empty")
    worst = probe_grid[0]
    max_dev = -1.0
    for i, xw in enumerate(probe_grid):
        dev = abs(narrow(apply_map(f, xw)) - wide(xw))
        if math.isnan(dev):
            raise FloatingPointError(f"consensus deviation is NaN at probe {i}")
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


@dataclass(frozen=True)
class FactCoupling:
    """Perturbative coupling of fact indicators into the subjective vector.

    additive:        x_w' = x_w + C @ x_c
    multiplicative:  x_w'_j = x_w_j * (1 + (C @ x_c)_j)

    A zero fact vector leaves x_w untouched in both modes.
    """

    mode: str
    matrix: tuple[tuple[float, ...], ...]
    warn_threshold: float = DEFAULT_WARN_THRESHOLD

    def __post_init__(self):
        if self.mode not in (ADDITIVE, MULTIPLICATIVE):
            raise ValueError(f"mode must be additive or multiplicative, got {self.mode!r}")
        if not self.matrix:
            raise ValueError("coupling matrix must have at least one row")
        width = len(self.matrix[0])
        if any(len(row) != width for row in self.matrix):
            raise ValueError("coupling matrix rows must all have the same length")
        if not self.warn_threshold >= 0:
            raise ValueError("warn threshold must be >= 0")

    @property
    def subjective_dim(self) -> int:
        return len(self.matrix)

    @property
    def fact_dim(self) -> int:
        return len(self.matrix[0])


@dataclass(frozen=True)
class CouplingResult:
    x_w_prime: tuple[float, ...]
    perturbation_ratio: float
    warned: bool


def couple_rows(g: FactCoupling, x_w: Sequence[float], rows: Sequence[Sequence[float]]):
    """Couple a block of fact rows into x_w, one numpy column per element.

    Returns (x_w' columns, perturbation ratio column), both float64 arrays
    over `rows`. Every element is computed as the scalar formula would:
    shifts accumulate ``0.0 + w * x`` left to right, and the perturbation
    keeps the first maximum, as builtin `max` does. Overflow yields inf (or
    NaN) without a warning; callers decide whether that is a failure.
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
            shift = np.zeros(len(rows))
            for k, w in enumerate(row):
                shift += w * facts[:, k]
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


@dataclass(frozen=True)
class ParameterNetwork:
    """Acyclic weighted graph carrying fact-parameter deltas to value
    parameters. Fact nodes are exogenous (no incoming edges); nodes that are
    neither fact nor value act as intermediates."""

    fact_nodes: tuple[str, ...]
    value_nodes: tuple[str, ...]
    edges: tuple[NetworkEdge, ...]
    _order: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.fact_nodes)) != len(self.fact_nodes):
            raise ValueError("fact node names must be unique")
        if len(set(self.value_nodes)) != len(self.value_nodes):
            raise ValueError("value node names must be unique")
        overlap = set(self.fact_nodes) & set(self.value_nodes)
        if overlap:
            raise ValueError(f"nodes cannot be both fact and value: {sorted(overlap)}")
        facts = set(self.fact_nodes)
        for e in self.edges:
            if e.target in facts:
                raise ValueError(f"fact node {e.target!r} cannot have incoming edges")
            if not math.isfinite(e.weight):
                raise ValueError(f"edge {e.source}->{e.target} weight must be finite")
        # Raises CycleError on a cycle; cached for propagation.
        object.__setattr__(self, "_order", tuple(topological_order(self.node_names(), [
            (e.source, e.target) for e in self.edges
        ])))

    def node_names(self) -> tuple[str, ...]:
        seen = dict.fromkeys(self.fact_nodes)
        seen.update(dict.fromkeys(self.value_nodes))
        for e in self.edges:
            seen.setdefault(e.source)
            seen.setdefault(e.target)
        return tuple(seen)


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
            raise UnknownNodeError(f"delta key {name!r} is not a fact node of the network")

    base = {name: float(delta_facts.get(name, 0.0)) for name in net.fact_nodes}
    delta = propagate_linear(net._order, net.edges, base)
    return {name: delta[name] for name in net.value_nodes}
