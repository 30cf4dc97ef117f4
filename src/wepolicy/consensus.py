"""The narrow-to-wide map and the consensus check.

`LinearMap` carries wide-scope element vectors into narrow-scope ones (the
`mapping_f` section builds it). `check_consensus` tests on a probe grid
whether the narrow `ScopeFunction` composed with the map coincides with the
wide one; when it does, scope weights stop mattering. An element vector
lists the values of one element set in the order the scenario declares
its variables.
"""

from __future__ import annotations

import math
from collections import namedtuple
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .errors import DimensionError, _quote
from .numeric import dot
from .scenario import Scenario, _check, _float, _matrix, _object, _str, _vector

if TYPE_CHECKING:  # an annotation only; valuefn is not loaded at run time
    from .valuefn import ValueCurve

VectorFn = Callable[[Sequence[float]], float]


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
