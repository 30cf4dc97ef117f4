"""Seeded toy community dynamics producing fact indicators per policy.

The dynamics are deliberately minimal and fully stated here: incomes fund a
tax pool, a subsidy share of the pool drives renewable uptake, a service
share is redistributed and grows social connections. One run yields the
indicator triple (economic, environmental, social); a sweep runs the grid
of policy knobs and a ternary normalization turns the table into simplex
shares for plotting.

Incomes never change and all agents share one renewable and one connection
level, so a run costs O(agents + steps). A sweep draws the seeded incomes
once and every row sees the same incomes, so rows are independent of grid
ordering and a sweep is bitwise reproducible.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class DynamicsConfig:
    agents: int
    steps: int
    seed: int
    income_spread: float = 0.0
    renewable_rate: float = 0.1  # pool-to-renewables uptake per step
    connection_rate: float = 0.1  # service-driven connection growth per step
    connection_decay: float = 0.05

    def __post_init__(self):
        if self.agents < 1:
            raise ValueError(f"agents must be >= 1, got {self.agents}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        for name in ("income_spread", "renewable_rate", "connection_rate", "connection_decay"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")


@dataclass(frozen=True)
class PolicyKnobs:
    """Operating parameters: subsidy and service shares of the tax pool,
    and the tax rate itself. Shares cannot exceed the whole pool."""

    subsidy: float
    tax: float
    service: float

    def __post_init__(self):
        if not 0.0 <= self.subsidy <= 1.0:
            raise ValueError(f"subsidy must be in [0, 1], got {self.subsidy}")
        if not 0.0 <= self.tax <= 0.5:
            raise ValueError(f"tax must be in [0, 0.5], got {self.tax}")
        if not 0.0 <= self.service <= 1.0:
            raise ValueError(f"service must be in [0, 1], got {self.service}")
        if self.subsidy + self.service > 1.0:
            raise ValueError(
                f"budget shares exceed the pool: s + v = {self.subsidy + self.service}"
            )


@dataclass(frozen=True)
class SweepRow:
    policy_id: int
    knobs: PolicyKnobs
    indicators: tuple[float, float, float]  # (economic, environmental, social)


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]
    # Inadmissible (s, t, v) combinations hit during the sweep, grid order.
    skipped: tuple[tuple[float, float, float], ...] = ()


def _simulate(cfg: DynamicsConfig, policies: Sequence[PolicyKnobs]):
    """Yield (economic, environmental, social) per policy from one income draw."""
    n = cfg.agents
    rng = random.Random(cfg.seed)
    incomes = [1.0 + cfg.income_spread * rng.uniform(-1.0, 1.0) for _ in range(n)]
    total = sum(incomes)
    for knobs in policies:
        t, s, v = knobs.tax, knobs.subsidy, knobs.service
        pool = t * total
        rho = connection = 0.0
        for _ in range(cfg.steps):
            rho = min(1.0, rho + cfg.renewable_rate * s * pool / n)
            connection = max(0.0, connection + cfg.connection_rate * v - cfg.connection_decay)
        disposable = [y * (1.0 - t) + v * pool / n for y in incomes]
        # per-agent operands kept: sum([c] * n) / n may differ from c in the last bit
        economic = sum(disposable) / n
        environmental = 1.0 - (sum([1.0] * n) / n) * (1.0 - rho)
        yield (economic, environmental, sum([connection] * n) / n)


def run_policy(cfg: DynamicsConfig, knobs: PolicyKnobs) -> tuple[float, float, float]:
    """One deterministic run; returns (economic, environmental, social).

    Incomes start at 1 with a symmetric seeded spread; the environment
    index starts soiled (e = 1) and recovers with renewable share rho.
    """
    return next(_simulate(cfg, [knobs]))


def run_sweep(
    cfg: DynamicsConfig,
    subsidies: Sequence[float],
    taxes: Sequence[float],
    services: Sequence[float],
) -> SweepTable:
    """Cartesian sweep (subsidy outer, tax middle, service inner).

    Combinations violating the budget share constraint are skipped and
    reported, never silently dropped. Policy ids are dense from 0 in grid
    order. The seeded incomes are drawn once and every row sees them, so
    each row equals run_policy(cfg, row.knobs) at O(agents + steps).
    """
    if not subsidies or not taxes or not services:
        raise ValueError("sweep grid must be non-empty on all three knobs")
    admissible = []
    skipped = []
    for s in subsidies:
        for t in taxes:
            for v in services:
                if s + v > 1.0:
                    skipped.append((float(s), float(t), float(v)))
                else:
                    admissible.append(PolicyKnobs(subsidy=s, tax=t, service=v))
    rows = (
        SweepRow(policy_id=i, knobs=knobs, indicators=indicators)
        for i, (knobs, indicators) in enumerate(zip(admissible, _simulate(cfg, admissible)))
    )
    return SweepTable(rows=tuple(rows), skipped=tuple(skipped))


def normalize_ternary(table: SweepTable) -> list[tuple[float, float, float]]:
    """Simplex shares per row: min-max normalize each indicator across the
    table to [0, 1], then divide each row by its sum. A degenerate all-zero
    row maps to the centroid (1/3, 1/3, 1/3)."""
    if not table.rows:
        raise ValueError("cannot normalize an empty sweep table")
    cols = list(zip(*(r.indicators for r in table.rows)))
    lo = [min(c) for c in cols]
    hi = [max(c) for c in cols]
    out = []
    for row in table.rows:
        norm = [
            (v - l) / (h - l) if h > l else 0.0
            for v, l, h in zip(row.indicators, lo, hi)
        ]
        total = sum(norm)
        if total == 0.0:
            out.append((1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0))
        else:
            out.append(tuple(v / total for v in norm))
    return out
