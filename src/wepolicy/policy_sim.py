"""Seeded toy community dynamics producing fact indicators per policy.

The dynamics are deliberately minimal and fully stated here: incomes fund a
tax pool, a subsidy share of the pool drives renewable uptake, a service
share is redistributed and grows social connections. One run yields the
indicator triple (economic, environmental, social); a sweep runs the grid
of policy knobs and a ternary normalization turns the table into simplex
shares for plotting.

Incomes never change and all agents share one renewable and one connection
level. Each indicator reads only some knobs, so a sweep simulates economic
once per distinct (tax, service) at O(agents), environmental once per
distinct (subsidy, tax) at O(steps) and social once per distinct service
at O(agents + steps). A sweep draws the seeded incomes once and every row
sees the same incomes, so rows are independent of grid ordering and a
sweep is bitwise reproducible.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from functools import cache, partial, reduce
from itertools import compress, count, repeat
from operator import add, attrgetter, not_, sub, truediv
from typing import NamedTuple, Sequence

from . import scenario
from .numeric import left_sum
from .scenario import Scenario, _floats, _int, _object, _vector

INDICATORS = ("economic", "environmental", "social")  # a run's facts, in SweepRow order
# Each knob's closed range, in PolicyKnobs field order.
KNOB_RANGES = {"subsidy": (0.0, 1.0), "tax": (0.0, 0.5), "service": (0.0, 1.0)}


class DynamicsConfig(namedtuple(
    "DynamicsConfig",
    "agents steps seed income_spread renewable_rate connection_rate connection_decay",
)):
    """Simulator settings. Per step, `renewable_rate` is the pool-to-
    renewables uptake and `connection_rate` the service-driven connection
    growth."""

    __slots__ = ()

    def __new__(cls, agents: int, steps: int, seed: int, income_spread: float = 0.0,
                renewable_rate: float = 0.1, connection_rate: float = 0.1,
                connection_decay: float = 0.05):
        if agents < 1:
            raise ValueError(f"agents must be >= 1, got {agents}")
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        if seed < 0:
            # random.Random seeds from abs(seed): -7 would draw 7's incomes
            raise ValueError(f"seed must be >= 0, got {seed}")
        rates = (income_spread, renewable_rate, connection_rate, connection_decay)
        for name, v in zip(cls._fields[3:], rates):
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        return super().__new__(cls, agents, steps, seed, *rates)


class PolicyKnobs(namedtuple("PolicyKnobs", "subsidy tax service")):
    """Operating parameters: subsidy and service shares of the tax pool,
    and the tax rate itself. Shares cannot exceed the whole pool."""

    __slots__ = ()

    def __new__(cls, subsidy: float, tax: float, service: float):
        knobs = super().__new__(cls, subsidy, tax, service)
        for name, v in zip(KNOB_RANGES, knobs):
            lo, hi = KNOB_RANGES[name]
            if not lo <= v <= hi:
                raise ValueError(f"{name} must be in [{lo:g}, {hi:g}], got {v}")
        if subsidy + service > 1.0:
            raise ValueError(f"budget shares exceed the pool: s + v = {subsidy + service}")
        return knobs


class SweepRow(NamedTuple):
    policy_id: int
    knobs: PolicyKnobs
    indicators: tuple[float, float, float]  # (economic, environmental, social)


class SweepTable(NamedTuple):
    rows: tuple[SweepRow, ...]
    # Inadmissible (s, t, v) combinations hit during the sweep, grid order.
    skipped: tuple[tuple[float, float, float], ...] = ()


def _simulate(cfg: DynamicsConfig, policies: Sequence[PolicyKnobs]):
    """The (economic, environmental, social) columns of `policies`, one
    value per policy, from one income draw. Each indicator is cached on the
    knobs it reads and mapped over their columns; a key repeats the same
    float operations on the same operands, so a cached value is exact."""
    n = cfg.agents
    rng = random.Random(cfg.seed)
    incomes = [1.0 + cfg.income_spread * rng.uniform(-1.0, 1.0) for _ in range(n)]
    total = left_sum(incomes)
    steps = range(cfg.steps)

    @cache
    def economic(t, v):
        keep, share = 1.0 - t, v * (t * total) / n
        return left_sum([y * keep + share for y in incomes]) / n

    @cache
    def environmental(s, t):
        uptake = cfg.renewable_rate * s * (t * total) / n
        rho = 0.0
        for _ in steps:
            rho = min(1.0, rho + uptake)
        return 1.0 - (1.0 - rho)

    @cache
    def social(v):
        growth, decay = cfg.connection_rate * v, cfg.connection_decay
        connection = 0.0
        for _ in steps:
            connection = max(0.0, connection + growth - decay)
        # per-agent operands kept: left_sum([c] * n) / n may differ from c in
        # the last bit, except for c = 1.0, whose partial sums are exact
        return left_sum([connection] * n) / n

    s, t, v = zip(*policies) if policies else ((), (), ())
    columns = [list(map(economic, t, v)), list(map(environmental, s, t)), list(map(social, v))]
    if not all(all(map(math.isfinite, col)) for col in columns):
        for knobs, indicators in zip(policies, zip(*columns)):
            if not all(map(math.isfinite, indicators)):
                raise FloatingPointError(f"non-finite indicators {indicators} for {knobs!r}")
    return columns


def run_policy(cfg: DynamicsConfig, knobs: PolicyKnobs) -> tuple[float, float, float]:
    """One deterministic run; returns (economic, environmental, social).

    Incomes start at 1 with a symmetric seeded spread; the environment
    index starts soiled (e = 1) and recovers with renewable share rho.
    """
    return next(zip(*_simulate(cfg, [knobs])))


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
    each row equals run_policy(cfg, row.knobs).
    """
    if not subsidies or not taxes or not services:
        raise ValueError("sweep grid must be non-empty on all three knobs")
    admissible = []
    skipped = []
    # Each grid value is range-checked once: knobs all in range are built
    # without the constructor's checks, and any other goes through them.
    ok = [[lo <= x <= hi for x in xs]
          for (lo, hi), xs in zip(KNOB_RANGES.values(), (subsidies, taxes, services))]
    for s, ok_s in zip(subsidies, ok[0]):
        for t, ok_t in zip(taxes, ok[1]):
            for v, ok_v in zip(services, ok[2]):
                if s + v > 1.0:
                    skipped.append((float(s), float(t), float(v)))
                elif ok_s and ok_t and ok_v:
                    admissible.append(tuple.__new__(PolicyKnobs, (s, t, v)))
                else:
                    admissible.append(PolicyKnobs(subsidy=s, tax=t, service=v))
    rows = map(tuple.__new__, repeat(SweepRow),
               zip(count(), admissible, zip(*_simulate(cfg, admissible))))
    return SweepTable(rows=tuple(rows), skipped=tuple(skipped))


def normalize_ternary(table: SweepTable) -> list[list[float]]:
    """Simplex shares as three columns (p_econ, p_env, p_soc), one share per
    row: min-max normalize each indicator across the table to [0, 1], then
    divide each row by its sum. A degenerate all-zero row maps to the
    centroid (1/3, 1/3, 1/3).

    Runs one indicator column at a time, with each row's float operations
    those of a per-row loop: `(v - l) / (h - l)`, the total
    `((0.0 + n0) + n1) + n2` and `n / total`."""
    if not table.rows:
        raise ValueError("cannot normalize an empty sweep table")
    n = len(table.rows)
    norm = []
    for col in zip(*map(attrgetter("indicators"), table.rows)):
        lo, hi = min(col), max(col)
        if hi > lo:
            norm.append(list(map(truediv, map(sub, col, repeat(lo)), repeat(hi - lo))))
        else:
            norm.append([0.0] * n)
    totals = list(reduce(partial(map, add), norm, repeat(0.0, n)))
    zero = list(compress(range(n), map(not_, totals)))
    for i in zero:
        totals[i] = 1.0  # divided by without raising; the row is the centroid below
    shares = [list(map(truediv, col, totals)) for col in norm]
    for col in shares:
        for i in zero:
            col[i] = 1.0 / 3.0
    return shares


def parse_dynamics(sc: Scenario, raw):
    where = "dynamics"
    _object(raw, where)
    counts = [_int(raw.get(k), f"{where}.{k}") for k in ("agents", "steps", "seed")]
    rates = _floats(raw, where, DynamicsConfig._fields[3:])
    try:
        sc.dynamics = DynamicsConfig(*counts, **rates)
    except ValueError as err:  # worded from the field: "seed must be >= 0, got -7"
        raise ValueError(f"{where}.{err}") from None


def parse_sweep(sc: Scenario, raw):
    where = "sweep"
    _object(raw, where)
    grid = {}
    for knob in KNOB_RANGES:
        grid[knob] = _vector(raw.get(knob), f"{where}.{knob}")
        if not grid[knob]:
            raise ValueError(f"{where}.{knob}: grid must be non-empty")
    # run_sweep lists every (s, t, v) combination, as a row or as skipped.
    sizes = [len(vals) for vals in grid.values()]
    if math.prod(sizes) > scenario.MAX_GRID_POINTS:
        raise ValueError(
            f"{where}: {' x '.join(map(str, sizes))} = {math.prod(sizes)} combinations "
            f"exceeds the cap of {scenario.MAX_GRID_POINTS}"
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
    dyn = sc.dynamics
    if dyn is not None:
        rows = pairs * len(grid["tax"])
        work = rows * (dyn.agents + dyn.steps)
        if work > scenario.MAX_SWEEP_WORK:
            raise ValueError(
                f"{where}: {rows} admissible rows x ({dyn.agents} agents + {dyn.steps} "
                f"steps) = {work} exceeds the cap of {scenario.MAX_SWEEP_WORK}"
            )
    sc.sweep_grid = grid
