"""Policy selection: couple sweep indicators into the fitted target and rank.

For each sweep row the fact indicators perturb the baseline subjective
vector through a weighting profile's coupling, the fitted target scores the
result, and rows are ranked by score (ties to the smallest policy id).
Different profiles express different social/environmental/economic
emphases and generally select different policies.

The fact coupling (`FactCoupling`, `couple_rows`) lives here, next to its
only caller, so selecting policies loads neither `coupling` nor `graphs`.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .errors import DimensionError, _cut, _quote
from .numeric import dot
from .scenario import Scenario, _check, _floats, _matrix, _object, _str

if TYPE_CHECKING:  # annotations only; a scenario's profiles load neither module
    from .policy_sim import SweepTable
    from .survey import RegressionModel

ADDITIVE = "additive"
MULTIPLICATIVE = "multiplicative"
# The longest (ASCII) slug whose `ranked_<slug>.json` fits a 255-byte file name.
MAX_SLUG = 255 - len("ranked_.json")

# Relative perturbation above which fact coupling warns. The coupling is
# meant to nudge a consensus, not replace it; 20% is the default ceiling.
DEFAULT_WARN_THRESHOLD = 0.2


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


class WeightingProfile(NamedTuple):
    name: str
    coupling: FactCoupling


class RankedRow(NamedTuple):
    policy_id: int
    x_w_prime: tuple[float, ...]
    w_prime: float


class RankedPolicies(NamedTuple):
    """Sorted columns, score descending, then policy id ascending:
    `x_w_prime[j][i]` is construct j of the i-th ranked policy."""

    policy_ids: Sequence[int]
    w_prime: Sequence[float]
    x_w_prime: Sequence[Sequence[float]]
    perturbation_warnings: int = 0

    @property
    def rows(self) -> tuple[RankedRow, ...]:
        """The ranking as one `RankedRow` per policy, built on each call."""
        return tuple(map(RankedRow, self.policy_ids, zip(*self.x_w_prime), self.w_prime))


def evaluate_policies(
    target: RegressionModel,
    baseline_x_w: Sequence[float],
    profile: WeightingProfile,
    sweep: SweepTable,
) -> RankedPolicies:
    """Score every sweep row through coupling + target and rank.

    Rows are scored as numpy columns, each element with the operations a
    scalar scan applies, in the same order, so results are bit-identical
    to a plain scan over the same rows. Raises FloatingPointError naming
    the first policy whose coupled vector or score is not finite.
    """
    if not sweep.rows:
        raise ValueError("sweep table is empty")
    # Imported here so that commands which never score start without numpy,
    # and a scenario's profiles are built without the survey module.
    import numpy as np

    from .survey import predict

    rows = sweep.rows
    prime, ratio = couple_rows(profile.coupling, baseline_x_w, [r.indicators for r in rows])
    with np.errstate(over="ignore", invalid="ignore"):
        score = predict(target, prime)
    finite = np.isfinite(score)
    for col in prime:
        finite &= np.isfinite(col)
    if not finite.all():
        bad = rows[int(np.argmin(finite))].policy_id
        raise FloatingPointError(
            f"profile {_quote(profile.name)}: coupled vector or score of policy {bad} is not finite"
        )
    ids = [r.policy_id for r in rows]
    # lexsort's last key is the primary one: score descending, then id.
    order = np.lexsort((ids, -score))
    return RankedPolicies(
        policy_ids=list(map(ids.__getitem__, order.tolist())),
        w_prime=score[order].tolist(),
        x_w_prime=tuple(col[order].tolist() for col in prime),
        perturbation_warnings=int(np.count_nonzero(ratio > profile.coupling.warn_threshold)),
    )


def select_best(ranked: RankedPolicies) -> int:
    """Policy id with the highest coupled score (ties: smallest id)."""
    if not ranked.policy_ids:
        raise ValueError("cannot select from an empty ranking")
    return ranked.policy_ids[0]


def profile_slug(name: str) -> str:
    """The stem of a profile's ranked table: `select` writes `ranked_<slug>`."""
    return re.sub(r"[^A-Za-z0-9_.-]+", "_", name)


def _parse_profile(spec, where: str, slugs: dict[str, str]) -> WeightingProfile:
    """A profile whose name and slug no earlier profile has taken; `slugs`
    maps each earlier profile's slug to its name."""
    spec = _object(spec, where)
    name = _str(spec.get("name"), f"{where}.name")
    slug = profile_slug(name)
    other = slugs.get(slug)
    if other == name:
        raise ValueError(f"{where}.name: duplicate profile name {_quote(name)}")
    if other is not None:
        raise ValueError(
            f"{where}.name: profiles {_quote(other)} and {_quote(name)} would both write "
            f"ranked_{_cut(slug)}"
        )
    slugs[slug] = name
    mode = _str(spec.get("mode", "additive"), f"{where}.mode")
    matrix = _matrix(spec.get("matrix"), f"{where}.matrix")
    rest = _floats(spec, where, ("warn_threshold",))
    return WeightingProfile(name, _check(where, FactCoupling, mode, matrix, **rest))


def parse_weighting_profiles(sc: Scenario, raw):
    from .policy_sim import INDICATORS

    if not isinstance(raw, list) or not raw:
        raise ValueError("weighting_profiles: expected a non-empty array")
    subjective = None if "survey" in sc.failed else sc.element_sets.get("X_w")
    if sc.survey is not None:
        subjective = sc.survey.construct_map.constructs
    facts = sc.element_sets.get("X_c")
    slugs: dict[str, str] = {}
    sc.profiles = []
    for i, spec in enumerate(raw):
        profile = sc.attempt(_parse_profile, spec, f"weighting_profiles[{i}]", slugs)
        if profile is None:
            continue
        sc.profiles.append(profile)
        slug = profile_slug(profile.name)  # here, so a long name's matrix is checked too
        if len(slug) > MAX_SLUG:
            sc.error(f"weighting_profiles[{i}].name: slug {_cut(slug)} is over {MAX_SLUG} "
                     f"characters, too long for the file name ranked_<slug>.json")
        where = f"weighting_profiles[{_quote(profile.name)}].matrix"
        rows, cols = profile.coupling.subjective_dim, profile.coupling.fact_dim
        if subjective is not None and rows != len(subjective):
            sc.error(f"{where}: {rows} rows for {len(subjective)} subjective constructs")
        if cols != len(INDICATORS):
            sc.error(f"{where}: {cols} columns for {len(INDICATORS)} simulator indicators")
        elif facts is not None and cols != len(facts):
            sc.error(f"{where}: {cols} columns for {len(facts)} fact elements")
