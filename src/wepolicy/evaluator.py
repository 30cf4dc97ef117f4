"""Policy selection: couple sweep indicators into the fitted target and rank.

For each sweep row the fact indicators perturb the baseline subjective
vector through a weighting profile's coupling, the fitted target scores the
result, and rows are ranked by score (ties to the smallest policy id).
Different profiles express different social/environmental/economic
emphases and generally select different policies.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, NamedTuple, Sequence

# `apply_fact_coupling` stays importable from here: perfbench/tracer.py wraps it.
from .coupling import FactCoupling, apply_fact_coupling, couple_rows
from .errors import _cut, _quote
from .scenario import Scenario, _check, _floats, _matrix, _object, _str

if TYPE_CHECKING:  # annotations only; a scenario's profiles load neither module
    from .policy_sim import SweepTable
    from .survey import RegressionModel


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
        where = f"weighting_profiles[{_quote(profile.name)}].matrix"
        rows, cols = profile.coupling.subjective_dim, profile.coupling.fact_dim
        if subjective is not None and rows != len(subjective):
            sc.error(f"{where}: {rows} rows for {len(subjective)} subjective constructs")
        if cols != len(INDICATORS):
            sc.error(f"{where}: {cols} columns for {len(INDICATORS)} simulator indicators")
        elif facts is not None and cols != len(facts):
            sc.error(f"{where}: {cols} columns for {len(facts)} fact elements")
