"""Policy selection: couple sweep indicators into the fitted target and rank.

For each sweep row the fact indicators perturb the baseline subjective
vector through a weighting profile's coupling, the fitted target scores the
result, and rows are ranked by score (ties to the smallest policy id).
Different profiles express different social/environmental/economic
emphases and generally select different policies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

# `apply_fact_coupling` stays importable from here: perfbench/tracer.py wraps it.
from .coupling import FactCoupling, apply_fact_coupling, couple_rows
from .policy_sim import SweepTable
from .survey import RegressionModel, predict


@dataclass(frozen=True)
class WeightingProfile:
    name: str
    coupling: FactCoupling


@dataclass(frozen=True)
class RankedRow:
    policy_id: int
    x_w_prime: tuple[float, ...]
    w_prime: float


@dataclass(frozen=True)
class RankedPolicies:
    """Rows sorted by score descending, then policy id ascending."""

    rows: tuple[RankedRow, ...]
    perturbation_warnings: int = 0


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
    # Imported here so that commands which never score start without numpy.
    import numpy as np

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
            f"profile {profile.name!r}: coupled vector or score of policy {bad} is not finite"
        )
    ids = [r.policy_id for r in rows]
    # lexsort's last key is the primary one: score descending, then id.
    order = np.lexsort((ids, -score))
    sorted_ids = map(ids.__getitem__, order.tolist())
    x_w_prime = zip(*(col[order].tolist() for col in prime))
    return RankedPolicies(
        rows=tuple(map(RankedRow, sorted_ids, x_w_prime, score[order].tolist())),
        perturbation_warnings=int(np.count_nonzero(ratio > profile.coupling.warn_threshold)),
    )


def select_best(ranked: RankedPolicies) -> int:
    """Policy id with the highest coupled score (ties: smallest id)."""
    if not ranked.rows:
        raise ValueError("cannot select from an empty ranking")
    return ranked.rows[0].policy_id


def compare_profiles(
    target: RegressionModel,
    baseline_x_w: Sequence[float],
    profiles: Sequence[WeightingProfile],
    sweep: SweepTable,
) -> dict[str, int]:
    """Selected policy id per profile, in profile order."""
    if not profiles:
        raise ValueError("need at least one weighting profile")
    return {
        p.name: select_best(evaluate_policies(target, baseline_x_w, p, sweep))
        for p in profiles
    }
