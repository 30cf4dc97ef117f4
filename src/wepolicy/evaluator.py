"""Policy selection: couple sweep indicators into the fitted target and rank.

For each sweep row the fact indicators perturb the baseline subjective
vector through a weighting profile's coupling, the fitted target scores the
result, and rows are ranked by score (ties to the smallest policy id).
Different profiles express different social/environmental/economic
emphases and generally select different policies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

# `apply_fact_coupling` stays importable from here: perfbench/tracer.py wraps it.
from .coupling import FactCoupling, apply_fact_coupling, couple_rows
from .errors import _quote

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
