"""Online re-placement policy.

When the drift monitor reports that the cluster has departed from the
planning-time cost model (or a device has failed outright), the policy
re-runs the PR 3 local-search placement optimizer against a *refined*
problem -- step times re-priced for the cluster as it is now: per-device
coefficients from the monitor, failed devices priced out, joined devices
priced in -- and weighs the predicted makespan saving over the
*remaining* stream against the cost of moving the affected blocks.

Hysteresis is built in: a re-placement must clear a relative improvement
margin net of migration cost, so two placements whose refined costs are
within the margin of each other can never oscillate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.errors import PlacementError
from repro.hw.simulator import block_input_mode
from repro.parallel.placement import (
    PlacementProblem,
    optimize_placement,
    predict_makespan,
    price_training_step,
)

#: A re-placement must beat staying put by this fraction of the current
#: predicted makespan, net of its migration cost.
IMPROVEMENT_MARGIN = 0.05
#: Local-search rounds per consultation.
MAX_ROUNDS = 30


def refined_step_times(
    problem: PlacementProblem,
    cluster,
    coefficients: list[float],
    dead: set[int] | frozenset[int] = frozenset(),
) -> tuple[tuple[float, ...], ...]:
    """Re-price every (block, device) step for the cluster as it is now.

    Rebuilt from the block cost profiles rather than scaled in place, so
    devices that joined after planning get priced too; each entry is then
    multiplied by the device's refined coefficient (1.0 when unobserved),
    and dead devices price at infinity -- the search routes around them.
    """
    rows = []
    for k, cost in enumerate(problem.costs):
        row = []
        for d, device in enumerate(cluster):
            if d in dead:
                row.append(float("inf"))
                continue
            t = price_training_step(
                device.platform, cost, problem.microbatch,
                problem.sample_bytes, block_input_mode(k),
            )
            coef = coefficients[d] if d < len(coefficients) else 1.0
            row.append(t * coef)
        rows.append(tuple(row))
    return tuple(rows)


def refined_problem(
    problem: PlacementProblem,
    cluster,
    coefficients: list[float],
    dead: set[int] | frozenset[int],
    remaining_microbatches: int,
) -> PlacementProblem:
    """The placement problem for the rest of the run, as measured."""
    return replace(
        problem,
        cluster=cluster,
        step_times=refined_step_times(problem, cluster, coefficients, dead),
        n_microbatches=max(1, int(remaining_microbatches)),
    )


@dataclass(frozen=True)
class ReplacementDecision:
    """What the policy concluded, and why."""

    accept: bool
    reason: str
    placement: tuple[int, ...]
    moved_blocks: tuple[int, ...]
    predicted_current_s: float
    predicted_candidate_s: float
    migration_cost_s: float


class ReplacementPolicy:
    """Decides whether a re-placement pays for its migrations."""

    def consider(
        self,
        problem: PlacementProblem,
        cluster,
        placement: list[int],
        coefficients: list[float],
        dead: set[int],
        remaining_microbatches: int,
        migration_cost_fn: Callable[[int, int, int], float],
    ) -> ReplacementDecision:
        """Weigh re-placing against staying put.

        ``migration_cost_fn(block, src, dst)`` prices one block move in
        seconds.  A placement stranded on a dead device (predicted cost
        infinity) is *forced* to move regardless of margin.
        """
        rp = refined_problem(
            problem, cluster, coefficients, dead, remaining_microbatches
        )
        current = predict_makespan(rp, placement)
        forced = any(d in dead for d in placement)
        result = optimize_placement(
            rp, max_rounds=MAX_ROUNDS, extra_starts=[list(placement)]
        )
        candidate = list(result.placement)
        if any(d in dead for d in candidate):
            raise PlacementError(
                "no alive device can host every block "
                f"(dead={sorted(dead)}, placement={candidate})"
            )
        moved = tuple(
            k for k, (a, b) in enumerate(zip(placement, candidate)) if a != b
        )
        if not moved:
            return ReplacementDecision(
                False, "already optimal", tuple(placement), (), current, current, 0.0
            )
        migration_cost = sum(
            migration_cost_fn(k, placement[k], candidate[k]) for k in moved
        )
        if forced:
            return ReplacementDecision(
                True,
                "failure",
                tuple(candidate),
                moved,
                current,
                result.predicted_makespan_s,
                migration_cost,
            )
        threshold = current * (1.0 - IMPROVEMENT_MARGIN)
        if result.predicted_makespan_s + migration_cost >= threshold:
            return ReplacementDecision(
                False,
                "insufficient saving",
                tuple(placement),
                moved,
                current,
                result.predicted_makespan_s,
                migration_cost,
            )
        return ReplacementDecision(
            True,
            "drift",
            tuple(candidate),
            moved,
            current,
            result.predicted_makespan_s,
            migration_cost,
        )
