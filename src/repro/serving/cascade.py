"""Confidence-gated exit cascade over a :class:`MultiExitModel`.

The router runs every sample through the shallowest exit first.  Samples
whose softmax confidence (top-1 probability) clears the exit's threshold
leave with that prediction; the rest continue down the stage chain to the
next exit.  The deepest exit accepts unconditionally, so the cascade
degenerates gracefully to the single-exit deployment when only one exit
is materialized.

The cost model mirrors the execution-time simulator's inference path:
each stage *segment* between consecutive exits is charged once per sample
that reaches it, and each auxiliary head once per sample evaluated there
-- reusing :func:`repro.evalsim.modules_forward_cost` so serving seconds
and Table 3 throughput seconds come from the same FLOP model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.early_exit import MultiExitModel
from repro.errors import ConfigError
from repro.evalsim.throughput import modules_forward_cost


@dataclass(frozen=True)
class ExitCost:
    """Per-image incremental cost of reaching and evaluating one exit."""

    segment_flops: int
    segment_kernels: int
    head_flops: int
    head_kernels: int


class CascadeCostModel:
    """FLOP/kernel accounting for a routed batch.

    :meth:`batch_cost` (and :meth:`deepest_only_cost` for the
    ``deepest-only`` mode) is the whole-batch reference; a fleet replica
    charges the same cost split per segment and device, and the tests
    pin the two against each other.
    """

    def __init__(
        self,
        model: MultiExitModel,
        in_channels: int,
        input_hw: tuple[int, int],
    ):
        self.exit_costs: list[ExitCost] = []
        #: Per-sample activation elements at each segment's output -- the
        #: payload a sample carries into the next segment (the fleet
        #: shard planner prices inter-device hops from this).
        self.boundary_elements: list[int] = []
        shape: tuple[int, ...] = (1, in_channels, *input_hw)
        for k in range(model.num_exits):
            seg_flops, seg_kernels, shape = modules_forward_cost(
                model.segment_stages(k), shape
            )
            head_flops, head_kernels, _ = modules_forward_cost(
                [model.exit_heads[k]], shape
            )
            self.exit_costs.append(
                ExitCost(seg_flops, seg_kernels, head_flops, head_kernels)
            )
            elements = 1
            for dim in shape[1:]:
                elements *= int(dim)
            self.boundary_elements.append(elements)

    def batch_cost(self, reach_counts: list[int]) -> tuple[int, int]:
        """(FLOPs, kernel dispatches) for a batch with the given reach.

        ``reach_counts[k]`` is the number of samples that entered segment
        ``k`` (and were therefore scored by head ``k``).  Kernel launches
        are per batched dispatch, so a segment's kernels count once as
        long as any sample reaches it.
        """
        if len(reach_counts) != len(self.exit_costs):
            raise ConfigError("reach_counts must have one entry per exit")
        flops = 0
        n_kernels = 0
        for reach, cost in zip(reach_counts, self.exit_costs):
            if reach <= 0:
                continue
            flops += reach * (cost.segment_flops + cost.head_flops)
            n_kernels += cost.segment_kernels + cost.head_kernels
        return flops, n_kernels

    def deepest_only_cost(self, batch_size: int) -> tuple[int, int]:
        """Cost of sending the whole batch straight to the deepest exit."""
        flops = 0
        n_kernels = 0
        for cost in self.exit_costs[:-1]:
            flops += batch_size * cost.segment_flops
            n_kernels += cost.segment_kernels
        last = self.exit_costs[-1]
        flops += batch_size * (last.segment_flops + last.head_flops)
        n_kernels += last.segment_kernels + last.head_kernels
        return flops, n_kernels


@dataclass(frozen=True)
class RoutedBatch:
    """Outcome of routing one batch through the cascade."""

    predictions: np.ndarray
    exit_indices: np.ndarray
    confidences: np.ndarray
    reach_counts: list[int]

    @property
    def exit_counts(self) -> list[int]:
        """Samples that *exited* (not merely passed through) each exit."""
        n_exits = len(self.reach_counts)
        return np.bincount(self.exit_indices, minlength=n_exits).tolist()


class CascadeRouter:
    """Routes batches through the exit cascade.

    ``threshold`` is a scalar applied at every non-final exit, or a
    per-exit sequence (the deepest exit always accepts).  ``mode``
    selects the routing policy: ``"cascade"`` (the default escalation
    behavior), ``"shallow-only"`` (everything exits at the first head)
    or ``"deepest-only"`` (everything runs the full chain) -- the two
    degenerate policies the benchmarks compare against.
    """

    MODES = ("cascade", "shallow-only", "deepest-only")

    def __init__(
        self,
        model: MultiExitModel,
        threshold: float | list[float] = 0.7,
        mode: str = "cascade",
        workspace: bool = True,
    ):
        if mode not in self.MODES:
            raise ConfigError(f"unknown routing mode {mode!r}")
        self.model = model
        self.mode = mode
        self._pool_scratch = workspace
        n = model.num_exits
        if isinstance(threshold, (int, float)):
            thresholds = [float(threshold)] * n
        else:
            thresholds = [float(t) for t in threshold]
            if len(thresholds) == n - 1:
                thresholds.append(0.0)
            if len(thresholds) != n:
                raise ConfigError(
                    f"need {n} (or {n - 1}) thresholds, got {len(thresholds)}"
                )
        for t in thresholds[:-1]:
            if not 0.0 <= t <= 1.0:
                raise ConfigError("thresholds must be in [0, 1]")
        thresholds[-1] = 0.0  # the deepest exit accepts unconditionally
        self.thresholds = thresholds

    def route(self, x: np.ndarray) -> RoutedBatch:
        n = len(x)
        model = self.model
        if self._pool_scratch and model.workspace is None:
            # The fleet routes its sample bank once, one route-cache chunk
            # per call (``build_route_cache``); workspaces keep the
            # im2col/window scratch warm across chunks, sized by the
            # largest chunk.  Attached lazily (and only when absent) so the
            # router never clobbers one someone else owns; the model's
            # builder detaches it (``simulate_fleet``, before its event
            # loop).
            model.attach_workspace()
        predictions = np.zeros(n, dtype=np.int64)
        exit_indices = np.zeros(n, dtype=np.int64)
        confidences = np.zeros(n, dtype=np.float64)
        reach_counts = [0] * model.num_exits
        if n == 0:
            return RoutedBatch(predictions, exit_indices, confidences, reach_counts)

        if self.mode == "shallow-only":
            active_exits = [0]
        elif self.mode == "deepest-only":
            active_exits = list(range(model.num_exits))
            # pass through every segment but only score the deepest head
        else:
            active_exits = list(range(model.num_exits))

        remaining = np.arange(n)
        feats = x
        for k in active_exits:
            feats = model.run_segment(k, feats)
            is_last = k == active_exits[-1]
            reach_counts[k] = len(remaining)
            if self.mode == "deepest-only" and not is_last:
                continue
            probs = model.exit_proba(k, feats)
            top = probs.max(axis=1)
            if is_last:
                accept = np.ones(len(remaining), dtype=bool)
            else:
                accept = top >= self.thresholds[k]
            taken = remaining[accept]
            predictions[taken] = np.argmax(probs[accept], axis=1)
            exit_indices[taken] = k
            confidences[taken] = top[accept]
            remaining = remaining[~accept]
            feats = feats[~accept]
            if len(remaining) == 0:
                break
        return RoutedBatch(predictions, exit_indices, confidences, reach_counts)
