"""Shard the exit cascade across a cluster with the placement optimizer.

The cascade's segments (the stage span feeding each exit, plus that
exit's auxiliary head) form the same kind of chain the pipeline trainer
places: segment ``k`` consumes segment ``k-1``'s boundary activations
and can live on a different device, with the hop priced by the cluster
link.  This module prices each segment's *inference* batch on every
device with the very accounting the replica later charges
(:meth:`~repro.hw.simulator.ExecutionSimulator.add_serving_batch` on a
fresh simulator), assembles a :class:`~repro.parallel.placement.PlacementProblem`
over pseudo-blocks, and hands it to the PR 3 exprimo-style local search
-- so the fleet's shard map falls out of the same optimizer that places
training blocks, with early (cheap) segments landing on weak devices and
deep segments on the Orin-class ones whenever that wins the predicted
pipeline makespan.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.early_exit import MultiExitModel
from repro.core.partitioner import Block
from repro.core.worker import BlockCost
from repro.errors import ConfigError
from repro.hw.simulator import ExecutionSimulator
from repro.memory.estimator import FLOAT_BYTES
from repro.parallel.cluster import Cluster
from repro.parallel.placement import PlacementProblem, optimize_placement
from repro.serving.cascade import CascadeCostModel

#: Micro-batches the makespan predictor streams when scoring a candidate
#: shard map -- deep enough that steady-state throughput dominates the
#: pipeline fill, small enough that the local search stays cheap.
PLANNING_HORIZON_BATCHES = 64


@dataclass(frozen=True)
class CascadeShardPlan:
    """A cascade-to-device shard map plus the costs it was priced with.

    ``placement[k]`` is the cluster device running segment ``k`` (the
    stages between exits ``k-1`` and ``k``, plus auxiliary head ``k``).
    ``boundary_bytes[k]`` is the per-sample activation payload crossing
    the ``k -> k+1`` boundary; ``segment_flops``/``segment_kernels``
    fold the head into its segment, pricing the cascade-mode dispatch.
    """

    placement: tuple[int, ...]
    predicted_batch_s: float
    boundary_bytes: tuple[int, ...]
    segment_flops: tuple[int, ...]
    segment_kernels: tuple[int, ...]
    residency_bytes: tuple[int, ...]
    #: The head's share of each segment's folded cost, so ``deepest-only``
    #: runs (which score only the last head) can peel it back off.
    head_flops: tuple[int, ...] = ()
    head_kernels: tuple[int, ...] = ()

    @property
    def num_segments(self) -> int:
        return len(self.placement)

    def to_json_dict(self) -> dict:
        return {
            "placement": list(self.placement),
            "predicted_batch_s": self.predicted_batch_s,
            "boundary_bytes": list(self.boundary_bytes),
        }


def _module_param_bytes(module) -> int:
    return sum(int(p.data.nbytes) for p in module.parameters())


def segment_profiles(
    model: MultiExitModel, cost_model: CascadeCostModel
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Per-segment (flops, kernels, residency, boundary bytes) profiles.

    FLOPs and kernel counts come from the serving cost model (head folded
    into its segment); residency is the resident parameter bytes of the
    segment's stages plus head; boundary bytes are the per-sample
    activation payload a sample carries into the next segment, read off
    the cost model's traced shapes.
    """
    flops: list[int] = []
    kernels: list[int] = []
    residency: list[int] = []
    for k, cost in enumerate(cost_model.exit_costs):
        flops.append(cost.segment_flops + cost.head_flops)
        kernels.append(cost.segment_kernels + cost.head_kernels)
        residency.append(
            sum(_module_param_bytes(m) for m in model.segment_stages(k))
            + _module_param_bytes(model.exit_heads[k])
        )
    boundaries = tuple(
        int(nelem) * FLOAT_BYTES for nelem in cost_model.boundary_elements[:-1]
    )
    return tuple(flops), tuple(kernels), tuple(residency), boundaries


def build_shard_problem(
    model: MultiExitModel,
    cost_model: CascadeCostModel,
    cluster: Cluster,
    batch: int,
    sample_bytes: int,
    queue_capacity: int = 2,
) -> PlacementProblem:
    """Price the cascade's segments as a placement problem on ``cluster``.

    ``step_times[k][d]`` is the simulated seconds of one full ``batch``
    through segment ``k`` on device ``d``, priced with a fresh
    :class:`ExecutionSimulator` exactly as the replica will charge it:
    segment 0 stages the raw samples (``sample_bytes * batch`` of input
    I/O), deeper segments receive their input over the wire -- that hop
    is the ``comm_bytes`` entry, charged separately to the link.
    """
    if batch < 1:
        raise ConfigError("shard planning batch must be >= 1")
    flops, kernels, residency, boundaries = segment_profiles(model, cost_model)
    n = len(flops)
    blocks = tuple(
        Block(index=k, layer_indices=[k], batch_size=batch) for k in range(n)
    )
    costs = tuple(
        BlockCost(
            train_flops_per_sample=flops[k],  # inference flops; same role
            n_kernels=kernels[k],
            residency_bytes=residency[k],
            out_bytes_per_sample=boundaries[k] if k < n - 1 else 0,
        )
        for k in range(n)
    )
    step_times = tuple(
        tuple(
            ExecutionSimulator(device.platform).add_serving_batch(
                flops[k] * batch,
                sample_bytes * batch if k == 0 else 0,
                kernels[k],
            )
            for device in cluster
        )
        for k in range(n)
    )
    comm_bytes = tuple(boundaries[k] * batch for k in range(n - 1))
    return PlacementProblem(
        cluster=cluster,
        blocks=blocks,
        costs=costs,
        step_times=step_times,
        comm_bytes=comm_bytes,
        microbatch=batch,
        n_microbatches=PLANNING_HORIZON_BATCHES,
        queue_capacity=queue_capacity,
        sample_bytes=sample_bytes,
    )


def plan_cascade_shards(
    model: MultiExitModel,
    cost_model: CascadeCostModel,
    cluster: Cluster,
    batch: int,
    sample_bytes: int,
    queue_capacity: int = 2,
) -> CascadeShardPlan:
    """Optimize the cascade shard map for ``cluster`` and profile it.

    ``predicted_batch_s`` is the steady-state seconds per full batch
    under the returned placement -- the latency-aware router's seed
    coefficient before any online refinement.
    """
    problem = build_shard_problem(
        model, cost_model, cluster, batch, sample_bytes, queue_capacity
    )
    result = optimize_placement(problem)
    flops, kernels, residency, boundaries = segment_profiles(model, cost_model)
    per_batch = result.predicted_makespan_s / problem.n_microbatches
    return CascadeShardPlan(
        placement=result.placement,
        predicted_batch_s=per_batch,
        boundary_bytes=boundaries,
        segment_flops=flops,
        segment_kernels=kernels,
        residency_bytes=residency,
        head_flops=tuple(c.head_flops for c in cost_model.exit_costs),
        head_kernels=tuple(c.head_kernels for c in cost_model.exit_costs),
    )


def single_device_plan(
    model: MultiExitModel, cost_model: CascadeCostModel, cluster: Cluster,
    batch: int, sample_bytes: int,
) -> CascadeShardPlan:
    """The degenerate shard map: the whole cascade on device 0.

    Used for joined single-device replicas and the static-baseline arm
    of the fleet benchmark.
    """
    flops, kernels, residency, boundaries = segment_profiles(model, cost_model)
    sim = ExecutionSimulator(cluster[0].platform)
    per_batch = sim.add_serving_batch(
        sum(flops) * batch, sample_bytes * batch, sum(kernels)
    )
    return CascadeShardPlan(
        placement=tuple(0 for _ in flops),
        predicted_batch_s=per_batch,
        boundary_bytes=boundaries,
        segment_flops=flops,
        segment_kernels=kernels,
        residency_bytes=residency,
        head_flops=tuple(c.head_flops for c in cost_model.exit_costs),
        head_kernels=tuple(c.head_kernels for c in cost_model.exit_costs),
    )
