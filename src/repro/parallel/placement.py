"""Block-to-device placement optimization.

Decides which cluster device trains each partition block.  Each block is
priced by :func:`repro.core.worker.block_cost` -- the one block price the
worker charges its steps with and the controller allocates by -- and
each step on each device by the very
:class:`~repro.hw.simulator.ExecutionSimulator` the executor charges --
so a predicted makespan and a simulated one disagree only on what the
prediction deliberately leaves out: ragged final micro-batches and the
profiling ramp-in the executor books before streaming (both constant
across candidate placements, hence irrelevant to the search).

Two placement strategies:

* :func:`round_robin_placement` / :func:`greedy_placement` -- baselines;
* :func:`optimize_placement` -- exprimo-style local search over single
  moves and pairwise swaps, minimizing the predicted pipeline makespan
  subject to per-device memory budgets.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.partitioner import Block
from repro.core.worker import BlockCost, block_cost
from repro.errors import ConfigError, PlacementError
from repro.hw.simulator import ExecutionSimulator, block_input_mode
from repro.models.layers import LayerSpec
from repro.nn.module import Module
from repro.parallel.cluster import Cluster
from repro.parallel.pipeline import PipelineClock


def price_training_step(
    platform,
    cost: BlockCost,
    batch: int,
    sample_bytes: int,
    input_mode: str,
) -> float:
    """Nominal seconds of one block training step on ``platform``.

    The single pricing rule shared by :func:`build_problem`, the drift
    monitor's predictions and the runtime's re-placement refinement --
    priced with the very accounting the executor charges
    (:meth:`ExecutionSimulator.add_training_step` on a fresh simulator),
    so predictions and charges can only diverge where the cluster
    actually drifts.
    """
    sim = ExecutionSimulator(platform)
    return sim.add_training_step(
        cost.train_flops_per_sample * batch,
        sample_bytes * batch,
        cost.n_kernels,
        input_mode=input_mode,
    )


@dataclass(frozen=True)
class PlacementProblem:
    """Everything a placement strategy needs to price a candidate."""

    cluster: Cluster
    blocks: tuple[Block, ...]
    costs: tuple[BlockCost, ...]
    step_times: tuple[tuple[float, ...], ...]  # [block][device] seconds
    comm_bytes: tuple[int, ...]  # per stage boundary, per micro-batch
    microbatch: int
    n_microbatches: int
    queue_capacity: int
    #: Raw bytes staged per sample (lets the runtime re-price step times
    #: for refined coefficients, joined devices and replayed batches).
    sample_bytes: int = 0

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def build_problem(
    blocks: list[Block],
    specs: list[LayerSpec],
    aux_heads: list[Module],
    cluster: Cluster,
    microbatch: int,
    n_train: int,
    epochs: int,
    sample_bytes: int,
    optimizer: str = "sgd-momentum",
    queue_capacity: int = 2,
) -> PlacementProblem:
    """Assemble the placement problem for one training run."""
    if microbatch < 1:
        raise ConfigError("microbatch must be >= 1")
    if n_train < 1 or epochs < 1:
        raise ConfigError("need a non-empty stream to place for")
    costs = [
        block_cost(specs, aux_heads, b.layer_indices, microbatch, optimizer)
        for b in blocks
    ]
    step_times = []
    for k, cost in enumerate(costs):
        step_times.append(
            tuple(
                price_training_step(
                    device.platform, cost, microbatch, sample_bytes,
                    block_input_mode(k),
                )
                for device in cluster
            )
        )
    comm_bytes = tuple(
        cost.out_bytes_per_sample * microbatch for cost in costs[:-1]
    )
    batches_per_epoch = -(-n_train // microbatch)
    return PlacementProblem(
        cluster=cluster,
        blocks=tuple(blocks),
        costs=tuple(costs),
        step_times=tuple(step_times),
        comm_bytes=comm_bytes,
        microbatch=microbatch,
        n_microbatches=batches_per_epoch * epochs,
        queue_capacity=queue_capacity,
        sample_bytes=sample_bytes,
    )


def placement_feasible(problem: PlacementProblem, placement: list[int]) -> bool:
    """True if every device's resident blocks fit its memory budget."""
    if len(placement) != problem.n_blocks:
        return False
    usage = [0] * len(problem.cluster)
    for k, d in enumerate(placement):
        if not 0 <= d < len(problem.cluster):
            return False
        usage[d] += problem.costs[k].residency_bytes
    return all(
        use <= device.memory_budget
        for use, device in zip(usage, problem.cluster)
    )


def predict_makespan(problem: PlacementProblem, placement: list[int]) -> float:
    """Predicted pipelined makespan of ``placement`` (uniform micro-batches).

    Every micro-batch costs the same per stage, so once the pipeline
    fills, the clock advances by a constant per micro-batch.  Short
    streams are simulated exactly; long ones simulate a generous warm-up
    and extrapolate the steady-state rate (falling back to the exact
    simulation if the rate has not settled) -- which keeps the local
    search's many evaluations independent of dataset size and epochs.
    """
    if len(placement) != problem.n_blocks:
        raise ConfigError(
            f"one device per block required: {len(placement)} vs {problem.n_blocks}"
        )
    m = problem.n_microbatches
    step = [problem.step_times[k][d] for k, d in enumerate(placement)]
    comm = [
        problem.cluster.transfer_time(placement[k], placement[k + 1], nbytes)
        for k, nbytes in enumerate(problem.comm_bytes)
    ]
    warmup = 4 * (problem.n_blocks + problem.queue_capacity) + 8

    def simulate(n_batches: int) -> tuple[float, float, float]:
        """Makespan after the last three micro-batches of an n-batch run."""
        clock = PipelineClock(
            list(placement), len(problem.cluster), problem.queue_capacity
        )
        tail = [0.0, 0.0, 0.0]
        for _ in range(n_batches):
            for k in range(problem.n_blocks):
                clock.step(k, step[k], comm[k] if k < len(comm) else 0.0)
            tail = [tail[1], tail[2], clock.makespan]
        return tail[0], tail[1], tail[2]

    if m <= warmup:
        return simulate(m)[2]
    before, prev, last = simulate(warmup)
    delta = last - prev
    if abs((prev - before) - delta) > 1e-12 * max(1.0, last):
        # Not periodic yet (pathological shape): pay for the exact run.
        return simulate(m)[2]
    return last + (m - warmup) * delta


def round_robin_placement(n_blocks: int, n_devices: int) -> list[int]:
    """Block ``k`` on device ``k mod D`` -- the obvious baseline."""
    if n_blocks < 1 or n_devices < 1:
        raise ConfigError("need at least one block and one device")
    return [k % n_devices for k in range(n_blocks)]


def greedy_placement(problem: PlacementProblem) -> list[int]:
    """Assign blocks in order, each to the device minimizing the bottleneck.

    The steady-state throughput of a pipeline is set by its most loaded
    device, so the greedy objective is the resulting maximum per-device
    load (sum of per-micro-batch step times), with the incoming transfer
    as a tie-breaker.  Raises :class:`PlacementError` when some block fits
    no device.
    """
    loads = [0.0] * len(problem.cluster)
    usage = [0] * len(problem.cluster)
    placement: list[int] = []
    for k, cost in enumerate(problem.costs):
        best: tuple[float, float, float] | None = None
        best_device = -1
        for d, device in enumerate(problem.cluster):
            if usage[d] + cost.residency_bytes > device.memory_budget:
                continue
            comm_in = 0.0
            if k > 0:
                comm_in = problem.cluster.transfer_time(
                    placement[k - 1], d, problem.comm_bytes[k - 1]
                )
            new_load = loads[d] + problem.step_times[k][d]
            key = (max(max(loads), new_load), comm_in, problem.step_times[k][d])
            if best is None or key < best:
                best = key
                best_device = d
        if best_device < 0:
            raise PlacementError(
                f"block {k} ({cost.residency_bytes} B resident) fits no device"
            )
        placement.append(best_device)
        loads[best_device] += problem.step_times[k][best_device]
        usage[best_device] += cost.residency_bytes
    return placement


def first_fit_placement(problem: PlacementProblem) -> list[int]:
    """Pure feasibility packer: decreasing-residency worst-fit (FFD).

    Ignores speed entirely -- its job is to find *some* memory-feasible
    placement when the load-balancing greedy packs itself into a corner,
    giving the local search a starting point.  Placing the biggest blocks
    first onto the device with most slack avoids the dead ends a
    block-order packer walks into.  Raises :class:`PlacementError` when
    no device fits a block.
    """
    slack = [device.memory_budget for device in problem.cluster]
    placement = [-1] * problem.n_blocks
    by_size = sorted(
        range(problem.n_blocks),
        key=lambda k: problem.costs[k].residency_bytes,
        reverse=True,
    )
    for k in by_size:
        need = problem.costs[k].residency_bytes
        candidates = [d for d, s in enumerate(slack) if need <= s]
        if not candidates:
            raise PlacementError(
                f"block {k} ({need} B resident) fits no device"
            )
        best = max(candidates, key=lambda d: slack[d])
        placement[k] = best
        slack[best] -= need
    return placement


@dataclass(frozen=True)
class PlacementResult:
    """A placement plus its predicted makespan."""

    placement: tuple[int, ...]
    predicted_makespan_s: float


def optimize_placement(
    problem: PlacementProblem,
    max_rounds: int = 50,
    extra_starts: list[list[int]] | None = None,
) -> PlacementResult:
    """Local search (exprimo-style moves + swaps) over block placements.

    Starts from the greedy, round-robin and worst-fit placements (each
    when feasible) and repeatedly applies the single best improving
    move -- relocating one block or swapping two blocks' devices -- until
    a round yields no improvement.  The returned placement therefore
    never predicts worse than any feasible baseline.
    ``extra_starts`` seeds additional feasible starting points -- the
    online re-placement policy passes the *current* placement, so the
    search descends to a nearby optimum instead of re-deriving one from
    scratch (fewer gratuitous migrations, stable across re-checks).
    Raises :class:`PlacementError` only when no starting point exists.
    """
    starts: list[list[int]] = []
    for start in extra_starts or []:
        if len(start) == problem.n_blocks and placement_feasible(problem, start):
            starts.append(list(start))
    try:
        starts.append(greedy_placement(problem))
    except PlacementError:
        # The load-balancer packed itself into a corner; the pure packers
        # below may still find a feasible start.
        pass
    rr = round_robin_placement(problem.n_blocks, len(problem.cluster))
    if placement_feasible(problem, rr):
        starts.append(rr)
    if not starts:
        starts.append(first_fit_placement(problem))  # raises if truly stuck
    best_placement: list[int] | None = None
    best_cost = float("inf")
    for start in starts:
        placement = list(start)
        cost = predict_makespan(problem, placement)
        for _ in range(max_rounds):
            move_placement, move_cost = _best_neighbor(problem, placement, cost)
            if move_placement is None:
                break
            placement, cost = move_placement, move_cost
        # ``or`` keeps the first start even when every candidate prices at
        # infinity (e.g. a refined problem where a device died).
        if best_placement is None or cost < best_cost:
            best_cost = cost
            best_placement = placement
    return PlacementResult(tuple(best_placement), best_cost)


def _best_neighbor(
    problem: PlacementProblem, placement: list[int], cost: float
) -> tuple[list[int] | None, float]:
    """The best strictly-improving move/swap neighbor, if any."""
    best: list[int] | None = None
    best_cost = cost
    n_devices = len(problem.cluster)
    for k in range(problem.n_blocks):
        for d in range(n_devices):
            if d == placement[k]:
                continue
            candidate = list(placement)
            candidate[k] = d
            if not placement_feasible(problem, candidate):
                continue
            c = predict_makespan(problem, candidate)
            if c < best_cost:
                best, best_cost = candidate, c
    for k1 in range(problem.n_blocks):
        for k2 in range(k1 + 1, problem.n_blocks):
            if placement[k1] == placement[k2]:
                continue
            candidate = list(placement)
            candidate[k1], candidate[k2] = candidate[k2], candidate[k1]
            if not placement_feasible(problem, candidate):
                continue
            c = predict_makespan(problem, candidate)
            if c < best_cost:
                best, best_cost = candidate, c
    return best, best_cost


def sequential_placement(problem: PlacementProblem, residency_fn) -> list[int]:
    """Default placement for the sequential schedule.

    Blocks run one at a time, so the makespan is simply the sum of
    per-block times: put each block on its fastest device that fits it
    at the block's own adaptive batch size (``residency_fn(block)``
    bytes), staying put on ties to avoid link hops.
    """
    placement: list[int] = []
    prev = 0
    for block in problem.blocks:
        need = residency_fn(block)
        candidates = [
            d for d, device in enumerate(problem.cluster)
            if need <= device.memory_budget
        ]
        if not candidates:
            raise PlacementError(
                f"block {block.index} needs {need} B at batch "
                f"{block.batch_size}; no device budget fits it"
            )
        best = min(
            candidates,
            key=lambda d: (
                problem.step_times[block.index][d],
                0 if d == prev else 1,
            ),
        )
        placement.append(best)
        prev = best
    return placement


def resolve_placement(
    problem: PlacementProblem,
    schedule: str,
    placement: list[int] | str | None,
    residency_fn,
) -> list[int]:
    """The placement one ``train_parallel`` run starts from.

    ``None`` picks the schedule's default (the optimizer's all-resident
    feasibility model would over-constrain a schedule that loads one
    block at a time, hence :func:`sequential_placement`),
    ``"round-robin"`` the naive baseline; a list is validated as given.
    Feasibility follows the schedule's residency model: pipelined keeps
    every block resident at the micro-batch size (co-located blocks
    sum), sequential loads one block at a time at its own adaptive batch
    size (``residency_fn(block)`` bytes: no summing, the bigger batch).
    """
    cluster = problem.cluster
    if placement is None:
        if schedule == "pipelined":
            placement = list(optimize_placement(problem).placement)
        else:
            placement = sequential_placement(problem, residency_fn)
    else:
        if isinstance(placement, str):
            if placement != "round-robin":
                raise ConfigError(f"unknown placement strategy {placement!r}")
            placement = round_robin_placement(problem.n_blocks, len(cluster))
        placement = list(placement)
        if len(placement) != problem.n_blocks:
            raise ConfigError(
                f"one device per block required: {len(placement)} vs {problem.n_blocks}"
            )
        for d in placement:
            if not 0 <= d < len(cluster):
                raise ConfigError(f"placement device {d} out of range")
    if schedule == "pipelined":
        if not placement_feasible(problem, placement):
            raise PlacementError(
                f"placement {placement} exceeds a device memory budget "
                f"with all blocks resident"
            )
    else:
        for block in problem.blocks:
            device = cluster[placement[block.index]]
            need = residency_fn(block)
            if need > device.memory_budget:
                raise PlacementError(
                    f"block {block.index} needs {need} B at batch "
                    f"{block.batch_size}, exceeding {device.name}'s "
                    f"{device.memory_budget} B budget"
                )
    return placement
