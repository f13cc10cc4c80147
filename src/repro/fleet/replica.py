"""One cluster-sharded serving replica.

A replica owns a private :class:`~repro.parallel.cluster.Cluster` (every
device with its own ledger), the shard map produced by
:mod:`repro.fleet.sharding`, a bounded admission queue, and per-device
free clocks on the fleet's simulated timeline.  Serving a batch walks
the segment chain device to device: each segment starts when both its
device is free and the upstream boundary activations have arrived (the
hop charged to the sender's ``communication`` ledger), and its compute
is booked with :meth:`~repro.hw.simulator.ExecutionSimulator.add_serving_batch`
on that device's simulator -- which is what makes churn physical: a
slowdown perturbs the device sims, and every subsequent batch on the
replica genuinely takes longer.

Routing decisions are precomputed per *sample* (the cascade routes each
sample independently of batch composition), so a million-request run
looks up cached exit indices instead of re-running the model per batch.

Cached state (the fleet loop reads these per event, so they are kept,
not recomputed): a replica owns ``next_dispatch`` -- always equal to
:meth:`CascadeReplica.next_dispatch_s` -- and refreshes it exactly where
that value's inputs move: in ``admit`` when the queue goes 0->1 (a new
head) or reaches ``batch_cap`` (deadline -> start), at the end of
``serve_batch`` (the queue was popped and the entry device's free clock
moved), and on ``fail`` / retirement.  ``in_flight_requests`` counts the
requests inside ``in_flight`` (up in ``serve_batch``, down in
``commit_completions``, zeroed by ``fail``), which makes ``load`` O(1).
Code that edits ``pending`` behind the replica's back must call
``refresh_next_dispatch`` itself.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.fleet.sharding import CascadeShardPlan
from repro.parallel.cluster import Cluster
from repro.serving.batcher import AdaptiveBatcher
from repro.serving.workload import Request

#: Replica lifecycle states.
LIVE = "live"
DRAINING = "draining"
FAILED = "failed"
RETIRED = "retired"


@dataclass(frozen=True)
class RouteCache:
    """Per-sample cascade outcomes, computed once for the sample bank.

    ``exit_of_sample[i]`` is the exit index sample ``i`` leaves the
    cascade at under the configured mode/threshold;
    ``correct_of_sample`` scores it against the serving labels (absent
    when the bank is unlabeled).  Routing is per-sample deterministic,
    so these are exact, not approximations.
    """

    exit_of_sample: np.ndarray
    correct_of_sample: np.ndarray | None
    num_exits: int
    mode: str

    def reach_counts(self, exits: np.ndarray) -> list[int]:
        """``reach_counts[k]``: batch samples entering segment ``k``.

        A sample exiting at ``e`` traversed segments ``0..e``; under
        ``deepest-only`` every sample's exit is already the last one.
        """
        reach = [0] * self.num_exits
        for e in exits.tolist():
            reach[e] += 1
        for k in range(self.num_exits - 2, -1, -1):
            reach[k] += reach[k + 1]
        return reach


@dataclass(frozen=True)
class SegmentTiming:
    """One segment's slice of a batch's walk down the chain.

    ``comm_s`` is the boundary-activation hop *into* this segment,
    ``stall_s`` the wait for the device to free up after the data was
    ready, and ``[start_s, end_s]`` the device-exclusive service window.
    Summed over a batch, ``comm + stall + service == completion -
    dispatch`` exactly -- the decomposition request-scoped tracing and
    the report's latency breakdown are built on.
    """

    segment: int
    device: int
    comm_s: float
    stall_s: float
    start_s: float
    end_s: float

    @property
    def service_s(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class InFlightBatch:
    """A dispatched batch whose completion the fleet clock has not passed."""

    dispatch_s: float
    completion_s: float
    requests: list[Request]
    exits: np.ndarray
    #: This batch's ordinal on its replica (1-based, dispatch order).
    batch_index: int = 0
    #: Per-segment timing detail, in chain order.
    segments: tuple[SegmentTiming, ...] = ()

    @property
    def comm_s(self) -> float:
        """Total boundary-hop seconds across the chain."""
        return sum(s.comm_s for s in self.segments)

    @property
    def stall_s(self) -> float:
        """Total device-busy wait after data arrival (queueing mid-chain)."""
        return sum(s.stall_s for s in self.segments)

    @property
    def compute_s(self) -> float:
        """Total device service seconds across the chain."""
        return sum(s.service_s for s in self.segments)


@dataclass
class ReplicaStats:
    """Counters one replica accumulates over its lifetime."""

    n_completed: int = 0
    n_shed: int = 0
    n_failed_over: int = 0
    n_batches: int = 0
    exit_counts: list[int] = field(default_factory=list)
    correct_sum: int = 0
    scored: int = 0


class CascadeReplica:
    """A sharded cascade server: bounded queue, pipelined segment chain."""

    def __init__(
        self,
        replica_id: int,
        cluster: Cluster,
        plan: CascadeShardPlan,
        route_cache: RouteCache,
        batcher: AdaptiveBatcher,
        queue_depth: int,
        sample_bytes: int,
        origin: str = "initial",
        spawned_s: float = 0.0,
    ):
        if len(plan.placement) != route_cache.num_exits:
            raise ConfigError("shard plan and route cache disagree on exits")
        for d in plan.placement:
            if not 0 <= d < len(cluster):
                raise ConfigError(f"shard plan references unknown device {d}")
        self.replica_id = replica_id
        self.cluster = cluster
        self.plan = plan
        self.route_cache = route_cache
        self.batcher = batcher
        self.queue_depth = queue_depth
        self.sample_bytes = sample_bytes
        self.origin = origin
        self.spawned_s = spawned_s
        self.state = LIVE
        self.first_device = plan.placement[0]
        self.pending: deque[Request] = deque()
        self.in_flight: deque[InFlightBatch] = deque()
        #: Requests inside ``in_flight`` (maintained, see module docstring).
        self.in_flight_requests = 0
        #: Cached :meth:`next_dispatch_s` (maintained, see module docstring).
        self.next_dispatch = float("inf")
        self.dev_free = [spawned_s] * len(cluster)
        self.stats = ReplicaStats(exit_counts=[0] * route_cache.num_exits)
        #: Online refinement of the plan's predicted batch seconds
        #: (perf4sight-style observed/predicted EWMA); the latency-aware
        #: router multiplies the seed prediction by this coefficient.
        self.latency_coeff = 1.0
        self.ewma_alpha = 0.4
        self.retired_s: float | None = None

    # -- queue state --------------------------------------------------------
    @property
    def load(self) -> int:
        """Requests owned but not completed: queued plus in flight."""
        return len(self.pending) + self.in_flight_requests

    @property
    def accepts_requests(self) -> bool:
        return self.state == LIVE and len(self.pending) < self.queue_depth

    def admit(self, request: Request) -> None:
        if not self.accepts_requests:
            raise ConfigError(f"replica {self.replica_id} cannot admit")
        self.pending.append(request)
        # The head or the cap-vs-deadline branch changes only here.
        n = len(self.pending)
        if n == 1 or n == self.batcher.batch_cap:
            self.refresh_next_dispatch()

    # -- dispatch schedule --------------------------------------------------
    def refresh_next_dispatch(self) -> None:
        self.next_dispatch = self.next_dispatch_s()

    def next_dispatch_s(self) -> float:
        """When the head batch would dispatch, given the current queue.

        Mirrors the single-server policy: a queue at or past the batch
        cap goes as soon as the entry device frees up; a partial batch
        waits out the head request's deadline.
        """
        if not self.pending or self.state in (FAILED, RETIRED):
            return float("inf")
        start, deadline = self.batcher.window(
            self.pending[0], self.dev_free[self.first_device]
        )
        if len(self.pending) >= self.batcher.batch_cap:
            return start
        return deadline

    def predicted_finish_s(self, now: float) -> float:
        """The latency-aware router's estimate for one more request.

        Entry-device availability plus the backlog ahead of the newcomer,
        each backlog batch priced at the refined per-batch prediction.
        """
        queued = len(self.pending) or 1
        backlog = len(self.in_flight) + -(-queued // self.batcher.batch_cap)
        per_batch = self.plan.predicted_batch_s * self.latency_coeff
        free = self.dev_free[self.first_device]
        return (free if free > now else now) + backlog * per_batch

    # -- service ------------------------------------------------------------
    def apply_scale(self, factor: float) -> None:
        """Perturb every device sim (slowdown/spike on this replica)."""
        for device in self.cluster:
            device.sim.perturb(factor)

    def serve_batch(self, requests: list[Request], dispatch_s: float) -> InFlightBatch:
        """Charge one batch through the segment chain; record it in flight.

        Returns the in-flight entry (completion still pending on the
        fleet clock).  Only segments some sample actually reaches are
        dispatched, and only their reaching samples are charged --
        exactly the cascade cost model's accounting, split per device.
        """
        cache = self.route_cache
        exits = cache.exit_of_sample[[r.sample_index for r in requests]]
        reach = cache.reach_counts(exits)
        t = dispatch_s
        prev_device: int | None = None
        segments: list[SegmentTiming] = []
        for k, n_reach in enumerate(reach):
            if n_reach <= 0:
                break
            d = self.plan.placement[k]
            comm = 0.0
            if prev_device is not None and d != prev_device:
                comm = self.cluster.charge_transfer(
                    prev_device, d, self.plan.boundary_bytes[k - 1] * n_reach
                )
                t += comm
            flops, kernels, in_bytes = self._segment_charge(k, n_reach, len(requests))
            start = max(t, self.dev_free[d])
            service = self.cluster[d].sim.add_serving_batch(flops, in_bytes, kernels)
            segments.append(SegmentTiming(
                segment=k, device=d, comm_s=comm, stall_s=start - t,
                start_s=start, end_s=start + service,
            ))
            t = start + service
            self.dev_free[d] = t
            prev_device = d
        batch = InFlightBatch(
            dispatch_s=dispatch_s, completion_s=t, requests=requests,
            exits=exits, batch_index=self.stats.n_batches + 1,
            segments=tuple(segments),
        )
        self.in_flight.append(batch)
        self.in_flight_requests += len(requests)
        self.stats.n_batches += 1
        # Refine the router coefficient from the observed batch time.
        observed = t - dispatch_s
        if self.plan.predicted_batch_s > 0:
            ratio = observed / self.plan.predicted_batch_s
            self.latency_coeff += self.ewma_alpha * (ratio - self.latency_coeff)
        self.refresh_next_dispatch()
        return batch

    def _segment_charge(
        self, k: int, n_reach: int, batch_size: int
    ) -> tuple[int, int, int]:
        """(flops, kernels, staged input bytes) for segment ``k``.

        Cascade/shallow-only charge head ``k`` for every reaching sample
        (``segment_flops`` folds the head in); ``deepest-only`` runs
        every segment but scores only the last head, so intermediate
        segments shed their head's cost.
        """
        plan = self.plan
        flops = plan.segment_flops[k] * n_reach
        kernels = plan.segment_kernels[k]
        if (
            self.route_cache.mode == "deepest-only"
            and k < plan.num_segments - 1
            and plan.head_flops
        ):
            # segment_flops folds the head in; deepest-only skips every
            # intermediate head, so peel its share back off.
            flops -= plan.head_flops[k] * n_reach
            kernels -= plan.head_kernels[k]
        in_bytes = self.sample_bytes * batch_size if k == 0 else 0
        return flops, kernels, in_bytes

    # -- completion / failover ----------------------------------------------
    def commit_completions(self, now: float) -> list[InFlightBatch]:
        """Pop and tally every in-flight batch completed by ``now``."""
        done: list[InFlightBatch] = []
        while self.in_flight and self.in_flight[0].completion_s <= now:
            batch = self.in_flight.popleft()
            self.in_flight_requests -= len(batch.requests)
            self._tally(batch)
            done.append(batch)
        return done

    def _tally(self, batch: InFlightBatch) -> None:
        stats = self.stats
        stats.n_completed += len(batch.requests)
        exit_counts = stats.exit_counts
        for e in batch.exits.tolist():
            exit_counts[e] += 1
        correct = self.route_cache.correct_of_sample
        if correct is not None:
            idx = [r.sample_index for r in batch.requests]
            stats.correct_sum += int(np.count_nonzero(correct[idx]))
            stats.scored += len(idx)

    def fail(self, now: float) -> list[Request]:
        """Kill the replica at ``now``; return the requests needing rescue.

        Batches already completed by ``now`` commit normally; batches
        still in flight lose their work, and their requests -- plus the
        whole pending queue -- are handed back for re-admission
        elsewhere (arrival times preserved, so failover inflates their
        measured latency rather than resetting it).
        """
        self.commit_completions(now)
        stranded: list[Request] = []
        for batch in self.in_flight:
            stranded.extend(batch.requests)
        stranded.extend(self.pending)
        self.in_flight.clear()
        self.in_flight_requests = 0
        self.pending.clear()
        self.state = FAILED
        self.retired_s = now
        self.refresh_next_dispatch()
        return stranded

    def start_draining(self, now: float) -> None:
        if self.state == LIVE:
            self.state = DRAINING

    def maybe_retire(self, now: float) -> bool:
        """A draining replica with nothing left retires (scale-down)."""
        if self.state == DRAINING and not self.pending and not self.in_flight:
            self.state = RETIRED
            self.retired_s = now
            self.refresh_next_dispatch()
            return True
        return False

    # -- accounting ----------------------------------------------------------
    @property
    def platform_names(self) -> list[str]:
        return [d.platform.name for d in self.cluster]

    @property
    def busy_s(self) -> float:
        return self.cluster.total_elapsed

    def ledgers(self) -> list[dict[str, float]]:
        return [d.sim.ledger.as_dict() for d in self.cluster]
