"""The N-replica fleet simulator: routing, churn, autoscaling, drain.

A discrete-event loop over three deterministic event sources, processed
in clock order with a fixed tie-break (schedule events, then arrivals,
then dispatches; replica id breaks dispatch ties):

* **arrivals** stream lazily from :func:`repro.serving.iter_requests`
  (a million-request trace never materializes);
* **schedule events** replay a :class:`~repro.runtime.EventSchedule`
  with ``event.device`` read as a *replica* index: slowdowns and spikes
  perturb every device sim of that replica, ``DeviceFailure`` kills it
  (in-flight work is drained and re-admitted, never dropped silently),
  ``DeviceJoin`` spawns a fresh single-device replica;
* **dispatches** fire per replica under the single-server batching
  policy (cap-or-deadline), serving each batch down the replica's
  sharded segment chain.

The reactive autoscaler rides the arrival path: sustained queue
pressure spawns template replicas (up to ``max_replicas``), idle
autoscaled replicas drain and retire.  Every request's outcome is
accounted -- completed, rejected, or shed -- and the report's
``accounting`` block proves the invariant.

Host cost per event is independent of how much derived state there is:
nothing derived is recomputed per request.  The simulator owns ``live``
and ``serving`` -- the state filters over ``self.replicas``, in id order
-- and rebuilds them (:meth:`FleetSimulator._reindex`) only where a
replica changes state: ``_spawn``, ``fail``, ``start_draining`` and a
``maybe_retire`` that returns True.  Each replica owns its cached
``next_dispatch`` clock and ``load`` counter (refresh points in
:mod:`repro.fleet.replica`), so picking the next dispatch is a min over
at most N floats.  At every loop turn ``live``/``serving`` equal their
filters and every ``replica.next_dispatch == replica.next_dispatch_s()``
-- the invariant ``tests/test_fleet_cached_state.py`` steps through.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.fleet.replica import (
    DRAINING,
    FAILED,
    LIVE,
    CascadeReplica,
    RouteCache,
)
from repro.fleet.report import FleetReport, ReplicaSummary
from repro.fleet.router import FleetRouter
from repro.fleet.sharding import (
    CascadeShardPlan,
    plan_cascade_shards,
    single_device_plan,
)
from repro.obs.trace import active_tracer
from repro.runtime.events import (
    DeviceFailure,
    DeviceJoin,
    DeviceSlowdown,
    EventSchedule,
    LoadSpike,
    SchedulePlayer,
)
from repro.serving.batcher import AdaptiveBatcher
from repro.serving.cascade import CascadeCostModel, CascadeRouter
from repro.serving.server import ServerConfig
from repro.serving.workload import WorkloadSpec, iter_requests

#: Samples routed per chunk when precomputing the route cache -- bounds
#: activation memory without changing any per-sample decision.
ROUTE_CHUNK = 512


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-level knobs (the JobSpec ``fleet`` section's runtime shape)."""

    n_replicas: int = 2
    policy: str = "latency-aware"
    autoscale: bool = False
    max_replicas: int = 4
    scale_up_at: float = 0.75
    scale_down_at: float = 0.05
    cooldown_s: float = 0.25

    def __post_init__(self) -> None:
        if self.n_replicas < 1:
            raise ConfigError("n_replicas must be >= 1")
        if self.max_replicas < self.n_replicas:
            raise ConfigError("max_replicas must be >= n_replicas")
        if not 0.0 < self.scale_up_at <= 1.0:
            raise ConfigError("scale_up_at must be in (0, 1]")
        if not 0.0 <= self.scale_down_at < self.scale_up_at:
            raise ConfigError("scale_down_at must be in [0, scale_up_at)")
        if self.cooldown_s < 0:
            raise ConfigError("cooldown_s must be non-negative")


class FleetSimulator:
    """Drives N sharded replicas through one workload plus churn."""

    def __init__(
        self,
        route_cache: RouteCache,
        plan: CascadeShardPlan,
        template_factory,
        single_factory,
        workload: WorkloadSpec,
        server_config: ServerConfig,
        fleet: FleetConfig,
        schedule: EventSchedule | None = None,
        sample_bytes: int = 0,
    ):
        self.route_cache = route_cache
        self.plan = plan
        self.template_factory = template_factory
        self.single_factory = single_factory
        self.workload = workload
        self.server_config = server_config
        self.fleet = fleet
        self.schedule = schedule
        self.sample_bytes = sample_bytes
        self.batcher = AdaptiveBatcher(
            server_config.batch_cap, server_config.max_wait_s
        )
        self.replicas: list[CascadeReplica] = []
        #: ``replicas`` filtered to LIVE / to LIVE-or-DRAINING (still
        #: dispatching), id order; rebuilt by :meth:`_reindex` only.
        self.live: list[CascadeReplica] = []
        self.serving: list[CascadeReplica] = []
        self._next_id = 0
        self.report = FleetReport(
            pattern=workload.pattern,
            arrival_rate=workload.arrival_rate,
            duration_s=workload.duration_s,
            mode=route_cache.mode,
            num_exits=route_cache.num_exits,
            policy=fleet.policy,
            n_replicas_initial=fleet.n_replicas,
            predicted_batch_s=plan.predicted_batch_s,
        )
        self._last_scale_s = float("-inf")
        #: Router-admit instants by request id (tracing only): the flow
        #: source linking a request's routing decision to its lifecycle
        #: span when the batch lands.
        self._admit_spans: dict[int, object] = {}

    # -- replica lifecycle ---------------------------------------------------
    def _spawn(
        self, cluster, plan: CascadeShardPlan, origin: str, now: float
    ) -> CascadeReplica:
        replica = CascadeReplica(
            replica_id=self._next_id,
            cluster=cluster,
            plan=plan,
            route_cache=self.route_cache,
            batcher=self.batcher,
            queue_depth=self.server_config.queue_depth,
            sample_bytes=self.sample_bytes,
            origin=origin,
            spawned_s=now,
        )
        self._next_id += 1
        self.replicas.append(replica)
        self._reindex()
        return replica

    def _reindex(self) -> None:
        """Rebuild ``live``/``serving`` after a replica changed state."""
        self.live = [r for r in self.replicas if r.state == LIVE]
        self.serving = [r for r in self.replicas if r.state in (LIVE, DRAINING)]

    def _retire_drained(self, now: float, tracer) -> None:
        """Retire every draining replica that has nothing left."""
        if len(self.serving) == len(self.live):
            return  # nobody is draining
        for replica in self.serving:
            if replica.maybe_retire(now):
                self._reindex()
                self._log_scale("retire", replica.replica_id, now, tracer)

    # -- main loop -----------------------------------------------------------
    def run(self) -> FleetReport:
        tracer = active_tracer()
        player = SchedulePlayer(self.schedule)
        pending_event_times = [e.time_s for e in self.schedule] if self.schedule else []
        for _ in range(self.fleet.n_replicas):
            self._spawn(self.template_factory(), self.plan, "initial", 0.0)
        router = FleetRouter(self.fleet.policy)

        n_samples = len(self.route_cache.exit_of_sample)
        arrivals = iter_requests(self.workload, n_samples)
        next_req = next(arrivals, None)
        now = 0.0
        inf = float("inf")

        while True:
            t_evt = pending_event_times[0] if pending_event_times else inf
            t_arr = next_req.arrival_s if next_req is not None else inf
            t_disp = inf
            disp_replica: CascadeReplica | None = None
            for replica in self.serving:
                t = replica.next_dispatch
                if t < now:
                    t = now
                if t < t_disp:
                    t_disp = t
                    disp_replica = replica
            if t_evt == t_arr == t_disp == inf:
                break

            if t_evt <= t_arr and t_evt <= t_disp:
                now = max(now, t_evt)
                self._commit(now, tracer)
                while pending_event_times and pending_event_times[0] <= now:
                    pending_event_times.pop(0)
                for event in player.due(now):
                    self._apply_event(event, player, router, now, tracer)
                continue

            if t_arr <= t_disp:
                now = max(now, t_arr)
                self._commit(now, tracer)
                self._admit(next_req, player, router, now, tracer)
                next_req = next(arrivals, None)
                continue

            now = max(now, t_disp)
            self._commit(now, tracer)
            self._dispatch(disp_replica, player, now, tracer)
            self._retire_drained(now, tracer)

        # Drain: the stream is over; let every in-flight batch land.
        self._commit(inf, tracer)
        for replica in self.serving:
            replica.maybe_retire(self.report.last_completion_s)
        self._reindex()
        return self._finalize()

    # -- event handling ------------------------------------------------------
    def _apply_event(
        self,
        event,
        player: SchedulePlayer,
        router: FleetRouter,
        now: float,
        tracer,
    ) -> None:
        report = self.report
        if isinstance(event, (DeviceSlowdown, LoadSpike)):
            entry = {
                "time_s": event.time_s,
                "kind": event.kind,
                "replica": event.device,
                "factor": event.factor,
            }
            report.events_applied.append(entry)
            if tracer is not None:
                tracer.instant(
                    f"{event.kind}-r{event.device}", "fleet-event", "fleet",
                    now, {"factor": event.factor},
                )
        elif isinstance(event, DeviceFailure):
            report.events_applied.append(
                {"time_s": event.time_s, "kind": "failure", "replica": event.device}
            )
            self._fail_replica(event.device, player, router, now, tracer)
        elif isinstance(event, DeviceJoin):
            cluster, plan = self.single_factory(event.platform, event.memory_budget)
            replica = self._spawn(cluster, plan, "join", now)
            report.events_applied.append(
                {
                    "time_s": event.time_s,
                    "kind": "join",
                    "replica": replica.replica_id,
                    "platform": event.platform,
                }
            )
            if tracer is not None:
                tracer.instant(
                    f"join-r{replica.replica_id}", "fleet-event", "fleet",
                    now, {"platform": event.platform},
                )

    def _fail_replica(
        self,
        replica_id: int,
        player: SchedulePlayer,
        router: FleetRouter,
        now: float,
        tracer,
    ) -> None:
        target = next(
            (r for r in self.serving if r.replica_id == replica_id), None
        )
        if target is None:
            return
        stranded = target.fail(now)
        self._reindex()
        self.report.n_failures += 1
        if tracer is not None:
            tracer.instant(
                f"failure-r{replica_id}", "fleet-event",
                f"replica{replica_id}", now, {"stranded": len(stranded)},
            )
        # Drain + re-admit: stranded requests keep their original arrival
        # times, so failover shows up as tail latency, not lost work.
        survivors = self.live
        rescued = 0
        for request in stranded:
            choice = router.pick(survivors, now) if survivors else None
            if choice is None:
                target.stats.n_shed += 1
                self.report.n_shed += 1
                if tracer is not None:
                    # A shed request never commits: drop its flow source.
                    self._admit_spans.pop(request.request_id, None)
                    tracer.instant(
                        f"shed-req{request.request_id}", "fleet-event",
                        f"replica{replica_id}", now, None,
                    )
                continue
            choice.admit(request)
            rescued += 1
        target.stats.n_failed_over += rescued
        self.report.n_failed_over += rescued
        if not self.live:
            # Extinction with work still owed: the run is a DNF unless a
            # later join/autoscale revives the fleet before arrivals end.
            self.report.dnf = True

    # -- admission / autoscaling --------------------------------------------
    def _admit(
        self,
        request,
        player: SchedulePlayer,
        router: FleetRouter,
        now: float,
        tracer,
    ) -> None:
        report = self.report
        report.n_offered += 1
        live = self.live
        choice = router.pick(live, now)
        if choice is None and self._can_scale_up(now):
            choice = self._scale_up(now, tracer)
        if choice is None:
            report.n_rejected += 1
            if tracer is not None:
                tracer.instant(
                    f"reject-req{request.request_id}", "fleet-event", "fleet",
                    now, {"live_replicas": len(live)},
                )
            return
        choice.admit(request)
        if tracer is not None:
            # The router's decision point: one instant per admitted
            # request, flow-linked to its lifecycle span at commit time.
            self._admit_spans[request.request_id] = tracer.instant(
                f"admit-req{request.request_id}", "fleet-router", "router",
                now,
                {"request_id": request.request_id,
                 "replica": choice.replica_id},
            )
        if self.fleet.autoscale:
            self._autoscale_tick(now, tracer)

    def _occupancy(self) -> float:
        live = self.live
        if not live:
            return 1.0
        queued = 0
        for replica in live:
            queued += len(replica.pending)
        return queued / (len(live) * self.server_config.queue_depth)

    def _can_scale_up(self, now: float) -> bool:
        return (
            self.fleet.autoscale
            and len(self.live) < self.fleet.max_replicas
            and now - self._last_scale_s >= self.fleet.cooldown_s
        )

    def _scale_up(self, now: float, tracer) -> CascadeReplica:
        replica = self._spawn(self.template_factory(), self.plan, "autoscale", now)
        self._last_scale_s = now
        self._log_scale("scale-up", replica.replica_id, now, tracer)
        return replica

    def _autoscale_tick(self, now: float, tracer) -> None:
        occupancy = self._occupancy()
        if occupancy > self.fleet.scale_up_at and self._can_scale_up(now):
            self._scale_up(now, tracer)
            return
        if occupancy >= self.fleet.scale_down_at:
            return
        if now - self._last_scale_s < self.fleet.cooldown_s:
            return
        # Drain the newest autoscaled replica; initial and joined
        # replicas are never scaled down (the schedule owns their fate).
        for replica in reversed(self.live):
            if replica.origin == "autoscale":
                replica.start_draining(now)
                self._reindex()
                self._last_scale_s = now
                self._log_scale("scale-down", replica.replica_id, now, tracer)
                return

    def _log_scale(self, kind: str, replica_id: int, now: float, tracer) -> None:
        self.report.scale_events.append(
            {"time_s": now, "kind": kind, "replica": replica_id}
        )
        if tracer is not None:
            tracer.instant(f"{kind}-r{replica_id}", "fleet-scale", "fleet", now, None)

    # -- dispatch / completion ----------------------------------------------
    def _dispatch(
        self, replica: CascadeReplica, player: SchedulePlayer, now: float, tracer
    ) -> None:
        # Refresh the replica's perturbation scale at the dispatch edge:
        # active slowdown/spike windows multiply; expiry restores 1.0.
        scales = player.scales(now)
        replica.apply_scale(scales.get(replica.replica_id, 1.0))
        plan = self.batcher.take(replica.pending, now)
        replica.serve_batch(plan.requests, plan.dispatch_s)

    def _commit(self, now: float, tracer) -> None:
        """Land every completion the clock has passed, in replica order."""
        report = self.report
        # Failed and retired replicas hold nothing in flight.
        for replica in self.serving:
            in_flight = replica.in_flight
            if not in_flight or in_flight[0].completion_s > now:
                continue
            for batch in replica.commit_completions(now):
                requests = batch.requests
                report.n_completed += len(requests)
                # Exact per-request decomposition: time-to-dispatch plus
                # mid-chain device stalls are queueing, hops are comm,
                # service is compute -- the three sum to the latency.
                stall = batch.stall_s
                dispatch = batch.dispatch_s
                completion = batch.completion_s
                report.latencies.extend(
                    [completion - r.arrival_s for r in requests]
                )
                report.queue_seconds.extend(
                    [dispatch - r.arrival_s + stall for r in requests]
                )
                report.compute_seconds.extend([batch.compute_s] * len(requests))
                report.comm_seconds.extend([batch.comm_s] * len(requests))
                if completion > report.last_completion_s:
                    report.last_completion_s = completion
                if tracer is not None:
                    self._trace_batch(replica, batch, tracer)

    def _trace_batch(self, replica: CascadeReplica, batch, tracer) -> None:
        """Emit one committed batch's spans: batch, segments, requests.

        Per-device segment spans land on ``r<id>-dev<d>`` tracks (device
        occupancy is exclusive there, so they are ``complete`` spans),
        chained by flow arrows per boundary hop; each request gets an
        async lifecycle span on the shared ``requests`` track carrying
        its queue/compute/comm split, flow-linked from its router-admit
        instant.
        """
        rid = replica.replica_id
        bi = batch.batch_index
        tracer.add_span(
            f"r{rid}-b{bi}",
            "fleet-batch",
            f"replica{rid}",
            batch.dispatch_s,
            batch.completion_s,
            attrs={
                "batch_size": len(batch.requests),
                "max_exit": int(batch.exits.max()),
            },
            kind="async",
        )
        prev_span = None
        for seg in batch.segments:
            span = tracer.add_span(
                f"r{rid}-b{bi}-seg{seg.segment}",
                "fleet-segment",
                f"r{rid}-dev{seg.device}",
                seg.start_s,
                seg.end_s,
                attrs={
                    "batch": bi,
                    "segment": seg.segment,
                    "comm_s": round(seg.comm_s, 9),
                    "stall_s": round(seg.stall_s, 9),
                },
            )
            if prev_span is not None:
                tracer.add_flow(f"r{rid}-b{bi}-hop{seg.segment}", prev_span, span)
            prev_span = span
        stall = batch.stall_s
        compute = batch.compute_s
        comm = batch.comm_s
        for i, request in enumerate(batch.requests):
            req_span = tracer.add_span(
                f"req{request.request_id}",
                "fleet-request",
                "requests",
                request.arrival_s,
                batch.completion_s,
                attrs={
                    "request_id": request.request_id,
                    "replica": rid,
                    "batch": bi,
                    "queue_s": round(
                        batch.dispatch_s - request.arrival_s + stall, 9
                    ),
                    "compute_s": round(compute, 9),
                    "comm_s": round(comm, 9),
                    "exit": int(batch.exits[i]),
                },
                kind="async",
            )
            admit = self._admit_spans.pop(request.request_id, None)
            if admit is not None:
                tracer.add_flow(
                    f"route-req{request.request_id}", admit, req_span
                )

    # -- wrap-up -------------------------------------------------------------
    def _finalize(self) -> FleetReport:
        report = self.report
        for replica in self.replicas:
            stats = replica.stats
            report.correct_sum += stats.correct_sum
            report.scored += stats.scored
            report.replicas.append(
                ReplicaSummary(
                    replica_id=replica.replica_id,
                    origin=replica.origin,
                    state=replica.state,
                    platforms=replica.platform_names,
                    placement=list(replica.plan.placement),
                    spawned_s=replica.spawned_s,
                    retired_s=replica.retired_s,
                    n_completed=stats.n_completed,
                    n_shed=stats.n_shed,
                    n_failed_over=stats.n_failed_over,
                    n_batches=stats.n_batches,
                    busy_s=replica.busy_s,
                    exit_counts=list(stats.exit_counts),
                )
            )
            report.device_ledgers.extend(replica.ledgers())
        if self.report.dnf and self.live:
            # A join or autoscale replica revived the fleet after
            # extinction; the run still carries the DNF scar only if
            # requests went unserved while it was down, which the
            # shed/reject counters already record.  Keep dnf True only
            # when the fleet *ended* dead or shed its way through.
            if report.n_shed == 0 and report.n_rejected == 0:
                report.dnf = False
        return report


def simulate_fleet(
    system,
    workload: WorkloadSpec,
    cluster_names: list[str],
    memory_budgets: list[int | None] | None = None,
    fleet: FleetConfig | None = None,
    server_config: ServerConfig | None = None,
    exit_layers: list[int] | None = None,
    threshold: float | list[float] = 0.7,
    mode: str = "cascade",
    schedule: EventSchedule | None = None,
) -> FleetReport:
    """Serve a trained system on an N-replica sharded fleet.

    Builds the multi-exit model, precomputes the per-sample route cache
    against the held-out test split, optimizes the cascade shard map for
    the replica cluster shape, and runs the fleet simulator under the
    workload plus optional churn schedule.
    """
    fleet = fleet if fleet is not None else FleetConfig()
    server_config = server_config if server_config is not None else ServerConfig()
    model = system.build_multi_exit_model(exit_layers)
    router = CascadeRouter(model, threshold=threshold, mode=mode)
    try:
        route_cache = build_route_cache(
            router, system.data.x_test, system.data.y_test
        )
    finally:
        # The route cache is the model's only forward pass: drop the
        # scratch the router attached before the event loop, which only
        # reads the cache.
        model.detach_workspace()
    cost_model = CascadeCostModel(
        model, system.model.in_channels, system.model.input_hw
    )
    sample_bytes = system.data.spec.sample_bytes
    budgets = (
        list(memory_budgets)
        if memory_budgets is not None
        else [None] * len(cluster_names)
    )

    from repro.parallel.cluster import Cluster

    def template_factory():
        return Cluster.from_names(cluster_names, memory_budget=budgets)

    plan = plan_cascade_shards(
        model,
        cost_model,
        template_factory(),
        batch=server_config.batch_cap,
        sample_bytes=sample_bytes,
    )

    def single_factory(platform_name: str, memory_budget: int | None):
        cluster = Cluster.from_names(
            [platform_name], memory_budget=[memory_budget]
        )
        single = single_device_plan(
            model, cost_model, cluster,
            batch=server_config.batch_cap, sample_bytes=sample_bytes,
        )
        return cluster, single

    simulator = FleetSimulator(
        route_cache=route_cache,
        plan=plan,
        template_factory=template_factory,
        single_factory=single_factory,
        workload=workload,
        server_config=server_config,
        fleet=fleet,
        schedule=schedule,
        sample_bytes=sample_bytes,
    )
    return simulator.run()


def build_route_cache(
    router: CascadeRouter, x: np.ndarray, y: np.ndarray | None
) -> RouteCache:
    """Route the whole sample bank once; cache per-sample outcomes.

    Cascade routing is per-sample deterministic (eval-mode model, no
    batch interactions), so chunked precomputation is exact: a fleet
    serving a million requests against a 10k bank reruns nothing.
    """
    exits = np.zeros(len(x), dtype=np.int64)
    correct = np.zeros(len(x), dtype=bool) if y is not None else None
    for lo in range(0, len(x), ROUTE_CHUNK):
        hi = min(lo + ROUTE_CHUNK, len(x))
        routed = router.route(x[lo:hi])
        exits[lo:hi] = routed.exit_indices
        if correct is not None:
            correct[lo:hi] = routed.predictions == y[lo:hi]
    return RouteCache(
        exit_of_sample=exits,
        correct_of_sample=correct,
        num_exits=router.model.num_exits,
        mode=router.mode,
    )
