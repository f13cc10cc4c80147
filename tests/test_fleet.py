"""Unit tests for the fleet building blocks: sharding, router, replica."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, SpecError
from repro.fleet import (
    DRAINING,
    FAILED,
    LIVE,
    RETIRED,
    CascadeReplica,
    CascadeShardPlan,
    FleetRouter,
    ROUTER_POLICIES,
    RouteCache,
    plan_cascade_shards,
    single_device_plan,
)
from repro.parallel.cluster import Cluster
from repro.serving.batcher import AdaptiveBatcher
from repro.serving.cascade import CascadeCostModel
from repro.serving.workload import Request


@pytest.fixture(scope="module")
def exit_model(served_system):
    model = served_system.build_multi_exit_model()
    yield model
    model.detach_workspace()


@pytest.fixture(scope="module")
def cost_model(served_system, exit_model):
    return CascadeCostModel(
        exit_model, served_system.model.in_channels, served_system.model.input_hw
    )


def _edge_cluster():
    return Cluster.from_names(["nano", "xavier-nx", "agx-orin"])


SAMPLE_BYTES = 3 * 16 * 16 * 4


class TestSharding:
    def test_plan_covers_every_segment(self, exit_model, cost_model):
        cluster = _edge_cluster()
        plan = plan_cascade_shards(
            exit_model, cost_model, cluster, batch=8, sample_bytes=SAMPLE_BYTES
        )
        assert plan.num_segments == exit_model.num_exits
        assert all(0 <= d < len(cluster) for d in plan.placement)
        assert len(plan.boundary_bytes) == exit_model.num_exits - 1
        assert all(b > 0 for b in plan.boundary_bytes)
        assert plan.predicted_batch_s > 0
        assert all(r > 0 for r in plan.residency_bytes)

    def test_plan_deterministic(self, exit_model, cost_model):
        a = plan_cascade_shards(
            exit_model, cost_model, _edge_cluster(), batch=8,
            sample_bytes=SAMPLE_BYTES,
        )
        b = plan_cascade_shards(
            exit_model, cost_model, _edge_cluster(), batch=8,
            sample_bytes=SAMPLE_BYTES,
        )
        assert a.placement == b.placement
        assert a.predicted_batch_s == b.predicted_batch_s

    def test_head_split_recorded(self, exit_model, cost_model):
        plan = plan_cascade_shards(
            exit_model, cost_model, _edge_cluster(), batch=8,
            sample_bytes=SAMPLE_BYTES,
        )
        assert len(plan.head_flops) == plan.num_segments
        # The folded segment cost strictly contains its head's share.
        for seg, head in zip(plan.segment_flops, plan.head_flops):
            assert 0 < head < seg

    def test_single_device_plan_stays_home(self, exit_model, cost_model):
        cluster = Cluster.from_names(["agx-orin"])
        plan = single_device_plan(
            exit_model, cost_model, cluster, batch=8, sample_bytes=SAMPLE_BYTES
        )
        assert set(plan.placement) == {0}
        assert plan.predicted_batch_s > 0

    def test_sharded_beats_single_weak_device(self, exit_model, cost_model):
        """Sharding onto a heterogeneous cluster must not be priced worse
        than serving the whole cascade on the weakest device alone."""
        sharded = plan_cascade_shards(
            exit_model, cost_model, _edge_cluster(), batch=8,
            sample_bytes=SAMPLE_BYTES,
        )
        nano_only = single_device_plan(
            exit_model, cost_model, Cluster.from_names(["nano"]), batch=8,
            sample_bytes=SAMPLE_BYTES,
        )
        assert sharded.predicted_batch_s <= nano_only.predicted_batch_s

    def test_rejects_degenerate_batch(self, exit_model, cost_model):
        with pytest.raises(ConfigError, match="batch"):
            plan_cascade_shards(
                exit_model, cost_model, _edge_cluster(), batch=0,
                sample_bytes=SAMPLE_BYTES,
            )


class TestRouteCache:
    def test_reach_counts(self):
        cache = RouteCache(
            exit_of_sample=np.array([0, 2, 1, 2]),
            correct_of_sample=None,
            num_exits=3,
            mode="cascade",
        )
        exits = cache.exit_of_sample[[0, 1, 2, 3]]
        # Everyone enters segment 0; exits >= 1 -> 3 samples; >= 2 -> 2.
        assert cache.reach_counts(exits) == [4, 3, 2]

    def test_reach_counts_deepest_only_shape(self):
        cache = RouteCache(
            exit_of_sample=np.array([2, 2, 2]),
            correct_of_sample=None,
            num_exits=3,
            mode="deepest-only",
        )
        assert cache.reach_counts(cache.exit_of_sample) == [3, 3, 3]


def _toy_plan(n_devices=2, n_exits=3):
    return CascadeShardPlan(
        placement=tuple(min(k, n_devices - 1) for k in range(n_exits)),
        predicted_batch_s=0.001,
        boundary_bytes=tuple(1024 for _ in range(n_exits - 1)),
        segment_flops=tuple(10_000 for _ in range(n_exits)),
        segment_kernels=tuple(4 for _ in range(n_exits)),
        residency_bytes=tuple(2048 for _ in range(n_exits)),
        head_flops=tuple(1_000 for _ in range(n_exits)),
        head_kernels=tuple(1 for _ in range(n_exits)),
    )


def _toy_replica(replica_id=0, mode="cascade", queue_depth=8, n_exits=3):
    cache = RouteCache(
        exit_of_sample=np.arange(16) % n_exits,
        correct_of_sample=np.ones(16, dtype=bool),
        num_exits=n_exits,
        mode=mode,
    )
    return CascadeReplica(
        replica_id=replica_id,
        cluster=Cluster.from_names(["nano", "agx-orin"]),
        plan=_toy_plan(),
        route_cache=cache,
        batcher=AdaptiveBatcher(batch_cap=4, max_wait_s=0.002),
        queue_depth=queue_depth,
        sample_bytes=SAMPLE_BYTES,
    )


def _req(i, t=0.0):
    return Request(request_id=i, arrival_s=t, sample_index=i % 16)


class TestReplica:
    def test_admission_respects_queue_depth(self):
        replica = _toy_replica(queue_depth=2)
        replica.admit(_req(0))
        replica.admit(_req(1))
        assert not replica.accepts_requests
        with pytest.raises(ConfigError, match="cannot admit"):
            replica.admit(_req(2))

    def test_serve_batch_charges_hop_to_communication(self):
        replica = _toy_replica()
        batch = replica.serve_batch([_req(i) for i in range(4)], dispatch_s=0.0)
        assert batch.completion_s > 0
        # placement (0, 1, 1): exactly one boundary crossing, charged to
        # the sender (device 0).
        assert replica.cluster[0].sim.ledger.communication > 0
        assert replica.cluster[1].sim.ledger.communication == 0

    def test_deepest_only_peels_intermediate_heads(self):
        cascade = _toy_replica(mode="cascade")
        deepest = _toy_replica(mode="deepest-only")
        flops_c, _, _ = cascade._segment_charge(0, n_reach=4, batch_size=4)
        flops_d, _, _ = deepest._segment_charge(0, n_reach=4, batch_size=4)
        assert flops_d == flops_c - 4 * cascade.plan.head_flops[0]
        # The last segment's head always runs.
        last = cascade.plan.num_segments - 1
        assert (
            deepest._segment_charge(last, 4, 4)
            == cascade._segment_charge(last, 4, 4)
        )

    def test_slowdown_stretches_service(self):
        fast = _toy_replica()
        slow = _toy_replica()
        slow.apply_scale(3.0)
        t_fast = fast.serve_batch([_req(0)], 0.0).completion_s
        t_slow = slow.serve_batch([_req(0)], 0.0).completion_s
        assert t_slow > t_fast

    def test_fail_returns_pending_and_in_flight(self):
        replica = _toy_replica()
        replica.serve_batch([_req(0), _req(1)], dispatch_s=0.0)
        replica.admit(_req(2))
        stranded = replica.fail(now=0.0)
        assert sorted(r.request_id for r in stranded) == [0, 1, 2]
        assert replica.state == FAILED
        assert not replica.pending and not replica.in_flight
        assert replica.next_dispatch_s() == float("inf")

    def test_fail_commits_already_completed_batches(self):
        replica = _toy_replica()
        batch = replica.serve_batch([_req(0)], dispatch_s=0.0)
        stranded = replica.fail(now=batch.completion_s + 1.0)
        assert stranded == []
        assert replica.stats.n_completed == 1

    def test_drain_then_retire(self):
        replica = _toy_replica()
        replica.admit(_req(0))
        replica.start_draining(0.0)
        assert replica.state == DRAINING
        assert not replica.accepts_requests
        assert not replica.maybe_retire(0.0)  # still holds work
        replica.pending.clear()
        assert replica.maybe_retire(1.0)
        assert replica.state == RETIRED
        assert replica.retired_s == 1.0

    def test_tally_scores_accuracy(self):
        replica = _toy_replica()
        batch = replica.serve_batch([_req(0), _req(1)], 0.0)
        replica.commit_completions(batch.completion_s)
        assert replica.stats.scored == 2
        assert replica.stats.correct_sum == 2
        assert sum(replica.stats.exit_counts) == 2

    def test_plan_cache_exit_mismatch_rejected(self):
        cache = RouteCache(
            exit_of_sample=np.zeros(4, dtype=int),
            correct_of_sample=None,
            num_exits=5,  # plan has 3 segments
            mode="cascade",
        )
        with pytest.raises(ConfigError, match="disagree"):
            CascadeReplica(
                replica_id=0,
                cluster=Cluster.from_names(["nano", "agx-orin"]),
                plan=_toy_plan(),
                route_cache=cache,
                batcher=AdaptiveBatcher(4, 0.002),
                queue_depth=8,
                sample_bytes=SAMPLE_BYTES,
            )


class TestOneDeviceReplicaMatchesCostModel:
    """A one-device replica is the single server: what it charges per
    segment must add up to the whole-batch reference,
    :meth:`CascadeCostModel.batch_cost` (``deepest_only_cost`` in
    ``deepest-only`` mode) -- FLOPs and kernel launches exactly."""

    @pytest.fixture(scope="class")
    def one_device_plan(self, exit_model, cost_model):
        return plan_cascade_shards(
            exit_model, cost_model, Cluster.from_names(["agx-orin"]),
            batch=8, sample_bytes=SAMPLE_BYTES,
        )

    def _charges(self, plan, mode, exits):
        """(flops, kernels, staged bytes) of every charge one batch books."""
        n_exits = len(plan.placement)
        cache = RouteCache(
            exit_of_sample=np.asarray(exits, dtype=np.int64),
            correct_of_sample=None,
            num_exits=n_exits,
            mode=mode,
        )
        replica = CascadeReplica(
            replica_id=0,
            cluster=Cluster.from_names(["agx-orin"]),
            plan=plan,
            route_cache=cache,
            batcher=AdaptiveBatcher(batch_cap=len(exits), max_wait_s=0.0),
            queue_depth=len(exits),
            sample_bytes=SAMPLE_BYTES,
        )
        sim = replica.cluster[0].sim
        charges = []
        charge = sim.add_serving_batch

        def recording(flops, in_bytes, n_kernels):
            charges.append((flops, n_kernels, in_bytes))
            return charge(flops, in_bytes, n_kernels)

        sim.add_serving_batch = recording
        requests = [
            Request(request_id=i, arrival_s=0.0, sample_index=i)
            for i in range(len(exits))
        ]
        batch = replica.serve_batch(requests, dispatch_s=0.0)
        assert batch.comm_s == 0.0  # one device: no hops
        return cache, charges

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), mode=st.sampled_from(["cascade", "shallow-only", "deepest-only"]))
    def test_segment_charges_sum_to_batch_cost(
        self, one_device_plan, cost_model, data, mode
    ):
        n_exits = len(one_device_plan.placement)
        n = data.draw(st.integers(1, 24), label="batch size")
        if mode == "cascade":
            exits = data.draw(
                st.lists(st.integers(0, n_exits - 1), min_size=n, max_size=n),
                label="exit of each sample",
            )
        elif mode == "shallow-only":
            exits = [0] * n
        else:
            exits = [n_exits - 1] * n
        cache, charges = self._charges(one_device_plan, mode, exits)
        reach = cache.reach_counts(np.asarray(exits))
        if mode == "deepest-only":
            expected = cost_model.deepest_only_cost(n)
        else:
            expected = cost_model.batch_cost(reach)
        assert sum(c[0] for c in charges) == expected[0]
        assert sum(c[1] for c in charges) == expected[1]
        # One charge per reached segment; the input is staged once.
        assert len(charges) == sum(1 for r in reach if r > 0)
        assert [c[2] for c in charges] == [SAMPLE_BYTES * n] + [0] * (len(charges) - 1)


class TestRouter:
    def _fleet(self, n=3):
        return [_toy_replica(replica_id=i) for i in range(n)]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown router policy"):
            FleetRouter("random")

    def test_round_robin_cycles(self):
        replicas = self._fleet(3)
        router = FleetRouter("round-robin")
        picks = [router.pick(replicas, 0.0).replica_id for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]

    def test_round_robin_skips_full_queue(self):
        replicas = self._fleet(3)
        for _ in range(replicas[1].queue_depth):
            replicas[1].admit(_req(0))
        router = FleetRouter("round-robin")
        picks = [router.pick(replicas, 0.0).replica_id for _ in range(4)]
        assert picks == [0, 2, 0, 2]

    def test_least_loaded_prefers_emptiest(self):
        replicas = self._fleet(3)
        replicas[0].admit(_req(0))
        replicas[0].admit(_req(1))
        replicas[1].admit(_req(2))
        router = FleetRouter("least-loaded")
        assert router.pick(replicas, 0.0).replica_id == 2

    def test_least_loaded_counts_in_flight_work(self):
        replicas = self._fleet(2)
        replicas[0].serve_batch([_req(0), _req(1)], 0.0)  # in flight, not queued
        router = FleetRouter("least-loaded")
        assert router.pick(replicas, 0.0).replica_id == 1

    def test_latency_aware_avoids_slowed_replica(self):
        replicas = self._fleet(2)
        # Replica 0 has observed slow batches: its refined coefficient
        # predicts a later finish even with identical queues.
        replicas[0].latency_coeff = 10.0
        router = FleetRouter("latency-aware")
        assert router.pick(replicas, 0.0).replica_id == 1

    def test_all_full_returns_none(self):
        replicas = self._fleet(2)
        for replica in replicas:
            for _ in range(replica.queue_depth):
                replica.admit(_req(0))
        for policy in ROUTER_POLICIES:
            assert FleetRouter(policy).pick(replicas, 0.0) is None

    def test_empty_fleet_returns_none(self):
        assert FleetRouter().pick([], 0.0) is None


class TestFleetSection:
    def _payload(self, **fleet):
        return {
            "backend": "cluster-serving",
            "cluster": {"devices": ["nano", "agx-orin"]},
            "fleet": fleet,
        }

    def test_defaults_materialized(self):
        from repro.api import JobSpec

        spec = JobSpec.from_dict(
            {"backend": "cluster-serving",
             "cluster": {"devices": ["nano", "agx-orin"]}}
        )
        assert spec.fleet is not None and spec.serving is not None
        assert spec.fleet.policy == "latency-aware"

    def test_needs_cluster(self):
        from repro.api import JobSpec

        with pytest.raises(SpecError, match="cluster"):
            JobSpec.from_dict({"backend": "cluster-serving"})

    def test_unknown_policy(self):
        from repro.api import JobSpec

        with pytest.raises(SpecError, match="policy"):
            JobSpec.from_dict(self._payload(policy="coin-flip"))

    def test_replica_bounds(self):
        from repro.api import JobSpec

        with pytest.raises(SpecError, match="max_replicas"):
            JobSpec.from_dict(self._payload(n_replicas=4, max_replicas=2))

    def test_events_exclusive(self):
        from repro.api import JobSpec

        with pytest.raises(SpecError, match="mutually exclusive"):
            JobSpec.from_dict(
                self._payload(events={"events": []}, events_file="x.json")
            )

    def test_fleet_forbidden_on_single_server_backend(self):
        from repro.api import JobSpec

        with pytest.raises(SpecError, match="conflicts"):
            JobSpec.from_dict(
                {"backend": "serving", "fleet": {"n_replicas": 2}}
            )

    def test_round_trips(self):
        from repro.api import JobSpec

        spec = JobSpec.from_dict(self._payload(n_replicas=3, max_replicas=5))
        again = JobSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()
