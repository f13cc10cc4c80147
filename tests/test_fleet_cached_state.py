"""Every value the fleet loop caches equals its recomputation, always.

The loop keeps derived state instead of recomputing it per event: the
simulator's ``live``/``serving`` lists, each replica's ``next_dispatch``
clock, ``in_flight_requests``/``load`` counter and ``first_device``.
This steps small random fleets -- random policy, arrival pattern,
batcher/queue knobs, autoscaling and churn schedule -- and at *every*
loop turn compares each cached value with the expression it replaced.
The check rides a test-side subclass: ``_commit`` runs exactly once per
turn, before the turn's event is applied, so it sees the state the loop
top just read.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    DRAINING,
    LIVE,
    ROUTER_POLICIES,
    CascadeShardPlan,
    FleetConfig,
    RouteCache,
)
from repro.fleet.simulator import FleetSimulator
from repro.parallel.cluster import Cluster
from repro.runtime.events import (
    DeviceFailure,
    DeviceJoin,
    DeviceSlowdown,
    EventSchedule,
    LoadSpike,
)
from repro.serving import ServerConfig, WorkloadSpec
from repro.serving.workload import ARRIVAL_PATTERNS

N_EXITS = 3
DURATION_S = 0.05


def _plan(placement) -> CascadeShardPlan:
    return CascadeShardPlan(
        placement=tuple(placement),
        predicted_batch_s=0.001,
        boundary_bytes=(4096,) * (N_EXITS - 1),
        segment_flops=(4_000_000,) * N_EXITS,
        segment_kernels=(4,) * N_EXITS,
        residency_bytes=(2048,) * N_EXITS,
        head_flops=(100_000,) * N_EXITS,
        head_kernels=(1,) * N_EXITS,
    )


class CheckedSimulator(FleetSimulator):
    """Asserts the cached-state invariant at every loop turn."""

    turns = 0

    def _commit(self, now, tracer):
        self.check_cached_state()
        self.turns += 1
        super()._commit(now, tracer)

    def check_cached_state(self):
        assert self.live == [r for r in self.replicas if r.state == LIVE]
        assert self.serving == [
            r for r in self.replicas if r.state in (LIVE, DRAINING)
        ]
        for r in self.replicas:
            assert r.next_dispatch == r.next_dispatch_s(), r.replica_id
            in_flight = sum(len(b.requests) for b in r.in_flight)
            assert r.in_flight_requests == in_flight, r.replica_id
            assert r.load == len(r.pending) + in_flight, r.replica_id
            assert r.first_device == r.plan.placement[0]


def _event(kind, time_s, replica, factor, duration_s):
    if kind == "slowdown":
        return DeviceSlowdown(time_s, replica, factor, duration_s)
    if kind == "spike":
        return LoadSpike(time_s, replica, factor, duration_s)
    if kind == "failure":
        return DeviceFailure(time_s, replica)
    return DeviceJoin(time_s, "agx-orin")


events = st.builds(
    _event,
    kind=st.sampled_from(["slowdown", "spike", "failure", "join"]),
    time_s=st.floats(min_value=0.0, max_value=DURATION_S * 1.2),
    replica=st.integers(min_value=0, max_value=4),
    factor=st.floats(min_value=0.5, max_value=8.0),
    duration_s=st.floats(min_value=0.001, max_value=DURATION_S),
)


@given(
    policy=st.sampled_from(ROUTER_POLICIES),
    pattern=st.sampled_from(ARRIVAL_PATTERNS),
    mode=st.sampled_from(["cascade", "deepest-only"]),
    rate=st.floats(min_value=200.0, max_value=5000.0),
    n_replicas=st.integers(min_value=1, max_value=3),
    autoscale=st.booleans(),
    batch_cap=st.integers(min_value=1, max_value=8),
    max_wait_s=st.sampled_from([0.0, 0.0005, 0.003]),
    queue_depth=st.integers(min_value=1, max_value=16),
    schedule=st.lists(events, max_size=5),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=60, deadline=None)
def test_cached_values_equal_their_recomputation_at_every_turn(
    policy, pattern, mode, rate, n_replicas, autoscale, batch_cap,
    max_wait_s, queue_depth, schedule, seed,
):
    exits = np.arange(16) % N_EXITS
    if mode == "deepest-only":
        exits = np.full(16, N_EXITS - 1)
    simulator = CheckedSimulator(
        route_cache=RouteCache(
            exit_of_sample=exits, correct_of_sample=exits % 2 == 0,
            num_exits=N_EXITS, mode=mode,
        ),
        plan=_plan((0, 1, 1)),
        template_factory=lambda: Cluster.from_names(["nano", "agx-orin"]),
        single_factory=lambda platform, budget: (
            Cluster.from_names([platform], memory_budget=[budget]),
            _plan((0,) * N_EXITS),
        ),
        workload=WorkloadSpec(
            pattern=pattern, arrival_rate=rate, duration_s=DURATION_S,
            burst_len_s=0.005, diurnal_period_s=0.03, seed=seed,
        ),
        server_config=ServerConfig(
            batch_cap=batch_cap, max_wait_s=max_wait_s, queue_depth=queue_depth
        ),
        fleet=FleetConfig(
            n_replicas=n_replicas, policy=policy, autoscale=autoscale,
            max_replicas=4, scale_up_at=0.5, scale_down_at=0.1,
            cooldown_s=0.002,
        ),
        schedule=EventSchedule(schedule),
        sample_bytes=3 * 16 * 16 * 4,
    )
    report = simulator.run()
    simulator.check_cached_state()
    # One turn per arrival, per batch and per distinct event instant,
    # plus the final drain: the hook really did run every turn.
    assert simulator.turns > report.n_offered
    assert report.n_unaccounted == 0
