"""repro.fleet: the early-exit serving simulator, one replica to N.

One discrete-event loop serves a request stream on N replicas: each
replica is a server built from the :mod:`repro.serving` parts (bounded
admission queue, adaptive batcher, exit cascade) that shards the cascade
across the devices of its own :class:`~repro.parallel.cluster.Cluster`
(shard map from the PR 3 placement optimizer); a front router
load-balances arrivals with per-replica admission control, and a churn
schedule drives autoscaling, failure drain/failover, and device joins on
one simulated timeline.  A single server is the degenerate case -- one
replica on one device, no schedule -- which is how the ``serving``
backend runs; ``cluster-serving`` takes the replica set and device
template from the spec.
"""

from repro.fleet.replica import (
    DRAINING,
    FAILED,
    LIVE,
    RETIRED,
    CascadeReplica,
    InFlightBatch,
    RouteCache,
)
from repro.fleet.report import FleetReport, ReplicaSummary
from repro.fleet.router import ROUTER_POLICIES, FleetRouter
from repro.fleet.sharding import (
    CascadeShardPlan,
    build_shard_problem,
    plan_cascade_shards,
    segment_profiles,
    single_device_plan,
)
from repro.fleet.simulator import (
    FleetConfig,
    FleetSimulator,
    build_route_cache,
    simulate_fleet,
)

__all__ = [
    "LIVE",
    "DRAINING",
    "FAILED",
    "RETIRED",
    "CascadeReplica",
    "InFlightBatch",
    "RouteCache",
    "FleetReport",
    "ReplicaSummary",
    "ROUTER_POLICIES",
    "FleetRouter",
    "CascadeShardPlan",
    "build_shard_problem",
    "plan_cascade_shards",
    "segment_profiles",
    "single_device_plan",
    "FleetConfig",
    "FleetSimulator",
    "build_route_cache",
    "simulate_fleet",
]
