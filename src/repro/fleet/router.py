"""Fleet-front request routing (the load balancer).

Three policies, all deterministic:

* ``round-robin`` -- cycle the live replicas in id order, skipping full
  queues; the stateless baseline.
* ``least-loaded`` -- the replica owning the fewest requests (queued
  plus in flight), ties to the lowest id; reacts to queue depth but is
  blind to device speed.
* ``latency-aware`` -- the replica with the earliest *predicted* finish
  for one more request: entry-device availability plus backlog priced
  at the shard plan's predicted per-batch seconds, refined online by
  each replica's observed/predicted EWMA coefficient
  (perf4sight-style).  This is the policy that notices a slowed-down
  replica before its queue backs up, because the coefficient -- not the
  queue -- carries the signal.

Every policy falls back across the remaining live replicas when its
first choice has a full queue; only when *no* live replica has queue
space does the fleet reject the request (admission control).

The router caches nothing but the round-robin cursor: every pick is one
pass over the candidates reading each replica's O(1) ``load`` /
``predicted_finish_s`` -- the candidate list itself is owned (and kept
current) by the fleet simulator.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.fleet.replica import CascadeReplica

ROUTER_POLICIES = ("round-robin", "least-loaded", "latency-aware")


class FleetRouter:
    """Picks the replica that admits each arriving request."""

    def __init__(self, policy: str = "latency-aware"):
        if policy not in ROUTER_POLICIES:
            raise ConfigError(
                f"unknown router policy {policy!r}; "
                f"available: {list(ROUTER_POLICIES)}"
            )
        self.policy = policy
        self._rr_next = 0

    def pick(
        self, replicas: list[CascadeReplica], now: float
    ) -> CascadeReplica | None:
        """The admitting replica for a request arriving at ``now``.

        ``None`` means every live replica's queue is full -- the caller
        rejects the request.  Candidates must be the *live* replicas in
        id order (the fleet simulator maintains that invariant).
        """
        if not replicas:
            return None
        if self.policy == "round-robin":
            n = len(replicas)
            start = self._rr_next % n
            for offset in range(n):
                i = (start + offset) % n
                if replicas[i].accepts_requests:
                    # Advance past the chosen replica so the next pick
                    # starts after it, full-queue skips included.
                    self._rr_next = i + 1
                    return replicas[i]
            return None
        # One pass, no sort: ids are unique, so the minimum (key, id)
        # over the accepting replicas is the first that accepts in
        # (key, id) rank order.
        least_loaded = self.policy == "least-loaded"
        best = best_key = None
        for replica in replicas:
            if not replica.accepts_requests:
                continue
            key = replica.load if least_loaded else replica.predicted_finish_s(now)
            if (
                best is None
                or key < best_key
                or (key == best_key and replica.replica_id < best.replica_id)
            ):
                best, best_key = replica, key
        return best
