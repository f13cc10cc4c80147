"""Adaptive micro-batching for the serving loop.

Batching amortizes per-dispatch overhead (the same effect Figure 1 shows
for training), but waiting for a full batch adds queueing latency.  The
adaptive batcher takes the standard middle road: a batch dispatches as
soon as it reaches ``batch_cap`` requests, or when the oldest queued
request has waited ``max_wait_s``, whichever comes first.  A busy server
dispatches whatever is queued the moment it frees up past the deadline.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.errors import ConfigError
from repro.serving.workload import Request


@dataclass(frozen=True)
class BatchPlan:
    """A group of requests leaving the queue together."""

    requests: list[Request]
    dispatch_s: float

    @property
    def size(self) -> int:
        return len(self.requests)


class AdaptiveBatcher:
    """Deadline-or-cap batching policy.

    The server loop drives it with two calls: :meth:`window` fixes the
    earliest start and latest dispatch for the batch headed by the oldest
    waiting request, and :meth:`take` pops the batch once the dispatch
    instant is settled (possibly earlier than the deadline, if admission
    filled the batch to the cap first).
    """

    def __init__(self, batch_cap: int = 32, max_wait_s: float = 0.005):
        if batch_cap < 1:
            raise ConfigError("batch_cap must be >= 1")
        if max_wait_s < 0:
            raise ConfigError("max_wait_s must be non-negative")
        self.batch_cap = batch_cap
        self.max_wait_s = max_wait_s

    def window(self, head: Request, free_s: float) -> tuple[float, float]:
        """(earliest start, deadline dispatch) for the batch headed by ``head``.

        The batch cannot start before the server frees up or before the
        head arrives; it must dispatch once the head has waited
        ``max_wait_s`` (or immediately, if the server frees up later than
        that).
        """
        start = max(free_s, head.arrival_s)
        return start, max(start, head.arrival_s + self.max_wait_s)

    def take(self, waiting: deque[Request], dispatch_s: float) -> BatchPlan:
        """Pop up to ``batch_cap`` requests from the front of the queue."""
        if not waiting:
            raise ConfigError("cannot form a batch from an empty queue")
        requests = [waiting.popleft() for _ in range(min(self.batch_cap, len(waiting)))]
        return BatchPlan(requests=requests, dispatch_s=dispatch_s)
