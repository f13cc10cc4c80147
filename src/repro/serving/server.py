"""Per-server batching and admission knobs.

One replica of :class:`repro.fleet.FleetSimulator` is one server: a
bounded admission queue (``queue_depth``; arrivals past it are rejected,
bounding worst-case queueing delay under overload) drained into
micro-batches of at most ``batch_cap`` requests that wait at most
``max_wait_s`` for company.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class ServerConfig:
    """Knobs of one server's batching loop."""

    batch_cap: int = 32
    max_wait_s: float = 0.005
    queue_depth: int = 256

    def __post_init__(self) -> None:
        if self.batch_cap < 1:
            raise ConfigError("batch_cap must be >= 1")
        if self.max_wait_s < 0:
            raise ConfigError("max_wait_s must be non-negative")
        if self.queue_depth < 1:
            raise ConfigError("queue_depth must be >= 1")
