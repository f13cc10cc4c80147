"""Open-loop request-stream generation for the serving simulator.

Serving load at the edge is not a steady drip: the paper's deployment
story (millions of users hitting compact early-exit models) implies
arrival processes with bursts and daily cycles.  Three patterns cover the
standard cases:

* ``poisson`` -- memoryless arrivals at a fixed mean rate;
* ``bursty`` -- a two-state Markov-modulated Poisson process alternating
  high-rate bursts with quiet gaps (same long-run mean rate);
* ``diurnal`` -- a sinusoidally rate-modulated Poisson process generated
  by thinning, compressing a day-like cycle into ``diurnal_period_s``.

All randomness flows through :func:`repro.utils.rng.spawn_rng`, so a
``WorkloadSpec`` is a complete, reproducible description of a run.

Generation is lazy: :func:`iter_requests` yields one :class:`Request` at
a time, so million-request traces cost O(1) memory on the producer side.
The draw order is pinned and regression-tested: one exponential per
candidate gap, one uniform per thinning decision (drawn immediately
after its candidate, since streaming forbids the old
all-candidates-then-all-uniforms order), one integer per emitted
request.  Poisson and bursty sequences are bit-identical to the
pre-streaming implementation.

Sample indices are drawn from their own stream ``INDEX_BLOCK`` at a
time: bounded ``Generator.integers`` draws consume a fixed number of raw
words each, so any split into ``size=k`` calls yields the sequence
scalar draws would, and read-ahead stays bounded by one block.  Arrival
gaps are *not* block-drawn: the ziggurat exponential consumes a variable
number of raw words per variate and shares its stream with the thinning
uniforms, so only the scalar exponential-then-uniform order reproduces
the pinned sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import ConfigError
from repro.utils.rng import spawn_rng

ARRIVAL_PATTERNS = ("poisson", "bursty", "diurnal")

#: Sample indices drawn per call on the ``serving/samples`` stream.
INDEX_BLOCK = 1024


@dataclass(frozen=True)
class Request:
    """One inference request: an arrival time plus a dataset sample."""

    request_id: int
    arrival_s: float
    sample_index: int


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of an open-loop request stream.

    ``arrival_rate`` is the long-run mean in requests/second for every
    pattern; the bursty/diurnal knobs shape how those arrivals cluster
    without changing the mean.
    """

    pattern: str = "poisson"
    arrival_rate: float = 100.0
    duration_s: float = 1.0
    burst_factor: float = 4.0
    burst_fraction: float = 0.2
    burst_len_s: float = 0.05
    diurnal_period_s: float = 1.0
    diurnal_amplitude: float = 0.8
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pattern not in ARRIVAL_PATTERNS:
            raise ConfigError(
                f"unknown arrival pattern {self.pattern!r}; "
                f"available: {list(ARRIVAL_PATTERNS)}"
            )
        for name in (
            "arrival_rate", "duration_s", "burst_len_s", "diurnal_period_s",
            "burst_factor", "burst_fraction", "diurnal_amplitude",
        ):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, (int, float))
                or not math.isfinite(value)
            ):
                raise ConfigError(f"{name} must be a finite number")
        # A zero-length dwell never advances the bursty clock; a zero
        # period divides by zero in the diurnal phase.
        for name in ("arrival_rate", "duration_s", "burst_len_s", "diurnal_period_s"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        if self.burst_factor < 1:
            raise ConfigError("burst_factor must be >= 1")
        if not 0 < self.burst_fraction < 1:
            raise ConfigError("burst_fraction must be in (0, 1)")
        if self.burst_factor * self.burst_fraction >= 1:
            raise ConfigError(
                "burst_factor * burst_fraction must be < 1 so the quiet "
                "state keeps a non-negative rate"
            )
        if not 0 <= self.diurnal_amplitude < 1:
            raise ConfigError("diurnal_amplitude must be in [0, 1)")


def _poisson_times(
    rng: np.random.Generator, rate: float, duration: float
) -> Iterator[float]:
    t = rng.exponential(1.0 / rate)
    while t < duration:
        yield t
        t += rng.exponential(1.0 / rate)


def _bursty_times(spec: WorkloadSpec, rng: np.random.Generator) -> Iterator[float]:
    # Two-state MMPP.  The quiet-state rate is solved so the time-weighted
    # mean over both states equals ``arrival_rate``.
    burst_rate = spec.arrival_rate * spec.burst_factor
    quiet_rate = (
        spec.arrival_rate
        * (1.0 - spec.burst_factor * spec.burst_fraction)
        / (1.0 - spec.burst_fraction)
    )
    quiet_len = spec.burst_len_s * (1.0 - spec.burst_fraction) / spec.burst_fraction
    t = 0.0
    in_burst = bool(rng.random() < spec.burst_fraction)
    while t < spec.duration_s:
        mean_len = spec.burst_len_s if in_burst else quiet_len
        rate = burst_rate if in_burst else quiet_rate
        dwell = rng.exponential(mean_len)
        end = min(t + dwell, spec.duration_s)
        if rate > 0:
            for u in _poisson_times(rng, rate, end - t):
                yield t + u
        t = end
        in_burst = not in_burst


def _diurnal_times(spec: WorkloadSpec, rng: np.random.Generator) -> Iterator[float]:
    # Thinning (Lewis & Shedler): generate at the peak rate, accept with
    # probability rate(t) / peak.
    rate, amplitude = spec.arrival_rate, spec.diurnal_amplitude
    duration, period = spec.duration_s, spec.diurnal_period_s
    peak = rate * (1.0 + amplitude)
    mean_gap = 1.0 / peak
    exponential, uniform, sin = rng.exponential, rng.random, math.sin
    t = exponential(mean_gap)
    while t < duration:
        rate_t = rate * (1.0 + amplitude * sin(2.0 * math.pi * t / period))
        if uniform() < rate_t / peak:
            yield t
        t += exponential(mean_gap)


def _arrival_times(spec: WorkloadSpec, rng: np.random.Generator) -> Iterator[float]:
    if spec.pattern == "poisson":
        return _poisson_times(rng, spec.arrival_rate, spec.duration_s)
    if spec.pattern == "bursty":
        return _bursty_times(spec, rng)
    return _diurnal_times(spec, rng)


def iter_requests(spec: WorkloadSpec, n_samples: int) -> Iterator[Request]:
    """Stream the request sequence described by ``spec``, one at a time.

    Each request references a uniformly drawn sample index in
    ``[0, n_samples)`` -- the serving dataset it will be scored against.
    Sample indices come from a dedicated RNG stream, so the index
    sequence depends only on how many requests are drawn, never on the
    arrival pattern's internal randomness.
    """
    if n_samples < 1:
        raise ConfigError("n_samples must be >= 1")
    rng = spawn_rng(spec.seed, "serving/arrivals", spec.pattern)
    sample_rng = spawn_rng(spec.seed, "serving/samples", spec.pattern)
    block: list[int] = []
    for i, t in enumerate(_arrival_times(spec, rng)):
        at = i % INDEX_BLOCK
        if at == 0:
            block = sample_rng.integers(0, n_samples, size=INDEX_BLOCK).tolist()
        yield Request(request_id=i, arrival_s=float(t), sample_index=block[at])


def generate_requests(spec: WorkloadSpec, n_samples: int) -> list[Request]:
    """Materialize the request stream described by ``spec``.

    Convenience wrapper over :func:`iter_requests` for workloads small
    enough to hold in memory; fleet-scale traces should consume the
    iterator directly.
    """
    return list(iter_requests(spec, n_samples))
