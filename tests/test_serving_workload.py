"""Tests for the serving workload generator and adaptive batcher."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import time_limit
from repro.errors import ConfigError
from repro.serving.batcher import AdaptiveBatcher
from repro.serving.workload import (
    ARRIVAL_PATTERNS,
    INDEX_BLOCK,
    Request,
    WorkloadSpec,
    generate_requests,
    iter_requests,
)
from repro.utils.rng import spawn_rng


def _inter_arrivals(requests):
    times = np.array([r.arrival_s for r in requests])
    return np.diff(times)


class TestWorkloadSpec:
    def test_rejects_unknown_pattern(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(pattern="steady")

    def test_rejects_bad_rate(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(arrival_rate=0)

    def test_rejects_burst_mean_violation(self):
        # burst_factor * burst_fraction >= 1 would need a negative quiet rate.
        with pytest.raises(ConfigError):
            WorkloadSpec(pattern="bursty", burst_factor=6.0, burst_fraction=0.2)

    @pytest.mark.parametrize(
        "fields",
        [
            # Each of these used to hang, escape as a bare numpy /
            # ZeroDivisionError, or silently generate nothing.
            dict(pattern="bursty", burst_len_s=0.0),
            dict(pattern="bursty", burst_len_s=-1.0),
            dict(pattern="diurnal", diurnal_period_s=0.0),
            dict(pattern="diurnal", diurnal_period_s=float("nan")),
            dict(arrival_rate=float("nan")),
            dict(arrival_rate=float("inf")),
            dict(duration_s=float("inf")),
            dict(pattern="bursty", burst_len_s=float("inf")),
            dict(burst_factor=float("inf")),
            dict(burst_fraction=float("nan")),
            dict(diurnal_amplitude=float("nan")),
            dict(arrival_rate=True),
            dict(duration_s="1.0"),
        ],
        ids=lambda fields: ",".join(f"{k}={v}" for k, v in fields.items()),
    )
    def test_rejects_degenerate_numbers_at_construction(self, fields):
        with time_limit(1.0):
            with pytest.raises(ConfigError):
                # Generating too: a spec that slipped through must not
                # be able to hang the suite.
                generate_requests(WorkloadSpec(**fields), n_samples=4)


class TestGenerateRequests:
    @pytest.mark.parametrize("pattern", ARRIVAL_PATTERNS)
    def test_sorted_in_window_and_indexed(self, pattern):
        spec = WorkloadSpec(pattern=pattern, arrival_rate=300.0, duration_s=2.0, seed=3)
        reqs = generate_requests(spec, n_samples=50)
        times = [r.arrival_s for r in reqs]
        assert times == sorted(times)
        assert all(0 <= t < spec.duration_s for t in times)
        assert all(0 <= r.sample_index < 50 for r in reqs)
        assert [r.request_id for r in reqs] == list(range(len(reqs)))

    @pytest.mark.parametrize("pattern", ARRIVAL_PATTERNS)
    def test_deterministic_per_seed(self, pattern):
        spec = WorkloadSpec(pattern=pattern, arrival_rate=200.0, seed=5)
        a = generate_requests(spec, n_samples=10)
        b = generate_requests(spec, n_samples=10)
        assert a == b
        c = generate_requests(WorkloadSpec(pattern=pattern, arrival_rate=200.0, seed=6), 10)
        assert a != c

    @pytest.mark.parametrize("pattern", ARRIVAL_PATTERNS)
    def test_mean_rate_close_to_nominal(self, pattern):
        spec = WorkloadSpec(
            pattern=pattern, arrival_rate=500.0, duration_s=20.0, seed=0
        )
        reqs = generate_requests(spec, n_samples=10)
        observed = len(reqs) / spec.duration_s
        assert observed == pytest.approx(spec.arrival_rate, rel=0.15)

    def test_bursty_is_burstier_than_poisson(self):
        """The MMPP's inter-arrival CV must exceed Poisson's (which is ~1)."""
        poisson = generate_requests(
            WorkloadSpec(pattern="poisson", arrival_rate=400.0, duration_s=20.0), 10
        )
        bursty = generate_requests(
            WorkloadSpec(
                pattern="bursty", arrival_rate=400.0, duration_s=20.0, burst_factor=4.0
            ),
            10,
        )
        def cv(reqs):
            gaps = _inter_arrivals(reqs)
            return gaps.std() / gaps.mean()
        assert cv(bursty) > cv(poisson) * 1.1

    def test_diurnal_rate_varies_across_cycle(self):
        """First half-period (sin > 0) must out-arrive the second half."""
        spec = WorkloadSpec(
            pattern="diurnal",
            arrival_rate=400.0,
            duration_s=10.0,
            diurnal_period_s=10.0,
            diurnal_amplitude=0.8,
        )
        reqs = generate_requests(spec, n_samples=10)
        first = sum(1 for r in reqs if r.arrival_s < 5.0)
        second = len(reqs) - first
        assert first > second * 1.5

    def test_requires_samples(self):
        with pytest.raises(ConfigError):
            generate_requests(WorkloadSpec(), n_samples=0)
        with pytest.raises(ConfigError):
            next(iter_requests(WorkloadSpec(), n_samples=0))


def _reference_requests(spec, n_samples):
    """Materializing regression oracle for the lazy rewrite: build the
    full arrival-time list per pattern, then draw all sample indices in
    one batched call.  Poisson and bursty reproduce the pre-streaming
    implementation draw-for-draw; diurnal follows the streaming draw
    order (thinning uniform immediately after each candidate), which the
    rewrite pinned because the old all-candidates-first order cannot be
    produced without materializing O(n) candidates."""
    rng = spawn_rng(spec.seed, "serving/arrivals", spec.pattern)

    def poisson(rng, rate, duration):
        times = []
        t = rng.exponential(1.0 / rate)
        while t < duration:
            times.append(t)
            t += rng.exponential(1.0 / rate)
        return times

    if spec.pattern == "poisson":
        times = poisson(rng, spec.arrival_rate, spec.duration_s)
    elif spec.pattern == "bursty":
        burst_rate = spec.arrival_rate * spec.burst_factor
        quiet_rate = (
            spec.arrival_rate
            * (1.0 - spec.burst_factor * spec.burst_fraction)
            / (1.0 - spec.burst_fraction)
        )
        quiet_len = spec.burst_len_s * (1.0 - spec.burst_fraction) / spec.burst_fraction
        times = []
        t = 0.0
        in_burst = bool(rng.random() < spec.burst_fraction)
        while t < spec.duration_s:
            mean_len = spec.burst_len_s if in_burst else quiet_len
            rate = burst_rate if in_burst else quiet_rate
            dwell = rng.exponential(mean_len)
            end = min(t + dwell, spec.duration_s)
            if rate > 0:
                times.extend(t + u for u in poisson(rng, rate, end - t))
            t = end
            in_burst = not in_burst
    else:
        peak = spec.arrival_rate * (1.0 + spec.diurnal_amplitude)
        times = []
        t = rng.exponential(1.0 / peak)
        while t < spec.duration_s:
            rate_t = spec.arrival_rate * (
                1.0
                + spec.diurnal_amplitude
                * np.sin(2.0 * np.pi * t / spec.diurnal_period_s)
            )
            if rng.random() < rate_t / peak:
                times.append(t)
            t += rng.exponential(1.0 / peak)
    sample_rng = spawn_rng(spec.seed, "serving/samples", spec.pattern)
    indices = sample_rng.integers(0, n_samples, size=len(times))
    return [
        Request(request_id=i, arrival_s=float(t), sample_index=int(s))
        for i, (t, s) in enumerate(zip(times, indices))
    ]


def _spec_with_n_requests(pattern, seed, n):
    """A spec whose stream has exactly ``n`` requests: generate more than
    enough, then cut the window between the ``n``-th arrival and the
    next (arrivals before the cut do not depend on where it falls)."""
    rate = 20_000.0
    duration = (n + 100) / rate
    while True:
        generous = WorkloadSpec(
            pattern=pattern, arrival_rate=rate, duration_s=duration, seed=seed
        )
        times = [r.arrival_s for r in _reference_requests(generous, 1)]
        if len(times) > n:
            break
        duration *= 2
    cut = times[0] / 2 if n == 0 else (times[n - 1] + times[n]) / 2
    return WorkloadSpec(pattern=pattern, arrival_rate=rate, duration_s=cut, seed=seed)


class TestIterRequests:
    @pytest.mark.parametrize("pattern", ARRIVAL_PATTERNS)
    def test_lazy_sequence_matches_materializing_reference(self, pattern):
        """Fixed-seed output must be identical to the pre-rewrite batch
        implementation, arrival times and sample indices alike."""
        spec = WorkloadSpec(pattern=pattern, arrival_rate=250.0, duration_s=3.0, seed=11)
        assert list(iter_requests(spec, n_samples=37)) == _reference_requests(spec, 37)

    @pytest.mark.parametrize("seed", [0, 11])
    @pytest.mark.parametrize("n_samples", [1, 7, 500])
    @pytest.mark.parametrize(
        "n_requests",
        [0, 1, INDEX_BLOCK - 1, INDEX_BLOCK, INDEX_BLOCK + 1, 3 * INDEX_BLOCK + 5],
    )
    def test_block_drawn_indices_match_reference_across_block_edges(
        self, seed, n_samples, n_requests
    ):
        """Indices are drawn ``INDEX_BLOCK`` at a time; the sequence must
        equal the oracle's single batched draw wherever the stream ends
        relative to a block boundary."""
        pattern = ARRIVAL_PATTERNS[(seed + n_samples + n_requests) % 3]
        spec = _spec_with_n_requests(pattern, seed, n_requests)
        got = list(iter_requests(spec, n_samples))
        assert len(got) == n_requests
        assert got == _reference_requests(spec, n_samples)

    def test_generate_requests_is_iter_requests_materialized(self):
        spec = WorkloadSpec(pattern="bursty", arrival_rate=300.0, seed=2)
        assert generate_requests(spec, 10) == list(iter_requests(spec, 10))

    @pytest.mark.parametrize("pattern", ARRIVAL_PATTERNS)
    def test_streams_without_materializing(self, pattern):
        """A week-long trace (~billions of requests) must hand over its
        first few requests instantly -- proof nothing builds O(n) lists."""
        from itertools import islice

        spec = WorkloadSpec(
            pattern=pattern, arrival_rate=5000.0, duration_s=604800.0, seed=0
        )
        with time_limit(1.0):
            head = list(islice(iter_requests(spec, n_samples=100), 5))
        assert len(head) == 5
        assert [r.request_id for r in head] == list(range(5))

    @given(
        t=st.floats(min_value=0.0, max_value=604800.0),
        period=st.floats(min_value=1e-3, max_value=604800.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_math_sin_agrees_with_numpy_on_the_diurnal_phase(self, t, period):
        """The generator evaluates the diurnal phase with ``math.sin``;
        the pinned sequences were recorded with ``np.sin``.  A platform
        where the two differ must fail here, loudly, rather than drift
        every downstream digest."""
        phase = 2.0 * np.pi * t / period
        assert math.sin(phase) == float(np.sin(phase))

    def test_math_sin_agrees_with_numpy_along_a_real_trace(self):
        spec = WorkloadSpec(
            pattern="diurnal", arrival_rate=8000.0, duration_s=2.5,
            diurnal_period_s=0.7,
        )
        phases = np.array(
            [2.0 * np.pi * r.arrival_s / spec.diurnal_period_s
             for r in iter_requests(spec, 10)]
        )
        assert len(phases) > 10_000
        assert [math.sin(p) for p in phases.tolist()] == np.sin(phases).tolist()


def _req(i, t):
    return Request(request_id=i, arrival_s=t, sample_index=0)


class TestAdaptiveBatcher:
    def test_window_idle_server(self):
        batcher = AdaptiveBatcher(batch_cap=4, max_wait_s=0.01)
        start, deadline = batcher.window(_req(0, 1.0), free_s=0.5)
        assert start == 1.0
        assert deadline == pytest.approx(1.01)

    def test_window_busy_server_past_deadline(self):
        """A server freeing up after the deadline dispatches immediately."""
        batcher = AdaptiveBatcher(batch_cap=4, max_wait_s=0.01)
        start, deadline = batcher.window(_req(0, 1.0), free_s=2.0)
        assert start == 2.0
        assert deadline == 2.0

    def test_take_respects_cap_and_order(self):
        batcher = AdaptiveBatcher(batch_cap=2, max_wait_s=0.01)
        waiting = deque(_req(i, 0.0) for i in range(5))
        plan = batcher.take(waiting, dispatch_s=0.5)
        assert [r.request_id for r in plan.requests] == [0, 1]
        assert len(waiting) == 3
        assert plan.size == 2 and plan.dispatch_s == 0.5

    def test_take_empty_raises(self):
        with pytest.raises(ConfigError):
            AdaptiveBatcher().take(deque(), 0.0)

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            AdaptiveBatcher(batch_cap=0)
        with pytest.raises(ConfigError):
            AdaptiveBatcher(max_wait_s=-1.0)
