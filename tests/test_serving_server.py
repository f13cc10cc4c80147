"""One server under load: the serving loop, admission control, batching.

A single server is a fleet of one -- one replica on one device, no churn
schedule -- which is how the ``serving`` backend runs
:class:`repro.fleet.FleetSimulator`.  These are the single-server
behaviours, asserted on that path.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.fleet import FleetReport
from repro.obs.trace import Tracer
from repro.serving import ServerConfig, WorkloadSpec

from helpers import serve_single


def _workload(rate=200.0, pattern="poisson", duration=1.0, seed=1):
    return WorkloadSpec(
        pattern=pattern, arrival_rate=rate, duration_s=duration, seed=seed
    )


def _busy_s(report):
    return report.replicas[0].busy_s


def _mean_batch(report):
    replica = report.replicas[0]
    return replica.n_completed / replica.n_batches


@pytest.fixture(scope="module")
def cascade_report(served_system):
    return serve_single(served_system, _workload(), threshold=0.5)


class TestServingRun:
    def test_requests_are_causally_ordered(self, served_system, cascade_report):
        tracer = Tracer()
        serve_single(served_system, _workload(), threshold=0.5, tracer=tracer)
        batches = {
            s.name: s for s in tracer.spans if s.category == "fleet-batch"
        }
        requests = [s for s in tracer.spans if s.category == "fleet-request"]
        assert len(requests) == cascade_report.n_completed
        for req in requests:
            batch = batches[f"r0-b{req.attrs['batch']}"]
            # arrival <= dispatch < completion
            assert batch.start_s >= req.start_s
            assert req.end_s == batch.end_s > batch.start_s
            assert req.duration_s > 0
            assert req.attrs["queue_s"] >= 0
        assert all(lat > 0 for lat in cascade_report.latencies)
        assert all(q >= 0 for q in cascade_report.queue_seconds)

    def test_all_offered_requests_accounted(self, served_system, cascade_report):
        from repro.serving.workload import generate_requests

        offered = generate_requests(_workload(), len(served_system.data.x_test))
        assert cascade_report.n_offered == len(offered)
        assert cascade_report.n_completed + cascade_report.n_rejected == len(offered)
        assert cascade_report.n_rejected == 0  # light load, deep queue
        assert cascade_report.n_unaccounted == 0

    def test_percentiles_ordered(self, cascade_report):
        p50 = cascade_report.latency_percentile(50)
        p95 = cascade_report.latency_percentile(95)
        p99 = cascade_report.latency_percentile(99)
        assert p50 <= p95 <= p99

    def test_serving_charged_to_serving_category_only(self, cascade_report):
        """The server books all simulated seconds under ``serving``."""
        ledger = cascade_report.ledger_summary()
        assert ledger["serving"] > 0
        assert ledger["total"] == pytest.approx(ledger["serving"])
        assert _busy_s(cascade_report) == pytest.approx(ledger["serving"])
        assert len(cascade_report.device_ledgers) == 1

    def test_deterministic(self, served_system, cascade_report):
        again = serve_single(served_system, _workload(), threshold=0.5)
        assert again.mean_latency_s == cascade_report.mean_latency_s
        assert again.exit_counts == cascade_report.exit_counts
        assert again.accuracy == cascade_report.accuracy

    def test_exit_distribution_spreads_past_first_exit(self, cascade_report):
        counts = cascade_report.exit_counts
        assert sum(counts) == cascade_report.n_completed
        assert sum(counts[1:]) > 0  # some requests escalate

    def test_one_replica_no_churn(self, cascade_report):
        assert len(cascade_report.replicas) == 1
        assert cascade_report.n_shed == cascade_report.n_failed_over == 0
        assert cascade_report.dnf is False
        # One device: nothing crosses a boundary.
        assert sum(cascade_report.comm_seconds) == 0.0


class TestCascadeAcceptance:
    """The ISSUE acceptance shape: cascade beats the degenerate policies."""

    def test_cascade_more_accurate_than_shallow_only(self, served_system, cascade_report):
        shallow = serve_single(served_system, _workload(), mode="shallow-only")
        assert cascade_report.accuracy > shallow.accuracy

    def test_cascade_faster_than_deepest_only(self, served_system, cascade_report):
        deepest = serve_single(served_system, _workload(), mode="deepest-only")
        assert cascade_report.mean_latency_s < deepest.mean_latency_s
        assert _busy_s(cascade_report) < _busy_s(deepest)


class TestAdmissionControl:
    def test_overload_rejects_and_bounds_queue(self, served_system):
        """A slow platform under a hot stream must shed load, and every
        offered request is either completed or rejected."""
        config = ServerConfig(batch_cap=8, max_wait_s=0.002, queue_depth=16)
        report = serve_single(
            served_system,
            _workload(rate=10000.0, duration=0.2),
            platform="pi4b",
            config=config,
        )
        assert report.n_rejected > 0
        assert report.rejection_rate > 0
        assert report.n_completed + report.n_rejected == report.n_offered
        # A bounded queue bounds the wait: at most ceil(queue_depth /
        # batch_cap) queued batches plus the one in flight stand between
        # an admitted request and its own dispatch.
        batches = -(-config.queue_depth // config.batch_cap)
        worst_batch_s = max(report.compute_seconds)
        assert max(report.queue_seconds) <= (
            config.max_wait_s + (batches + 1) * worst_batch_s
        )

    def test_deeper_queue_rejects_less(self, served_system):
        shallow_q = serve_single(
            served_system,
            _workload(rate=10000.0, duration=0.2),
            platform="pi4b",
            config=ServerConfig(batch_cap=8, max_wait_s=0.002, queue_depth=8),
        )
        deep_q = serve_single(
            served_system,
            _workload(rate=10000.0, duration=0.2),
            platform="pi4b",
            config=ServerConfig(batch_cap=8, max_wait_s=0.002, queue_depth=64),
        )
        assert deep_q.n_rejected < shallow_q.n_rejected

    def test_queue_depth_validation(self):
        with pytest.raises(ConfigError):
            ServerConfig(queue_depth=0)


class TestBatchingBehavior:
    def test_higher_load_forms_larger_batches(self, served_system):
        low = serve_single(served_system, _workload(rate=100.0), threshold=0.5)
        high = serve_single(served_system, _workload(rate=1000.0), threshold=0.5)
        assert _mean_batch(high) > _mean_batch(low)

    def test_batch_cap_respected(self, served_system):
        tracer = Tracer()
        report = serve_single(
            served_system,
            _workload(rate=1000.0),
            config=ServerConfig(batch_cap=4, max_wait_s=0.005, queue_depth=512),
            tracer=tracer,
        )
        sizes = [
            s.attrs["batch_size"]
            for s in tracer.spans
            if s.category == "fleet-batch"
        ]
        assert len(sizes) == report.replicas[0].n_batches
        assert sum(sizes) == report.n_completed
        assert max(sizes) <= 4

    def test_bursty_pattern_has_fatter_tail_than_poisson(self, served_system):
        poisson = serve_single(
            served_system, _workload(rate=400.0, duration=2.0), threshold=0.5
        )
        bursty = serve_single(
            served_system,
            _workload(rate=400.0, pattern="bursty", duration=2.0),
            threshold=0.5,
        )
        assert bursty.latency_percentile(99) > poisson.latency_percentile(99)


class TestFleetOfOneInvariants:
    """Whatever the stream and the server knobs, a fleet of one with no
    schedule loses nothing, sheds nothing, and explains every latency."""

    @settings(max_examples=30, deadline=None)
    @given(
        pattern=st.sampled_from(["poisson", "bursty", "diurnal"]),
        rate=st.floats(50.0, 8000.0),
        duration=st.floats(0.05, 0.25),
        seed=st.integers(0, 2**16),
        batch_cap=st.integers(1, 40),
        max_wait_ms=st.floats(0.0, 6.0),
        queue_depth=st.integers(1, 80),
        platform=st.sampled_from(["agx-orin", "nano", "pi4b"]),
        mode=st.sampled_from(["cascade", "shallow-only", "deepest-only"]),
    )
    def test_accounting_and_latency_decomposition(
        self, served_system, pattern, rate, duration, seed, batch_cap,
        max_wait_ms, queue_depth, platform, mode,
    ):
        from repro.serving.workload import generate_requests

        workload = _workload(rate=rate, pattern=pattern, duration=duration, seed=seed)
        report = serve_single(
            served_system,
            workload,
            platform=platform,
            config=ServerConfig(
                batch_cap=batch_cap,
                max_wait_s=max_wait_ms / 1e3,
                queue_depth=queue_depth,
            ),
            mode=mode,
        )
        offered = len(generate_requests(workload, len(served_system.data.x_test)))
        assert report.n_offered == offered
        assert report.n_completed + report.n_rejected == offered
        assert report.n_shed == report.n_failed_over == report.n_failures == 0
        assert report.dnf is False
        assert len(report.replicas) == 1 and report.scale_events == []
        assert len(report.latencies) == report.n_completed
        for latency, queue, compute, comm in zip(
            report.latencies,
            report.queue_seconds,
            report.compute_seconds,
            report.comm_seconds,
        ):
            assert queue >= 0 and compute > 0 and comm == 0
            assert queue + compute + comm == pytest.approx(latency, abs=1e-12)


class TestReportEdgeCases:
    def test_empty_report(self):
        report = FleetReport(
            pattern="poisson",
            arrival_rate=1.0,
            duration_s=1.0,
            mode="cascade",
            num_exits=2,
            policy="round-robin",
            n_replicas_initial=1,
        )
        assert report.n_completed == 0
        assert report.throughput_rps == 0.0
        assert report.rejection_rate == 0.0
        assert report.exit_counts == [0, 0]
        assert math.isnan(report.accuracy)
        assert math.isnan(report.mean_latency_s)
        assert "fleet report" in report.table()

    def test_table_contains_headline_metrics(self, cascade_report):
        text = cascade_report.table()
        for needle in ("p50", "p95", "p99", "throughput", "replica 0", "accuracy"):
            assert needle in text
