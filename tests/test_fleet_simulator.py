"""Fleet simulator: determinism, drain semantics, churn, autoscaling.

The drain-semantics tests are the PR's acceptance teeth: under
``DeviceFailure`` every admitted request must end up completed or
explicitly shed -- ``n_unaccounted`` stays zero -- and the deterministic
churn tests pin byte-identical reports and Chrome traces across reruns.
"""

import gc
import json
import tracemalloc
from array import array

import numpy as np
import pytest

from repro.fleet import FleetConfig, FleetReport, FleetSimulator, simulate_fleet
from repro.obs.metrics import percentile
from repro.obs.trace import Tracer, activate, deactivate, validate_nesting
from repro.runtime.events import (
    DeviceFailure,
    DeviceJoin,
    DeviceSlowdown,
    EventSchedule,
    LoadSpike,
)
from repro.serving import ServerConfig, WorkloadSpec


def _workload(rate=400.0, duration=0.4, pattern="poisson", seed=7):
    return WorkloadSpec(
        pattern=pattern, arrival_rate=rate, duration_s=duration, seed=seed
    )


def _config(**kw):
    defaults = dict(batch_cap=8, max_wait_s=0.004, queue_depth=64)
    defaults.update(kw)
    return ServerConfig(**defaults)


# The doomed replica is slowed first so it is guaranteed to hold
# in-flight work when the failure lands -- the drain path always runs.
CHURN = EventSchedule(
    [
        DeviceSlowdown(time_s=0.08, device=1, factor=8.0, duration_s=0.2),
        DeviceFailure(time_s=0.2, device=1),
        DeviceJoin(time_s=0.25, platform="agx-orin"),
    ]
)


def _run_churn(system, tracer=None, policy="latency-aware", workload=None):
    if tracer is not None:
        activate(tracer)
    try:
        return simulate_fleet(
            system,
            workload or _workload(),
            cluster_names=["nano", "agx-orin"],
            fleet=FleetConfig(n_replicas=2, policy=policy),
            server_config=_config(),
            schedule=CHURN,
        )
    finally:
        if tracer is not None:
            deactivate()


@pytest.fixture(scope="module")
def churn_report(served_system):
    return _run_churn(served_system)


class TestChurnSurvival:
    def test_failure_survived(self, churn_report):
        assert churn_report.n_failures == 1
        assert churn_report.survived_churn
        assert not churn_report.dnf

    def test_no_silent_loss(self, churn_report):
        r = churn_report
        assert r.n_offered > 0
        assert r.n_unaccounted == 0
        assert r.n_completed + r.n_rejected + r.n_shed == r.n_offered

    def test_failed_replica_recorded(self, churn_report):
        states = {r.replica_id: r.state for r in churn_report.replicas}
        assert states[1] == "failed"
        failed = next(r for r in churn_report.replicas if r.replica_id == 1)
        assert failed.retired_s == pytest.approx(0.2)

    def test_in_flight_work_failed_over(self, served_system):
        """The failure strands work mid-flight; survivors absorb it.

        Round-robin keeps feeding the slowed replica, so it is
        guaranteed to hold in-flight work when the failure lands
        (latency-aware legitimately routes around it instead).
        """
        report = _run_churn(served_system, policy="round-robin")
        assert report.n_failed_over > 0
        assert report.n_shed == 0  # survivors had queue space
        assert report.n_unaccounted == 0

    def test_join_spawns_replica(self, churn_report):
        origins = {r.origin for r in churn_report.replicas}
        assert "join" in origins
        joined = next(r for r in churn_report.replicas if r.origin == "join")
        assert joined.spawned_s == pytest.approx(0.25)
        assert joined.n_completed > 0  # the newcomer pulled real load

    def test_events_recorded_in_order(self, churn_report):
        kinds = [e["kind"] for e in churn_report.events_applied]
        assert kinds == ["slowdown", "failure", "join"]

    def test_latencies_span_percentiles(self, churn_report):
        p50 = churn_report.latency_percentile(50)
        p99 = churn_report.latency_percentile(99)
        assert 0 < p50 <= p99
        assert len(churn_report.latencies) == churn_report.n_completed


class TestDeterministicChurn:
    def test_report_json_byte_identical(self, served_system, churn_report):
        again = _run_churn(served_system)
        a = json.dumps(churn_report.to_json_dict(), sort_keys=True)
        b = json.dumps(again.to_json_dict(), sort_keys=True)
        assert a == b

    def test_chrome_trace_byte_identical(self, served_system):
        first, second = Tracer(), Tracer()
        _run_churn(served_system, tracer=first)
        _run_churn(served_system, tracer=second)
        a = json.dumps(first.to_chrome_dict(), sort_keys=True)
        b = json.dumps(second.to_chrome_dict(), sort_keys=True)
        assert a == b

    def test_trace_has_one_track_per_replica(self, served_system, churn_report):
        tracer = Tracer()
        _run_churn(served_system, tracer=tracer)
        tracks = set(tracer.tracks())
        for r in churn_report.replicas:
            assert f"replica{r.replica_id}" in tracks
        assert "fleet" in tracks
        assert validate_nesting(tracer.spans) == []


class TestDrainSemantics:
    def test_extinction_sheds_explicitly(self, served_system):
        """Killing every replica: remaining work is shed, never lost."""
        schedule = EventSchedule(
            [DeviceFailure(time_s=0.1, device=0), DeviceFailure(time_s=0.1, device=1)]
        )
        report = simulate_fleet(
            served_system,
            _workload(duration=0.3),
            cluster_names=["nano", "agx-orin"],
            fleet=FleetConfig(n_replicas=2),
            server_config=_config(),
            schedule=schedule,
        )
        assert report.dnf
        assert not report.survived_churn
        assert report.n_unaccounted == 0
        # Post-extinction arrivals are rejected at the front door.
        assert report.n_rejected > 0
        assert report.n_completed > 0  # pre-failure work still landed

    def test_single_failure_full_queue_sheds_rest(self, served_system):
        """With no survivor capacity, stranded requests shed explicitly."""
        schedule = EventSchedule([DeviceFailure(time_s=0.05, device=0)])
        report = simulate_fleet(
            served_system,
            _workload(rate=2000.0, duration=0.2),
            cluster_names=["nano"],
            fleet=FleetConfig(n_replicas=1),
            server_config=_config(queue_depth=4),
            schedule=schedule,
        )
        assert report.dnf
        assert report.n_shed > 0
        assert report.n_unaccounted == 0

    def test_every_completion_has_latency(self, served_system):
        schedule = EventSchedule([DeviceFailure(time_s=0.1, device=0)])
        report = simulate_fleet(
            served_system,
            _workload(duration=0.3),
            cluster_names=["nano", "agx-orin"],
            fleet=FleetConfig(n_replicas=2),
            server_config=_config(),
            schedule=schedule,
        )
        assert report.n_unaccounted == 0
        assert len(report.latencies) == report.n_completed
        assert all(lat > 0 for lat in report.latencies)


class TestAutoscale:
    def test_pressure_spawns_replicas(self, served_system):
        report = simulate_fleet(
            served_system,
            _workload(rate=3000.0, duration=0.15),
            cluster_names=["nano"],
            fleet=FleetConfig(
                n_replicas=1,
                autoscale=True,
                max_replicas=3,
                scale_up_at=0.5,
                cooldown_s=0.01,
            ),
            server_config=_config(queue_depth=16),
        )
        assert report.n_replicas_peak > report.n_replicas_initial
        kinds = [e["kind"] for e in report.scale_events]
        assert "scale-up" in kinds
        assert any(r.origin == "autoscale" for r in report.replicas)
        assert report.n_unaccounted == 0

    def test_without_autoscale_overload_rejects(self, served_system):
        report = simulate_fleet(
            served_system,
            _workload(rate=3000.0, duration=0.15),
            cluster_names=["nano"],
            fleet=FleetConfig(n_replicas=1, autoscale=False),
            server_config=_config(queue_depth=16),
        )
        assert report.n_replicas_peak == 1
        assert report.n_rejected > 0
        assert report.n_unaccounted == 0

    def test_spike_event_applies(self, served_system):
        schedule = EventSchedule(
            [LoadSpike(time_s=0.05, device=0, factor=4.0, duration_s=0.1)]
        )
        calm = simulate_fleet(
            served_system,
            _workload(duration=0.2),
            cluster_names=["nano", "agx-orin"],
            fleet=FleetConfig(n_replicas=1),
            server_config=_config(),
        )
        spiked = simulate_fleet(
            served_system,
            _workload(duration=0.2),
            cluster_names=["nano", "agx-orin"],
            fleet=FleetConfig(n_replicas=1),
            server_config=_config(),
            schedule=schedule,
        )
        assert spiked.latency_percentile(99) > calm.latency_percentile(99)


class TestRouterPoliciesEndToEnd:
    @pytest.mark.parametrize("policy", ["round-robin", "least-loaded", "latency-aware"])
    def test_policy_accounts_everything(self, served_system, policy):
        report = _run_churn(served_system, policy=policy)
        assert report.policy == policy
        assert report.n_unaccounted == 0
        assert report.survived_churn

    def test_latency_aware_not_worse_than_round_robin_under_slowdown(
        self, served_system
    ):
        """The refined-coefficient policy routes around the slow replica."""
        schedule = EventSchedule(
            [DeviceSlowdown(time_s=0.0, device=0, factor=8.0, duration_s=1.0)]
        )

        def run(policy):
            return simulate_fleet(
                served_system,
                _workload(duration=0.3),
                cluster_names=["nano", "agx-orin"],
                fleet=FleetConfig(n_replicas=2, policy=policy),
                server_config=_config(),
                schedule=schedule,
            )

        aware, rr = run("latency-aware"), run("round-robin")
        assert aware.latency_percentile(99) <= rr.latency_percentile(99)


#: Bytes a finished fleet run retains beyond its four float64 columns
#: (replica summaries, event logs, ledgers, column over-allocation):
#: measured at ~7 KiB on the workload below, for ~4 000 completions.
#: Python-float series hold ~89 B a completed request there (~345 KiB
#: in all), well over the bound.
RETAINED_CONSTANT_BYTES = 64 * 1024


class TestHostMemory:
    """What the host holds for a fleet run: 8 bytes per completed request
    per series, and no routing scratch through the event loop."""

    def test_no_scratch_in_the_loop_and_float64_columns(
        self, served_system, monkeypatch
    ):
        models = []
        build = served_system.build_multi_exit_model

        def capture(*args, **kwargs):
            models.append(build(*args, **kwargs))
            return models[-1]

        run = FleetSimulator.run

        def checked_run(self):
            # The loop only reads the route cache: the model's scratch
            # must be gone before it starts.
            held = [
                type(m).__name__ for m in models[0].modules()
                if m.workspace is not None
            ]
            assert held == [], f"workspaces held through the loop: {held}"
            return run(self)

        monkeypatch.setattr(served_system, "build_multi_exit_model", capture)
        monkeypatch.setattr(FleetSimulator, "run", checked_run)
        report = _run_churn(served_system)
        assert len(models) == 1
        for series in (
            report.latencies, report.queue_seconds,
            report.compute_seconds, report.comm_seconds,
        ):
            assert isinstance(series, array) and series.typecode == "d"
            assert len(series) == report.n_completed

    def test_retained_bytes_are_the_four_columns(self, served_system):
        workload = _workload(rate=4000.0, duration=1.0)
        _run_churn(served_system, workload=workload)  # lazy imports, caches
        gc.collect()
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            report = _run_churn(served_system, workload=workload)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            if started:
                tracemalloc.stop()
        assert report.n_completed > 3000
        bound = 4 * 8 * report.n_completed + RETAINED_CONSTANT_BYTES
        assert retained <= bound, (retained, report.n_completed)


class TestReportProtocol:
    def test_unified_schema(self, churn_report):
        from repro.api import REPORT_SCHEMA_KEYS

        payload = churn_report.to_json_dict()
        assert REPORT_SCHEMA_KEYS <= set(payload)
        assert payload["kind"] == "fleet"
        assert payload["schema"] == 1
        assert payload["accounting"]["unaccounted"] == 0
        json.dumps(payload)  # JSON-pure

    def test_metrics_snapshot_has_per_replica_series(self, churn_report):
        snapshot = churn_report.to_json_dict()["metrics"]
        assert "request_latency_seconds" in snapshot
        per_replica = [
            key
            for key in snapshot
            if key.startswith("replica_requests_completed_total{")
        ]
        assert len(per_replica) == churn_report.n_replicas_peak

    def test_ledger_merges_replica_devices(self, churn_report):
        ledger = churn_report.ledger_summary()
        assert ledger["serving"] > 0
        assert ledger["communication"] > 0  # sharded hops were charged

    def test_backend_runs_from_jobspec(self, tmp_path):
        from repro.api import JobSpec, run

        spec = JobSpec.from_json_file("examples/specs/fleet.json")
        report = run(spec)
        assert isinstance(report, FleetReport)
        assert report.survived_churn
        assert report.n_unaccounted == 0


class TestLatencyPercentiles:
    QS = (0, 25, 50, 95, 99, 100)

    @staticmethod
    def _report(latencies) -> FleetReport:
        report = FleetReport(
            pattern="poisson", arrival_rate=1.0, duration_s=1.0,
            mode="cascade", num_exits=2, policy="round-robin",
            n_replicas_initial=1,
        )
        report.latencies.extend(latencies)
        return report

    @pytest.mark.parametrize("nan_at", [None, 0, 17, 1000])
    def test_equal_np_percentile_on_the_raw_column(self, nan_at):
        raw = np.random.default_rng(0).exponential(0.01, 1001)
        if nan_at is not None:
            raw[nan_at] = np.nan
        report = self._report(raw)
        for q in self.QS:
            got = report.latency_percentile(q)
            # Bit for bit the unsorted path; numpy's two-sided lerp may
            # differ from it in the last bits only.
            assert np.array_equal(got, percentile(raw, q), equal_nan=True), q
            np.testing.assert_allclose(got, np.percentile(raw, q), rtol=1e-12)

    def test_column_is_sorted_once_per_report(self, monkeypatch):
        from repro.fleet import report as report_module

        sorts = []
        real = report_module.sorted_column
        monkeypatch.setattr(
            report_module, "sorted_column", lambda v: sorts.append(len(v)) or real(v)
        )
        report = self._report([0.3, 0.1, 0.2])
        report.to_json_dict()
        report.summary()
        assert sorts == [3]
        report.latencies.append(0.5)  # a column that grows is sorted again
        assert report.latency_percentile(100) == 0.5
        assert sorts == [3, 4]
