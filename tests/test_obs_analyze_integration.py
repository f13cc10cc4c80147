"""Integration: trace analytics over the real backends and the CLI.

The acceptance teeth of the analyze PR: the critical-path span sum
matches the reported makespan on the sequential schedule, a run diffed
against itself is empty on every backend, and a fleet request's traced
``queue + compute + comm`` decomposition sums exactly to its end-to-end
latency.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import JobSpec, available_backends, run
from repro.obs import Tracer, TracingCallback, deactivate
from repro.obs.analyze import (
    TraceModel,
    analyze_trace,
    compute_critical_path,
    diff_traces,
    load_trace,
    request_breakdown,
)

QUICK = Path(__file__).resolve().parent.parent / "examples/specs/quick.json"


@pytest.fixture(autouse=True)
def _clean_active_tracer():
    deactivate()
    yield
    deactivate()


def quick_spec(backend: str, **extra) -> JobSpec:
    payload = json.loads(QUICK.read_text())
    payload.update(extra)
    if backend == "baseline":
        # BP cannot take a step in the 1 MB NeuroFlux trains in.
        payload["budgets"] = {**payload["budgets"], "memory_mb": 8}
    return JobSpec.from_dict(payload, backend=backend)


def traced_run(backend: str):
    tracer = Tracer()
    report = run(quick_spec(backend), callbacks=TracingCallback(tracer=tracer))
    return TraceModel.from_tracer(tracer, source=backend), report


class TestCriticalPathAcceptance:
    def test_sequential_span_sum_equals_makespan(self):
        # The sequential backend tiles one device timeline, so the
        # critical path has no idle and its span sum IS the makespan.
        model, report = traced_run("sequential")
        cp = compute_critical_path(model)
        assert cp.idle_seconds == pytest.approx(0.0, abs=1e-9)
        assert cp.span_seconds == pytest.approx(cp.total_s, rel=1e-9)
        assert cp.makespan_s == pytest.approx(report.wall_clock_s, rel=1e-6)

    @pytest.mark.parametrize("backend", sorted(available_backends()))
    def test_invariant_and_self_diff_on_every_backend(self, backend):
        model, _ = traced_run(backend)
        cp = compute_critical_path(model)
        assert cp.span_seconds + cp.idle_seconds == pytest.approx(
            cp.total_s, abs=1e-9
        ), backend
        assert diff_traces(model, model).is_empty, backend

    def test_chrome_round_trip_diffs_empty_against_live(self, tmp_path):
        tracer = Tracer()
        run(quick_spec("pipelined"), callbacks=TracingCallback(tracer=tracer))
        path = tmp_path / "trace.json"
        tracer.write_chrome(str(path))
        reloaded = load_trace(str(path))
        live = TraceModel.from_tracer(tracer)
        assert diff_traces(live, reloaded).is_empty
        # Flow arrows must survive the round trip for the walk to work.
        assert reloaded.flows_into == live.flows_into


class TestFleetRequestDecomposition:
    @pytest.fixture(scope="class")
    def fleet_run(self, served_system):
        from repro.fleet import FleetConfig, simulate_fleet
        from repro.obs.trace import activate
        from repro.serving import ServerConfig, WorkloadSpec

        tracer = Tracer()
        activate(tracer)
        try:
            report = simulate_fleet(
                served_system,
                WorkloadSpec(
                    pattern="poisson", arrival_rate=400.0, duration_s=0.3,
                    seed=7,
                ),
                cluster_names=["nano", "agx-orin"],
                fleet=FleetConfig(n_replicas=2, policy="latency-aware"),
                server_config=ServerConfig(
                    batch_cap=8, max_wait_s=0.004, queue_depth=64
                ),
            )
        finally:
            deactivate()
        return TraceModel.from_tracer(tracer, source="fleet"), report

    def test_every_request_sums_queue_compute_comm_to_latency(self, fleet_run):
        model, report = fleet_run
        spans = [s for s in model.spans if s.category == "fleet-request"]
        assert len(spans) == report.n_completed > 0
        for span in spans:
            attrs = span.attrs
            total = attrs["queue_s"] + attrs["compute_s"] + attrs["comm_s"]
            assert total == pytest.approx(span.duration_s, abs=1e-6), attrs

    def test_breakdown_matches_report_lists(self, fleet_run):
        model, report = fleet_run
        out = request_breakdown(model)
        assert out.accounted
        assert out.n_decomposed == report.n_completed
        assert out.queue_s == pytest.approx(sum(report.queue_seconds), abs=1e-5)
        assert out.compute_s == pytest.approx(
            sum(report.compute_seconds), abs=1e-5
        )
        assert out.comm_s == pytest.approx(sum(report.comm_seconds), abs=1e-5)
        assert out.latency_s == pytest.approx(sum(report.latencies), abs=1e-5)

    def test_report_decomposition_identity_per_request(self, fleet_run):
        _, report = fleet_run
        assert len(report.queue_seconds) == len(report.latencies)
        for latency, q, c, m in zip(
            report.latencies, report.queue_seconds,
            report.compute_seconds, report.comm_seconds,
        ):
            assert q + c + m == pytest.approx(latency, abs=1e-9)
        split = report.latency_breakdown()
        assert split["queue_share"] + split["compute_share"] + split[
            "comm_share"
        ] == pytest.approx(1.0)

    def test_critical_path_ends_at_last_completion(self, fleet_run):
        model, report = fleet_run
        cp = compute_critical_path(model)
        assert cp.makespan_s == pytest.approx(report.last_completion_s)
        assert cp.span_seconds + cp.idle_seconds == pytest.approx(cp.total_s)

    def test_admit_flow_links_router_to_request(self, fleet_run):
        model, _ = fleet_run
        routed = [f for f in model.flows if str(f["name"]).startswith("route-")]
        assert routed
        for flow in routed:
            src = model.by_id[flow["src"]]
            dst = model.by_id[flow["dst"]]
            assert src.category == "fleet-router"
            assert dst.category == "fleet-request"
            assert src.attrs["request_id"] == dst.attrs["request_id"]


class TestAnalyzeCli:
    @pytest.fixture(scope="class")
    def trace_file(self, tmp_path_factory):
        tracer = Tracer()
        run(quick_spec("serving"), callbacks=TracingCallback(tracer=tracer))
        path = tmp_path_factory.mktemp("analyze") / "trace.json"
        tracer.write_chrome(str(path))
        return str(path)

    def test_trace_target_exits_zero(self, trace_file, capsys):
        from repro.cli import main

        assert main(["analyze", trace_file]) == 0
        out = capsys.readouterr().out
        assert "critical path" in out

    def test_self_diff_gate_passes(self, trace_file):
        from repro.cli import main

        assert main([
            "analyze", trace_file, "--baseline", trace_file, "--fail-on-diff",
        ]) == 0

    def test_slo_violation_exits_one_and_names_rule(
        self, trace_file, tmp_path, capsys
    ):
        from repro.cli import main

        slo = tmp_path / "slo.json"
        slo.write_text(json.dumps({"slo": [
            {"name": "impossible", "metric": "critical_path.span_seconds",
             "max": 0.0},
        ]}))
        assert main(["analyze", trace_file, "--slo", str(slo)]) == 1
        captured = capsys.readouterr()
        assert "[impossible]" in captured.out
        assert "impossible" in captured.err

    def test_report_target_with_slo(self, tmp_path):
        from repro.cli import main

        report = run(quick_spec("cluster-serving"))
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report.to_json_dict()))
        ok_slo = tmp_path / "ok.json"
        ok_slo.write_text(json.dumps({"slo": [
            {"metric": "accounting.unaccounted", "equals": 0},
        ]}))
        assert main(["analyze", str(path), "--slo", str(ok_slo)]) == 0

    def test_config_error_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("not json {{{")
        assert main(["analyze", str(bad)]) == 2
        assert main(["analyze", str(tmp_path / "missing.json")]) == 2

    def test_json_output_satisfies_report_schema(self, trace_file, tmp_path):
        from repro.api.report import REPORT_SCHEMA_KEYS
        from repro.cli import main

        out = tmp_path / "analysis.json"
        assert main(["analyze", trace_file, "--json", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert REPORT_SCHEMA_KEYS <= set(payload)
        assert payload["kind"] == "analysis"

    def test_bench_baseline_gate(self, tmp_path):
        from repro.cli import main

        base = tmp_path / "base.json"
        base.write_text(json.dumps({"speedups": {"x": 2.0}}))
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"speedups": {"x": 1.9}}))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"speedups": {"x": 1.0}}))
        assert main([
            "analyze", str(good), "--bench-baseline", str(base),
        ]) == 0
        assert main([
            "analyze", str(bad), "--bench-baseline", str(base),
        ]) == 1


class TestAnalyzeInTraceWorkflow:
    def test_full_analysis_on_traced_fleet_backend(self):
        model, report = traced_run("cluster-serving")
        analysis = analyze_trace(model, baseline=model)
        assert analysis.trace_diff.is_empty
        assert analysis.requests is not None
        assert analysis.requests.accounted
        payload = analysis.to_json_dict()
        json.dumps(payload)
        assert payload["requests"]["n_decomposed"] == report.n_completed
