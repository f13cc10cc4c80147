"""Unit tests for repro.obs.analyze: model, critical path, diff, SLO."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.obs.analyze import (
    SloSpec,
    TraceModel,
    analyze_report,
    analyze_trace,
    compare_bench_headlines,
    compute_critical_path,
    diff_reports,
    diff_traces,
    evaluate_slo,
    extract_bench_headlines,
    load_trace,
    request_breakdown,
)
from repro.obs.trace import Tracer
from repro.sweep import resolve_path


def chain_tracer() -> Tracer:
    """Two tracks, one flow hop, one deliberate gap.

    dev0:  A[0.0-1.0]  B[1.0-2.0]          D[3.0-4.0]
    dev1:                C[2.0-2.5] --flow--^
    """
    t = Tracer()
    a = t.add_span("A", "compute", "dev0", 0.0, 1.0)
    b = t.add_span("B", "compute", "dev0", 1.0, 2.0)
    c = t.add_span("C", "comm", "dev1", 2.0, 2.5)
    d = t.add_span("D", "compute", "dev0", 3.0, 4.0)
    t.add_flow("hop", c, d)
    t.instant("marker", "meta", "dev0", 0.5)
    return t


class TestTraceModel:
    def test_from_tracer_views(self):
        model = TraceModel.from_tracer(chain_tracer())
        assert len(model) == 5
        assert len(model.timed_spans()) == 4  # the instant is a point
        assert model.origin_s == 0.0
        assert model.makespan_s == 4.0
        assert set(model.tracks()) == {"dev0", "dev1"}
        assert model.categories() == {"compute", "comm", "meta"}
        assert model.seconds_by_category() == pytest.approx(
            {"compute": 3.0, "comm": 0.5}
        )

    def test_chrome_round_trip_preserves_spans_and_flows(self, tmp_path):
        t = chain_tracer()
        path = tmp_path / "trace.json"
        t.write_chrome(str(path))
        model = load_trace(str(path))
        live = TraceModel.from_tracer(t)
        assert len(model.spans) == len(live.spans)
        # The non-standard "sid" key keeps ids stable, so the flow graph
        # survives the round trip.
        assert {s.span_id for s in model.spans} == {
            s.span_id for s in live.spans
        }
        assert model.flows_into == live.flows_into
        assert diff_traces(live, model).is_empty

    def test_jsonl_round_trip(self, tmp_path):
        t = chain_tracer()
        path = tmp_path / "trace.jsonl"
        t.write_jsonl(str(path))
        model = load_trace(str(path))
        assert len(model.spans) == len(t.spans)
        assert len(model.flows) == len(t.flows)
        assert diff_traces(TraceModel.from_tracer(t), model).is_empty

    def test_load_trace_rejects_garbage(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"some": "object"}')
        with pytest.raises(ConfigError, match="not a repro trace"):
            load_trace(str(path))

    def test_from_chrome_rejects_dangling_async(self):
        payload = {
            "traceEvents": [
                {"ph": "M", "name": "thread_name", "pid": 1, "tid": 0,
                 "args": {"name": "dev0"}},
                {"ph": "b", "name": "req", "cat": "request", "pid": 1,
                 "tid": 0, "ts": 0, "id": 7},
            ]
        }
        with pytest.raises(ConfigError, match="unterminated async"):
            TraceModel.from_chrome(payload)


class TestCriticalPath:
    def test_empty_model(self):
        cp = compute_critical_path(TraceModel())
        assert cp.total_s == 0.0
        assert cp.steps == []

    def test_sequential_chain_sums_to_makespan_with_zero_idle(self):
        t = Tracer()
        for i in range(4):
            t.add_span(f"s{i}", "compute", "dev0", float(i), float(i + 1))
        cp = compute_critical_path(TraceModel.from_tracer(t))
        assert cp.span_seconds == pytest.approx(4.0)
        assert cp.idle_seconds == pytest.approx(0.0)
        assert cp.n_spans == 4
        assert cp.span_seconds + cp.idle_seconds == pytest.approx(cp.total_s)

    def test_gap_becomes_explicit_idle_step(self):
        model = TraceModel.from_tracer(chain_tracer())
        cp = compute_critical_path(model)
        # Terminal D depends via flow on C; C has no predecessor on dev1,
        # so the chain is C -> D with idle [0, 2.0) before C and the gap
        # [2.5, 3.0) before D.
        assert cp.span_seconds + cp.idle_seconds == pytest.approx(cp.total_s)
        idles = [s for s in cp.steps if s.kind == "idle"]
        assert sum(s.duration_s for s in idles) == pytest.approx(
            cp.idle_seconds
        )
        assert cp.by_category()["idle"] == pytest.approx(cp.idle_seconds)

    def test_flow_arrow_binds_over_track_occupancy(self):
        t = Tracer()
        t.add_span("busy", "compute", "t2", 0.0, 2.0)
        src = t.add_span("src", "comm", "t1", 0.0, 2.0)
        dst = t.add_span("dst", "compute", "t2", 2.0, 3.0)
        t.add_flow("hop", src, dst)
        cp = compute_critical_path(TraceModel.from_tracer(t))
        spans = [s for s in cp.steps if s.kind == "span"]
        # Ties go to the explicit arrow: src (flow) beats busy (track).
        assert [s.name for s in spans] == ["src", "dst"]
        assert spans[0].via == "flow"

    def test_track_occupancy_binds_when_no_flow(self):
        t = Tracer()
        t.add_span("first", "compute", "dev0", 0.0, 1.5)
        t.add_span("second", "compute", "dev0", 1.5, 2.0)
        cp = compute_critical_path(TraceModel.from_tracer(t))
        spans = [s for s in cp.steps if s.kind == "span"]
        assert [s.name for s in spans] == ["first", "second"]
        assert spans[0].via == "track"

    def test_json_and_table_render(self):
        cp = compute_critical_path(TraceModel.from_tracer(chain_tracer()))
        payload = cp.to_json_dict()
        json.dumps(payload)
        assert payload["n_steps"] == len(cp.steps)
        assert "critical path" in cp.table()


class TestTraceDiff:
    def test_self_diff_is_empty(self):
        model = TraceModel.from_tracer(chain_tracer())
        diff = diff_traces(model, model)
        assert diff.is_empty
        assert "empty" in diff.table()

    def test_added_and_removed_identities(self):
        a = TraceModel.from_tracer(chain_tracer())
        t = chain_tracer()
        t.add_span("extra", "compute", "dev0", 4.0, 5.0)
        b = TraceModel.from_tracer(t)
        diff = diff_traces(a, b)
        assert not diff.is_empty
        assert ["dev0", "compute", "extra", 1] in diff.added
        assert diff_traces(b, a).removed == [["dev0", "compute", "extra", 1]]

    def test_duration_shift_reported_with_delta(self):
        a = TraceModel.from_tracer(chain_tracer())
        t = Tracer()
        ta = t.add_span("A", "compute", "dev0", 0.0, 1.25)  # +0.25 s
        t.add_span("B", "compute", "dev0", 1.25, 2.0)
        c = t.add_span("C", "comm", "dev1", 2.0, 2.5)
        d = t.add_span("D", "compute", "dev0", 3.0, 4.0)
        t.add_flow("hop", c, d)
        t.instant("marker", "meta", "dev0", 0.5)
        b = TraceModel.from_tracer(t)
        diff = diff_traces(a, b)
        shifted = {tuple(c["identity"]): c for c in diff.changed}
        assert shifted[("dev0", "compute", "A")]["delta_s"] == pytest.approx(
            0.25
        )
        assert diff.by_category["compute"]["delta_s"] == pytest.approx(0.0)


class TestReportDiff:
    def test_identical_reports_empty(self):
        doc = {"a": 1, "nested": {"x": [1, 2]}}
        assert diff_reports(doc, doc).is_empty

    def test_numeric_delta_and_nested_paths(self):
        a = {"wall_clock_s": 1.0, "nested": {"x": 2}}
        b = {"wall_clock_s": 1.5, "nested": {"x": 3}}
        diff = diff_reports(a, b)
        by_path = {e["path"]: e for e in diff.entries}
        assert by_path["wall_clock_s"]["delta"] == pytest.approx(0.5)
        assert by_path["nested.x"]["delta"] == 1

    def test_list_length_and_missing_keys(self):
        diff = diff_reports({"xs": [1, 2], "only_a": True}, {"xs": [1]})
        by_path = {e["path"]: e for e in diff.entries}
        assert by_path["xs.length"]["delta"] == -1
        assert by_path["only_a"]["b"] is None


class TestSlo:
    DOC = {
        "p99_latency_s": 0.02,
        "accounting": {"unaccounted": 0},
        "dnf": False,
        'ledger_seconds_total{category="compute"}': 1.5,
    }

    def test_rules_hold(self):
        spec = SloSpec.from_dict({"slo": [
            {"metric": "p99_latency_s", "max": 0.05},
            {"metric": "accounting.unaccounted", "equals": 0},
            {"metric": "dnf", "equals": False},
            {"metric": 'ledger_seconds_total{category="compute"}', "min": 1.0},
        ]})
        result = evaluate_slo(spec, self.DOC)
        assert result.ok and result.n_rules == 4

    def test_violation_is_named(self):
        spec = SloSpec.from_dict([
            {"name": "tail", "metric": "p99_latency_s", "max": 0.01},
        ])
        result = evaluate_slo(spec, self.DOC)
        assert not result.ok
        assert result.violations[0]["name"] == "tail"
        assert "exceeds max" in result.violations[0]["reason"]
        assert "[tail]" in result.table()

    def test_missing_metric_is_a_violation(self):
        spec = SloSpec.from_dict([{"metric": "no.such.path", "min": 1}])
        result = evaluate_slo(spec, self.DOC)
        assert not result.ok
        assert "not found" in result.violations[0]["reason"]

    def test_dotted_key_exact_match_wins(self):
        # Metric-registry keys contain dots inside label braces; the
        # whole string must resolve before any splitting happens.
        spec = SloSpec.from_dict([
            {"metric": 'ledger_seconds_total{category="compute"}', "max": 2.0},
        ])
        assert evaluate_slo(spec, self.DOC).ok

    def test_dotted_key_mid_path_resolves_as_in_a_sweep_query(self):
        """A dotted key below the first level resolves by the longest
        prefix, as ``repro sweep results --select`` resolves it."""
        doc = {"x": {"a.b": {"c": 1}}}
        spec = SloSpec.from_dict([{"metric": "x.a.b.c", "equals": 1}])
        assert evaluate_slo(spec, doc).ok
        assert resolve_path(doc, "x.a.b.c") == 1
        missing = evaluate_slo(SloSpec.from_dict([{"metric": "x.a.c", "min": 0}]), doc)
        assert "not found" in missing.violations[0]["reason"]

    def test_spec_validation(self):
        with pytest.raises(ConfigError, match="exactly one bound"):
            SloSpec.from_dict([{"metric": "x"}])
        with pytest.raises(ConfigError, match="exactly one bound"):
            SloSpec.from_dict([{"metric": "x", "max": 1, "min": 0}])
        with pytest.raises(ConfigError, match="non-empty"):
            SloSpec.from_dict({"slo": []})
        with pytest.raises(ConfigError, match='"slo" list'):
            SloSpec.from_dict({"rules": []})


class TestBenchHeadlines:
    BENCH = {
        "speedups": {"optimized_vs_round_robin": 1.87},
        "claims": {"pipelined_beats_single": True},
        "micro": {"im2col": {"speedup": 5.4, "best_ms": 12.0}},
        "env": {"python": "3.12"},
        "timings": {"wall_ms": 123.4},
    }

    def test_extraction_scopes(self):
        headlines = extract_bench_headlines(self.BENCH)
        assert headlines == {
            "speedups.optimized_vs_round_robin": 1.87,
            "claims.pipelined_beats_single": True,
            "micro.im2col.speedup": 5.4,
        }

    def test_small_drop_within_floor_passes(self):
        current = json.loads(json.dumps(self.BENCH))
        current["micro"]["im2col"]["speedup"] = 5.0  # 0.926x: above floor
        assert compare_bench_headlines(self.BENCH, current) == []

    def test_regression_below_floor_fails(self):
        current = json.loads(json.dumps(self.BENCH))
        current["speedups"]["optimized_vs_round_robin"] = 1.0
        violations = compare_bench_headlines(
            self.BENCH, current, source="BENCH_x.json"
        )
        assert len(violations) == 1
        assert violations[0]["name"] == (
            "BENCH_x.json:speedups.optimized_vs_round_robin"
        )
        assert "regressed" in violations[0]["reason"]

    def test_claim_flip_and_disappearance_fail(self):
        current = json.loads(json.dumps(self.BENCH))
        current["claims"]["pipelined_beats_single"] = False
        del current["micro"]
        reasons = "\n".join(
            v["reason"] for v in compare_bench_headlines(self.BENCH, current)
        )
        assert "true -> false" in reasons
        assert "disappeared" in reasons

    def test_new_headline_passes(self):
        current = json.loads(json.dumps(self.BENCH))
        current["speedups"]["brand_new"] = 0.1
        assert compare_bench_headlines(self.BENCH, current) == []


class TestRequestBreakdown:
    def test_full_decomposition_accounted(self):
        t = Tracer()
        t.add_span(
            "req1", "fleet-request", "requests", 0.0, 1.0,
            attrs={"queue_s": 0.4, "compute_s": 0.5, "comm_s": 0.1,
                   "replica": 0},
            kind="async",
        )
        out = request_breakdown(TraceModel.from_tracer(t))
        assert out.n_requests == out.n_decomposed == 1
        assert out.accounted
        assert out.queue_s + out.compute_s + out.comm_s == pytest.approx(
            out.latency_s
        )
        assert out.per_replica == {"replica0": 1}

    def test_leaky_decomposition_flagged(self):
        t = Tracer()
        t.add_span(
            "req1", "fleet-request", "requests", 0.0, 1.0,
            attrs={"queue_s": 0.1, "compute_s": 0.1, "comm_s": 0.1},
            kind="async",
        )
        out = request_breakdown(TraceModel.from_tracer(t))
        assert not out.accounted
        assert out.max_residual_s == pytest.approx(0.7)
        assert "UNACCOUNTED" in out.table()

    def test_single_server_trace_decomposes_every_request(self, served_system):
        """The ``serving`` backend's loop (a fleet of one) emits the same
        ``fleet-request`` spans, so its traces break down in full."""
        from helpers import serve_single
        from repro.serving import WorkloadSpec

        t = Tracer()
        report = serve_single(
            served_system,
            WorkloadSpec(arrival_rate=400.0, duration_s=0.25, seed=3),
            tracer=t,
        )
        out = request_breakdown(TraceModel.from_tracer(t))
        assert out.n_requests == out.n_decomposed == report.n_completed > 0
        assert out.accounted
        assert out.comm_s == 0.0
        assert out.per_replica == {"replica0": report.n_completed}


class TestAnalysisReport:
    def test_trace_analysis_satisfies_unified_schema(self):
        from repro.api.report import REPORT_SCHEMA_KEYS

        model = TraceModel.from_tracer(chain_tracer())
        analysis = analyze_trace(model, baseline=model)
        payload = analysis.to_json_dict()
        assert REPORT_SCHEMA_KEYS <= set(payload)
        json.dumps(payload)
        assert payload["kind"] == "analysis"
        assert payload["diff"]["empty"] is True
        assert analysis.ok

    def test_trace_slo_sees_the_analysis_document(self):
        model = TraceModel.from_tracer(chain_tracer())
        slo = SloSpec.from_dict([
            {"name": "no-bubbles", "metric": "critical_path.idle_fraction",
             "max": 0.0},
        ])
        analysis = analyze_trace(model, slo=slo)
        assert not analysis.ok  # the chain has deliberate gaps
        assert analysis.slo.violations[0]["name"] == "no-bubbles"

    def test_report_analysis_diff_and_slo(self):
        doc = {"wall_clock_s": 2.0, "ledger": {"total": 2.0}, "p99": 0.5}
        base = {"wall_clock_s": 1.0, "ledger": {"total": 1.0}, "p99": 0.5}
        analysis = analyze_report(
            doc, source="cur.json", baseline=base,
            slo=SloSpec.from_dict([{"metric": "p99", "max": 1.0}]),
        )
        assert analysis.ok
        assert not analysis.report_diff.is_empty
        assert analysis.wall_clock_s == 2.0
        assert "analysis -- report cur.json" in analysis.summary()
