"""Integration tests: tracing/metrics wired through the real backends."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.api import JobSpec, available_backends, run
from repro.obs import (
    CsvMetricsCallback,
    MetricsCallback,
    ProgressCallback,
    Tracer,
    TracingCallback,
    deactivate,
    validate_monotonic,
    validate_nesting,
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


class TestDeterminism:
    def test_pipelined_trace_byte_identical_across_runs(self, tmp_path):
        paths = []
        for i in (1, 2):
            path = tmp_path / f"trace{i}.json"
            run(
                quick_spec("pipelined"),
                callbacks=TracingCallback(trace_path=str(path)),
            )
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_pipelined_trace_has_required_categories_and_tracks(self):
        tracer = Tracer()
        run(quick_spec("pipelined"), callbacks=TracingCallback(tracer=tracer))
        cats = tracer.categories()
        assert {"train", "communication", "runtime-decision"} <= cats
        tracks = tracer.tracks()
        assert "dev0" in tracks and "dev1" in tracks
        assert validate_nesting(tracer.spans) == []
        assert validate_monotonic(tracer.spans) == []


class TestAllBackends:
    @pytest.fixture(scope="class")
    def reports(self):
        return {
            name: run(quick_spec(name)) for name in available_backends()
        }

    def test_every_backend_emits_nonempty_metrics(self, reports):
        for name, report in reports.items():
            payload = report.to_json_dict()
            assert isinstance(payload.get("metrics"), dict), name
            assert payload["metrics"], name
            for key, entry in payload["metrics"].items():
                assert entry["type"] in ("counter", "gauge", "histogram"), (
                    name, key,
                )
            json.dumps(payload)

    def test_base_metrics_match_report_fields(self, reports):
        for name, report in reports.items():
            metrics = report.to_json_dict()["metrics"]
            wall = metrics["wall_clock_seconds"]["value"]
            assert wall == pytest.approx(report.wall_clock_s, abs=1e-6), name

    def test_every_backend_traces_spans(self):
        for name in available_backends():
            tracer = Tracer()
            run(quick_spec(name), callbacks=TracingCallback(tracer=tracer))
            assert len(tracer.spans) > 0, name
            assert validate_nesting(tracer.spans) == [], name
            assert validate_monotonic(tracer.spans) == [], name


class TestRuntimeTracing:
    @pytest.fixture(scope="class")
    def traced_run(self):
        spec = quick_spec(
            "pipelined",
            runtime={
                "adapt": True,
                "events": {
                    "events": [
                        {
                            "type": "slowdown",
                            "time_s": 0.02,
                            "device": 0,
                            "factor": 4.0,
                            "duration_s": 10.0,
                        }
                    ]
                },
            },
        )
        tracer = Tracer()
        report = run(spec, callbacks=TracingCallback(tracer=tracer))
        return tracer, report

    def test_migration_emits_flow_to_real_spans(self, traced_run):
        tracer, report = traced_run
        assert report.runtime is not None
        migrations = report.runtime.to_json_dict()["migrations"]
        assert migrations, "the slowdown should force at least one migration"
        assert len(tracer.flows) == len(migrations)
        by_id = {s.span_id: s for s in tracer.spans}
        for flow in tracer.flows:
            src, dst = by_id[flow["src"]], by_id[flow["dst"]]
            assert src.category == dst.category == "migration"
            assert src.end_s <= dst.start_s + 1e-9

    def test_decision_instants_present(self, traced_run):
        tracer, _ = traced_run
        names = {s.name for s in tracer.spans if s.category == "runtime-decision"}
        assert "drift-detected" in names
        assert names & {"replacement-accepted", "replacement-rejected"}

    def test_migration_metrics_in_report(self, traced_run):
        _, report = traced_run
        metrics = report.to_json_dict()["metrics"]
        assert 'migrations_total{reason="drift"}' in metrics
        assert 'runtime_events_total{kind="slowdown"}' in metrics


class TestFederatedTracing:
    """Clients train inside the federation's trace: their device charges
    are spans on ``dev{c}``, on the clock of the ``client{c}`` rounds."""

    @pytest.mark.parametrize("backend", ["federated", "federated-async"])
    def test_client_charges_are_device_spans(self, backend):
        tracer = Tracer()
        report = run(quick_spec(backend), callbacks=TracingCallback(tracer=tracer))
        assert validate_nesting(tracer.spans) == []
        assert validate_monotonic(tracer.spans) == []
        for c, ledger in enumerate(report.device_ledgers):
            spans = [
                s for s in tracer.spans
                if s.track == f"dev{c}" and s.kind == "complete"
            ]
            assert spans, f"dev{c}"
            # Only the WAN transfers are charged outside the block loop.
            assert sum(s.duration_s for s in spans) == pytest.approx(
                ledger["total"] - ledger["communication"], rel=0, abs=1e-12
            )


class TestObservabilitySection:
    def test_spec_round_trip(self):
        spec = quick_spec(
            "sequential",
            observability={"trace_path": "t.json", "progress": True},
        )
        payload = spec.to_dict()
        assert payload["observability"]["trace_path"] == "t.json"
        again = JobSpec.from_dict(payload)
        assert again.observability.trace_path == "t.json"
        assert again.observability.progress is True

    def test_section_drives_outputs(self, tmp_path):
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        csv_path = tmp_path / "rows.csv"
        spec = quick_spec(
            "sequential",
            observability={
                "trace_path": str(trace),
                "metrics_path": str(metrics),
                "csv_path": str(csv_path),
            },
        )
        run(spec)
        assert json.loads(trace.read_text())["traceEvents"]
        snap = json.loads(metrics.read_text())
        assert snap["schema"] == 1 and snap["metrics"]
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "index,time_s,loss,accuracy"
        assert len(lines) >= 2

    def test_user_callbacks_unmodified(self):
        from repro.api import CallbackList, RecordingCallback

        rec = RecordingCallback()
        user = CallbackList([rec])
        spec = quick_spec("sequential", observability={"progress": True})
        run(spec, callbacks=user)
        assert len(user) == 1  # the obs callback went into a fresh list
        assert "on_job_end" in rec.names()


class TestProgressAndCsvCallbacks:
    def test_progress_lines(self):
        stream = io.StringIO()
        run(quick_spec("sequential"), callbacks=ProgressCallback(stream=stream))
        text = stream.getvalue()
        assert "[sequential] epoch 1:" in text
        assert "done:" in text

    def test_progress_federated_labels_rounds(self):
        stream = io.StringIO()
        run(quick_spec("federated"), callbacks=ProgressCallback(stream=stream))
        assert "round 1" in stream.getvalue()

    def test_csv_rows(self, tmp_path):
        path = tmp_path / "rows.csv"
        run(quick_spec("sequential"), callbacks=CsvMetricsCallback(str(path)))
        lines = path.read_text().splitlines()
        assert lines[0] == "index,time_s,loss,accuracy"
        row = lines[1].split(",")
        assert row[0] == "0"
        assert float(row[1]) > 0

    def test_metrics_callback_merges_report_registry(self, tmp_path):
        path = tmp_path / "m.json"
        cb = MetricsCallback(path=str(path))
        run(quick_spec("serving"), callbacks=cb)
        snap = json.loads(path.read_text())["metrics"]
        # Counts both callback-observed and report-side metrics.
        assert "requests_completed_total" in snap
        assert "wall_clock_seconds" in snap


class TestMetricsExport:
    """``--metrics-out`` counts every series once: where the report and
    the live hook stream count the same series, the report's total is
    written, and the live-only series are added beside it."""

    SPECS = Path(__file__).resolve().parent.parent / "examples/specs"
    DEVICE3_FAILURE = {
        "events": {"events": [{"type": "failure", "time_s": 0.1, "device": 3}]}
    }

    @pytest.mark.parametrize("spec_name", ["sequential.json", "pipelined.json"])
    def test_report_series_are_written_once(self, tmp_path, spec_name):
        spec = JobSpec.from_json_file(str(self.SPECS / spec_name))
        if spec.cluster is not None:
            spec = spec.overlay({"runtime": self.DEVICE3_FAILURE})
        path = tmp_path / "m.json"
        report = run(spec, callbacks=MetricsCallback(path=str(path)))
        written = json.loads(path.read_text())["metrics"]
        own = report.to_json_dict()["metrics"]
        assert {k: written[k] for k in own} == own
        live_only = set(written) - set(own)
        assert "samples_total" in live_only
        assert any(k.startswith("batches_total{") for k in live_only)
        assert any(k.startswith("step_seconds{") for k in live_only)
        if spec.cluster is None:
            assert written["epochs_total"]["value"] == spec.budgets.epochs
        else:
            assert written['migrations_total{reason="failure"}']["value"] == 1
            assert written['runtime_events_total{kind="failure"}']["value"] == 1
