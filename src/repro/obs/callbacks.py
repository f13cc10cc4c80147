"""Observability callbacks on the unified PR-5 ``Callback`` protocol.

Because every backend fans its lifecycle through the same hooks, one set
of callbacks gives tracing, metrics export, progress lines, and CSV logs
to all five engines for free.  They are wired automatically when a
:class:`~repro.api.spec.JobSpec` carries an ``observability`` section
(see :func:`build_observability_callbacks`), which is also how the CLI's
``--trace-out`` / ``--metrics-out`` / ``--progress`` / ``--csv-out``
flags arrive.
"""

from __future__ import annotations

import csv
import sys

from repro.api.callbacks import BatchInfo, Callback
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer, activate, deactivate


class TracingCallback(Callback):
    """Collects a run's spans and writes Chrome-trace / JSONL exports.

    On ``on_job_start`` it activates its tracer in the process-wide
    registry (``repro.obs.trace.active_tracer``), which is where the
    engines' instrumentation points pick it up; on ``on_job_end`` it
    deactivates and writes the requested files.  It also renders the
    runtime hooks nothing else covers: fault/load events become instants
    and migrations become a source span, a destination span, and a flow
    arrow linking them.
    """

    def __init__(
        self,
        trace_path: str | None = None,
        jsonl_path: str | None = None,
        tracer: Tracer | None = None,
    ):
        self.trace_path = trace_path
        self.jsonl_path = jsonl_path
        self.tracer = tracer if tracer is not None else Tracer()

    def on_job_start(self, context) -> None:
        activate(self.tracer)

    def on_event(self, event, time_s: float) -> None:
        attrs = {"kind": event.kind}
        for key in ("device", "factor", "platform"):
            value = getattr(event, key, None)
            if value is not None:
                attrs[key] = value
        self.tracer.instant(event.kind, "runtime-decision", "runtime", time_s, attrs)

    def on_migration(self, record, time_s: float) -> None:
        track = f"migration/block{record.block}"
        out_span = self.tracer.add_span(
            f"block{record.block}:out",
            "migration",
            track,
            time_s,
            time_s + record.transfer_s,
            attrs={"src": record.src, "dst": record.dst,
                   "reason": record.reason, "nbytes": record.nbytes},
        )
        in_span = self.tracer.add_span(
            f"block{record.block}:in",
            "migration",
            track,
            time_s + record.transfer_s,
            time_s + record.recovery_s,
            attrs={"dst": record.dst, "restore_s": round(record.restore_s, 9),
                   "replay_microbatches": record.replay_microbatches},
        )
        self.tracer.add_flow(f"migrate-block{record.block}", out_span, in_span)

    def on_job_end(self, context) -> None:
        deactivate()
        if self.trace_path:
            self.tracer.write_chrome(self.trace_path)
        if self.jsonl_path:
            self.tracer.write_jsonl(self.jsonl_path)


class MetricsCallback(Callback):
    """Aggregates run counters and exports one metrics snapshot JSON.

    The exported snapshot is the report's own ``metrics_registry()``
    (the same dict embedded in ``Report.to_json_dict()['metrics']``) plus
    the live counters this callback accumulates from the hook stream
    (batches, samples, events, migrations, per-step histograms).  A
    series both count (``epochs_total``, ``runtime_events_total``,
    ``migrations_total``, ``migration_recovery_seconds``) is the report's:
    the run's total, counted once.
    """

    def __init__(self, path: str | None = None):
        self.path = path
        self.registry = MetricsRegistry()
        self.snapshot: dict | None = None

    def on_batch(self, info: BatchInfo) -> None:
        self.registry.counter("batches_total", scope=info.scope).inc()
        if info.last_stage:
            self.registry.counter("samples_total").inc(info.n_samples)
        self.registry.histogram("step_seconds", scope=info.scope).observe(info.step_s)

    def on_epoch_end(self, epoch: int, time_s: float, metrics: dict) -> None:
        self.registry.counter("epochs_total").inc()
        for key in ("loss", "accuracy"):
            if key in metrics and metrics[key] is not None:
                self.registry.gauge(f"last_{key}").set(metrics[key])

    def on_event(self, event, time_s: float) -> None:
        self.registry.counter("runtime_events_total", kind=event.kind).inc()

    def on_migration(self, record, time_s: float) -> None:
        self.registry.counter("migrations_total", reason=record.reason).inc()
        self.registry.histogram("migration_recovery_seconds").observe(record.recovery_s)

    def on_job_end(self, context) -> None:
        merged = MetricsRegistry().merge(self.registry)
        merged.update(context.report.metrics_registry())
        self.snapshot = merged.snapshot()
        if self.path:
            merged.write_json(self.path)


class ProgressCallback(Callback):
    """One stderr line per epoch/round plus a final summary.

    Label-aware: federated backends report *rounds*, the rest report
    *epochs*, and the final line folds in serving request counts when
    the report has them.
    """

    def __init__(self, stream=None):
        self.stream = stream
        self._label = "epoch"
        self._backend = "?"
        self._batches = 0

    def _out(self):
        return self.stream if self.stream is not None else sys.stderr

    def on_job_start(self, context) -> None:
        self._backend = getattr(context, "backend", "?")
        self._label = "round" if self._backend.startswith("federated") else "epoch"
        self._batches = 0

    def on_batch(self, info: BatchInfo) -> None:
        if info.last_stage:
            self._batches += 1

    def on_epoch_end(self, epoch: int, time_s: float, metrics: dict) -> None:
        parts = [f"[{self._backend}] {self._label} {epoch + 1}:",
                 f"t={time_s:.3f}s"]
        for key in ("loss", "accuracy", "staleness"):
            value = metrics.get(key)
            if value is not None:
                parts.append(f"{key}={value:.4f}")
        print(" ".join(parts), file=self._out(), flush=True)

    def on_job_end(self, context) -> None:
        report = context.report
        parts = [f"[{self._backend}] done:", f"wall_clock={report.wall_clock_s:.3f}s"]
        if self._batches:
            parts.append(f"batches={self._batches}")
        n_completed = getattr(report, "n_completed", None)
        if n_completed is not None:
            parts.append(f"requests={n_completed}")
            parts.append(f"rejected={getattr(report, 'n_rejected', 0)}")
        print(" ".join(parts), file=self._out(), flush=True)


class CsvMetricsCallback(Callback):
    """One CSV row per epoch/round: index, wall-clock, loss, accuracy."""

    FIELDS = ("index", "time_s", "loss", "accuracy")

    def __init__(self, path: str):
        self.path = path
        self._rows: list[tuple] = []

    def on_epoch_end(self, epoch: int, time_s: float, metrics: dict) -> None:
        self._rows.append(
            (epoch, round(time_s, 9), metrics.get("loss"), metrics.get("accuracy"))
        )

    def on_job_end(self, context) -> None:
        with open(self.path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.FIELDS)
            for row in self._rows:
                writer.writerow(["" if v is None else v for v in row])


def build_observability_callbacks(section) -> list[Callback]:
    """Instantiate the callbacks a spec ``observability`` section asks for.

    Called by :meth:`repro.api.registry.Backend.run`; an all-default
    section yields an empty list, keeping the disabled path free.
    """
    out: list[Callback] = []
    if section.trace_path or section.trace_jsonl_path:
        out.append(TracingCallback(section.trace_path, section.trace_jsonl_path))
    if section.metrics_path:
        out.append(MetricsCallback(section.metrics_path))
    if section.progress:
        out.append(ProgressCallback())
    if section.csv_path:
        out.append(CsvMetricsCallback(section.csv_path))
    return out
