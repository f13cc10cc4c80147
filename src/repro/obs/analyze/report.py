"""AnalysisReport: analysis results as a unified Report.

Like every backend's report, the analyzer's output is a
:class:`repro.api.report.Report` -- ``summary()``, ``to_json_dict()``
with the :data:`~repro.api.report.REPORT_SCHEMA_KEYS`, a wall clock, a
ledger and a metrics snapshot -- so the same schema checks, storage and
diff tooling that handle run reports handle analyses.  The "ledger" of
an analysis is the trace's span-seconds per category (what the timeline
actually recorded), and the wall clock is the analyzed makespan.

Two entry points build one:

* :func:`analyze_trace` -- critical path + request breakdown over a
  :class:`~repro.obs.analyze.model.TraceModel`, optionally diffed
  against a baseline trace and gated by an SLO spec;
* :func:`analyze_report` -- SLO gating and baseline diffing for an
  already-written unified Report JSON (or any JSON document, e.g. a
  ``BENCH_*.json`` payload).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.report import Report, merge_ledger_summaries
from repro.obs.analyze.critical_path import (
    CriticalPath,
    compute_critical_path,
)
from repro.obs.analyze.diff import (
    ReportDiff,
    TraceDiff,
    diff_reports,
    diff_traces,
)
from repro.obs.analyze.model import TraceModel
from repro.obs.analyze.requests import RequestBreakdown, request_breakdown
from repro.obs.analyze.slo import SloResult, SloSpec, evaluate_slo


@dataclass
class AnalysisReport(Report):
    """One analysis run's outcome."""

    kind = "analysis"

    source: str
    target_kind: str  # "trace" | "report"
    critical_path: CriticalPath | None = None
    requests: RequestBreakdown | None = None
    trace_diff: TraceDiff | None = None
    report_diff: ReportDiff | None = None
    slo: SloResult | None = None
    ledger: dict[str, float] = field(default_factory=dict)
    analyzed_wall_clock_s: float = 0.0

    # -- Report ----------------------------------------------------------------
    @property
    def wall_clock_s(self) -> float:
        return self.analyzed_wall_clock_s

    @property
    def peak_memory_bytes(self) -> int:
        """Analysis inspects timelines; it does not model residency."""
        return 0

    def ledger_summary(self) -> dict[str, float]:
        return dict(self.ledger) if self.ledger else merge_ledger_summaries([])

    def add_metrics(self, reg) -> None:
        cp = self.critical_path
        if cp is not None:
            reg.gauge("critical_path_span_seconds").set(cp.span_seconds)
            reg.gauge("critical_path_idle_seconds").set(cp.idle_seconds)
            reg.gauge("critical_path_idle_fraction").set(cp.idle_fraction)
            reg.gauge("critical_path_steps").set(len(cp.steps))
            for track, seconds in cp.by_track().items():
                reg.gauge("critical_path_track_seconds", track=track).set(seconds)
        if self.requests is not None and self.requests.n_requests:
            reg.gauge("requests_traced").set(self.requests.n_requests)
            reg.gauge("request_queue_share").set(
                self.requests.queue_s / self.requests.latency_s
                if self.requests.latency_s > 0 else 0.0
            )
        if self.slo is not None:
            reg.gauge("slo_violations").set(len(self.slo.violations))
        diff = self.trace_diff or self.report_diff
        if diff is not None:
            reg.gauge("diff_empty").set(1.0 if diff.is_empty else 0.0)

    def json_fields(self) -> dict:
        out = {"source": self.source, "target_kind": self.target_kind}
        if self.critical_path is not None:
            out["critical_path"] = self.critical_path.to_json_dict()
        if self.requests is not None and self.requests.n_requests:
            out["requests"] = self.requests.to_json_dict()
        if self.trace_diff is not None:
            out["diff"] = self.trace_diff.to_json_dict()
        if self.report_diff is not None:
            out["diff"] = self.report_diff.to_json_dict()
        if self.slo is not None:
            out["slo"] = self.slo.to_json_dict()
        return out

    def summary(self) -> str:
        sections = [f"analysis -- {self.target_kind} {self.source}"]
        if self.critical_path is not None:
            sections.append(self.critical_path.table())
        if self.requests is not None and self.requests.n_requests:
            sections.append(self.requests.table())
        if self.trace_diff is not None:
            sections.append(self.trace_diff.table())
        if self.report_diff is not None:
            sections.append(self.report_diff.table())
        if self.slo is not None:
            sections.append(self.slo.table())
        return "\n\n".join(sections)

    @property
    def ok(self) -> bool:
        """Gates hold: no SLO violation (diff emptiness is gated by flag)."""
        return self.slo is None or self.slo.ok


def analyze_trace(
    model: TraceModel,
    baseline: TraceModel | None = None,
    slo: SloSpec | None = None,
) -> AnalysisReport:
    """Full trace analysis: critical path, requests, diff, SLO."""
    cp = compute_critical_path(model)
    report = AnalysisReport(
        source=model.source,
        target_kind="trace",
        critical_path=cp,
        requests=request_breakdown(model),
        ledger=_trace_ledger(model),
        analyzed_wall_clock_s=cp.makespan_s,
    )
    if baseline is not None:
        report.trace_diff = diff_traces(baseline, model)
    if slo is not None:
        # SLO rules over a trace target see the analysis JSON itself
        # (e.g. critical_path.idle_fraction, requests.max_residual_s).
        report.slo = evaluate_slo(slo, report.to_json_dict())
    return report


def analyze_report(
    doc: dict,
    source: str,
    baseline: dict | None = None,
    baseline_source: str = "baseline",
    slo: SloSpec | None = None,
) -> AnalysisReport:
    """Report-target analysis: baseline diffing plus SLO gating."""
    ledger = doc.get("ledger")
    report = AnalysisReport(
        source=source,
        target_kind="report",
        ledger=dict(ledger) if isinstance(ledger, dict) else {},
        analyzed_wall_clock_s=float(doc.get("wall_clock_s") or 0.0),
    )
    if baseline is not None:
        report.report_diff = diff_reports(
            baseline, doc, a_source=baseline_source, b_source=source
        )
    if slo is not None:
        report.slo = evaluate_slo(slo, doc)
    return report


def _trace_ledger(model: TraceModel) -> dict[str, float]:
    """Span-seconds per category, with the ``total`` the protocol wants."""
    totals = {
        k: round(v, 9) for k, v in sorted(model.seconds_by_category().items())
    }
    totals["total"] = round(sum(totals.values()), 9)
    return totals
