"""Span-based tracer with Chrome trace-event export.

The tracer is the one timeline model every engine shares: a flat list of
:class:`Span` records, each on a named *track* (one per simulated device,
plus logical tracks like ``server`` or ``runtime``).  Simulated paths
stamp spans from their own clocks (:class:`~repro.parallel.pipeline.
PipelineClock` starts/finishes, :class:`~repro.hw.simulator.TimeLedger`
totals, event-queue times), so a fixed-seed run produces a bit-identical
trace; real paths can use the context-manager form, which falls back to
``time.perf_counter``.

Engines discover the tracer through a module-level *active tracer*
registry (:func:`activate` / :func:`active_tracer`), the same shape
OpenTelemetry uses: instrumentation points hold no reference to any
tracer and cost one ``is not None`` check when tracing is off -- the
zero-when-disabled contract ``repro bench obs`` enforces.

Exports: :meth:`Tracer.write_chrome` emits Chrome trace-event JSON
(loadable in Perfetto / chrome://tracing; one thread row per track, flow
arrows for cross-track links such as migrations); :meth:`Tracer.
write_jsonl` emits one compact JSON object per span.

This module is deliberately stdlib-only (no numpy, no repro imports) so
every layer of the system can import it without cycles.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: Span kinds.  ``complete`` spans must nest properly within their track
#: (validate_nesting enforces this); ``async`` spans may overlap anything
#: (used for transfers that proceed alongside compute on the NIC); an
#: ``instant`` marks a point decision (drift detected, request rejected).
SPAN_KINDS = ("complete", "instant", "async")


@dataclass
class Span:
    """One traced interval (or instant) on a track."""

    span_id: int
    name: str
    category: str
    track: str
    start_s: float
    end_s: float
    attrs: dict | None = None
    parent_id: int | None = None
    kind: str = "complete"

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_json_dict(self) -> dict:
        out = {
            "id": self.span_id,
            "name": self.name,
            "cat": self.category,
            "track": self.track,
            "start_s": round(self.start_s, 9),
            "end_s": round(self.end_s, 9),
            "kind": self.kind,
        }
        if self.parent_id is not None:
            out["parent"] = self.parent_id
        if self.attrs:
            out["attrs"] = self.attrs
        return out


class Tracer:
    """Collects spans; exports Chrome trace JSON and JSONL span logs.

    Two usage styles:

    * simulated paths call :meth:`add_span` / :meth:`instant` with
      explicit timestamps taken from the simulation clocks;
    * real paths use the :meth:`span` context manager, which stamps
      ``clock()`` (default ``time.perf_counter``) on entry and exit.

    Span ids are sequential, so a deterministic simulation produces a
    byte-identical export.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.flows: list[dict] = []
        self._next_id = 0
        # Per-track stack of open context-manager spans (parent linking).
        self._open: dict[str, list[Span]] = {}

    def __len__(self) -> int:
        return len(self.spans)

    # -- recording -----------------------------------------------------------
    def add_span(
        self,
        name: str,
        category: str,
        track: str,
        start_s: float,
        end_s: float,
        attrs: dict | None = None,
        kind: str = "complete",
    ) -> Span:
        """Record a finished span with explicit timestamps."""
        if kind not in SPAN_KINDS:
            raise ValueError(f"unknown span kind {kind!r}; pick from {SPAN_KINDS}")
        span = Span(
            span_id=self._next_id,
            name=name,
            category=category,
            track=track,
            start_s=start_s,
            end_s=end_s,
            attrs=attrs,
            kind=kind,
        )
        stack = self._open.get(track)
        if stack:
            span.parent_id = stack[-1].span_id
        self._next_id += 1
        self.spans.append(span)
        return span

    def instant(
        self, name: str, category: str, track: str, time_s: float,
        attrs: dict | None = None,
    ) -> Span:
        """Record a zero-duration marker."""
        return self.add_span(
            name, category, track, time_s, time_s, attrs=attrs, kind="instant"
        )

    @contextmanager
    def span(
        self,
        name: str,
        category: str,
        track: str = "main",
        attrs: dict | None = None,
    ):
        """Real-time span: stamps ``clock()`` on entry and exit, nestable."""
        opened = self.add_span(
            name, category, track, self.clock(), float("nan"), attrs=attrs
        )
        self._open.setdefault(track, []).append(opened)
        try:
            yield opened
        finally:
            self._open[track].pop()
            opened.end_s = self.clock()

    def add_flow(self, name: str, src: Span, dst: Span) -> int:
        """Link two spans with a flow arrow (e.g. a migration src -> dst)."""
        flow_id = len(self.flows)
        self.flows.append(
            {"flow_id": flow_id, "name": name,
             "src": src.span_id, "dst": dst.span_id}
        )
        return flow_id

    # -- introspection -------------------------------------------------------
    def tracks(self) -> list[str]:
        """Track names in first-appearance order (stable tid assignment)."""
        seen: list[str] = []
        for span in self.spans:
            if span.track not in seen:
                seen.append(span.track)
        return seen

    def categories(self) -> set[str]:
        return {span.category for span in self.spans}

    # -- export --------------------------------------------------------------
    def to_chrome_dict(self) -> dict:
        """Chrome trace-event JSON object (``traceEvents`` list form)."""
        tids = {track: i for i, track in enumerate(self.tracks())}
        by_id = {span.span_id: span for span in self.spans}
        events: list[dict] = [
            {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
             "args": {"name": "repro"}},
        ]
        for track, tid in tids.items():
            events.append(
                {"ph": "M", "pid": 0, "tid": tid, "name": "thread_name",
                 "args": {"name": track}}
            )
        for span in self.spans:
            base = {
                "name": span.name,
                "cat": span.category,
                "pid": 0,
                "tid": tids[span.track],
                "ts": _us(span.start_s),
                # "sid" is a non-standard passthrough (Perfetto ignores
                # unknown keys): it preserves the span id so analysis
                # tooling can rebuild the flow graph from the export.
                "sid": span.span_id,
                "args": dict(span.attrs) if span.attrs else {},
            }
            if span.kind == "instant":
                events.append({**base, "ph": "i", "s": "t"})
            elif span.kind == "async":
                events.append({**base, "ph": "b", "id": span.span_id})
                events.append(
                    {
                        "name": span.name,
                        "cat": span.category,
                        "pid": 0,
                        "tid": tids[span.track],
                        "ts": _us(span.end_s),
                        "ph": "e",
                        "id": span.span_id,
                        "args": {},
                    }
                )
            else:
                events.append({**base, "ph": "X", "dur": _us(span.duration_s)})
        for flow in self.flows:
            src, dst = by_id[flow["src"]], by_id[flow["dst"]]
            common = {
                "name": flow["name"],
                "cat": "flow",
                "id": flow["flow_id"],
                "pid": 0,
            }
            events.append(
                {**common, "ph": "s", "tid": tids[src.track],
                 "ts": _us(src.end_s), "args": {"src_span": src.span_id}}
            )
            events.append(
                {**common, "ph": "f", "bp": "e", "tid": tids[dst.track],
                 "ts": _us(dst.start_s), "args": {"dst_span": dst.span_id}}
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome(self, path: str) -> None:
        """Write the Chrome trace-event JSON (sorted keys: byte-stable)."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome_dict(), fh, sort_keys=True, indent=1)
            fh.write("\n")

    def write_jsonl(self, path: str) -> None:
        """Write one JSON object per span (compact machine-readable log).

        Flow arrows follow the spans, one object per flow, distinguished
        by their ``flow_id`` key -- the JSONL form carries the same graph
        as the Chrome export, so ``repro analyze`` accepts either.
        """
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json_dict(), sort_keys=True))
                fh.write("\n")
            for flow in self.flows:
                fh.write(json.dumps(flow, sort_keys=True))
                fh.write("\n")


def _us(seconds: float) -> float:
    """Seconds -> microseconds, rounded so the export is byte-stable."""
    return round(seconds * 1e6, 3)


# -- active-tracer registry --------------------------------------------------

_active: Tracer | None = None


def activate(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-wide active tracer."""
    global _active
    _active = tracer
    return tracer


def deactivate() -> None:
    """Remove the active tracer (instrumentation points go back to no-ops)."""
    global _active
    _active = None


def active_tracer() -> Tracer | None:
    """The currently active tracer, or ``None`` when tracing is off."""
    return _active


# -- validation (tests / check_trace_schema) ---------------------------------


def validate_nesting(spans: list[Span]) -> list[str]:
    """Check that ``complete`` spans nest properly within each track.

    Walking each track's spans in recorded order, every span must either
    start at-or-after the previous span's end (a sibling) or lie entirely
    within a still-open ancestor (a child).  ``instant`` and ``async``
    spans are exempt: instants are points, and async spans model work that
    genuinely overlaps (transfers on the NIC).  Returns a list of
    violation messages (empty means valid).
    """
    problems: list[str] = []
    by_track: dict[str, list[Span]] = {}
    for span in spans:
        if span.kind != "complete":
            continue
        if span.end_s < span.start_s:
            problems.append(
                f"span {span.span_id} ({span.name!r}) ends before it starts"
            )
            continue
        by_track.setdefault(span.track, []).append(span)
    eps = 1e-9
    for track, track_spans in by_track.items():
        open_stack: list[Span] = []
        for span in track_spans:
            while open_stack and span.start_s >= open_stack[-1].end_s - eps:
                open_stack.pop()
            if open_stack and span.end_s > open_stack[-1].end_s + eps:
                problems.append(
                    f"track {track!r}: span {span.span_id} ({span.name!r}) "
                    f"[{span.start_s:.9f}, {span.end_s:.9f}] overlaps "
                    f"span {open_stack[-1].span_id} "
                    f"({open_stack[-1].name!r}) without nesting"
                )
                continue
            open_stack.append(span)
    return problems


def validate_monotonic(spans: list[Span]) -> list[str]:
    """Check per-track recorded order never steps backwards in time.

    Applies to ``complete`` spans only: they model exclusive occupancy of
    a device lane, so their recorded order must follow the lane's clock.
    Instants and async spans are bookkept per logical item (requests,
    transfers) and may legitimately be recorded out of time order.
    """
    problems: list[str] = []
    last: dict[str, float] = {}
    eps = 1e-9
    for span in spans:
        if span.kind != "complete":
            continue
        prev = last.get(span.track)
        if prev is not None and span.start_s < prev - eps:
            problems.append(
                f"track {span.track!r}: span {span.span_id} ({span.name!r}) "
                f"starts at {span.start_s:.9f} before previous start {prev:.9f}"
            )
        last[span.track] = max(prev, span.start_s) if prev is not None else span.start_s
    return problems
