"""Query layer over a sweep results store.

Each journal record is flattened into one *row* -- a nested dict with
four top-level namespaces addressable by dotted path:

``run.*``
    ``run.index``, ``run.run_id``, ``run.status``, ``run.error``.
``overrides.*``
    The axis values this cell applied (``overrides.budgets.memory_mb``
    -- the swept axes are the natural columns).
``spec.*``
    The full normalized JobSpec (``spec.backend``, ``spec.model.name``).
``report.*``
    The unified report JSON, including ``report.metrics.<key>.value``
    for every snapshot metric (``None`` throughout for failed runs).

Dotted resolution prefers the *longest exact key match* at each level,
so metric keys that themselves contain dots or label syntax
(``report.metrics.evalsim_train_hours{method="bp"}.value``) resolve
without escaping.

:class:`SweepReport` aggregates a whole store into one
:class:`~repro.api.report.Report`, which is what lets ``repro analyze
--slo`` gate a sweep exactly like any single run.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

from repro.api.report import Report, merge_ledger_summaries, resolve_path
from repro.errors import SweepError

#: Comparison operators, longest first so ``<=`` wins over ``<``.
_OPS = ("==", "!=", "<=", ">=", "=", "<", ">")


def row_from_record(record: dict, planned: dict | None = None) -> dict:
    """Flatten one journal record (+ its manifest entry) into a row."""
    return {
        "run": {
            "index": record.get("index"),
            "run_id": record.get("run_id"),
            "status": record.get("status"),
            "error": record.get("error"),
        },
        "overrides": record.get("overrides") or {},
        "spec": (planned or {}).get("spec") or {},
        "report": record.get("report"),
    }


def store_rows(store) -> list[dict]:
    """All journaled rows of a :class:`~repro.sweep.store.ResultsStore`."""
    planned_by_id = {run["run_id"]: run for run in store.planned_runs}
    return [
        row_from_record(record, planned_by_id.get(record.get("run_id")))
        for record in store.records()
    ]


@dataclass(frozen=True)
class Filter:
    """One ``--where`` predicate: ``<dotted.path><op><value>``."""

    path: str
    op: str
    value: object

    @classmethod
    def parse(cls, expression: str) -> "Filter":
        for op in _OPS:
            # Find the first operator occurrence that isn't inside the path
            # (paths never contain operator characters).
            idx = expression.find(op)
            if idx > 0:
                path = expression[:idx].strip()
                raw = expression[idx + len(op) :].strip()
                try:
                    value = json.loads(raw)
                except json.JSONDecodeError:
                    value = raw  # bare string, e.g. backend==sequential
                return cls(path=path, op="==" if op == "=" else op, value=value)
        raise SweepError(
            f"cannot parse filter {expression!r}; expected "
            f"<dotted.path><op><value> with op one of {', '.join(_OPS)}"
        )

    def matches(self, row: dict) -> bool:
        actual = resolve_path(row, self.path)
        if self.op == "==":
            return actual == self.value
        if self.op == "!=":
            return actual != self.value
        if actual is None:
            return False
        try:
            if self.op == "<":
                return actual < self.value
            if self.op == "<=":
                return actual <= self.value
            if self.op == ">":
                return actual > self.value
            return actual >= self.value
        except TypeError:
            return False


def parse_filters(expressions) -> list[Filter]:
    return [Filter.parse(expression) for expression in expressions]


def select_rows(rows, select=None, where=None) -> list[dict]:
    """Project + filter rows into flat ``{path: value}`` dicts."""
    filters = list(where or [])
    picked = [
        row
        for row in rows
        if all(flt.matches(row) for flt in filters)
    ]
    columns = list(select) if select else ["run.index", "run.run_id", "run.status"]
    return [
        {column: resolve_path(row, column) for column in columns} for row in picked
    ]


def render_table(flat_rows: list[dict]) -> str:
    """Fixed-width text table of :func:`select_rows` output."""
    if not flat_rows:
        return "(no rows)"
    columns = list(flat_rows[0])
    cells = [
        ["" if row[c] is None else str(row[c]) for c in columns]
        for row in flat_rows
    ]
    widths = [
        max(len(columns[i]), *(len(r[i]) for r in cells)) for i in range(len(columns))
    ]
    lines = [
        "  ".join(columns[i].ljust(widths[i]) for i in range(len(columns))),
        "  ".join("-" * widths[i] for i in range(len(columns))),
    ]
    lines += [
        "  ".join(r[i].ljust(widths[i]) for i in range(len(columns))) for r in cells
    ]
    return "\n".join(lines)


def to_csv(flat_rows: list[dict], path: str) -> None:
    columns = list(flat_rows[0]) if flat_rows else []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in flat_rows:
            writer.writerow([row[c] for c in columns])


@dataclass
class SweepReport(Report):
    """A whole store folded into one :class:`~repro.api.report.Report`.

    ``wall_clock_s`` is the *sum* of simulated/measured wall clock over
    completed runs (the sweep's total modelled cost), peak memory the
    max across runs, and the ledger the key-wise merge -- so existing
    tooling (``repro analyze``, SLO gates, the schema checker) consumes
    a sweep exactly like a single job.
    """

    kind = "sweep"

    name: str
    total: int
    done: int
    failed: int
    #: (wall_clock_s, peak_memory_bytes, ledger) of each ``done`` run.
    _run_scalars: list[tuple[float, int, dict]]

    @classmethod
    def from_store(cls, store) -> "SweepReport":
        records = store.records()
        scalars = []
        for record in records:
            report = record.get("report")
            if record.get("status") != "done" or not isinstance(report, dict):
                continue
            wall = report.get("wall_clock_s")
            scalars.append(
                (
                    float(wall) if isinstance(wall, (int, float)) else 0.0,
                    int(report.get("peak_memory_bytes") or 0),
                    report.get("ledger") or {},
                )
            )
        done = sum(1 for r in records if r.get("status") == "done")
        return cls(
            name=store.sweep_name,
            total=len(store.planned_runs),
            done=done,
            failed=len(records) - done,
            _run_scalars=scalars,
        )

    # -- Report ----------------------------------------------------------------
    @property
    def wall_clock_s(self) -> float:
        return float(sum(wall for wall, _, _ in self._run_scalars))

    @property
    def peak_memory_bytes(self) -> int:
        return max((peak for _, peak, _ in self._run_scalars), default=0)

    def ledger_summary(self) -> dict[str, float]:
        return merge_ledger_summaries([ledger for _, _, ledger in self._run_scalars])

    def add_metrics(self, reg) -> None:
        reg.gauge("sweep_runs_total").set(float(self.total))
        reg.gauge("sweep_runs_done").set(float(self.done))
        reg.gauge("sweep_runs_failed").set(float(self.failed))
        hist = reg.histogram("sweep_run_wall_clock_seconds")
        for wall, _, _ in self._run_scalars:
            hist.observe(wall)

    def json_fields(self) -> dict:
        return {
            "sweep": {
                "name": self.name,
                "runs_total": self.total,
                "runs_done": self.done,
                "runs_failed": self.failed,
            },
        }

    def summary(self) -> str:
        return (
            f"sweep {self.name!r}: {self.done}/{self.total} done, "
            f"{self.failed} failed; "
            f"total simulated wall clock {self.wall_clock_s:.1f} s"
        )
