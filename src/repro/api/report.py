"""The one base class every backend's result subclasses.

Training, parallel, federated, serving, closed-form, sweep and analysis
runs each carry their own fields, but every :func:`repro.api.run` result
is a :class:`Report`, so callers can treat any outcome uniformly:

* ``summary()`` -- human-readable one-screen text;
* ``to_json_dict()`` -- a JSON-serializable dict that always contains
  the :data:`REPORT_SCHEMA_KEYS`;
* ``metrics_registry()`` -- the run's metrics (the ``metrics`` key);
* ``wall_clock_s`` -- end-to-end simulated seconds of the run;
* ``peak_memory_bytes`` -- simulated GPU high-water mark (``0`` where
  the subsystem does not model residency, e.g. serving);
* ``ledger_summary()`` -- simulated seconds by cost category, merged
  across devices, always including a ``"total"`` key.

This module is import-light (no numpy, no subsystem imports) so report
classes across the tree can depend on it without cycles.
"""

from __future__ import annotations

from typing import ClassVar

#: Keys guaranteed present in every report's ``to_json_dict()`` -- the
#: contract the CI smoke step and downstream tooling assert against.
REPORT_SCHEMA_KEYS = frozenset(
    {"schema", "kind", "wall_clock_s", "peak_memory_bytes", "ledger", "metrics"}
)


class Report:
    """Base class of every :func:`repro.api.run` result.

    The base writes the schema head and the wall-clock, peak and ledger
    metrics once.  A subclass names its ``kind``, provides
    ``wall_clock_s`` and ``peak_memory_bytes`` (fields or properties),
    :meth:`ledger_summary` and :meth:`summary`, and overrides the two
    hooks :meth:`json_fields` and :meth:`add_metrics` for what only it
    reports.
    """

    #: The JSON ``kind``: one per concrete report class.
    kind: ClassVar[str] = ""

    wall_clock_s: float
    peak_memory_bytes: int

    def ledger_summary(self) -> dict[str, float]:
        raise NotImplementedError

    def summary(self) -> str:
        raise NotImplementedError

    def json_fields(self) -> dict:
        """This report's JSON below the unified head."""
        return {}

    def add_metrics(self, reg) -> None:
        """Register this report's metrics beyond the base ones."""

    def metrics_registry(self):
        """The run's metrics: wall clock and peak memory as gauges, one
        ``ledger_seconds_total`` counter per cost category, then
        :meth:`add_metrics`."""
        from repro.obs.metrics import MetricsRegistry

        reg = MetricsRegistry()
        reg.gauge("wall_clock_seconds").set(self.wall_clock_s)
        reg.gauge("peak_memory_bytes").set(self.peak_memory_bytes)
        for category, seconds in self.ledger_summary().items():
            reg.counter("ledger_seconds_total", category=category).inc(seconds)
        self.add_metrics(reg)
        return reg

    def to_json_dict(self) -> dict:
        """JSON-serializable report: the unified head, then
        :meth:`json_fields`."""
        return {
            "schema": 1,
            "kind": self.kind,
            "wall_clock_s": json_num(self.wall_clock_s),
            "peak_memory_bytes": int(self.peak_memory_bytes),
            "ledger": {k: json_num(v) for k, v in self.ledger_summary().items()},
            "metrics": self.metrics_registry().snapshot(),
            **self.json_fields(),
        }


def merge_ledger_summaries(ledgers: list[dict[str, float]]) -> dict[str, float]:
    """Key-wise sum of per-device ledger dicts (recomputing ``total``).

    The one empty-ledger rule: no ledgers, or only empty ones, merge to
    ``{"total": 0.0}``.
    """
    merged: dict[str, float] = {}
    for ledger in ledgers:
        for key, value in ledger.items():
            if key == "total":
                continue
            merged[key] = merged.get(key, 0.0) + value
    merged["total"] = sum(merged.values(), 0.0)
    return merged


def resolve_path(doc, path: str, missing=None):
    """Resolve a dotted path, longest-exact-key-first at every level.

    Keys that themselves contain dots or label syntax
    (``metrics.evalsim_train_hours{method="bp"}.value``) resolve without
    escaping.  Returns ``missing`` when any step is absent.
    """
    node = doc
    remaining = path
    while remaining:
        if not isinstance(node, dict):
            return missing
        if remaining in node:
            return node[remaining]
        # Longest prefix of `remaining` (split at a dot) that is a key.
        cut = len(remaining)
        while True:
            cut = remaining.rfind(".", 0, cut)
            if cut < 0:
                return missing
            if remaining[:cut] in node:
                break
        node = node[remaining[:cut]]
        remaining = remaining[cut + 1 :]
    return node


def json_num(x: float | None) -> float | None:
    """Round for JSON; NaN becomes null (JSON has no NaN).

    The one number-normalization rule every report's ``to_json_dict``
    shares -- import this instead of redefining it.
    """
    if x is None or x != x:
        return None
    return round(float(x), 6)
