#!/usr/bin/env python3
"""Assert unified-report JSON files satisfy the Report schema.

Used by CI after running ``repro run ... --report-json`` for every
registered backend::

    python examples/check_report_schema.py /tmp/report-*.json

Checks every :data:`repro.api.REPORT_SCHEMA_KEYS` key is present, the
ledger totals are non-negative, the payload is valid JSON, and every
training report -- a comparison method, NeuroFlux on one device or on a
cluster -- carries the same training fields.
"""

from __future__ import annotations

import json
import sys

try:
    from repro.api import REPORT_SCHEMA_KEYS as REQUIRED_KEYS
except ImportError:  # standalone use without PYTHONPATH=src
    REQUIRED_KEYS = frozenset(
        {"schema", "kind", "wall_clock_s", "peak_memory_bytes", "ledger", "metrics"}
    )

#: The kinds of a training run, and the fields the paper compares them on.
TRAINING_KINDS = ("baseline", "neuroflux", "parallel")
TRAINING_KEYS = ("method", "final_accuracy", "history")


def check(path: str) -> None:
    with open(path) as fh:
        report = json.load(fh)
    missing = REQUIRED_KEYS - set(report)
    if missing:
        raise AssertionError(f"{path}: missing report key(s) {sorted(missing)}")
    ledger = report["ledger"]
    if not isinstance(ledger, dict) or "total" not in ledger:
        raise AssertionError(f"{path}: ledger must be a dict with a total")
    for key, value in ledger.items():
        if value is None or value < 0:
            raise AssertionError(f"{path}: ledger[{key!r}] = {value} is negative")
    if report["peak_memory_bytes"] < 0:
        raise AssertionError(f"{path}: negative peak_memory_bytes")
    if report["kind"] in TRAINING_KINDS:
        missing = [key for key in TRAINING_KEYS if key not in report]
        if missing:
            raise AssertionError(
                f"{path}: {report['kind']} report lacks training field(s) {missing}"
            )
    metrics = report["metrics"]
    if not isinstance(metrics, dict) or not metrics:
        raise AssertionError(f"{path}: metrics must be a non-empty dict")
    for key, entry in metrics.items():
        if not isinstance(entry, dict) or "type" not in entry:
            raise AssertionError(
                f"{path}: metrics[{key!r}] must be a dict with a type"
            )
    print(
        f"{path}: ok (kind={report['kind']}, total={ledger['total']:.3f}s, "
        f"{len(metrics)} metrics)"
    )


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: check_report_schema.py REPORT.json [...]", file=sys.stderr)
        return 2
    for path in argv:
        check(path)
    print(f"{len(argv)} report(s) satisfy the unified schema")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
