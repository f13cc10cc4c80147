"""Metric names of the benchmark and the shape of its results document.

``BENCHMARK.json`` at the repository root lists exactly
:data:`E2E_METRICS` and ``span_table.LAYER_METRICS``;
``test_e2e_bench.py`` keeps the three in step.
"""

from __future__ import annotations

import re

from span_table import LAYER_METRICS
from workloads import WORKLOADS

#: (name, unit, better).  ``work_per_s`` is work units per second of
#: ``wall_s``; the unit of work is stated per workload.  ``fail_ratio``
#: is reported beside these but is 0 on a healthy run, so it travels as
#: ``failed`` / ``attempted`` rather than as a ranked metric.
E2E_METRICS = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("work_per_s", "units/s", "higher"),
    ("peak_rss_mb", "MiB", "lower"),
)

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
MAX_WORKLOADS, MAX_E2E, MAX_LAYER = 8, 16, 128

_SPREAD_KEYS = {"median", "min", "q1", "q3", "max", "n"}
_PROVENANCE_KEYS = {
    "git_commit", "seed", "seconds", "quick", "spec_hashes",
    "python", "numpy", "blas", "nproc", "thread_env",
}


def validate_names() -> list[str]:
    """Every emitted name and unit fits the benchmark contract."""
    problems = []
    names = [*WORKLOADS, *(m[0] for m in E2E_METRICS), *(m.name for m in LAYER_METRICS)]
    for name in names:
        if not NAME_RE.fullmatch(name):
            problems.append(f"bad name {name!r}")
    if len(set(names)) != len(names):
        problems.append("a name is used twice")
    for unit in [*(m[1] for m in E2E_METRICS), *(m.unit for m in LAYER_METRICS)]:
        if not UNIT_RE.fullmatch(unit):
            problems.append(f"bad unit {unit!r}")
    if not 2 <= len(WORKLOADS) <= MAX_WORKLOADS:
        problems.append(f"{len(WORKLOADS)} workloads")
    if not 1 <= len(E2E_METRICS) <= MAX_E2E:
        problems.append(f"{len(E2E_METRICS)} end-to-end metrics")
    if not 1 <= len(LAYER_METRICS) <= MAX_LAYER:
        problems.append(f"{len(LAYER_METRICS)} per-layer metrics")
    return problems


def validate_results(document: dict) -> list[str]:
    """Problems with a results document (``[]`` when it is well formed)."""
    problems = validate_names()
    for key in ("schema", "comparable", "provenance", "workloads"):
        if key not in document:
            return problems + [f"missing top-level key {key!r}"]
    if not isinstance(document["comparable"], bool):
        problems.append("comparable must be a bool")
    missing = _PROVENANCE_KEYS - set(document["provenance"])
    if missing:
        problems.append(f"provenance lacks {sorted(missing)}")
    for name, result in document["workloads"].items():
        if name not in WORKLOADS:
            problems.append(f"unknown workload {name!r}")
            continue
        for key in ("why", "unit", "attempted", "failed", "fail_ratio", "checks"):
            if key not in result:
                problems.append(f"{name}: missing {key!r}")
        if result.get("failed"):
            continue  # a failed run may lack the sections below
        for key in ("outputs", "digest", "spec_hash", "work_units"):
            if key not in result:
                problems.append(f"{name}: missing {key!r}")
        if "end_to_end" in result:
            for metric, _, _ in E2E_METRICS:
                got = result["end_to_end"].get(metric)
                if got is None or set(got) != _SPREAD_KEYS:
                    problems.append(f"{name}: end_to_end.{metric} malformed")
        if "per_layer" in result:
            if set(result["per_layer"]) != {m.name for m in LAYER_METRICS}:
                problems.append(f"{name}: per_layer names differ from LAYER_METRICS")
            for metric, value in result["per_layer"].items():
                if not isinstance(value, (int, float)) or isinstance(value, bool):
                    problems.append(f"{name}: per_layer.{metric} is not a number")
        if "end_to_end" not in result and "per_layer" not in result:
            problems.append(f"{name}: neither end_to_end nor per_layer present")
    return problems
