"""Every report kind reproduces its recorded JSON and summary.

``tests/data/report_golden.json`` was recorded (by :func:`record` below)
while each report class still hand-rolled its JSON head, its base metrics
and its delegations, and a ``parallel`` report wrapped the run's
``NeuroFluxReport`` instead of being one.  The matrix:

* ``examples/specs/quick.json`` through each of the nine built-in
  backends (``baseline`` at 8 MB, where BP fits; ``multiprocess`` on two
  processes);
* ``examples/specs/sequential.json``, which has no cluster;
* ``examples/specs/pipelined.json`` with a device-3 failure in a
  ``runtime`` section (drift and failure migrations);
* a two-cell ``evalsim`` sweep over quick.json's budget;
* ``repro analyze`` of the traced sequential.json run, and of the
  quick.json ``cluster-serving`` report under
  ``examples/specs/slo_fleet.json``.

Each case pins the report's ``kind``, its sorted top-level keys, a sha256
over the canonical ``to_json_dict()`` (sorted keys; host-clock entries of
``extras`` dropped) and a sha256 over ``summary()``.  A ``parallel`` case
also pins, key by key, the ``neuroflux`` fields of the same run.

What must hold: every case's summary and ``kind`` are unchanged.  A
report of any other kind has exactly the recorded keys and JSON.  A
``parallel`` report projected onto its recorded keys has the recorded
JSON, and every key it has beyond those is one of the run's
``neuroflux`` fields, with the recorded value.

Re-record (only when a report is *meant* to change) with
``PYTHONPATH=src python tests/test_report_golden.py [CASE ...]``: the
named cases, or every case, each in its committed shape (a ``parallel``
entry keeps its recorded ``keys`` and ``neuroflux_fields`` names), so
a case whose report did not change is rewritten byte for byte.
"""

import functools
import hashlib
import json
import tempfile
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).resolve().parent / "data/report_golden.json"
SPECS = Path(__file__).resolve().parent.parent / "examples/specs"
BACKENDS = (
    "baseline", "cluster-serving", "evalsim", "federated", "federated-async",
    "multiprocess", "pipelined", "sequential", "serving",
)
#: A multiprocess run's other ``extras`` (wall seconds, cores, BLAS
#: threads, per-stage busy / wait) are host clocks; these are simulated.
SIMULATED_EXTRAS = ("schedule", "microbatch", "stages", "processes")
DEVICE3_FAILURE = {"events": {"events": [{"type": "failure", "time_s": 0.1, "device": 3}]}}


def report_golden_cases() -> dict[str, dict]:
    """The recorded matrix: case id -> how to run it (all JSON-pure)."""
    cases: dict[str, dict] = {}
    for backend in BACKENDS:
        overlay = {
            "baseline": {"budgets.memory_mb": 8},
            "multiprocess": {"compute.processes": 2},
        }.get(backend, {})
        cases[f"quick-{backend}"] = {
            "entry": "run", "spec": "quick.json", "backend": backend,
            "overlay": overlay,
        }
    cases["sequential"] = {"entry": "run", "spec": "sequential.json"}
    cases["pipelined-failure"] = {
        "entry": "run", "spec": "pipelined.json",
        "overlay": {"runtime": DEVICE3_FAILURE},
    }
    cases["sweep-evalsim"] = {"entry": "sweep"}
    cases["analysis-trace"] = {"entry": "analyze-trace"}
    cases["analysis-report"] = {"entry": "analyze-report"}
    return cases


@functools.cache
def _run_spec(spec: str, backend: str | None, overlay: str):
    """One traced ``repro.api.run``; returns ``(report, tracer)``."""
    from repro.api import JobSpec, run
    from repro.obs import Tracer, TracingCallback

    job = JobSpec.from_json_file(str(SPECS / spec), backend=backend)
    job = job.overlay(json.loads(overlay))
    tracer = Tracer()
    return run(job, callbacks=[TracingCallback(tracer=tracer)]), tracer


def run_report_golden_case(case: dict):
    """Run one case; returns its report."""
    from repro.api import JobSpec
    from repro.obs.analyze import SloSpec, TraceModel, analyze_report, analyze_trace
    from repro.sweep import ResultsStore, SweepReport, SweepSpec, run_sweep

    entry = case["entry"]
    if entry == "run":
        report, _ = _run_spec(
            case["spec"], case.get("backend"),
            json.dumps(case.get("overlay", {}), sort_keys=True),
        )
        return report
    if entry == "analyze-trace":
        _, tracer = _run_spec("sequential.json", None, "{}")
        return analyze_trace(TraceModel.from_tracer(tracer, source="sequential.json"))
    if entry == "analyze-report":
        report, _ = _run_spec("quick.json", "cluster-serving", "{}")
        return analyze_report(
            report.to_json_dict(),
            source="quick.json cluster-serving",
            slo=SloSpec.from_json_file(str(SPECS / "slo_fleet.json")),
        )
    base = JobSpec.from_json_file(str(SPECS / "quick.json"), backend="evalsim")
    sweep = SweepSpec.from_dict(
        {"name": "evalsim-budget", "base": base.to_dict(),
         "grid": {"budgets.memory_mb": [1, 2]}}
    )
    with tempfile.TemporaryDirectory() as tmp:
        store = f"{tmp}/evalsim.sweep"
        run_sweep(sweep, store)
        return SweepReport.from_store(ResultsStore.open(store))


def canonical_json(report) -> dict:
    """``to_json_dict()`` minus what the host clock decides."""
    doc = report.to_json_dict()
    if "extras" in doc:
        doc["extras"] = {k: doc["extras"][k] for k in SIMULATED_EXTRAS if k in doc["extras"]}
    return doc


def _sha256(payload) -> str:
    if not isinstance(payload, str):
        payload = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def report_golden_outcome(report, layout: dict | None = None) -> dict:
    """Everything the golden pins about one report.

    A ``parallel`` report given the ``layout`` of its recorded entry keeps
    that entry's shape: the JSON digest projects onto the recorded
    ``keys`` and ``neuroflux_fields`` hashes the recorded names.
    """
    doc = canonical_json(report)
    outcome = {
        "kind": doc["kind"],
        "keys": sorted(doc),
        "json_sha256": _sha256(doc),
        "summary_sha256": _sha256(report.summary()),
    }
    if doc["kind"] == "parallel":
        # Recorded on code where the run's NeuroFluxReport is wrapped as
        # ``.report``: its fields below the unified head, key by key.
        from repro.api import REPORT_SCHEMA_KEYS

        nested = canonical_json(getattr(report, "report", report))
        names = [k for k in nested if k not in REPORT_SCHEMA_KEYS]
        if layout is not None:
            outcome["keys"] = layout["keys"]
            outcome["json_sha256"] = _sha256({k: doc[k] for k in layout["keys"]})
            names = layout["neuroflux_fields"]
        outcome["neuroflux_fields"] = {k: _sha256(nested[k]) for k in names}
    return outcome


def record(names=()) -> None:
    """Re-record the cases ``names`` (every case when empty), each in the
    shape its committed entry has; the other entries stay as they are."""
    golden = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    for name, case in report_golden_cases().items():
        if names and name not in names:
            continue
        layout = golden.get(name, {}).get("expected")
        outcome = report_golden_outcome(run_report_golden_case(case), layout)
        golden[name] = {"case": case, "expected": outcome}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_golden_is_the_matrix_the_recorder_describes():
    assert {name: e["case"] for name, e in GOLDEN.items()} == report_golden_cases()
    kinds = sorted({e["expected"]["kind"] for e in GOLDEN.values()})
    assert kinds == [
        "analysis", "baseline", "evalsim", "federated", "federated-async",
        "fleet", "neuroflux", "parallel", "sweep",
    ]


@pytest.mark.parametrize("name", sorted(report_golden_cases()))
def test_case_matches_golden(name):
    want = GOLDEN[name]["expected"]
    report = run_report_golden_case(GOLDEN[name]["case"])
    doc = canonical_json(report)
    assert doc["kind"] == want["kind"], name
    assert _sha256(report.summary()) == want["summary_sha256"], f"{name}: summary drifted"
    if want["kind"] != "parallel":
        assert sorted(doc) == want["keys"], name
        assert _sha256(doc) == want["json_sha256"], f"{name}: JSON drifted"
        return
    assert set(want["keys"]) <= set(doc), name
    projected = {k: doc[k] for k in want["keys"]}
    assert _sha256(projected) == want["json_sha256"], f"{name}: JSON drifted"
    added = sorted(set(doc) - set(want["keys"]))
    fields = want["neuroflux_fields"]
    assert set(added) <= set(fields), (name, added)
    for key in added:
        assert _sha256(doc[key]) == fields[key], f"{name}: {key} differs from neuroflux"


@pytest.mark.parametrize(
    "name", sorted(n for n, e in GOLDEN.items() if e["expected"]["kind"] == "parallel")
)
def test_recorder_keeps_the_committed_shape(name):
    """Re-recording a ``parallel`` case whose report did not change
    rewrites its entry byte for byte."""
    want = GOLDEN[name]["expected"]
    assert report_golden_outcome(run_report_golden_case(GOLDEN[name]["case"]), want) == want


if __name__ == "__main__":
    import sys

    record(sys.argv[1:])
