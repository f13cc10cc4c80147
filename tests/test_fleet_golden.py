"""The fleet event loop reproduces its pre-optimisation self, bit for bit.

``tests/data/fleet_golden.json`` was recorded from ``simulate_fleet`` at
the commit *before* the loop's derived state (next-dispatch clocks,
live/serving lists, load counters, block-drawn sample indices) became
cached: 54 configurations over router policy x arrival pattern x
autoscaling x churn schedule, with batcher/queue knobs, routing mode and
replica cluster shape cycled across them, on the
``examples/specs/quick.json`` system.  Each case pins the canonical-JSON
sha256 of ``to_json_dict()`` minus ``"metrics"``, a sha256 over the raw
IEEE bits of the four per-request series (``to_json_dict`` rounds to
1e-6, which would hide a last-digit drift), and the headline counts in
clear so a mismatch is readable.  Two cases also pin their Chrome trace:
one with churn under autoscaling, one where every replica fails and the
stranded requests are shed (which must also leave no router-admit flow
source behind in ``FleetSimulator._admit_spans``).

Re-record (only when simulated behaviour is *meant* to change) with
``PYTHONPATH=src python tests/test_fleet_golden.py``.
"""

import hashlib
import json
import struct
from pathlib import Path

import pytest

from repro.api import JobSpec, get_backend
from repro.fleet import FleetConfig, simulate_fleet
from repro.obs.trace import Tracer, activate, deactivate
from repro.runtime.events import (
    DeviceFailure,
    DeviceJoin,
    DeviceSlowdown,
    EventSchedule,
)
from repro.serving import ServerConfig, WorkloadSpec
from helpers import recorded_fleet_simulators

REPO = Path(__file__).resolve().parent.parent
GOLDEN_PATH = REPO / "tests/data/fleet_golden.json"

POLICIES = ("round-robin", "least-loaded", "latency-aware")
PATTERNS = ("poisson", "bursty", "diurnal")
SCHEDULES = ("none", "churn", "extinction")
BATCH_CAPS = (1, 8, 32)
QUEUE_DEPTHS = (4, 128)
ROUTING = (
    ("cascade", 0.4),
    ("cascade", 0.9),
    ("shallow-only", 0.5),
    ("deepest-only", 0.5),
)
CLUSTERS = (["nano", "agx-orin"], ["nano"])
N_INITIAL = 2
#: The cases whose Chrome trace is pinned too: churn with autoscaling,
#: and an extinction that sheds 245 admitted requests.
TRACED_CASES = (
    "latency-aware-diurnal-scale-churn",
    "round-robin-bursty-fixed-extinction",
)
COUNT_KEYS = (
    "n_offered", "n_completed", "n_rejected", "n_shed", "n_failed_over",
    "n_failures", "n_replicas_peak", "dnf", "exit_counts",
)


def _schedule(kind: str) -> EventSchedule | None:
    if kind == "none":
        return None
    if kind == "churn":
        return EventSchedule(
            [
                DeviceSlowdown(time_s=0.03, device=1, factor=6.0, duration_s=0.06),
                DeviceFailure(time_s=0.07, device=1),
                DeviceJoin(time_s=0.09, platform="agx-orin"),
            ]
        )
    # Every initial replica dies; autoscaled ones (if any) carry on.
    return EventSchedule(
        [DeviceFailure(time_s=0.06, device=i) for i in range(N_INITIAL)]
    )


def _cases() -> list[dict]:
    cases = []
    for pi, policy in enumerate(POLICIES):
        for wi, pattern in enumerate(PATTERNS):
            for ai, autoscale in enumerate((False, True)):
                for si, schedule in enumerate(SCHEDULES):
                    mode, threshold = ROUTING[(pi + 2 * wi + ai + si) % 4]
                    cases.append(
                        {
                            "id": f"{policy}-{pattern}-"
                                  f"{'scale' if autoscale else 'fixed'}-{schedule}",
                            "policy": policy,
                            "pattern": pattern,
                            "autoscale": autoscale,
                            "schedule": schedule,
                            "batch_cap": BATCH_CAPS[(pi + wi + si) % 3],
                            "queue_depth": QUEUE_DEPTHS[(wi + ai + si) % 2],
                            "mode": mode,
                            "threshold": threshold,
                            "cluster": CLUSTERS[(pi + wi + ai) % 2],
                        }
                    )
    return cases


def _quick_system():
    spec = JobSpec.from_json_file(
        str(REPO / "examples/specs/quick.json"), backend="cluster-serving"
    )
    context = get_backend(spec.backend).prepare(spec)
    context.system.run(spec.budgets.epochs)
    return context.system


def _run_case(system, case: dict, tracer: Tracer | None = None):
    if tracer is not None:
        activate(tracer)
    try:
        return simulate_fleet(
            system,
            WorkloadSpec(
                pattern=case["pattern"], arrival_rate=6000.0, duration_s=0.15,
                burst_len_s=0.01, diurnal_period_s=0.1, seed=17,
            ),
            cluster_names=case["cluster"],
            fleet=FleetConfig(
                n_replicas=N_INITIAL, policy=case["policy"],
                autoscale=case["autoscale"], max_replicas=4,
                scale_up_at=0.5, scale_down_at=0.05, cooldown_s=0.01,
            ),
            server_config=ServerConfig(
                batch_cap=case["batch_cap"], max_wait_s=0.002,
                queue_depth=case["queue_depth"],
            ),
            threshold=case["threshold"],
            mode=case["mode"],
            schedule=_schedule(case["schedule"]),
        )
    finally:
        if tracer is not None:
            deactivate()


def _sha(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _outcome(report) -> dict:
    document = {k: v for k, v in report.to_json_dict().items() if k != "metrics"}
    series = hashlib.sha256()
    for values in (
        report.latencies, report.queue_seconds,
        report.compute_seconds, report.comm_seconds,
    ):
        series.update(struct.pack(f"<{len(values)}d", *values))
    scale_kinds = [e["kind"] for e in document["autoscale_events"]]
    return {
        "report_sha256": _sha(document),
        "series_sha256": series.hexdigest(),
        "scale_events": {k: scale_kinds.count(k) for k in sorted(set(scale_kinds))},
        **{key: document[key] for key in COUNT_KEYS},
    }


def _trace_sha(tracer: Tracer) -> str:
    return _sha(tracer.to_chrome_dict())


def record() -> None:
    system = _quick_system()
    golden = {"cases": [], "trace_sha256": {}}
    for case in _cases():
        golden["cases"].append({**case, "expected": _outcome(_run_case(system, case))})
        if case["id"] in TRACED_CASES:
            tracer = Tracer()
            _run_case(system, case, tracer)
            golden["trace_sha256"][case["id"]] = _trace_sha(tracer)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


GOLDEN = json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def quick_system():
    return _quick_system()


def test_golden_is_the_matrix_this_file_describes():
    recorded = [
        {k: v for k, v in case.items() if k != "expected"}
        for case in GOLDEN["cases"]
    ]
    assert recorded == _cases()
    assert len(recorded) == 54
    for values, key in (
        (BATCH_CAPS, "batch_cap"), (QUEUE_DEPTHS, "queue_depth"),
        ({m for m, _ in ROUTING}, "mode"),
    ):
        assert {c[key] for c in recorded} == set(values)


def test_golden_exercises_every_loop_path():
    expected = [c["expected"] for c in GOLDEN["cases"]]
    assert any(e["dnf"] for e in expected)
    assert any(e["n_rejected"] > 0 for e in expected)
    assert any(e["n_shed"] > 0 for e in expected)
    assert any(e["n_failed_over"] > 0 for e in expected)
    assert any(e["n_replicas_peak"] > N_INITIAL + 1 for e in expected)
    for kind in ("scale-up", "scale-down", "retire"):
        assert any(kind in e["scale_events"] for e in expected), kind
    assert any(sum(1 for n in e["exit_counts"] if n) > 1 for e in expected)


@pytest.mark.parametrize(
    "case", GOLDEN["cases"], ids=lambda case: case["id"]
)
def test_fleet_matches_golden(quick_system, case):
    outcome = _outcome(_run_case(quick_system, case))
    expected = case["expected"]
    for key in (*COUNT_KEYS, "scale_events"):
        assert outcome[key] == expected[key], key
    assert outcome["series_sha256"] == expected["series_sha256"]
    assert outcome["report_sha256"] == expected["report_sha256"]


@pytest.mark.parametrize("case_id", TRACED_CASES)
def test_traced_case_chrome_trace_matches_golden(quick_system, case_id):
    case = next(c for c in GOLDEN["cases"] if c["id"] == case_id)
    tracer = Tracer()
    with recorded_fleet_simulators() as simulators:
        report = _run_case(quick_system, case, tracer)
    assert _trace_sha(tracer) == GOLDEN["trace_sha256"][case_id]
    # Tracing observes; it must not change a simulated number.
    assert _outcome(report) == case["expected"]
    # Every admitted request either committed or was shed, and both
    # paths consume its router-admit flow source.
    assert simulators[0]._admit_spans == {}


def test_shedding_traced_case_really_sheds():
    expected = {c["id"]: c["expected"] for c in GOLDEN["cases"]}
    assert expected[TRACED_CASES[1]]["n_shed"] > 100


if __name__ == "__main__":
    record()
