"""Federated learning reproduces its recorded self.

``tests/data/federated_golden.json`` was recorded (by :func:`record`
below) while every client round was still a nested ``NeuroFlux.run`` on a
throwaway one-device cluster whose finished ledger was scaled by the
device's ``time_scale`` and merged into the client's device.  The matrix,
on the width-0.125 16x16 vgg11 over 180 training samples:

* synchronous FedAvg with rounds {1, 2} x local epochs {1, 2} on a
  nano + agx-orin pair and on three agx-orins;
* asynchronous rounds with ``max_staleness`` {0, 2} under a ``rounds``
  and under a ``duration_s`` stop;
* asynchronous rounds under a permanent and a windowed
  ``DeviceSlowdown``, a ``LoadSpike`` and two ``DeviceFailure``
  schedules (one before any round, one with an update in flight);
* ``repro run examples/specs/quick.json --backend federated`` and
  ``--backend federated-async``.

Each case pins a sha256 over the global model + aux heads, the final
accuracy, the exit layers, the applied ``(client, staleness, mix_weight)``
list, the peak, every round / client / update time, the per-device
ledgers, the report JSON minus ``metrics`` and the spans on the
``client*`` / ``server`` tracks.  Floats are stored as ``float.hex``.

What must hold: everything the weights saw (digest, accuracy, exit
layers, applied list, rejections, dropped clients) and the peak are
exact.  Without faults, ledgers and times agree to a relative 1e-12 (a
client's charges may add up in a different order), span timestamps to
1e-9 and the report JSON exactly.  Under a slowdown or spike, the
simulator scales local work only: ``compute``, ``data_io``,
``cache_io`` and ``communication`` still agree to 1e-12, while
``profiling`` and ``overhead`` (which holds the block loads) -- and every
clock that adds them up -- may only drop, and by no more than the
schedule's largest factor.

Re-record (only when simulated behaviour is *meant* to change) with
``PYTHONPATH=src python tests/test_federated_golden.py``.
"""

import json
import math
from pathlib import Path

import pytest

from helpers import _exact, make_federation, modules_digest

GOLDEN_PATH = Path(__file__).resolve().parent / "data/federated_golden.json"
QUICK = Path(__file__).resolve().parent.parent / "examples/specs/quick.json"
PLATFORMS = {
    "nano-orin": ["nano", "agx-orin"],
    "orin2": ["agx-orin", "agx-orin"],
    "orin3": ["agx-orin", "agx-orin", "agx-orin"],
}
#: Ledger categories the simulator scales under a fault schedule (or
#: never charges); the others may drop when a schedule is active.
SCALED_CATEGORIES = ("compute", "data_io", "cache_io", "communication", "serving")
REL = 1e-12
SPAN_ABS = 1e-9


def federated_golden_cases() -> dict[str, dict]:
    """The recorded matrix: case id -> how to run it (all JSON-pure)."""
    cases: dict[str, dict] = {}
    for platforms in ("nano-orin", "orin3"):
        for rounds in (1, 2):
            for epochs in (1, 2):
                cases[f"sync-{platforms}-r{rounds}-e{epochs}"] = {
                    "entry": "run", "platforms": platforms,
                    "kwargs": {"rounds": rounds, "local_epochs": epochs},
                }
    stops = (("rounds", {"rounds": 2}), ("duration", {"duration_s": 0.9}))
    for platforms, staleness in (("nano-orin", 2), ("nano-orin", 0), ("orin3", 0)):
        for stop, kwargs in stops:
            cases[f"async-{platforms}-s{staleness}-{stop}"] = {
                "entry": "run_async", "platforms": platforms,
                "kwargs": {"max_staleness": staleness, **kwargs},
            }
    faults = {
        "async-orin2-slowdown-duration": (
            "orin2", {"duration_s": 0.9},
            [{"type": "slowdown", "time_s": 0.0, "device": 0, "factor": 4.0}],
        ),
        "async-nano-orin-slowdown-window": (
            "nano-orin", {"rounds": 3},
            [{"type": "slowdown", "time_s": 0.1, "device": 1, "factor": 3.0,
              "duration_s": 0.2}],
        ),
        "async-nano-orin-spike": (
            "nano-orin", {"rounds": 3},
            [{"type": "spike", "time_s": 0.3, "device": 1, "factor": 2.5,
              "duration_s": 0.2}],
        ),
        "async-nano-orin-failure": (
            "nano-orin", {"rounds": 2},
            [{"type": "failure", "time_s": 1e-6, "device": 0}],
        ),
        "async-orin3-failure-in-flight": (
            "orin3", {"rounds": 3},
            [{"type": "failure", "time_s": 0.3, "device": 2}],
        ),
    }
    for name, (platforms, kwargs, events) in faults.items():
        cases[name] = {
            "entry": "run_async", "platforms": platforms, "kwargs": kwargs,
            "events": events,
        }
    for backend in ("federated", "federated-async"):
        cases[f"cli-{backend}"] = {"entry": "cli", "backend": backend}
    return cases


def run_federated_golden_case(case: dict):
    """Run one case, traced; returns ``(federation, result, tracer)``."""
    from repro.api import Callback, JobSpec, run
    from repro.obs import Tracer, TracingCallback, activate, deactivate
    from repro.runtime import EventSchedule

    tracer = Tracer()
    if case["entry"] == "cli":
        # What ``repro run QUICK --backend B --trace-out ...`` executes.
        class Grab(Callback):
            def on_job_start(self, context) -> None:
                self.system = context.system

        grab = Grab()
        result = run(
            JobSpec.from_json_file(str(QUICK), backend=case["backend"]),
            callbacks=[grab, TracingCallback(tracer=tracer)],
        )
        return grab.system, result, tracer
    fed = make_federation(PLATFORMS[case["platforms"]])
    kwargs = dict(case["kwargs"])
    if "events" in case:
        kwargs["events"] = EventSchedule.from_json_dict({"events": case["events"]})
    activate(tracer)
    try:
        result = getattr(fed, case["entry"])(**kwargs)
    finally:
        deactivate()
    return fed, result, tracer


def federated_golden_outcome(fed, result, tracer) -> dict:
    """Everything the golden pins about one run, floats as ``float.hex``."""
    report = result.to_json_dict()
    del report["metrics"]
    outcome = {
        "weights_sha256": modules_digest((fed._global_model, *fed._global_aux)),
        "final_accuracy": result.final_accuracy,
        "peak_memory_bytes": result.peak_memory_bytes,
        "device_ledgers": result.device_ledgers,
        "report": report,
        "spans": [
            {"name": s.name, "category": s.category, "track": s.track,
             "kind": s.kind, "attrs": s.attrs, "start_s": s.start_s,
             "end_s": s.end_s}
            for s in tracer.spans
            if s.track == "server" or s.track.startswith("client")
        ],
    }
    if hasattr(result, "rounds"):
        outcome["exact"] = {
            "client_exit_layers": [r.client_exit_layers for r in result.rounds],
            "global_accuracy": [r.global_accuracy for r in result.rounds],
        }
        outcome["times"] = {
            "round_s": [r.sim_time_s for r in result.rounds],
            "client_s": [r.client_times_s for r in result.rounds],
            "communication_s": [r.communication_time_s for r in result.rounds],
            "total_sim_time_s": result.total_sim_time_s,
        }
    else:
        outcome["exact"] = {
            "applied": [
                [u.client_id, u.staleness, u.mix_weight] for u in result.applied
            ],
            "n_rejected": result.n_rejected,
            "dropped_clients": result.dropped_clients,
        }
        outcome["times"] = {
            "applied_s": [u.time_s for u in result.applied],
            "client_times_s": result.client_times_s,
            "total_sim_time_s": result.total_sim_time_s,
        }
    return _exact(outcome)


def record() -> None:
    golden = {
        name: {
            "case": case,
            "expected": federated_golden_outcome(*run_federated_golden_case(case)),
        }
        for name, case in federated_golden_cases().items()
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def _decode(value):
    """Inverse of ``_exact`` on the leaves: hex strings back to floats."""
    if isinstance(value, dict):
        return {k: _decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_decode(v) for v in value]
    if isinstance(value, str) and "0x" in value and "p" in value:
        return float.fromhex(value)
    return value


def _clock_matches(got: float, want: float, scale: float, abs_tol: float = 0.0) -> bool:
    """A clock reading: equal to ``REL`` (or ``abs_tol``) without faults;
    under a schedule whose largest factor is ``scale``, no later than
    recorded and no earlier than ``1 / scale`` of it."""
    if scale == 1.0:
        return math.isclose(got, want, rel_tol=REL, abs_tol=abs_tol)
    return want / scale * (1 - REL) - abs_tol <= got <= want * (1 + REL) + abs_tol


def _assert_clocks(got, want, scale, where, abs_tol=0.0):
    if isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_clocks(g, w, scale, f"{where}[{i}]", abs_tol)
    else:
        assert _clock_matches(got, want, scale, abs_tol), (where, got, want)


def _fault_scale(case: dict) -> float:
    return max(
        [e.get("factor", 1.0) for e in case.get("events", ())], default=1.0
    )


def test_golden_is_the_matrix_the_recorder_describes():
    assert {name: e["case"] for name, e in GOLDEN.items()} == federated_golden_cases()
    assert len(GOLDEN) == 21


def test_matrix_exercises_what_it_names():
    """Rejections, straggler-limited durations and dropped clients are
    really in the recording."""
    exact = {name: e["expected"]["exact"] for name, e in GOLDEN.items()}
    assert exact["async-orin3-s0-rounds"]["n_rejected"] > 0
    assert exact["async-nano-orin-failure"]["dropped_clients"] == [0]
    assert exact["async-orin3-failure-in-flight"]["dropped_clients"] == [2]
    throttled = [c for c, *_ in exact["async-orin2-slowdown-duration"]["applied"]]
    assert throttled.count(1) > throttled.count(0)


@pytest.mark.parametrize("name", sorted(federated_golden_cases()))
def test_case_matches_golden(name):
    entry = GOLDEN[name]
    scale = _fault_scale(entry["case"])
    got = _decode(federated_golden_outcome(*run_federated_golden_case(entry["case"])))
    want = _decode(entry["expected"])
    # What the weights saw, and the peak: exact.
    for key in ("weights_sha256", "final_accuracy", "peak_memory_bytes", "exact"):
        assert got[key] == want[key], f"{name}: {key} drifted"
    for c, (g, w) in enumerate(zip(got["device_ledgers"], want["device_ledgers"])):
        assert g.keys() == w.keys()
        for category in w:
            bound = 1.0 if category in SCALED_CATEGORIES else scale
            _assert_clocks(g[category], w[category], bound, f"{name}: dev{c} {category}")
    for key, w in want["times"].items():
        _assert_clocks(got["times"][key], w, scale, f"{name}: {key}")
    assert len(got["spans"]) == len(want["spans"]), name
    for g, w in zip(got["spans"], want["spans"]):
        assert {k: g[k] for k in g if not k.endswith("_s")} == {
            k: w[k] for k in w if not k.endswith("_s")
        }, name
        for key in ("start_s", "end_s"):
            _assert_clocks(g[key], w[key], scale, f"{name}: span {w['name']}", SPAN_ABS)
    if scale == 1.0:
        assert got["report"] == want["report"], name
    else:
        clocks = ("wall_clock_s", "ledger", "client_times_s", "device_ledgers")
        assert {k: v for k, v in got["report"].items() if k not in clocks} == {
            k: v for k, v in want["report"].items() if k not in clocks
        }, name


if __name__ == "__main__":
    record()
