"""Every training schedule reproduces its pre-refactor self, bit for bit.

``tests/data/train_golden.json`` was recorded (by the recorder in
``tests/helpers.py``) at the commit *before* ``NeuroFlux.run`` became a
cluster of one and the sequential / pipelined / multiprocess schedules
moved onto one shared run frame: 18 configurations of a 5-block
width-0.125 vgg11 --

* ``run`` with the activation cache, ``use_cache=False``,
  ``adaptive_batch=False``, and a ``time_budget_s`` that stops during
  block 0's first epoch;
* ``train_parallel`` sequential on a one-device and a heterogeneous
  round-robin cluster, pipelined with optimised and round-robin
  placement -- each without a runtime, with an ``AdaptiveRuntime`` on an
  empty schedule, and with one fault schedule (a slowdown of the only
  device; a mid-run failure of a device holding live state);
* ``train_multiprocess`` with 1 and 2 processes.

Each case pins a sha256 over every model + aux-head tensor, the
simulated clock, the full ledger, peak memory, profiling time, exit
selection, every ``HistoryPoint`` and ``BlockReport``, the parallel
report (placement, makespans, device ledgers, utilisation, bubble,
``comm_bytes``, runtime report) and the sha256 of the Chrome trace.
Floats are stored as ``float.hex`` and compared with ``==``.

The two ``mp-*`` cases carry values re-recorded *after* the refactor, on
purpose: ``profiling_time_s``, ``ledger.profiling`` and ``ledger.total``
rose by exactly ``len(specs) * kernel_launch_overhead`` when the
multiprocess path started booking profiling through the same
``_charge_profiling`` as the other schedules (it used to drop the
per-layer launch term), and ``trace_sha256`` moved with them (the
parent process replays its timeline from ``profiling_time_s``);
``test_profiling_is_booked_like_the_other_schedules`` in
``tests/test_backend_multiproc.py`` pins the relation.

Re-record (only when simulated behaviour is *meant* to change) with
``PYTHONPATH=src python tests/test_train_golden.py``.
"""

import json
from pathlib import Path

import pytest

from helpers import run_train_golden_case, train_golden_cases, train_golden_outcome

GOLDEN_PATH = Path(__file__).resolve().parent / "data/train_golden.json"


def record() -> None:
    golden = {
        name: {"case": case, "expected": train_golden_outcome(*run_train_golden_case(case))}
        for name, case in train_golden_cases().items()
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_golden_is_the_matrix_the_recorder_describes():
    assert {name: entry["case"] for name, entry in GOLDEN.items()} == train_golden_cases()
    assert len(GOLDEN) >= 12


@pytest.mark.parametrize("name", sorted(train_golden_cases()))
def test_case_matches_golden(name):
    entry = GOLDEN[name]
    outcome = train_golden_outcome(*run_train_golden_case(entry["case"]))
    expected = entry["expected"]
    # Field by field first, so a drift names what moved.
    for key in expected:
        assert outcome[key] == expected[key], f"{name}: {key} drifted"
    assert outcome == expected


if __name__ == "__main__":
    record()
