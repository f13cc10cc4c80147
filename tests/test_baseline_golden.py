"""Every comparison trainer reproduces its pre-refactor self, bit for bit.

``tests/data/baseline_golden.json`` was recorded (by the recorder in
``tests/helpers.py``) at the commit *before* the six baselines moved onto
the one run frame in ``repro/training/common.py``: 24 configurations of
the width-0.125 16x16 models over 96 training samples, 2 epochs --

* all six trainers (BP, feedback alignment, classic LL, signal
  propagation, gradient checkpointing, microbatching) on vgg11, once with
  an explicit ``batch_size`` of 40 (two full batches and a remainder) and
  once with a ``memory_budget`` that forces a smaller feasible batch;
* BP, FA, classic LL and SP -- the trainers that took ``time_budget_s``
  before the frame -- again with a budget that stops during epoch one;
* BP and classic LL under a binding budget on resnet18 and mobilenet.

Each case pins a sha256 over every model + aux-head tensor, the batch
size, peak memory, parameter count, the simulated clock, the full ledger,
the test accuracy, every ``HistoryPoint`` and ``extras``.  Floats are
stored as ``float.hex`` and compared with ``==``.

Re-record (only when simulated behaviour is *meant* to change) with
``PYTHONPATH=src python tests/test_baseline_golden.py``.
"""

import json
from pathlib import Path

import pytest

from helpers import (
    baseline_golden_cases,
    baseline_golden_outcome,
    run_baseline_golden_case,
)

GOLDEN_PATH = Path(__file__).resolve().parent / "data/baseline_golden.json"


def record() -> None:
    golden = {
        name: {
            "case": case,
            "expected": baseline_golden_outcome(*run_baseline_golden_case(case)),
        }
        for name, case in baseline_golden_cases().items()
    }
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_golden_is_the_matrix_the_recorder_describes():
    assert {name: entry["case"] for name, entry in GOLDEN.items()} == baseline_golden_cases()
    assert len(GOLDEN) == 24


def test_budget_and_time_budget_cases_bind():
    """The matrix really contains what its docstring says: budgets that
    cut the batch below 40 and time budgets that stop inside epoch one."""
    for name, entry in GOLDEN.items():
        expected = entry["expected"]
        if "-budget" in name:
            assert expected["batch_size"] < 40, name
        if name.endswith("-timed"):
            assert len(expected["history"]) == 1, name
            untimed = GOLDEN[name.removesuffix("-timed")]["expected"]
            assert float.fromhex(expected["sim_time_s"]) < float.fromhex(
                untimed["history"][0]["sim_time_s"]
            ), name


@pytest.mark.parametrize("name", sorted(baseline_golden_cases()))
def test_case_matches_golden(name):
    entry = GOLDEN[name]
    outcome = baseline_golden_outcome(*run_baseline_golden_case(entry["case"]))
    expected = entry["expected"]
    # Field by field first, so a drift names what moved.
    for key in expected:
        assert outcome[key] == expected[key], f"{name}: {key} drifted"
    assert outcome == expected


if __name__ == "__main__":
    record()
