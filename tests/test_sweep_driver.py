"""Sweep driver: worker-count byte-identity, crash-resume, failure records.

Uses real (tiny) training jobs through ``repro.api.run`` -- the same
path ``repro sweep run`` exercises.
"""

import json
import os

from helpers import FakeBlas
from repro.sweep import ResultsStore, SweepSpec, run_sweep

BASE = {
    "backend": "sequential",
    "model": {"name": "vgg11", "num_classes": 4, "input_hw": [16, 16],
              "width_multiplier": 0.125},
    "data": {"dataset": "cifar10", "num_classes": 4, "image_hw": [16, 16],
             "scale": 0.002},
    "budgets": {"memory_mb": 1, "epochs": 1},
    "cluster": {"devices": ["agx-orin", "agx-orin"]},
}

SWEEP = {
    "name": "drv",
    "base": BASE,
    "grid": {
        "budgets.memory_mb": [1.0, 2.0],
        "backend": ["sequential", "pipelined"],
    },
}


def store_bytes(path):
    return {
        name: open(os.path.join(path, name), "rb").read()
        for name in ("MANIFEST.json", "journal.jsonl")
    }


def test_worker_count_does_not_change_store_bytes(tmp_path):
    """Satellite: 1-worker and 4-worker stores are byte-identical."""
    sweep = SweepSpec.from_dict(SWEEP)
    serial, pooled = str(tmp_path / "w1"), str(tmp_path / "w4")
    s1 = run_sweep(sweep, serial, workers=1)
    s4 = run_sweep(sweep, pooled, workers=4)
    assert (s1.executed, s1.failed) == (4, 0)
    assert (s4.executed, s4.failed) == (4, 0)
    assert store_bytes(serial) == store_bytes(pooled)


def test_resume_skips_completed_and_converges_to_uninterrupted_bytes(tmp_path):
    """Satellite: kill mid-sweep (torn record), resume, match the
    uninterrupted store byte-for-byte without re-running finished cells."""
    sweep = SweepSpec.from_dict(SWEEP)
    uninterrupted = str(tmp_path / "full")
    run_sweep(sweep, uninterrupted, workers=1)

    crashed = str(tmp_path / "crashed")
    run_sweep(sweep, crashed, workers=2)
    journal = os.path.join(crashed, "journal.jsonl")
    with open(journal, "rb") as fh:
        data = fh.read()
    lines = data.splitlines(keepends=True)
    # Simulate dying while appending record 3: two complete records plus a
    # torn prefix of the third.
    with open(journal, "wb") as fh:
        fh.write(lines[0] + lines[1] + lines[2][:20])

    summary = run_sweep(sweep, crashed, workers=2)
    assert summary.skipped == 2       # journaled runs were not re-executed
    assert summary.executed == 2      # the torn record's run re-ran
    assert summary.failed == 0
    assert store_bytes(crashed) == store_bytes(uninterrupted)

    # A second resume is a no-op that leaves the bytes alone.
    again = run_sweep(sweep, crashed, workers=1)
    assert (again.executed, again.skipped) == (0, 4)
    assert store_bytes(crashed) == store_bytes(uninterrupted)


def test_failed_runs_are_journaled_and_counted(tmp_path):
    # 0.05 MB cannot fit a single sample: that cell must journal as failed
    # (with the error string) while the 1 MB cell still completes.
    sweep = SweepSpec.from_dict({
        "name": "oom",
        "base": BASE,
        "grid": {"budgets.memory_mb": [0.05, 1.0]},
    })
    path = str(tmp_path / "oom")
    summary = run_sweep(sweep, path, workers=1)
    assert summary.executed == 2
    assert summary.failed == 1
    records = ResultsStore.open(path).records()
    assert records[0]["status"] == "failed"
    assert "PartitionError" in records[0]["error"]
    assert records[0]["report"] is None
    assert records[1]["status"] == "done"
    # Resuming keeps counting the old failure (exit-code stability).
    again = run_sweep(sweep, path, workers=1)
    assert (again.executed, again.failed) == (0, 1)


def test_fresh_discards_previous_results(tmp_path):
    sweep = SweepSpec.from_dict(SWEEP)
    path = str(tmp_path / "s")
    run_sweep(sweep, path, workers=2)
    summary = run_sweep(sweep, path, workers=2, fresh=True)
    assert (summary.executed, summary.skipped) == (4, 0)


def test_derived_seeds_reach_the_executed_jobs(tmp_path):
    # seed_mode=derive gives every cell its own neuroflux seed, recorded in
    # both the manifest spec and the journal overrides.
    sweep = SweepSpec.from_dict({
        "name": "seeds",
        "base": BASE,
        "grid": {"budgets.memory_mb": [1.0, 2.0]},
    })
    path = str(tmp_path / "seeds")
    run_sweep(sweep, path, workers=1)
    store = ResultsStore.open(path)
    seeds = [r["overrides"]["neuroflux.seed"] for r in store.records()]
    assert len(set(seeds)) == 2
    with open(os.path.join(path, "MANIFEST.json")) as fh:
        manifest = json.load(fh)
    assert [r["spec"]["neuroflux"]["seed"] for r in manifest["runs"]] == seeds


def test_inline_sweep_runs_the_rule_in_the_parent(tmp_path, monkeypatch):
    fake = FakeBlas(2).install(monkeypatch)
    run_sweep(SweepSpec.from_dict(SWEEP), str(tmp_path / "w1"), workers=1)
    # Every GEMM runs on one BLAS thread and hands the caller's count back.
    assert fake.sets and fake.sets == [1, 2] * (len(fake.sets) // 2)
    assert fake.count == 2


def test_pool_forks_under_one_blas_budget_and_lifts_it(tmp_path, monkeypatch):
    fake = FakeBlas(8).install(monkeypatch)
    summary = run_sweep(SweepSpec.from_dict(SWEEP), str(tmp_path / "w2"), workers=2)
    assert (summary.executed, summary.failed) == (4, 0)
    # One thread while the pool lives (the workers inherit it and never
    # change it), then the parent's 8 back.
    assert fake.sets == [1, 8]
