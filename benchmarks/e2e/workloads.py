"""The four workloads: spec from seed, set-up, measured phase, output checks.

Everything here runs inside one child interpreter per repetition (see
``child.py``) and drives the program only through its public entry
points: :func:`repro.api.run` / :func:`repro.api.get_backend` on a
:class:`repro.api.JobSpec`, :func:`repro.fleet.simulate_fleet`, and
:func:`repro.sweep.run_sweep`.  ``repro`` is imported inside the run
functions, after the child has installed its wrappers, so that the
import is part of ``setup_s`` and every binding the workload uses is the
wrapped one on a traced repetition.

All four are closed-loop batch jobs with one client: a repetition is
one job, started when the previous one has exited.

Simulated results (``sim_time_s``, simulated peak, exit accuracy,
simulated p99) are *outputs*: they are digested and compared between
repetitions, never ranked.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tempfile
from dataclasses import dataclass
from typing import Callable

from span_table import FLEET, MP, SEQ, SWEEP

MIB = 2**20


def canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(payload) -> str:
    return hashlib.sha256(canonical(payload).encode()).hexdigest()[:16]


def check(name: str, ok, detail) -> dict:
    """One output check, as it appears in the results document."""
    return {"name": name, "ok": bool(ok), "detail": str(detail)}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    unit: str
    make_spec: Callable[[int, bool], dict]
    #: ``run(spec_dict, phase, callbacks) -> (outputs, work_units, traced,
    #: host)``: ``traced`` holds the output-derived per-layer values and
    #: ``host`` host-clock values the program reports about itself (kept
    #: out of ``outputs``, which must repeat exactly).
    run: Callable
    check: Callable[[dict, dict, bool], list[dict]]


# --------------------------------------------------------------------- #
# train_seq_cache / train_mp_2proc                                      #
# --------------------------------------------------------------------- #
#: Exit test accuracy the trained model must reach (chance is 0.10); the
#: quick sizes train too briefly for a floor to mean anything.
ACCURACY_FLOOR = 0.4
ACCURACY_FLOOR_QUICK = 0.0


def _train_spec(backend: str, seed: int, quick: bool) -> dict:
    n_train = 150 if quick else 500
    spec = {
        "backend": backend,
        "platform": "agx_orin",
        "model": {
            "name": "vgg11",
            "num_classes": 10,
            "input_hw": [32, 32],
            "width_multiplier": 0.25,
            "seed": 1000 + seed,
        },
        "data": {
            "dataset": "cifar10",
            "num_classes": 10,
            "image_hw": [32, 32],
            "scale": n_train / 50_000,
            "noise_std": 0.3,
            "seed": 2000 + seed,
        },
        "neuroflux": {"seed": 3000 + seed},
        "budgets": {"memory_mb": 8, "epochs": 1 if quick else 2},
    }
    if backend == "multiprocess":
        spec["compute"] = {"processes": 2}
    return spec


def _weights_digest(system) -> str:
    h = hashlib.sha256()
    for module in [system.model, *system.aux_heads]:
        for name, value in sorted(module.state_dict().items()):
            h.update(name.encode())
            h.update(value.tobytes())
    return h.hexdigest()[:16]


def _run_train(spec_dict: dict, phase, callbacks=()):
    from repro.api import Callback, JobSpec, run

    class Boundary(Callback):
        """The measured phase starts when the job does: everything before
        ``on_job_start`` (import, parse, materialize, build) is set-up."""

        context = None

        def on_job_start(self, context) -> None:
            self.context = context
            phase.start()

    boundary = Boundary()
    spec = JobSpec.from_dict(spec_dict)
    report = run(spec, [boundary, *callbacks])
    phase.stop()

    result = report.result
    n_train = len(boundary.context.system.data.x_train)
    extras = result.extras
    outputs = {
        "sim_time_s": result.sim_time_s,
        "ledger": result.ledger.as_dict(),
        "profiling_time_s": report.profiling_time_s,
        "sim_peak_mb": result.peak_memory_bytes / MIB,
        "exit_layer": report.exit_layer,
        "exit_test_accuracy": report.exit_test_accuracy,
        "n_blocks": len(report.block_reports),
        "batch_sizes": [b.batch_size for b in report.block_reports],
        "cache_bytes_written": report.cache_bytes_written,
        "weights_digest": _weights_digest(boundary.context.system),
        "processes": extras.get("processes"),
        "stages": extras.get("stages"),
        "n_train": n_train,
    }
    work_units = len(report.block_reports) * spec.budgets.epochs * n_train
    traced = {"blocks": len(report.block_reports)}
    host = {"mp_wall_s": extras.get("wall_clock_s", 0.0)}
    return outputs, work_units, traced, host


def _check_train(outputs: dict, spec: dict, quick: bool) -> list[dict]:
    floor = ACCURACY_FLOOR_QUICK if quick else ACCURACY_FLOOR
    sim, ledger = outputs["sim_time_s"], outputs["ledger"]
    checks = [
        check("exit_accuracy_floor", outputs["exit_test_accuracy"] >= floor,
               f"{outputs['exit_test_accuracy']:.3f} >= {floor}"),
        check("at_least_3_blocks", outputs["n_blocks"] >= 3, outputs["n_blocks"]),
    ]
    if spec["backend"] == "multiprocess":
        # The forked run's clock is its slowest stage, booked as compute;
        # profiling is planned before the fork and sits beside it.
        booked = ledger["total"] - ledger["profiling"]
        checks += [
            check("ledger_total_is_sim_time", abs(booked - sim) <= 1e-9 * max(1.0, sim),
                   f"{booked} vs {sim}"),
            check("cache_bypassed", outputs["cache_bytes_written"] == 0,
                   outputs["cache_bytes_written"]),
            check("two_processes", outputs["processes"] == 2, outputs["processes"]),
        ]
    else:
        checks += [
            check("ledger_total_is_sim_time",
                   abs(ledger["total"] - sim) <= 1e-9 * max(1.0, sim),
                   f"{ledger['total']} vs {sim}"),
            check("cache_used", outputs["cache_bytes_written"] > 0,
                   outputs["cache_bytes_written"]),
        ]
    return checks


# --------------------------------------------------------------------- #
# serve_fleet_churn                                                     #
# --------------------------------------------------------------------- #
def _fleet_spec(seed: int, quick: bool) -> dict:
    rate = 8000.0  # past three replicas' comfort, so the autoscaler acts
    duration = 0.8 if quick else 18.0
    rng = random.Random(f"{FLEET}:{seed}")
    slow_at = rng.uniform(0.15, 0.25) * duration
    events = [
        {"type": "slowdown", "time_s": round(slow_at, 6), "device": 0,
         "factor": round(rng.uniform(2.0, 3.0), 3),
         "duration_s": round(rng.uniform(0.2, 0.3) * duration, 6)},
        {"type": "failure", "time_s": round(rng.uniform(0.40, 0.48) * duration, 6), "device": 1},
        {"type": "join", "time_s": round(rng.uniform(0.52, 0.60) * duration, 6),
         "platform": "agx-orin"},
    ]
    return {
        "backend": "cluster-serving",
        "platform": "agx_orin",
        "model": {"name": "vgg11", "num_classes": 4, "input_hw": [16, 16],
                  "width_multiplier": 0.125, "seed": 1000 + seed},
        "data": {"dataset": "cifar10", "num_classes": 4, "image_hw": [16, 16],
                 "scale": 0.01, "noise_std": 0.4, "seed": 2000 + seed},
        "neuroflux": {"batch_limit": 64, "seed": 3000 + seed},
        "budgets": {"memory_mb": 16, "epochs": 1},
        "cluster": {"devices": ["nano", "agx-orin"], "placement": "optimized",
                    "queue_capacity": 2},
        "serving": {"pattern": "diurnal", "arrival_rate": rate, "duration_s": duration,
                    "mode": "cascade", "threshold": 0.5, "batch_cap": 16,
                    "max_wait_ms": 4.0, "queue_depth": 128},
        "fleet": {"n_replicas": 3, "policy": "latency-aware", "autoscale": True,
                  "max_replicas": 5, "scale_up_at": 0.6, "scale_down_at": 0.05,
                  "cooldown_s": 0.05, "events": {"events": events}},
    }


def _run_fleet(spec_dict: dict, phase, callbacks=()):
    from repro.api import JobSpec, get_backend
    from repro.fleet import simulate_fleet

    spec = JobSpec.from_dict(spec_dict)
    context = get_backend(spec.backend).prepare(spec)
    # Set-up includes the short training that produces the served model.
    context.system.run(spec.budgets.epochs, callbacks=list(callbacks))
    devices = spec.cluster.devices
    phase.start()
    report = simulate_fleet(
        context.system,
        context.extras["workload"],
        cluster_names=[d.platform for d in devices],
        memory_budgets=[d.memory_budget for d in devices],
        fleet=context.extras["fleet_config"],
        server_config=context.extras["server_config"],
        exit_layers=spec.serving.exits,
        threshold=spec.serving.threshold,
        mode=spec.serving.mode,
        schedule=context.extras["schedule"],
    )
    phase.stop()
    outputs = {k: v for k, v in report.to_json_dict().items() if k != "metrics"}
    traced = {"requests": report.n_offered}
    return outputs, report.n_offered, traced, {}


def _check_fleet(outputs: dict, spec: dict, quick: bool) -> list[dict]:
    acc = outputs["accounting"]
    return [
        check("requests_conserved",
               acc["completed"] + acc["rejected"] + acc["shed"] == acc["offered"], acc),
        check("none_unaccounted", acc["unaccounted"] == 0, acc["unaccounted"]),
        check("finished", not outputs["dnf"], f"dnf={outputs['dnf']}"),
        check("churn_applied", len(outputs["events"]) == 3, outputs["events"]),
    ]


# --------------------------------------------------------------------- #
# sweep_evalsim_grid                                                    #
# --------------------------------------------------------------------- #
SWEEP_CELLS = 6
#: Every cell simulates all three training methods.
SWEEP_METHODS = ("bp", "ll", "nf")


def _sweep_spec(seed: int, quick: bool) -> dict:
    # Half width: a full-width vgg16 build touches ~180 MB of fresh pages,
    # and on a small VM the cost of those faults swings a repetition by
    # seconds.  The eight epochs put the step loops beside the six builds.
    model = {"name": "vgg16", "width_multiplier": 0.25 if quick else 0.5, "seed": 1000 + seed}
    data = {"dataset": "cifar10", "scale": 0.1 if quick else 1.0, "seed": 2000 + seed}
    return {
        "name": "e2e_evalsim_grid",
        "seed_mode": "fixed",
        "base": {
            "backend": "evalsim",
            "platform": "agx_orin",
            "model": model,
            "data": data,
            "neuroflux": {"seed": 3000 + seed},
            "budgets": {"memory_mb": 100, "epochs": 1 if quick else 8},
        },
        "grid": {
            "model.name": ["vgg16", "resnet18"],
            "budgets.memory_mb": [100, 300, 500],
        },
    }


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def _run_sweep(spec_dict: dict, phase, callbacks=()):
    from repro.data.registry import dataset_spec
    from repro.sweep import ResultsStore, SweepSpec, run_sweep

    sweep = SweepSpec.from_dict(spec_dict)
    store_path = os.path.join(tempfile.mkdtemp(prefix="e2e-sweep-"), "store")
    phase.start()
    summary = run_sweep(sweep, store_path, workers=1)
    phase.stop()

    store = ResultsStore.open(store_path)
    records = store.records()
    journal_bytes = os.path.getsize(store.journal_path)
    journal_sha = _file_sha(store.journal_path)
    again = run_sweep(sweep, store_path, workers=1)
    cells = []
    for record in records:
        report = record["report"] or {}
        sim = report.get("evalsim", {})
        cells.append({
            "run_id": record["run_id"],
            "status": record["status"],
            "sim_time_s": report.get("wall_clock_s"),
            "feasible": [m for m in SWEEP_METHODS if sim.get(m, {}).get("feasible")],
        })
    # Fixed by the spec alone: which methods fit a budget is a simulated
    # output and may move without the host doing any less work.
    base = spec_dict["base"]
    n_train = dataset_spec(base["data"]["dataset"], scale=base["data"]["scale"]).n_train
    samples = SWEEP_CELLS * len(SWEEP_METHODS) * base["budgets"]["epochs"] * n_train
    outputs = {
        "summary": {k: v for k, v in summary.to_json_dict().items() if k != "store_path"},
        "cells": cells,
        "journal_bytes": journal_bytes,
        "journal_sha": journal_sha,
        "reopen": {
            "executed": again.executed,
            "skipped": again.skipped,
            "journal_sha": _file_sha(store.journal_path),
        },
    }
    traced = {"journal_bytes": journal_bytes}
    return outputs, samples, traced, {}


def _check_sweep(outputs: dict, spec: dict, quick: bool) -> list[dict]:
    statuses = [c["status"] for c in outputs["cells"]]
    reopen = outputs["reopen"]
    return [
        check("six_cells_done", statuses == ["done"] * SWEEP_CELLS, statuses),
        check("none_failed", outputs["summary"]["failed"] == 0, outputs["summary"]),
        check("reopen_is_noop",
               reopen["executed"] == 0 and reopen["skipped"] == SWEEP_CELLS
               and reopen["journal_sha"] == outputs["journal_sha"], reopen),
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            SEQ,
            "sequential backend through the disk-backed activation cache: the paper's own "
            "path, where a kernel, cache or worker optimisation must show",
            "samples/s",
            lambda seed, quick: _train_spec("sequential", seed, quick),
            _run_train,
            _check_train,
        ),
        Workload(
            MP,
            "same model, data and budget on two forked stage processes with no disk cache: "
            "a change that oversubscribes cores or only helps the cache shows as a cost here",
            "samples/s",
            lambda seed, quick: _train_spec("multiprocess", seed, quick),
            _run_train,
            _check_train,
        ),
        Workload(
            FLEET,
            "fleet event loop, router, replica batching and shard placement under churn; nn "
            "runs forward once for the route cache, so a kernel change should not move it",
            "requests/s",
            _fleet_spec,
            _run_fleet,
            _check_fleet,
        ),
        Workload(
            SWEEP,
            "six closed-form evalsim cells through the sweep driver: no numpy training, time "
            "is charge bookkeeping, per-cell model builds and journalling",
            "samples/s",
            _sweep_spec,
            _run_sweep,
            _check_sweep,
        ),
    )
}
