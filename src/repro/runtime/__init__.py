"""Adaptive cluster runtime: keep training healthy as the cluster churns.

PR 3's cluster layer computes a block-to-device placement once and
assumes the cluster it priced is the cluster it gets.  This package adds
the control loop for everything that assumption leaves out:

* :mod:`repro.runtime.events` -- deterministic, seedable fault/load
  schedules (slowdowns, spikes, failures, joins) injected into live
  device ledgers;
* :mod:`repro.runtime.monitor` -- drift detection with perf4sight-style
  online refinement of per-device cost coefficients;
* :mod:`repro.runtime.migrate` -- live block migration and
  checkpoint-and-replay failure recovery (bit-identical state, booked
  recovery time);
* :mod:`repro.runtime.policy` -- when to re-run the placement search and
  whether the predicted saving pays for the moves;
* :mod:`repro.runtime.runtime` -- :class:`AdaptiveRuntime`, the loop
  itself, driven by :meth:`NeuroFlux.train_parallel(..., runtime=...)`;
* :mod:`repro.runtime.bench` -- the committed static-vs-adaptive
  scenario benchmark (``repro bench runtime``, ``BENCH_runtime.json``).
"""

from repro.runtime.events import (
    DeviceFailure,
    DeviceJoin,
    DeviceSlowdown,
    EventClock,
    EventSchedule,
    LoadSpike,
    SchedulePlayer,
    random_schedule,
)
from repro.runtime.migrate import (
    CheckpointStore,
    MigrationRecord,
    failure_recovery,
    planned_migration,
    restore_worker,
    snapshot_worker,
)
from repro.runtime.monitor import DriftMonitor
from repro.runtime.policy import (
    ReplacementDecision,
    ReplacementPolicy,
    refined_problem,
    refined_step_times,
)
from repro.runtime.runtime import AdaptiveRuntime, RuntimeReport

__all__ = [
    "AdaptiveRuntime",
    "CheckpointStore",
    "DeviceFailure",
    "DeviceJoin",
    "DeviceSlowdown",
    "DriftMonitor",
    "EventClock",
    "EventSchedule",
    "LoadSpike",
    "MigrationRecord",
    "ReplacementDecision",
    "ReplacementPolicy",
    "RuntimeReport",
    "SchedulePlayer",
    "failure_recovery",
    "planned_migration",
    "random_schedule",
    "refined_problem",
    "refined_step_times",
    "restore_worker",
    "snapshot_worker",
]
