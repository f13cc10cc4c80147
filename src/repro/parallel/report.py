"""Structured results of a parallel (multi-device) training run."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.report import json_num as _num
from repro.core.report import NeuroFluxReport


@dataclass(kw_only=True)
class ParallelReport(NeuroFluxReport):
    """Everything a :meth:`NeuroFlux.train_parallel` run produced.

    The inherited fields are the run's single-run outputs (partition,
    exit selection, accuracies, merged ledger), so a cluster run reports
    the same training fields as a one-device run; the fields below
    describe the cluster execution: where blocks ran, how long the run
    took end to end, how busy each device was and what crossing links
    cost.

    ``predicted_makespan_s`` is always the *pipelined* timing model's
    prediction for the chosen placement -- the quantity the placement
    optimizer minimizes -- so under ``schedule="sequential"`` it reads as
    "what this placement would achieve if pipelined", not as a forecast
    of the sequential makespan.
    """

    kind = "parallel"

    schedule: str
    placement: list[int]
    device_names: list[str]
    makespan_s: float
    predicted_makespan_s: float
    device_ledgers: list[dict[str, float]] = field(default_factory=list)
    utilization: list[float] = field(default_factory=list)
    bubble_fraction: float = float("nan")
    comm_bytes: int = 0
    microbatch: int = 0
    n_microbatches: int = 0
    #: Present when the run was driven by an adaptive runtime
    #: (:class:`repro.runtime.RuntimeReport`): events, migrations,
    #: refined coefficients, recovery time.
    runtime: object | None = None

    @property
    def device_times_s(self) -> list[float]:
        """Total simulated seconds each device charged during the run."""
        return [ledger.get("total", 0.0) for ledger in self.device_ledgers]

    # -- Report ----------------------------------------------------------------
    @property
    def wall_clock_s(self) -> float:
        """End-to-end simulated seconds (the cluster makespan)."""
        return self.makespan_s

    def add_metrics(self, reg) -> None:
        """The cluster's metrics, in place of the single-device ones."""
        for name, ledger in zip(self.device_names, self.device_ledgers):
            for category, seconds in ledger.items():
                reg.counter(
                    "device_ledger_seconds_total", device=name, category=category
                ).inc(seconds)
        for name, util in zip(self.device_names, self.utilization):
            reg.gauge("device_utilization", device=name).set(util)
        reg.gauge("bubble_fraction").set(self.bubble_fraction)
        reg.gauge("predicted_makespan_seconds").set(self.predicted_makespan_s)
        reg.counter("comm_bytes_total").inc(self.comm_bytes)
        reg.counter("microbatches_total").inc(self.n_microbatches)
        runtime_json = (
            self.runtime.to_json_dict() if self.runtime is not None else None
        )
        if runtime_json is not None:
            for event in runtime_json.get("events_applied", ()):
                reg.counter(
                    "runtime_events_total", kind=event.get("type", "?")
                ).inc()
            recovery = reg.histogram("migration_recovery_seconds")
            for migration in runtime_json.get("migrations", ()):
                reg.counter(
                    "migrations_total", reason=migration.get("reason", "?")
                ).inc()
                recovery.observe(migration.get("recovery_s", 0.0))

    def summary(self) -> str:
        """Human-readable one-screen summary."""
        predicted = (
            f"(predicted {self.predicted_makespan_s:.1f}s)"
            if self.schedule == "pipelined"
            else f"(pipelined would predict {self.predicted_makespan_s:.1f}s)"
        )
        stream = (
            f"microbatch={self.microbatch} stream={self.n_microbatches} batches"
            if self.n_microbatches
            else "adaptive per-block batches"
        )
        lines = [
            f"Parallel NeuroFlux run: schedule={self.schedule} {stream}",
            f"  makespan: {self.makespan_s:.1f}s {predicted}  "
            f"bubble: {100 * self.bubble_fraction:.1f}%  "
            f"comm: {self.comm_bytes / 2**20:.1f} MiB",
        ]
        for d, name in enumerate(self.device_names):
            blocks = [k for k, dev in enumerate(self.placement) if dev == d]
            util = self.utilization[d] if d < len(self.utilization) else 0.0
            busy = self.device_times_s[d] if d < len(self.device_ledgers) else 0.0
            lines.append(
                f"  {name}: blocks={blocks or '-'} "
                f"busy={busy:.1f}s util={100 * util:.1f}%"
            )
        lines.append(
            f"  exit layer: {self.exit_layer + 1} "
            f"(test acc {self.exit_test_accuracy:.3f})"
        )
        if self.runtime is not None:
            lines.append(self.runtime.summary())
        return "\n".join(lines)

    def json_fields(self) -> dict:
        """The training fields, plus the cluster execution."""
        return {
            **super().json_fields(),
            "schedule": self.schedule,
            "placement": list(self.placement),
            "device_names": list(self.device_names),
            "makespan_s": _num(self.makespan_s),
            "predicted_makespan_s": _num(self.predicted_makespan_s),
            "bubble_fraction": _num(self.bubble_fraction),
            "utilization": [round(u, 4) for u in self.utilization],
            "device_ledgers": [
                {key: _num(value) for key, value in ledger.items()}
                for ledger in self.device_ledgers
            ],
            "comm_bytes": self.comm_bytes,
            "microbatch": self.microbatch,
            "n_microbatches": self.n_microbatches,
            "runtime": (
                self.runtime.to_json_dict() if self.runtime is not None else None
            ),
        }
