"""FleetReport: the cluster-serving run's unified report.

A :class:`repro.api.report.Report` like every other backend's result:
``wall_clock_s`` is the fleet makespan, the ledger merges every replica
device's :class:`~repro.hw.simulator.TimeLedger`, and the
``"metrics"`` snapshot carries per-replica labeled series next to the
fleet-wide aggregates.  The headline numbers are the tail latencies
*under churn* -- p50/p95/p99 measured across slowdowns, failures and
joins -- plus an explicit accounting block proving no request was lost
silently: every offered request is completed, rejected, or shed.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.api.report import Report, json_num as _num, merge_ledger_summaries
from repro.obs.metrics import percentile_of_sorted, sorted_column


@dataclass
class ReplicaSummary:
    """One replica's lifetime, as the report records it."""

    replica_id: int
    origin: str  # initial | join | autoscale
    state: str  # live | draining | failed | retired
    platforms: list[str]
    placement: list[int]
    spawned_s: float
    retired_s: float | None
    n_completed: int
    n_shed: int
    n_failed_over: int
    n_batches: int
    busy_s: float
    exit_counts: list[int]

    def to_json_dict(self) -> dict:
        return {
            "replica_id": self.replica_id,
            "origin": self.origin,
            "state": self.state,
            "platforms": list(self.platforms),
            "placement": list(self.placement),
            "spawned_s": _num(self.spawned_s),
            "retired_s": _num(self.retired_s) if self.retired_s is not None else None,
            "n_completed": self.n_completed,
            "n_shed": self.n_shed,
            "n_failed_over": self.n_failed_over,
            "n_batches": self.n_batches,
            "busy_s": _num(self.busy_s),
            "exit_counts": list(self.exit_counts),
        }


@dataclass
class FleetReport(Report):
    """Aggregated outcome of one multi-replica serving run."""

    kind = "fleet"

    pattern: str
    arrival_rate: float
    duration_s: float
    mode: str
    num_exits: int
    policy: str
    n_replicas_initial: int
    predicted_batch_s: float = 0.0
    replicas: list[ReplicaSummary] = field(default_factory=list)
    #: The four per-request series are float64 columns (``array("d")``,
    #: 8 bytes a completed request each), index-aligned in completion
    #: order.  ``latencies``: end-to-end latency of every completed
    #: request (arrival to completion, failovers included under their
    #: original arrival).
    latencies: array = field(default_factory=lambda: array("d"))
    #: Exact per-request latency decomposition of ``latencies``: time
    #: queued (to dispatch, plus mid-chain device stalls), segment
    #: compute, and boundary-hop comm.  Per request,
    #: ``queue + compute + comm == latency``.
    queue_seconds: array = field(default_factory=lambda: array("d"))
    compute_seconds: array = field(default_factory=lambda: array("d"))
    comm_seconds: array = field(default_factory=lambda: array("d"))
    n_completed: int = 0
    n_rejected: int = 0
    n_shed: int = 0
    n_failed_over: int = 0
    n_offered: int = 0
    n_failures: int = 0
    dnf: bool = False
    correct_sum: int = 0
    scored: int = 0
    last_completion_s: float = 0.0
    events_applied: list[dict] = field(default_factory=list)
    scale_events: list[dict] = field(default_factory=list)
    #: Per-replica-device ledgers, flattened fleet-wide.
    device_ledgers: list[dict] = field(default_factory=list)
    #: ``(column, length, sorted copy)``: the latency column sorted once
    #: for every percentile the report prints, re-sorted only when the
    #: column is replaced or grows.
    _latency_order: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # -- aggregates ----------------------------------------------------------
    @property
    def rejection_rate(self) -> float:
        return self.n_rejected / self.n_offered if self.n_offered else 0.0

    @property
    def shed_rate(self) -> float:
        return self.n_shed / self.n_offered if self.n_offered else 0.0

    @property
    def n_unaccounted(self) -> int:
        """Offered requests with no recorded outcome -- must be zero."""
        return self.n_offered - self.n_completed - self.n_rejected - self.n_shed

    @property
    def survived_churn(self) -> bool:
        """Failures happened, the fleet kept serving, nothing went missing."""
        return self.n_failures > 0 and not self.dnf and self.n_unaccounted == 0

    @property
    def makespan_s(self) -> float:
        return max(self.duration_s, self.last_completion_s)

    @property
    def throughput_rps(self) -> float:
        return self.n_completed / self.makespan_s if self.makespan_s > 0 else 0.0

    @property
    def completion_rate(self) -> float:
        return self.n_completed / self.n_offered if self.n_offered else 0.0

    def latency_percentile(self, q: float) -> float:
        # NaN (rendered null in JSON) when nothing completed, e.g. a DNF.
        if not self.latencies:
            return float("nan")
        held = self._latency_order
        if held is None or held[0] is not self.latencies or held[1] != len(held[0]):
            held = (self.latencies, len(self.latencies), sorted_column(self.latencies))
            self._latency_order = held
        return percentile_of_sorted(held[2], q)

    @property
    def mean_latency_s(self) -> float:
        if not self.latencies:
            return float("nan")
        return sum(self.latencies) / len(self.latencies)

    @property
    def accuracy(self) -> float:
        return self.correct_sum / self.scored if self.scored else float("nan")

    @property
    def n_replicas_peak(self) -> int:
        return len(self.replicas)

    @property
    def exit_counts(self) -> list[int]:
        counts = [0] * self.num_exits
        for r in self.replicas:
            for k, c in enumerate(r.exit_counts):
                counts[k] += c
        return counts

    # -- Report ----------------------------------------------------------------
    @property
    def wall_clock_s(self) -> float:
        return self.makespan_s

    @property
    def peak_memory_bytes(self) -> int:
        """The fleet simulator does not model GPU residency."""
        return 0

    def ledger_summary(self) -> dict[str, float]:
        return merge_ledger_summaries(self.device_ledgers)

    def add_metrics(self, reg) -> None:
        reg.counter("requests_offered_total").inc(self.n_offered)
        reg.counter("requests_completed_total").inc(self.n_completed)
        reg.counter("requests_rejected_total").inc(self.n_rejected)
        reg.counter("requests_shed_total").inc(self.n_shed)
        reg.counter("requests_failed_over_total").inc(self.n_failed_over)
        reg.counter("fleet_failures_total").inc(self.n_failures)
        for k, count in enumerate(self.exit_counts):
            reg.counter("requests_exit_total", exit=k).inc(count)
        reg.gauge("throughput_rps").set(self.throughput_rps)
        reg.gauge("rejection_rate").set(self.rejection_rate)
        reg.gauge("shed_rate").set(self.shed_rate)
        reg.gauge("accuracy").set(self.accuracy)
        reg.gauge("replicas_peak").set(self.n_replicas_peak)
        reg.gauge("requests_unaccounted").set(self.n_unaccounted)
        for r in self.replicas:
            reg.counter(
                "replica_requests_completed_total", replica=r.replica_id
            ).inc(r.n_completed)
            reg.counter(
                "replica_requests_shed_total", replica=r.replica_id
            ).inc(r.n_shed)
            reg.counter(
                "replica_batches_total", replica=r.replica_id
            ).inc(r.n_batches)
            reg.gauge("replica_busy_seconds", replica=r.replica_id).set(r.busy_s)
        reg.histogram("request_latency_seconds").extend(self.latencies)
        reg.histogram("request_queue_seconds").extend(self.queue_seconds)
        reg.histogram("request_compute_seconds").extend(self.compute_seconds)
        reg.histogram("request_comm_seconds").extend(self.comm_seconds)

    def latency_breakdown(self) -> dict:
        """Fleet-wide queue/compute/comm split of completed-request time."""
        total = sum(self.latencies)
        parts = {
            "queue_s": sum(self.queue_seconds),
            "compute_s": sum(self.compute_seconds),
            "comm_s": sum(self.comm_seconds),
        }
        out = {"latency_s": _num(total)}
        for key, value in parts.items():
            out[key] = _num(value)
            share_key = key.replace("_s", "_share")
            out[share_key] = _num(value / total if total > 0 else 0.0)
        return out

    def json_fields(self) -> dict:
        return {
            "policy": self.policy,
            "pattern": self.pattern,
            "arrival_rate": self.arrival_rate,
            "duration_s": self.duration_s,
            "mode": self.mode,
            "num_exits": self.num_exits,
            "n_replicas_initial": self.n_replicas_initial,
            "n_replicas_peak": self.n_replicas_peak,
            "predicted_batch_s": _num(self.predicted_batch_s),
            "n_offered": self.n_offered,
            "n_completed": self.n_completed,
            "n_rejected": self.n_rejected,
            "n_shed": self.n_shed,
            "n_failed_over": self.n_failed_over,
            "n_failures": self.n_failures,
            "accounting": {
                "offered": self.n_offered,
                "completed": self.n_completed,
                "rejected": self.n_rejected,
                "shed": self.n_shed,
                "unaccounted": self.n_unaccounted,
            },
            "survived_churn": self.survived_churn,
            "dnf": self.dnf,
            "rejection_rate": _num(self.rejection_rate),
            "throughput_rps": _num(self.throughput_rps),
            "p50_latency_s": _num(self.latency_percentile(50)),
            "p95_latency_s": _num(self.latency_percentile(95)),
            "p99_latency_s": _num(self.latency_percentile(99)),
            "mean_latency_s": _num(self.mean_latency_s),
            "latency_breakdown": self.latency_breakdown(),
            "exit_counts": self.exit_counts,
            "accuracy": _num(self.accuracy),
            "replicas": [r.to_json_dict() for r in self.replicas],
            "events": list(self.events_applied),
            "autoscale_events": list(self.scale_events),
        }

    def summary(self) -> str:
        return self.table()

    def _breakdown_row(self) -> str:
        split = self.latency_breakdown()
        if not self.latencies:
            return "n/a"
        return (
            f"queue {split['queue_share']:.1%} / "
            f"compute {split['compute_share']:.1%} / "
            f"comm {split['comm_share']:.1%}"
        )

    # -- presentation --------------------------------------------------------
    def table(self) -> str:
        ms = 1e3
        rows = [
            ("policy", f"{self.policy} over {self.n_replicas_initial} replicas "
                       f"(peak {self.n_replicas_peak})"),
            ("pattern", f"{self.pattern} @ {self.arrival_rate:.0f} req/s "
                        f"for {self.duration_s:g} s"),
            ("routing", f"{self.mode} ({self.num_exits} exits)"),
            ("offered", f"{self.n_offered}"),
            ("completed", f"{self.n_completed} ({self.completion_rate:.1%})"),
            ("rejected", f"{self.n_rejected} ({self.rejection_rate:.1%})"),
            ("shed", f"{self.n_shed}"),
            ("failed over", f"{self.n_failed_over}"),
            ("unaccounted", f"{self.n_unaccounted}"),
            ("failures", f"{self.n_failures}"
                         + (" (survived)" if self.survived_churn else "")
                         + (" [DNF]" if self.dnf else "")),
            ("throughput", f"{self.throughput_rps:.1f} req/s"),
            ("p50 latency", f"{self.latency_percentile(50) * ms:.2f} ms"),
            ("p95 latency", f"{self.latency_percentile(95) * ms:.2f} ms"),
            ("p99 latency", f"{self.latency_percentile(99) * ms:.2f} ms"),
            ("latency split", self._breakdown_row()),
            ("accuracy", f"{self.accuracy:.3f}"),
        ]
        for r in self.replicas:
            devices = ",".join(r.platforms)
            rows.append(
                (f"replica {r.replica_id}",
                 f"[{devices}] {r.origin}/{r.state} "
                 f"served {r.n_completed} in {r.n_batches} batches "
                 f"(busy {r.busy_s:.3f} s)")
            )
        width = max(len(label) for label, _ in rows)
        lines = [f"{label.ljust(width)}  {value}" for label, value in rows]
        header = f"fleet report -- {self.policy}"
        rule = "-" * max(len(header), max(len(line) for line in lines))
        return "\n".join([header, rule, *lines])
