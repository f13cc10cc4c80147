"""Per-request latency decomposition from request-scoped spans.

The fleet simulator -- behind both the ``serving`` (one replica) and
``cluster-serving`` backends -- emits one async ``fleet-request`` span
per completed request (arrival -> completion) carrying the exact
queue/compute/comm split it computed.  This module folds those spans
into an aggregate answer to "where does a request's latency go", and
checks the accounting identity the fleet promises::

    queue_s + compute_s + comm_s == completion - arrival   (per request)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.analyze.model import TraceModel

#: Category carrying request-lifecycle spans.
REQUEST_CATEGORY = "fleet-request"

#: Max tolerated |latency - (queue+compute+comm)| per request; attrs are
#: rounded to 1e-9 s on export, so the residual is bounded by a few ulps.
RESIDUAL_TOL_S = 1e-6


@dataclass
class RequestBreakdown:
    """Aggregated queue/compute/comm decomposition over request spans."""

    n_requests: int = 0
    latency_s: float = 0.0
    queue_s: float = 0.0
    compute_s: float = 0.0
    comm_s: float = 0.0
    #: Worst per-request |latency - (queue+compute+comm)| among spans
    #: that carry the full decomposition.
    max_residual_s: float = 0.0
    n_decomposed: int = 0
    per_replica: dict[str, int] = field(default_factory=dict)

    @property
    def accounted(self) -> bool:
        """Every decomposed request's parts sum to its latency."""
        return self.max_residual_s <= RESIDUAL_TOL_S

    def to_json_dict(self) -> dict:
        out = {
            "n_requests": self.n_requests,
            "n_decomposed": self.n_decomposed,
            "latency_s": round(self.latency_s, 9),
            "queue_s": round(self.queue_s, 9),
            "compute_s": round(self.compute_s, 9),
            "comm_s": round(self.comm_s, 9),
            "max_residual_s": round(self.max_residual_s, 12),
            "accounted": self.accounted,
        }
        if self.per_replica:
            out["per_replica"] = dict(sorted(self.per_replica.items()))
        return out

    def table(self) -> str:
        if not self.n_requests:
            return "requests: none traced"
        ms = 1e3
        lines = [
            f"requests ({self.n_requests} traced, "
            f"{self.n_decomposed} decomposed)",
            "--------",
        ]
        for label, value in (
            ("latency", self.latency_s),
            ("queue", self.queue_s),
            ("compute", self.compute_s),
            ("comm", self.comm_s),
        ):
            share = value / self.latency_s if self.latency_s > 0 else 0.0
            lines.append(
                f"  {label:<8} {value * ms:>12.3f} ms total  {share:>6.1%}"
            )
        lines.append(
            f"  residual {self.max_residual_s * ms:>12.6f} ms max "
            f"({'accounted' if self.accounted else 'UNACCOUNTED'})"
        )
        return "\n".join(lines)


def request_breakdown(model: TraceModel) -> RequestBreakdown:
    """Fold every request-lifecycle span into one aggregate."""
    out = RequestBreakdown()
    for span in model.spans:
        if span.category != REQUEST_CATEGORY or span.kind == "instant":
            continue
        attrs = span.attrs or {}
        latency = span.duration_s
        out.n_requests += 1
        out.latency_s += latency
        replica = attrs.get("replica")
        if replica is not None:
            key = f"replica{replica}"
            out.per_replica[key] = out.per_replica.get(key, 0) + 1
        if "queue_s" in attrs and "compute_s" in attrs and "comm_s" in attrs:
            queue = float(attrs["queue_s"])
            compute = float(attrs["compute_s"])
            comm = float(attrs["comm_s"])
            out.queue_s += queue
            out.compute_s += compute
            out.comm_s += comm
            out.n_decomposed += 1
            out.max_residual_s = max(
                out.max_residual_s, abs(latency - (queue + compute + comm))
            )
    return out
