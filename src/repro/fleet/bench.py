"""Fleet benchmark: N-replica sharded serving vs one static server.

Trains one NeuroFlux system, then serves the *identical* workload and
churn schedule through two arms:

* ``single`` -- the static baseline: one replica, whole cascade on one
  AGX Orin, no failover targets;
* ``fleet``  -- N replicas, each sharding the cascade across a
  heterogeneous device template with the placement optimizer, fronted
  by the latency-aware router.

Two scenarios, event times as fractions of the trace duration:

* ``slowdown`` -- replica 0 throttles 4x mid-trace and recovers; the
  single server *is* replica 0, so its tail blows up, while the fleet's
  router shifts load to the healthy replicas;
* ``failure`` -- the slowdown, then replica 0 dies.  The single server
  goes extinct (DNF: the remaining trace is rejected at the front
  door); the fleet drains the dead replica's in-flight work onto
  survivors and keeps serving -- with every request accounted.

A third table serves the failure scenario once per router policy, which
is the README's router-policy matrix.  All arms are pure simulation on
one fixed-seed trace, so every number -- and the committed
``BENCH_fleet.json`` -- is deterministic.
"""

from __future__ import annotations

from repro.bench import MB, MODEL, env_block, reference_data, reference_system
from repro.errors import ConfigError

_WIDTH = 0.125
_BUDGET = 16 * MB

#: Each fleet replica shards the cascade across this device template.
_REPLICA_TEMPLATE = ("nano", "agx-orin")
#: The static baseline serves the whole cascade on one of these.
_SINGLE_DEVICE = ("agx-orin",)
_N_REPLICAS = 3

#: Event times as fractions of the trace duration.
_SLOWDOWN_AT, _SLOWDOWN_FACTOR, _SLOWDOWN_SPAN = 0.2, 4.0, 0.4
_FAILURE_AT = 0.55


def _schedule(name: str, duration_s: float):
    from repro.runtime.events import (
        DeviceFailure,
        DeviceSlowdown,
        EventSchedule,
    )

    slowdown = DeviceSlowdown(
        _SLOWDOWN_AT * duration_s,
        device=0,
        factor=_SLOWDOWN_FACTOR,
        duration_s=_SLOWDOWN_SPAN * duration_s,
    )
    if name == "slowdown":
        return EventSchedule([slowdown])
    if name == "failure":
        return EventSchedule(
            [slowdown, DeviceFailure(_FAILURE_AT * duration_s, device=0)]
        )
    raise ConfigError(f"unknown scenario {name!r}")


def _serve(system, arm: str, schedule, rate: float, duration_s: float,
           policy: str = "latency-aware"):
    from repro.fleet import FleetConfig, simulate_fleet
    from repro.serving import ServerConfig, WorkloadSpec

    if arm == "single":
        names, n_replicas = list(_SINGLE_DEVICE), 1
    elif arm == "fleet":
        names, n_replicas = list(_REPLICA_TEMPLATE), _N_REPLICAS
    else:
        raise ConfigError(f"unknown arm {arm!r}")
    return simulate_fleet(
        system,
        WorkloadSpec(
            pattern="poisson", arrival_rate=rate, duration_s=duration_s, seed=11
        ),
        cluster_names=names,
        fleet=FleetConfig(n_replicas=n_replicas, policy=policy),
        server_config=ServerConfig(batch_cap=16, max_wait_s=0.004, queue_depth=128),
        schedule=schedule,
    )


def _arm_entry(report) -> dict:
    return {
        "n_replicas": report.n_replicas_peak,
        "n_offered": report.n_offered,
        "n_completed": report.n_completed,
        "n_rejected": report.n_rejected,
        "n_shed": report.n_shed,
        "n_failed_over": report.n_failed_over,
        "n_unaccounted": report.n_unaccounted,
        "completion_rate": round(report.completion_rate, 4),
        "throughput_rps": round(report.throughput_rps, 3),
        "p50_latency_ms": round(1e3 * report.latency_percentile(50), 4),
        "p95_latency_ms": round(1e3 * report.latency_percentile(95), 4),
        "p99_latency_ms": round(1e3 * report.latency_percentile(99), 4),
        "accuracy": round(report.accuracy, 4),
        "dnf": report.dnf,
        "survived_churn": report.survived_churn,
    }


def run_suite(quick: bool = False, seed: int = 0) -> dict:
    """Run the single-vs-fleet churn suite and return the JSON report."""
    rate = 1500.0
    duration_s = 0.4 if quick else 1.0
    epochs = 2 if quick else 5
    data = reference_data(seed, quick)
    system = reference_system(data, _WIDTH, _BUDGET, seed)
    system.run(epochs=epochs)

    scenarios: dict[str, dict] = {}
    for name in ("slowdown", "failure"):
        entry: dict = {
            "events": _schedule(name, duration_s).to_json_dict()["events"]
        }
        for arm in ("single", "fleet"):
            report = _serve(
                system, arm, _schedule(name, duration_s), rate, duration_s
            )
            entry[arm] = _arm_entry(report)
        entry["p99_improvement"] = round(
            entry["single"]["p99_latency_ms"] / entry["fleet"]["p99_latency_ms"], 3
        )
        scenarios[name] = entry

    # Router-policy matrix under the failure scenario (the README table).
    from repro.fleet import ROUTER_POLICIES

    policies: dict[str, dict] = {}
    for policy in ROUTER_POLICIES:
        report = _serve(
            system, "fleet", _schedule("failure", duration_s), rate,
            duration_s, policy=policy,
        )
        policies[policy] = _arm_entry(report)

    slowdown, failure = scenarios["slowdown"], scenarios["failure"]
    claims = {
        "fleet_beats_single_p99_slowdown": (
            slowdown["fleet"]["p99_latency_ms"]
            < slowdown["single"]["p99_latency_ms"]
        ),
        "fleet_beats_single_p99_failure": (
            failure["fleet"]["p99_latency_ms"]
            < failure["single"]["p99_latency_ms"]
        ),
        "fleet_survives_failure": failure["fleet"]["survived_churn"],
        "single_dnfs_on_failure": failure["single"]["dnf"],
        # The latency-aware arm legitimately routes around the slowed
        # replica before it dies (nothing left to strand), so the
        # drain/failover machinery is proven on the policies that keep
        # feeding it (round-robin, least-loaded).
        "failover_rescued_in_flight_work": any(
            p["n_failed_over"] > 0 for p in policies.values()
        ),
        "zero_unaccounted_everywhere": all(
            scenarios[s][arm]["n_unaccounted"] == 0
            for s in scenarios
            for arm in ("single", "fleet")
        )
        and all(p["n_unaccounted"] == 0 for p in policies.values()),
        "latency_aware_not_worse_than_round_robin": (
            policies["latency-aware"]["p99_latency_ms"]
            <= policies["round-robin"]["p99_latency_ms"]
        ),
    }
    return {
        "schema": 1,
        "config": {
            "quick": quick,
            "seed": seed,
            "epochs": epochs,
            "model": MODEL,
            "width_multiplier": _WIDTH,
            "arrival_rate": rate,
            "duration_s": duration_s,
            "n_replicas": _N_REPLICAS,
            "replica_template": list(_REPLICA_TEMPLATE),
            "single_device": list(_SINGLE_DEVICE),
            "n_test": len(data.x_test),
        },
        "env": env_block(),
        "scenarios": scenarios,
        "policies": policies,
        "claims": claims,
    }


def format_report(report: dict) -> str:
    """Human-readable tables of a run_suite report."""
    cfg = report["config"]
    lines = [
        f"fleet benchmark: {cfg['model']} x{cfg['width_multiplier']} "
        f"@ {cfg['arrival_rate']:.0f} req/s for {cfg['duration_s']:g}s"
        f"{' (quick)' if cfg['quick'] else ''}",
        f"fleet: {cfg['n_replicas']} x {cfg['replica_template']}   "
        f"single: 1 x {cfg['single_device']}",
    ]
    header = (
        f"{'scenario':<10} {'arm':<8} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'done':>6} {'rej':>5} {'shed':>5} {'fo':>4} {'outcome':>10}"
    )
    lines += [header, "-" * len(header)]
    for name, entry in report["scenarios"].items():
        for arm in ("single", "fleet"):
            e = entry[arm]
            outcome = "DNF" if e["dnf"] else (
                "survived" if e["survived_churn"] else "ok"
            )
            lines.append(
                f"{name:<10} {arm:<8} {e['p50_latency_ms']:>8.2f} "
                f"{e['p99_latency_ms']:>8.2f} {e['n_completed']:>6} "
                f"{e['n_rejected']:>5} {e['n_shed']:>5} "
                f"{e['n_failed_over']:>4} {outcome:>10}"
            )
        lines.append(
            f"{'':<10} p99 improvement: {entry['p99_improvement']:.2f}x"
        )
    lines.append("")
    header = (
        f"{'policy (failure scenario)':<26} {'p99 ms':>8} {'done':>6} "
        f"{'fo':>4} {'outcome':>10}"
    )
    lines += [header, "-" * len(header)]
    for policy, e in report["policies"].items():
        outcome = "DNF" if e["dnf"] else (
            "survived" if e["survived_churn"] else "ok"
        )
        lines.append(
            f"{policy:<26} {e['p99_latency_ms']:>8.2f} {e['n_completed']:>6} "
            f"{e['n_failed_over']:>4} {outcome:>10}"
        )
    for claim, holds in report["claims"].items():
        lines.append(f"claim {claim}: {'ok' if holds else 'FAILED'}")
    return "\n".join(lines)
