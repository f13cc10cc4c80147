"""Runtime benchmark: static vs adaptive placement under cluster churn.

Trains the same NeuroFlux system pipeline-parallel over the default
4-device edge cluster while a deterministic fault schedule perturbs the
devices, and compares two arms that see the *identical* event stream:

* ``static``   -- events injected, nothing moves (``adapt=False``);
* ``adaptive`` -- the full control loop: drift detection, online
  coefficient refinement, re-placement, live migration.

Three scenarios, timed as fractions of an unperturbed probe run:

* ``slowdown`` -- the busiest device permanently throttles 4x;
* ``spike``    -- the busiest device suffers a long 6x load spike;
* ``failure``  -- the busiest device dies mid-run (the static arm
  cannot complete; the adaptive arm recovers from checkpoints and
  replays the lost micro-batches).

Because migration round-trips bit-identical state and events only touch
ledgers, both arms train the *same weights* -- the comparison is pure
timing, which is what makes the claims deterministic.  ``run_suite``
returns a JSON-serializable report; ``python -m repro.cli bench runtime``
(:mod:`repro.bench`) writes it to ``BENCH_runtime.json``.  ``--quick``
shrinks the workload to a smoke test.
"""

from __future__ import annotations

import numpy as np

from repro.bench import (
    BATCH_LIMIT,
    MB,
    MODEL,
    env_block,
    reference_data,
    reference_system,
)
from repro.errors import ConfigError, FaultError

#: Same workload as the pipeline benchmark: enough comparable blocks to
#: fill the cluster, small enough to run as a smoke test.
_WIDTH = 0.25
_BUDGET = 3 * MB

#: Scenario timing/severity, as fractions of the probe makespan.
_SLOWDOWN_AT, _SLOWDOWN_FACTOR = 0.25, 4.0
_SPIKE_AT, _SPIKE_FACTOR, _SPIKE_DURATION = 0.1, 6.0, 2.0
_FAILURE_AT = 0.4


def _scenario_events(name: str, horizon_s: float, device: int):
    from repro.runtime.events import (
        DeviceFailure,
        DeviceSlowdown,
        EventSchedule,
        LoadSpike,
    )

    if name == "slowdown":
        return EventSchedule(
            [DeviceSlowdown(_SLOWDOWN_AT * horizon_s, device, _SLOWDOWN_FACTOR)]
        )
    if name == "spike":
        return EventSchedule(
            [
                LoadSpike(
                    _SPIKE_AT * horizon_s,
                    device,
                    _SPIKE_FACTOR,
                    duration_s=_SPIKE_DURATION * horizon_s,
                )
            ]
        )
    if name == "failure":
        return EventSchedule([DeviceFailure(_FAILURE_AT * horizon_s, device)])
    raise ConfigError(f"unknown scenario {name!r}")


def _refined_prediction(
    system, cluster_names, preport, epochs: int, reference=None
):
    """Predicted full-stream makespan of the arm's final placement.

    ``reference`` supplies the ``(coefficients, failed_devices)`` to
    price under; both arms of a scenario are priced under the *same*
    reference (the static arm's, which keeps observing every device all
    run) so the predicted comparison is apples to apples -- each arm's
    own coefficients diverge once the adaptive arm vacates a device and
    its coefficient freezes.  ``None`` falls back to the arm's own
    refinement (used for the failure scenario, where no static reference
    exists).
    """
    from repro.parallel.cluster import Cluster
    from repro.parallel.placement import build_problem, predict_makespan
    from repro.runtime.policy import refined_problem

    cluster = Cluster.from_names(cluster_names, memory_budget=8 * MB)
    blocks, _ = system.plan()
    problem = build_problem(
        blocks,
        system.specs,
        list(system.aux_heads),
        cluster,
        preport.microbatch,
        n_train=len(system.data.x_train),
        epochs=epochs,
        sample_bytes=system.data.spec.sample_bytes,
        optimizer=system.config.optimizer,
    )
    if reference is None:
        reference = (preport.runtime.coefficients, preport.runtime.failed_devices)
    coefficients, failed = reference
    rp = refined_problem(
        problem,
        cluster,
        list(coefficients),
        set(failed),
        problem.n_microbatches,
    )
    return predict_makespan(rp, list(preport.placement))


def _run_arm(data, seed: int, epochs: int, events, adapt: bool):
    from repro.parallel.cluster import DEFAULT_EDGE_CLUSTER, Cluster
    from repro.runtime import AdaptiveRuntime

    system = reference_system(data, _WIDTH, _BUDGET, seed)
    runtime = AdaptiveRuntime(events=events, adapt=adapt)
    preport = system.train_parallel(
        Cluster.from_names(DEFAULT_EDGE_CLUSTER, memory_budget=8 * MB),
        epochs=epochs,
        schedule="pipelined",
        runtime=runtime,
    )
    return system, preport


def _arm_entry(system, preport, cluster_names, epochs, reference=None) -> dict:
    rt = preport.runtime
    return {
        "completes": True,
        "makespan_s": round(preport.makespan_s, 6),
        "predicted_makespan_s": round(
            _refined_prediction(
                system, cluster_names, preport, epochs, reference
            ),
            6,
        ),
        "placement": list(preport.placement),
        "n_replacements": rt.n_replacements,
        "n_migrations": len(rt.migrations),
        "recovery_time_s": round(rt.recovery_time_s, 6),
        "checkpoint_time_s": round(rt.checkpoint_time_s, 6),
        "coefficients": [round(c, 3) for c in rt.coefficients],
        "accuracy": round(preport.exit_test_accuracy, 4),
    }


def run_suite(quick: bool = False, seed: int = 0) -> dict:
    """Run the drift/failure scenario suite and return the report."""
    from repro.parallel.cluster import DEFAULT_EDGE_CLUSTER

    epochs = 2 if quick else 3
    data = reference_data(seed, quick)
    cluster_names = DEFAULT_EDGE_CLUSTER

    # Unperturbed probe: sets the event time axis and the target device
    # (the placement optimizer's busiest pick -- the worst one to lose).
    probe_system, probe = _run_arm(data, seed, epochs, events=None, adapt=False)
    horizon = probe.makespan_s
    target = int(np.argmax(probe.utilization))

    scenarios: dict[str, dict] = {}
    for name in ("slowdown", "spike", "failure"):
        events = _scenario_events(name, horizon, target)
        static_entry: dict
        reference = None
        try:
            static_system, static = _run_arm(data, seed, epochs, events, adapt=False)
            # Common pricing reference for both arms' predictions: the
            # static arm keeps observing every device, so its refinement
            # is the least-biased estimate of the perturbed cluster.
            reference = (
                static.runtime.coefficients,
                static.runtime.failed_devices,
            )
            static_entry = _arm_entry(
                static_system, static, cluster_names, epochs, reference
            )
        except FaultError as exc:
            static = None
            static_entry = {"completes": False, "error": str(exc)}
        adaptive_system, adaptive = _run_arm(data, seed, epochs, events, adapt=True)
        entry = {
            "events": events.to_json_dict()["events"],
            "static": static_entry,
            "adaptive": _arm_entry(
                adaptive_system, adaptive, cluster_names, epochs, reference
            ),
        }
        if static is not None:
            entry["speedup_simulated"] = round(
                static.makespan_s / adaptive.makespan_s, 3
            )
            entry["speedup_predicted"] = round(
                entry["static"]["predicted_makespan_s"]
                / entry["adaptive"]["predicted_makespan_s"],
                3,
            )
        scenarios[name] = entry

    claims = {
        "adaptive_beats_static_simulated_slowdown": (
            scenarios["slowdown"]["adaptive"]["makespan_s"]
            < scenarios["slowdown"]["static"]["makespan_s"]
        ),
        "adaptive_beats_static_predicted_slowdown": (
            scenarios["slowdown"]["adaptive"]["predicted_makespan_s"]
            < scenarios["slowdown"]["static"]["predicted_makespan_s"]
        ),
        "adaptive_beats_static_simulated_spike": (
            scenarios["spike"]["adaptive"]["makespan_s"]
            < scenarios["spike"]["static"]["makespan_s"]
        ),
        "adaptive_survives_failure": (
            scenarios["failure"]["adaptive"]["completes"]
            and scenarios["failure"]["adaptive"]["recovery_time_s"] > 0
        ),
        "static_cannot_survive_failure": (
            not scenarios["failure"]["static"]["completes"]
        ),
        "adaptive_preserves_accuracy": all(
            scenarios[name]["adaptive"]["accuracy"]
            == scenarios[name]["static"]["accuracy"]
            for name in ("slowdown", "spike")
        ),
    }
    return {
        "schema": 1,
        "config": {
            "quick": quick,
            "epochs": epochs,
            "seed": seed,
            "model": MODEL,
            "width_multiplier": _WIDTH,
            "memory_budget_mb": _BUDGET / MB,
            "batch_limit": BATCH_LIMIT,
            "n_train": len(data.x_train),
            "cluster": list(cluster_names),
            "target_device": target,
        },
        "env": env_block(),
        "probe": {
            "makespan_s": round(probe.makespan_s, 6),
            "placement": list(probe.placement),
            "utilization": [round(u, 4) for u in probe.utilization],
        },
        "scenarios": scenarios,
        "claims": claims,
    }


def format_report(report: dict) -> str:
    """Human-readable table of a run_suite report."""
    cfg = report["config"]
    lines = [
        f"runtime benchmark: {cfg['model']} x{cfg['width_multiplier']} "
        f"epochs={cfg['epochs']}{' (quick)' if cfg['quick'] else ''} "
        f"target=dev{cfg['target_device']}",
        f"cluster: {', '.join(cfg['cluster'])}  "
        f"unperturbed makespan: {report['probe']['makespan_s']:.3f}s",
    ]
    header = (
        f"{'scenario':<10} {'static s':>10} {'adaptive s':>11} "
        f"{'speedup':>8} {'moves':>6} {'recovery ms':>12}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    for name, entry in report["scenarios"].items():
        static = entry["static"]
        adaptive = entry["adaptive"]
        static_s = (
            f"{static['makespan_s']:.3f}" if static["completes"] else "DNF"
        )
        speedup = (
            f"{entry['speedup_simulated']:.2f}x"
            if "speedup_simulated" in entry
            else "-"
        )
        lines.append(
            f"{name:<10} {static_s:>10} {adaptive['makespan_s']:>11.3f} "
            f"{speedup:>8} {adaptive['n_migrations']:>6} "
            f"{1e3 * adaptive['recovery_time_s']:>12.1f}"
        )
    for claim, holds in report["claims"].items():
        lines.append(f"claim {claim}: {'ok' if holds else 'FAILED'}")
    return "\n".join(lines)
