"""Pipeline-parallel benchmark: cluster schedules vs the single-device run.

Trains the same NeuroFlux system four ways over a heterogeneous 4-device
edge cluster (Nano + 2x Xavier NX + AGX Orin) and compares simulated
training times:

* ``single``    -- today's controller on the cluster's fastest device;
* ``sequential``-- blocks one after another across the cluster (identical
  weights to ``single``, time spread over device ledgers);
* ``round_robin`` -- pipelined schedule, naive block placement;
* ``optimized`` -- pipelined schedule, local-search block placement.

``run_suite`` returns a JSON-serializable report; ``python -m repro.cli
bench pipeline`` (:mod:`repro.bench`) writes it to ``BENCH_pipeline.json``
-- the committed trajectory future PRs regress against.  The headline
claims it records: the pipelined schedule beats the single-device
makespan, and the optimized placement beats round-robin on both predicted
and simulated makespan.  ``--quick`` shrinks the dataset and epochs to a
smoke test.
"""

from __future__ import annotations

from repro.bench import (
    BATCH_LIMIT,
    MB,
    MODEL,
    env_block,
    reference_data,
    reference_system,
)

#: The reference workload at a width whose 3 MiB partition yields several
#: comparable blocks -- enough stages to fill the cluster.
_WIDTH = 0.25
_BUDGET = 3 * MB


def _parallel_entry(preport) -> dict:
    return {
        "schedule": preport.schedule,
        "placement": list(preport.placement),
        "predicted_makespan_s": round(preport.predicted_makespan_s, 6),
        "makespan_s": round(preport.makespan_s, 6),
        "utilization": [round(u, 4) for u in preport.utilization],
        "bubble_fraction": round(preport.bubble_fraction, 4),
        "comm_mib": round(preport.comm_bytes / MB, 3),
        "microbatch": preport.microbatch,
        "accuracy": round(preport.exit_test_accuracy, 4),
    }


def run_suite(quick: bool = False, seed: int = 0) -> dict:
    """Run all four variants and return the comparison report."""
    from repro.hw.platforms import get_platform
    from repro.parallel.cluster import DEFAULT_EDGE_CLUSTER, Cluster

    epochs = 2 if quick else 3
    data = reference_data(seed, quick)
    # Fastest cluster member hosts the single-device baseline.
    fastest = max(
        (get_platform(name) for name in DEFAULT_EDGE_CLUSTER),
        key=lambda p: p.effective_flops,
    )

    def fresh_system():
        return reference_system(data, _WIDTH, _BUDGET, seed, platform=fastest)

    def train(**schedule):
        return fresh_system().train_parallel(
            Cluster.from_names(DEFAULT_EDGE_CLUSTER), epochs=epochs, **schedule
        )

    single_system = fresh_system()
    single_report = single_system.run(epochs=epochs)
    n_blocks = len(single_report.blocks)

    # Spread blocks round-robin so the sequential row shows what naive
    # distribution costs (the default sequential placement would just pick
    # the fastest device and reduce to the single-device run).
    seq = train(schedule="sequential", placement="round-robin")
    rr = train(schedule="pipelined", placement="round-robin")
    opt = train(schedule="pipelined")

    single_time = single_report.result.sim_time_s
    report = {
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
            "n_blocks": n_blocks,
            "cluster": list(DEFAULT_EDGE_CLUSTER),
        },
        "env": env_block(),
        "single": {
            "platform": single_system.platform.name,
            "sim_time_s": round(single_time, 6),
            "accuracy": round(single_report.exit_test_accuracy, 4),
        },
        "sequential": _parallel_entry(seq),
        "round_robin": _parallel_entry(rr),
        "optimized": _parallel_entry(opt),
        "speedups": {
            "pipelined_vs_single": round(single_time / opt.makespan_s, 3),
            "optimized_vs_round_robin_predicted": round(
                rr.predicted_makespan_s / opt.predicted_makespan_s, 3
            ),
            "optimized_vs_round_robin_simulated": round(
                rr.makespan_s / opt.makespan_s, 3
            ),
        },
        "claims": {
            "pipelined_beats_single_device": opt.makespan_s < single_time,
            "optimized_beats_round_robin_predicted": (
                opt.predicted_makespan_s < rr.predicted_makespan_s
            ),
            "optimized_beats_round_robin_simulated": opt.makespan_s < rr.makespan_s,
        },
    }
    return report


def format_report(report: dict) -> str:
    """Human-readable table of a run_suite report."""
    cfg = report["config"]
    lines = [
        f"pipeline benchmark: {cfg['model']} x{cfg['width_multiplier']} "
        f"budget={cfg['memory_budget_mb']:.0f}MiB blocks={cfg['n_blocks']} "
        f"epochs={cfg['epochs']}{' (quick)' if cfg['quick'] else ''}",
        f"cluster: {', '.join(cfg['cluster'])}",
    ]
    header = (
        f"{'variant':<14} {'predicted s':>12} {'simulated s':>12} "
        f"{'bubble':>8} {'accuracy':>9}"
    )
    lines.append(header)
    lines.append("-" * len(header))
    single = report["single"]
    lines.append(
        f"{'single':<14} {'-':>12} {single['sim_time_s']:>12.3f} "
        f"{'-':>8} {single['accuracy']:>9.3f}"
    )
    for key in ("sequential", "round_robin", "optimized"):
        row = report[key]
        lines.append(
            f"{key:<14} {row['predicted_makespan_s']:>12.3f} "
            f"{row['makespan_s']:>12.3f} {row['bubble_fraction']:>8.2f} "
            f"{row['accuracy']:>9.3f}"
        )
    speed = report["speedups"]
    lines.append(
        f"speedups: pipelined vs single {speed['pipelined_vs_single']:.2f}x, "
        f"optimized vs round-robin "
        f"{speed['optimized_vs_round_robin_simulated']:.2f}x "
        f"(predicted {speed['optimized_vs_round_robin_predicted']:.2f}x)"
    )
    for claim, holds in report["claims"].items():
        lines.append(f"claim {claim}: {'ok' if holds else 'FAILED'}")
    return "\n".join(lines)
