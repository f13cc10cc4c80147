#!/usr/bin/env python3
"""Compare training paradigms on one workload (the Figure 3 quadrant).

Trains the same small CNN with backpropagation, classic local learning,
feedback alignment, signal propagation, gradient checkpointing,
microbatching and NeuroFlux -- seven specs through the one entry point,
``repro.api.run`` -- then reports peak simulated memory, simulated
training time and test accuracy side by side.

    python examples/paradigm_comparison.py
"""

from __future__ import annotations

from repro.api import JobSpec, run

MB = 2**20
SEED = 7

BASE = {
    "backend": "baseline",
    "platform": "agx_orin",
    "model": {"name": "vgg11", "num_classes": 4, "input_hw": [16, 16],
              "width_multiplier": 0.125, "seed": SEED},
    "data": {"dataset": "cifar10", "num_classes": 4, "image_hw": [16, 16],
             "scale": 0.005, "noise_std": 0.4, "seed": SEED},
    "neuroflux": {"batch_limit": 32, "seed": SEED},
    "budgets": {"memory_mb": 64, "epochs": 4},
}

#: Row label -> the dotted-path overrides that select the method.
PARADIGMS = {
    "backprop": {"baseline.method": "bp"},
    "classic LL": {"baseline.method": "ll", "neuroflux.aux_rule": "classic",
                   "neuroflux.classic_filters": 64},
    "feedback alignment": {"baseline.method": "fa"},
    "signal propagation": {"baseline.method": "sp"},
    "grad checkpointing": {"baseline.method": "checkpoint"},
    # A budget that cannot hold the logical batch of 32 at once.
    "microbatching": {"baseline.method": "microbatch", "budgets.memory_mb": 5},
    "NeuroFlux": {"backend": "sequential", "budgets.memory_mb": 12},
}


def main() -> None:
    base = JobSpec.from_dict(BASE)
    header = f"{'method':<20} {'peak mem (MiB)':>15} {'sim time (s)':>13} {'accuracy':>9}"
    print(header)
    print("-" * len(header))
    for name, overrides in PARADIGMS.items():
        report = run(base.overlay(overrides, retarget=True)).to_json_dict()
        accuracy = report.get("exit_test_accuracy", report["final_accuracy"])
        print(
            f"{name:<20} {report['peak_memory_bytes'] / MB:>15.1f} "
            f"{report['wall_clock_s']:>13.1f} {accuracy:>9.3f}"
        )
    print(
        "\nThe ideal quadrant (Figure 3) is low memory at high accuracy -- "
        "NeuroFlux's row."
    )


if __name__ == "__main__":
    main()
