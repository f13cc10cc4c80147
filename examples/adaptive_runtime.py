#!/usr/bin/env python3
"""Adaptive cluster runtime: surviving drift and device failure.

Trains the same pipeline-parallel NeuroFlux system three times over a
heterogeneous 4-device edge cluster:

1. calm cluster (the PR 3 baseline);
2. the busiest device throttles 4x mid-run with a *static* placement --
   the whole pipeline drags at the straggler's pace;
3. the same throttle under the adaptive runtime -- the drift monitor
   notices observed step times diverging from the cost model, refines
   the per-device coefficients online, and the re-placement policy
   migrates blocks off the throttled device (checkpoint, ship over a
   link, restore -- bit-identical weights);

then walks through a failure: the busiest device dies outright, and the
runtime restores its blocks from the last periodic checkpoints on a
surviving device and replays the lost micro-batches, with every second
of recovery booked on the device ledgers.

    python examples/adaptive_runtime.py
"""

from __future__ import annotations

from dataclasses import replace

from repro import NeuroFlux, NeuroFluxConfig, build_model, dataset_spec
from repro.parallel import DEFAULT_EDGE_CLUSTER, Cluster
from repro.runtime import AdaptiveRuntime, DeviceFailure, DeviceSlowdown, EventSchedule

MB = 2**20


def make_system():
    spec = dataset_spec(
        "cifar10", num_classes=4, image_hw=(16, 16), noise_std=0.4, seed=7
    )
    spec = replace(spec, n_train=240, n_val=60, n_test=60)
    model = build_model(
        "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.25, seed=3
    )
    return NeuroFlux(
        model,
        spec.materialize(),
        memory_budget=3 * MB,
        config=NeuroFluxConfig(batch_limit=64, seed=0),
    )


def make_cluster():
    return Cluster.from_names(DEFAULT_EDGE_CLUSTER, memory_budget=8 * MB)


def main() -> None:
    epochs = 3

    # 1. Calm cluster: the unperturbed pipelined baseline.
    calm = make_system().train_parallel(
        make_cluster(), epochs=epochs, schedule="pipelined"
    )
    busiest = max(range(len(calm.utilization)), key=calm.utilization.__getitem__)
    print(
        f"calm cluster: {calm.makespan_s:.2f}s, placement {calm.placement}, "
        f"busiest device dev{busiest}"
    )

    # 2. Mid-run 4x throttle of the busiest device, static placement.
    #    adapt=False injects the fault but never moves a block.
    throttle = EventSchedule(
        [DeviceSlowdown(time_s=0.25 * calm.makespan_s, device=busiest, factor=4.0)]
    )
    static = make_system().train_parallel(
        make_cluster(),
        epochs=epochs,
        schedule="pipelined",
        runtime=AdaptiveRuntime(events=throttle, adapt=False),
    )
    print(
        f"\nthrottled, static placement: {static.makespan_s:.2f}s "
        f"({static.makespan_s / calm.makespan_s:.2f}x the calm run)"
    )

    # 3. Same throttle, adaptive: drift detection -> re-placement.
    adaptive = make_system().train_parallel(
        make_cluster(),
        epochs=epochs,
        schedule="pipelined",
        runtime=AdaptiveRuntime(events=throttle),
    )
    print(f"\nthrottled, adaptive runtime: {adaptive.makespan_s:.2f}s")
    print(adaptive.runtime.summary())
    print(
        f"adaptive vs static under the same fault: "
        f"{static.makespan_s / adaptive.makespan_s:.2f}x faster"
    )

    # 4. Failure walkthrough: the busiest device dies mid-run.  Recovery =
    #    restore the last periodic checkpoint + replay the lost steps.
    failure = EventSchedule(
        [DeviceFailure(time_s=0.4 * calm.makespan_s, device=busiest)]
    )
    survived = make_system().train_parallel(
        make_cluster(),
        epochs=epochs,
        schedule="pipelined",
        runtime=AdaptiveRuntime(events=failure),
    )
    rt = survived.runtime
    print(f"\ndevice failure: run completed in {survived.makespan_s:.2f}s")
    print(rt.summary())
    for migration in rt.migrations:
        print(
            f"  block {migration.block}: dev{migration.src} -> "
            f"dev{migration.dst} ({migration.reason}), replayed "
            f"{migration.replay_microbatches} micro-batches, "
            f"recovery {1e3 * migration.recovery_s:.1f} ms"
        )
    same = survived.exit_test_accuracy == calm.exit_test_accuracy
    print(
        f"accuracy {survived.exit_test_accuracy:.3f} "
        f"({'identical to' if same else 'differs from'} the calm run -- "
        f"migration moves state bit-for-bit)"
    )


if __name__ == "__main__":
    main()
