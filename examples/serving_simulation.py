#!/usr/bin/env python3
"""Serving simulation: sweep platforms x arrival rates, cascade on/off.

Trains one small NeuroFlux system, materializes every trained layer as a
confidence-gated exit, and serves Poisson request streams against the
test split on each edge platform -- each server a one-replica,
one-device :func:`repro.fleet.simulate_fleet` run, the same loop the
``serving`` backend drives (``repro run examples/specs/serving.json``).
The sweep shows the serving-side story
of the paper's deployment claims: the cascade serves at lower latency
than routing everything to the deepest exit -- and, where intermediate
exits out-predict the saturated deep ones ('overthinking'), at higher
accuracy too.

    python examples/serving_simulation.py
"""

from __future__ import annotations

from repro import NeuroFlux, NeuroFluxConfig, build_model, dataset_spec
from repro.fleet import FleetConfig, simulate_fleet
from repro.hw import ALL_PLATFORMS
from repro.serving import ServerConfig, WorkloadSpec

MB = 2**20
ARRIVAL_RATES = (100.0, 400.0, 1600.0)


def main() -> None:
    data = dataset_spec(
        "cifar10", num_classes=4, image_hw=(16, 16), scale=0.01, noise_std=0.4, seed=7
    ).materialize()
    model = build_model(
        "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=3
    )
    system = NeuroFlux(
        model, data, memory_budget=16 * MB, config=NeuroFluxConfig(batch_limit=64)
    )
    print("training (once; serving is platform-specific, weights are not)...")
    system.run(epochs=5)

    header = (
        f"{'platform':<20} {'req/s':>6} {'mode':<13} {'acc':>6} "
        f"{'p50 ms':>8} {'p99 ms':>8} {'tput':>7} {'rej%':>6}"
    )
    print("\n" + header)
    print("-" * len(header))
    config = ServerConfig(batch_cap=32, max_wait_s=0.005, queue_depth=128)
    single = FleetConfig(n_replicas=1, max_replicas=1, policy="round-robin")
    for short_name, platform in ALL_PLATFORMS.items():
        for rate in ARRIVAL_RATES:
            workload = WorkloadSpec(
                pattern="poisson", arrival_rate=rate, duration_s=0.5, seed=1
            )
            for mode in ("cascade", "deepest-only"):
                report = simulate_fleet(
                    system,
                    workload,
                    cluster_names=[short_name],
                    fleet=single,
                    server_config=config,
                    threshold=0.5,
                    mode=mode,
                )
                print(
                    f"{platform.name:<20} {rate:>6.0f} {mode:<13} "
                    f"{report.accuracy:>6.3f} "
                    f"{report.latency_percentile(50) * 1e3:>8.2f} "
                    f"{report.latency_percentile(99) * 1e3:>8.2f} "
                    f"{report.throughput_rps:>7.0f} "
                    f"{report.rejection_rate:>6.1%}"
                )
        print()


if __name__ == "__main__":
    main()
