"""Serving shape claims: latency/throughput vs arrival rate, cascade on/off.

Exercised on AGX Orin vs Raspberry Pi 4B, on the bench core's reference
workload (the system the fleet suite trains):

* faster platforms serve at lower latency for the same stream;
* the cascade completes the stream with less server busy time than
  routing everything to the deepest exit, at higher accuracy than the
  shallow exit alone;
* pushing the arrival rate up raises delivered throughput until the
  platform saturates.
"""

from __future__ import annotations

import pytest

from repro.bench import MB, reference_data, reference_system
from repro.fleet import FleetConfig, simulate_fleet
from repro.serving import ServerConfig, WorkloadSpec

#: Platform short names (``Cluster.from_names`` shape).
AGX_ORIN, RASPBERRY_PI_4B = "agx-orin", "pi4b"


@pytest.fixture(scope="module")
def trained_system():
    system = reference_system(reference_data(), width=0.125, budget=16 * MB)
    system.run(epochs=5)
    return system


def _serve(system, platform, rate, mode):
    """One server on ``platform``: a one-replica, one-device fleet."""
    workload = WorkloadSpec(
        pattern="poisson", arrival_rate=rate, duration_s=1.0, seed=1
    )
    return simulate_fleet(
        system,
        workload,
        cluster_names=[platform],
        fleet=FleetConfig(n_replicas=1, max_replicas=1, policy="round-robin"),
        server_config=ServerConfig(batch_cap=32, max_wait_s=0.005, queue_depth=256),
        threshold=0.5,
        mode=mode,
    )


def _busy_s(report) -> float:
    return report.replicas[0].busy_s


def _mean_batch(report) -> float:
    replica = report.replicas[0]
    return replica.n_completed / replica.n_batches


def test_serving_platform_and_cascade_shape(trained_system):
    reports = {
        (platform, mode): _serve(trained_system, platform, 200.0, mode)
        for platform in (AGX_ORIN, RASPBERRY_PI_4B)
        for mode in ("cascade", "shallow-only", "deepest-only")
    }
    for (platform, mode), report in reports.items():
        print(
            f"\n{platform} / {mode}: acc={report.accuracy:.3f} "
            f"p50={report.latency_percentile(50) * 1e3:.2f}ms "
            f"p99={report.latency_percentile(99) * 1e3:.2f}ms "
            f"busy={_busy_s(report):.3f}s"
        )

    orin = {m: reports[(AGX_ORIN, m)] for m in ("cascade", "shallow-only", "deepest-only")}
    pi = {m: reports[(RASPBERRY_PI_4B, m)] for m in ("cascade", "shallow-only", "deepest-only")}

    # Shape: cascade beats shallow-only on accuracy and deepest-only on
    # mean latency and busy time (on both platforms).
    for rep in (orin, pi):
        assert rep["cascade"].accuracy > rep["shallow-only"].accuracy
        assert rep["cascade"].mean_latency_s < rep["deepest-only"].mean_latency_s
        assert _busy_s(rep["cascade"]) < _busy_s(rep["deepest-only"])


def test_faster_platform_wins_when_compute_bound(trained_system):
    """At light load this tiny model is launch-overhead-bound and the Pi's
    cheap CPU dispatch can win; once batches grow, compute dominates and
    the AGX Orin pulls ahead -- the Table 3 ordering, serving-side."""
    orin = _serve(trained_system, AGX_ORIN, 3000.0, "cascade")
    pi = _serve(trained_system, RASPBERRY_PI_4B, 3000.0, "cascade")
    assert orin.mean_latency_s < pi.mean_latency_s
    assert _busy_s(orin) < _busy_s(pi)


def test_serving_throughput_rises_with_offered_load(trained_system):
    low = _serve(trained_system, AGX_ORIN, 100.0, "cascade")
    high = _serve(trained_system, AGX_ORIN, 800.0, "cascade")
    assert high.throughput_rps > low.throughput_rps
    assert _mean_batch(high) > _mean_batch(low)
