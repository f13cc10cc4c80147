"""End-to-end tests for the adaptive cluster runtime.

The two load-bearing acceptance regressions:

* with an *empty* event schedule, ``train_parallel(..., runtime=...)``
  trains weights bit-identical to the plain PR 3 path (the control loop
  changes accounting, never math);
* a mid-training ``DeviceFailure`` on a 4-device cluster triggers
  migration and the run completes with the same final weights as an
  unperturbed run with the same seed, with recovery time booked on the
  surviving devices' ledgers.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import NeuroFluxConfig
from repro.core.controller import NeuroFlux
from repro.data.registry import dataset_spec
from repro.errors import ConfigError, FaultError
from repro.models.zoo import build_model
from repro.parallel import Cluster
from repro.runtime import (
    AdaptiveRuntime,
    DeviceFailure,
    DeviceJoin,
    DeviceSlowdown,
    EventSchedule,
)

MB = 2**20
CLUSTER_NAMES = ("nano", "xavier-nx", "xavier-nx", "agx-orin")
EPOCHS = 2


def _make_data():
    spec = dataset_spec(
        "cifar10", num_classes=4, image_hw=(16, 16), noise_std=0.4, seed=7
    )
    spec = replace(spec, n_train=160, n_val=40, n_test=40)
    return spec.materialize()


def _make_system(data, use_cache=True):
    model = build_model(
        "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.25, seed=3
    )
    return NeuroFlux(
        model,
        data,
        memory_budget=3 * MB,
        config=NeuroFluxConfig(batch_limit=64, seed=0, use_cache=use_cache),
    )


def _make_cluster():
    return Cluster.from_names(CLUSTER_NAMES, memory_budget=8 * MB)


def _weights(system):
    state = dict(system.model.state_dict())
    for i, aux in enumerate(system.aux_heads):
        for key, value in aux.state_dict().items():
            state[f"aux{i}.{key}"] = value
    return state


def _assert_identical_weights(a, b):
    wa, wb = _weights(a), _weights(b)
    assert set(wa) == set(wb)
    for key in wa:
        assert np.array_equal(wa[key], wb[key]), f"weights differ at {key}"


@pytest.fixture(scope="module")
def data():
    return _make_data()


@pytest.fixture(scope="module")
def pipelined_baseline(data):
    """Unperturbed pipelined run (no runtime): the PR 3 path."""
    system = _make_system(data)
    report = system.train_parallel(
        _make_cluster(), epochs=EPOCHS, schedule="pipelined"
    )
    return system, report


@pytest.fixture(scope="module")
def sequential_baseline(data):
    """Unperturbed single-device sequential run: ``NeuroFlux.run``."""
    system = _make_system(data)
    report = system.run(epochs=EPOCHS)
    return system, report


class TestEmptyScheduleRegression:
    def test_pipelined_with_runtime_is_bit_identical(self, data, pipelined_baseline):
        base_system, base_report = pipelined_baseline
        system = _make_system(data)
        preport = system.train_parallel(
            _make_cluster(),
            epochs=EPOCHS,
            schedule="pipelined",
            runtime=AdaptiveRuntime(),
        )
        _assert_identical_weights(base_system, system)
        assert preport.exit_test_accuracy == pytest.approx(
            base_report.exit_test_accuracy
        )
        rt = preport.runtime
        assert rt.n_replacements == 0
        assert rt.migrations == []
        assert rt.events_applied == []
        assert rt.initial_placement == rt.final_placement
        # A calm, faithfully-modelled cluster never drifts.
        for coefficient in rt.coefficients:
            assert coefficient == pytest.approx(1.0)

    def test_sequential_with_runtime_matches_plain_run(self, data, sequential_baseline):
        base_system, base_report = sequential_baseline
        system = _make_system(data)
        preport = system.train_parallel(
            _make_cluster(),
            epochs=EPOCHS,
            schedule="sequential",
            runtime=AdaptiveRuntime(),
        )
        _assert_identical_weights(base_system, system)
        assert preport.runtime.n_replacements == 0

    def test_schedule_targeting_unknown_device_fails_at_bind(self, data):
        """An unsatisfiable schedule errors before any training is paid
        for (join events extend the reachable index range)."""
        events = EventSchedule([DeviceSlowdown(time_s=9.0, device=9, factor=2.0)])
        system = _make_system(data)
        with pytest.raises(ConfigError, match="targets device 9"):
            system.train_parallel(
                _make_cluster(),
                epochs=1,
                schedule="pipelined",
                runtime=AdaptiveRuntime(events=events),
            )

    def test_runtime_instance_is_single_use(self, data):
        system = _make_system(data)
        runtime = AdaptiveRuntime()
        system.train_parallel(
            _make_cluster(), epochs=1, schedule="pipelined", runtime=runtime
        )
        with pytest.raises(ConfigError):
            _make_system(data).train_parallel(
                _make_cluster(), epochs=1, schedule="pipelined", runtime=runtime
            )


class TestDeviceFailureScenario:
    """The acceptance scenario: mid-training failure on a 4-device cluster."""

    @pytest.fixture(scope="class")
    def seq_probe(self, data):
        system = _make_system(data)
        report = system.train_parallel(
            _make_cluster(), epochs=EPOCHS, schedule="sequential"
        )
        return report

    def test_sequential_failure_recovers_with_identical_weights(
        self, data, sequential_baseline, seq_probe
    ):
        base_system, _ = sequential_baseline
        # Kill the device the default placement leans on, mid-run.
        target = seq_probe.placement[0]
        events = EventSchedule(
            [DeviceFailure(time_s=0.4 * seq_probe.makespan_s, device=target)]
        )
        system = _make_system(data)
        cluster = _make_cluster()
        base_elapsed = [d.elapsed for d in cluster]
        preport = system.train_parallel(
            cluster,
            epochs=EPOCHS,
            schedule="sequential",
            runtime=AdaptiveRuntime(events=events),
        )
        # Same final weights as the unperturbed sequential run, same seed.
        _assert_identical_weights(base_system, system)
        rt = preport.runtime
        assert rt.failed_devices == [target]
        assert rt.migrations, "the failure must trigger a migration"
        assert all(d != target for d in preport.placement)
        # Recovery time is booked on the ledgers: the destination paid
        # for the restore + replay, and the run's clock includes it.
        assert rt.recovery_time_s > 0
        recovering = {m.dst for m in rt.migrations if m.reason == "failure"}
        for d in recovering:
            assert cluster[d].elapsed - base_elapsed[d] > 0
        assert preport.makespan_s > 0

    def test_uncached_sequential_ranks_devices_at_the_predicted_price(
        self, data, monkeypatch
    ):
        """Without the activation cache every block is fed raw samples, so
        the re-placement ranking must price blocks the way the drift
        monitor predicts them: ``prefetch-raw``, never ``prefetch-cache``."""
        from repro.runtime import runtime as runtime_module

        probe = _make_system(data, use_cache=False).train_parallel(
            _make_cluster(), epochs=EPOCHS, schedule="sequential"
        )
        target = probe.placement[0]
        events = EventSchedule(
            [DeviceFailure(time_s=0.4 * probe.makespan_s, device=target)]
        )
        priced = []
        real_price = runtime_module.price_training_step

        def spy(platform, cost, batch, sample_bytes, input_mode):
            priced.append((cost, batch, input_mode))
            return real_price(platform, cost, batch, sample_bytes, input_mode)

        monkeypatch.setattr(runtime_module, "price_training_step", spy)
        preport = _make_system(data, use_cache=False).train_parallel(
            _make_cluster(),
            epochs=EPOCHS,
            schedule="sequential",
            runtime=AdaptiveRuntime(events=events),
        )
        assert preport.runtime.failed_devices == [target]
        assert {mode for _, _, mode in priced} == {"prefetch-raw"}
        # One (batch, mode) per block: what was ranked is what was observed.
        shapes = {}
        for cost, batch, mode in priced:
            shapes.setdefault(cost, set()).add((batch, mode))
        assert len(shapes) > 1 and all(len(s) == 1 for s in shapes.values())

    def test_pipelined_failure_recovers_with_identical_weights(
        self, data, pipelined_baseline
    ):
        base_system, base_report = pipelined_baseline
        target = base_report.placement[0]
        events = EventSchedule(
            [DeviceFailure(time_s=0.4 * base_report.makespan_s, device=target)]
        )
        system = _make_system(data)
        preport = system.train_parallel(
            _make_cluster(),
            epochs=EPOCHS,
            schedule="pipelined",
            runtime=AdaptiveRuntime(events=events),
        )
        _assert_identical_weights(base_system, system)
        rt = preport.runtime
        assert rt.failed_devices == [target]
        assert rt.recovery_time_s > 0
        replayed = [m for m in rt.migrations if m.reason == "failure"]
        assert replayed and all(m.src == target for m in replayed)
        assert all(d != target for d in preport.placement)

    def test_static_arm_cannot_survive_failure(self, data, pipelined_baseline):
        _, base_report = pipelined_baseline
        target = base_report.placement[0]
        events = EventSchedule(
            [DeviceFailure(time_s=0.4 * base_report.makespan_s, device=target)]
        )
        system = _make_system(data)
        with pytest.raises(FaultError):
            system.train_parallel(
                _make_cluster(),
                epochs=EPOCHS,
                schedule="pipelined",
                runtime=AdaptiveRuntime(events=events, adapt=False),
            )


class TestDriftAdaptation:
    @pytest.fixture(scope="class")
    def slowdown_events(self, pipelined_baseline):
        _, base_report = pipelined_baseline
        busiest = int(np.argmax(base_report.utilization))
        return EventSchedule(
            [
                DeviceSlowdown(
                    time_s=0.25 * base_report.makespan_s, device=busiest, factor=4.0
                )
            ]
        )

    @pytest.fixture(scope="class")
    def static_run(self, data, slowdown_events):
        system = _make_system(data)
        report = system.train_parallel(
            _make_cluster(),
            epochs=EPOCHS,
            schedule="pipelined",
            runtime=AdaptiveRuntime(events=slowdown_events, adapt=False),
        )
        return system, report

    @pytest.fixture(scope="class")
    def adaptive_run(self, data, slowdown_events):
        system = _make_system(data)
        report = system.train_parallel(
            _make_cluster(),
            epochs=EPOCHS,
            schedule="pipelined",
            runtime=AdaptiveRuntime(events=slowdown_events),
        )
        return system, report

    def test_adaptive_beats_static_under_drift(self, static_run, adaptive_run):
        _, static = static_run
        _, adaptive = adaptive_run
        assert adaptive.makespan_s < static.makespan_s
        assert adaptive.runtime.n_replacements >= 1
        assert adaptive.runtime.migrations

    def test_monitor_learned_the_slowdown(self, static_run, slowdown_events):
        """perf4sight-style refinement: the static arm cannot move blocks,
        but its monitor still converges on the 4x coefficient."""
        _, static = static_run
        slowed = next(iter(slowdown_events)).device
        assert static.runtime.coefficients[slowed] == pytest.approx(4.0, rel=0.15)

    def test_drift_and_static_arms_train_identical_weights(
        self, static_run, adaptive_run
    ):
        """Migration round-trips bit-identical state: both arms end with
        the same weights, making the benchmark a pure timing comparison."""
        static_system, _ = static_run
        adaptive_system, _ = adaptive_run
        _assert_identical_weights(static_system, adaptive_system)

    def test_no_oscillation_between_replacements(self, adaptive_run):
        """Hysteresis: a single persistent fault produces a bounded number
        of re-placements that *converge* -- the run never revisits a
        placement it already left (no A->B->A flip-flop), and the stream
        of re-placements is far sparser than the check interval allows."""
        _, adaptive = adaptive_run
        rt = adaptive.runtime
        assert 1 <= rt.n_replacements <= 3
        history = [tuple(p) for p in rt.placement_history]
        assert len(history) == len(set(history)), (
            f"placement oscillated: {history}"
        )

    def test_report_json_is_serializable(self, adaptive_run):
        import json

        _, adaptive = adaptive_run
        payload = adaptive.to_json_dict()
        encoded = json.dumps(payload)
        back = json.loads(encoded)
        assert back["runtime"]["n_replacements"] == adaptive.runtime.n_replacements
        assert back["schedule"] == "pipelined"


class TestElasticJoin:
    def test_join_grows_cluster_and_ledgers(self, data, pipelined_baseline):
        _, base_report = pipelined_baseline
        events = EventSchedule(
            [
                # A strong device joins early, then the workhorse throttles:
                # the re-placement can use the newcomer.
                DeviceJoin(
                    time_s=0.1 * base_report.makespan_s,
                    platform="agx-orin",
                    memory_budget=8 * MB,
                ),
                DeviceSlowdown(
                    time_s=0.2 * base_report.makespan_s,
                    device=int(np.argmax(base_report.utilization)),
                    factor=6.0,
                ),
            ]
        )
        system = _make_system(data)
        cluster = _make_cluster()
        preport = system.train_parallel(
            cluster,
            epochs=EPOCHS,
            schedule="pipelined",
            runtime=AdaptiveRuntime(events=events),
        )
        assert len(cluster) == 5
        assert preport.runtime.joined_devices == [4]
        assert len(preport.device_ledgers) == 5
        assert len(preport.utilization) == 5
        # The newcomer took work off the throttled device.
        assert 4 in preport.placement
        assert preport.device_ledgers[4]["total"] > 0

    def test_join_during_a_sequential_run(self, data):
        """A device joining a block-after-block run grows the per-device
        ledgers too (the merged ledger used to reject the longer
        snapshot), and a later failure can move work onto it."""
        probe = _make_system(data).train_parallel(
            Cluster.from_names(["nano"], memory_budget=8 * MB),
            epochs=1,
            schedule="sequential",
        )
        events = EventSchedule(
            [
                DeviceJoin(
                    time_s=0.1 * probe.makespan_s,
                    platform="agx-orin",
                    memory_budget=8 * MB,
                ),
                DeviceFailure(time_s=0.3 * probe.makespan_s, device=0),
            ]
        )
        system = _make_system(data)
        cluster = Cluster.from_names(["nano"], memory_budget=8 * MB)
        preport = system.train_parallel(
            cluster,
            epochs=1,
            schedule="sequential",
            runtime=AdaptiveRuntime(events=events),
        )
        assert len(cluster) == 2
        assert preport.runtime.joined_devices == [1]
        assert len(preport.device_ledgers) == 2
        assert preport.placement[-1] == 1
        merged = preport.result.ledger
        assert merged.total == pytest.approx(preport.makespan_s)
        assert merged.total == pytest.approx(
            sum(ledger["total"] for ledger in preport.device_ledgers)
        )
