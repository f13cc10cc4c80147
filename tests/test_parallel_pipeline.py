"""Tests for multi-device training via ``NeuroFlux.train_parallel``.

The load-bearing regression: ``schedule="sequential"`` must produce
weights numerically identical to the plain single-device controller run
with the same config and seed -- distribution may only change the
accounting, never the math.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import NeuroFluxConfig
from repro.core.controller import NeuroFlux
from repro.data.registry import dataset_spec
from repro.errors import ConfigError, PlacementError
from repro.models.zoo import build_model
from repro.parallel import Cluster, round_robin_placement

MB = 2**20
CLUSTER_NAMES = ("nano", "xavier-nx", "xavier-nx", "agx-orin")
EPOCHS = 2


def _make_data():
    spec = dataset_spec(
        "cifar10", num_classes=4, image_hw=(16, 16), noise_std=0.4, seed=7
    )
    spec = replace(spec, n_train=160, n_val=40, n_test=40)
    return spec.materialize()


def _make_system(data, budget_mb=3):
    model = build_model(
        "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.25, seed=3
    )
    return NeuroFlux(
        model,
        data,
        memory_budget=budget_mb * MB,
        config=NeuroFluxConfig(batch_limit=64, seed=0),
    )


def _all_weights(system):
    state = dict(system.model.state_dict())
    for i, aux in enumerate(system.aux_heads):
        for key, value in aux.state_dict().items():
            state[f"aux{i}.{key}"] = value
    return state


def _assert_identical_weights(a, b):
    wa, wb = _all_weights(a), _all_weights(b)
    assert set(wa) == set(wb)
    for key in wa:
        assert np.array_equal(wa[key], wb[key]), f"weights differ at {key}"


@pytest.fixture(scope="module")
def data():
    return _make_data()


@pytest.fixture(scope="module")
def baseline(data):
    """The plain single-device run every schedule is compared against."""
    system = _make_system(data)
    report = system.run(epochs=EPOCHS)
    return system, report


class TestSequentialSchedule:
    def test_one_device_cluster_identical_to_run(self, data, baseline):
        base_system, base_report = baseline
        system = _make_system(data)
        cluster = Cluster.from_names(["agx-orin"], memory_budget=64 * MB)
        preport = system.train_parallel(
            cluster, epochs=EPOCHS, schedule="sequential"
        )
        _assert_identical_weights(base_system, system)
        # Same device, same charges: run() *is* a one-device cluster, so
        # the clock, the ledger and the history agree to the last bit.
        assert preport.makespan_s == base_report.result.sim_time_s
        assert (
            preport.result.ledger.as_dict()
            == base_report.result.ledger.as_dict()
        )
        assert preport.result.history == base_report.result.history
        assert preport.exit_layer == base_report.exit_layer
        assert preport.exit_test_accuracy == base_report.exit_test_accuracy

    def test_heterogeneous_cluster_identical_weights(self, data, baseline):
        base_system, _ = baseline
        system = _make_system(data)
        cluster = Cluster.from_names(CLUSTER_NAMES, memory_budget=8 * MB)
        # Round-robin spreads blocks across devices, exercising the
        # cross-device cache handoffs; the math must not notice.
        preport = system.train_parallel(
            cluster, epochs=EPOCHS, schedule="sequential", placement="round-robin"
        )
        _assert_identical_weights(base_system, system)
        # Blocks crossed devices, so links were charged.
        assert preport.comm_bytes > 0
        merged = preport.result.ledger
        assert merged.communication > 0
        assert preport.makespan_s == pytest.approx(merged.total)

    def test_default_placement_not_bound_by_pipelined_residency(self, data, baseline):
        """A device that fits any one block (but not all at once) is fine
        for the sequential schedule -- the all-resident pipelined
        feasibility model must not veto it."""
        base_system, base_report = baseline
        system = _make_system(data)
        # Same budget the partitioner planned under: one block at a time
        # fits by construction, the sum of residencies does not.
        cluster = Cluster.from_names(["agx-orin"], memory_budget=3 * MB)
        preport = system.train_parallel(
            cluster, epochs=EPOCHS, schedule="sequential"
        )
        _assert_identical_weights(base_system, system)
        assert preport.makespan_s == base_report.result.sim_time_s

    def test_sequential_train_parallel_unaffected(self, tiny_dataset):
        """A two-device sequential schedule keeps run()'s weights bit for
        bit."""

        def small_system():
            model = build_model(
                "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.125,
                seed=3,
            )
            return NeuroFlux(
                model, tiny_dataset, memory_budget=2 * MB,
                config=NeuroFluxConfig(batch_limit=32, seed=0),
            )

        solo = small_system()
        solo.run(1)
        clustered = small_system()
        cluster = Cluster.from_names(
            ["agx-orin", "agx-orin"], memory_budget=[2 * MB, 2 * MB]
        )
        clustered.train_parallel(cluster, epochs=1, schedule="sequential")
        _assert_identical_weights(solo, clustered)

    def test_sequential_utilization_sums_to_one(self, data):
        system = _make_system(data)
        cluster = Cluster.from_names(CLUSTER_NAMES, memory_budget=8 * MB)
        preport = system.train_parallel(
            cluster, epochs=EPOCHS, schedule="sequential"
        )
        # Devices never overlap: busy fractions partition the makespan.
        assert sum(preport.utilization) == pytest.approx(1.0)


class TestPipelinedSchedule:
    @pytest.fixture(scope="class")
    def pipelined(self, data):
        system = _make_system(data)
        cluster = Cluster.from_names(CLUSTER_NAMES, memory_budget=8 * MB)
        report = system.train_parallel(
            cluster, epochs=EPOCHS, schedule="pipelined"
        )
        return system, cluster, report

    def test_report_shape(self, pipelined):
        _, cluster, report = pipelined
        assert report.schedule == "pipelined"
        assert len(report.placement) == len(report.blocks)
        assert report.makespan_s > 0
        assert len(report.utilization) == len(cluster)
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in report.utilization)
        assert 0.0 <= report.bubble_fraction < 1.0
        assert report.n_microbatches > 0
        assert report.microbatch >= 1

    def test_simulated_close_to_predicted(self, pipelined):
        # Prediction and execution share the timing model; they may only
        # disagree where the stream does (ragged final micro-batches).
        _, _, report = pipelined
        assert report.makespan_s == pytest.approx(
            report.predicted_makespan_s, rel=0.15
        )

    def test_overlap_beats_cluster_sequential(self, data, pipelined):
        _, _, pipe_report = pipelined
        system = _make_system(data)
        cluster = Cluster.from_names(CLUSTER_NAMES, memory_budget=8 * MB)
        seq_report = system.train_parallel(
            cluster, epochs=EPOCHS, schedule="sequential"
        )
        assert pipe_report.makespan_s < seq_report.makespan_s

    def test_communication_charged_to_senders(self, pipelined):
        _, cluster, report = pipelined
        assert report.comm_bytes > 0
        comm = [ledger["communication"] for ledger in report.device_ledgers]
        assert sum(comm) > 0
        # Only devices hosting a non-final block send activations.
        senders = {report.placement[k] for k in range(len(report.placement) - 1)}
        for d, c in enumerate(comm):
            if d not in senders:
                assert c == 0.0

    def test_model_still_learns(self, pipelined):
        # Bounded staleness changes the dynamics but must still train:
        # well above 4-class chance, and history must be recorded.
        _, _, report = pipelined
        assert report.exit_test_accuracy > 0.5
        history = report.result.history
        assert len(history) == EPOCHS
        assert history[-1].sim_time_s == pytest.approx(report.makespan_s)

    def test_single_device_pipelined_matches_worker_semantics(self, data):
        # One device, one queue: pipelining degenerates to streaming the
        # blocks in sequence; it must run and stay internally consistent.
        system = _make_system(data)
        cluster = Cluster.from_names(["agx-orin"], memory_budget=64 * MB)
        report = system.train_parallel(
            cluster, epochs=1, schedule="pipelined"
        )
        assert report.comm_bytes == 0
        assert report.result.ledger.communication == 0.0
        # Only the profiling ramp-in is idle from the pipeline's viewpoint.
        profiling = report.profiling_time_s
        assert report.utilization[0] == pytest.approx(
            1.0 - profiling / report.makespan_s
        )


class TestTrainParallelValidation:
    def test_unknown_schedule(self, data):
        system = _make_system(data)
        cluster = Cluster.from_names(["agx-orin"])
        with pytest.raises(ConfigError):
            system.train_parallel(cluster, epochs=1, schedule="async")

    def test_bad_epochs(self, data):
        system = _make_system(data)
        cluster = Cluster.from_names(["agx-orin"])
        with pytest.raises(ConfigError):
            system.train_parallel(cluster, epochs=0)

    def test_wrong_placement_length(self, data):
        system = _make_system(data)
        cluster = Cluster.from_names(["agx-orin"])
        with pytest.raises(ConfigError):
            system.train_parallel(cluster, epochs=1, placement=[0] * 99)

    def test_out_of_range_placement_rejected(self, data):
        """Negative indices must not silently wrap onto the last device."""
        system = _make_system(data)
        cluster = Cluster.from_names(CLUSTER_NAMES, memory_budget=8 * MB)
        blocks, _ = system.plan()
        for bad in (-1, len(cluster)):
            placement = [0] * len(blocks)
            placement[-1] = bad
            for schedule in ("sequential", "pipelined"):
                with pytest.raises(ConfigError):
                    system.train_parallel(
                        cluster, epochs=1, schedule=schedule, placement=placement
                    )

    def test_infeasible_placement_rejected(self, data):
        system = _make_system(data)
        cluster = Cluster.from_names(CLUSTER_NAMES, memory_budget=3 * MB)
        blocks, _ = system.plan()
        with pytest.raises(PlacementError):
            system.train_parallel(
                cluster, epochs=1, placement=[0] * len(blocks)
            )

    def test_explicit_round_robin_placement_used(self, data):
        system = _make_system(data)
        cluster = Cluster.from_names(CLUSTER_NAMES, memory_budget=8 * MB)
        blocks, _ = system.plan()
        rr = round_robin_placement(len(blocks), len(cluster))
        report = system.train_parallel(
            cluster, epochs=1, schedule="pipelined", placement=rr
        )
        assert report.placement == rr

    def test_round_robin_strategy_string(self, data):
        system = _make_system(data)
        cluster = Cluster.from_names(CLUSTER_NAMES, memory_budget=8 * MB)
        blocks, _ = system.plan()
        report = system.train_parallel(
            cluster, epochs=1, schedule="pipelined", placement="round-robin"
        )
        assert report.placement == round_robin_placement(len(blocks), len(cluster))

    def test_unknown_placement_strategy(self, data):
        system = _make_system(data)
        cluster = Cluster.from_names(["agx-orin"])
        with pytest.raises(ConfigError):
            system.train_parallel(cluster, epochs=1, placement="simulated-annealing")

    def test_sequential_rejects_placement_too_small_for_block_batch(self, data):
        """Sequential feasibility is priced at each block's adaptive batch
        size, not the pipeline micro-batch -- an upfront PlacementError,
        never a mid-run simulated OOM."""
        system = _make_system(data)
        blocks, _ = system.plan()
        # Big enough for every block at the micro-batch size, too small
        # for the largest block at its own batch size.
        microbatch = min(b.batch_size for b in blocks)
        from repro.core.profiler import block_residency_bytes

        worst_at_own = max(
            block_residency_bytes(
                system.specs, list(system.aux_heads), b.layer_indices, b.batch_size
            )
            for b in blocks
        )
        worst_at_micro = max(
            block_residency_bytes(
                system.specs, list(system.aux_heads), b.layer_indices, microbatch
            )
            for b in blocks
        )
        budget = (worst_at_own + worst_at_micro) // 2
        assert worst_at_micro <= budget < worst_at_own  # setup sanity
        cluster = Cluster.from_names(["agx-orin"], memory_budget=budget)
        with pytest.raises(PlacementError):
            system.train_parallel(
                cluster,
                epochs=1,
                schedule="sequential",
                placement=[0] * len(blocks),
            )


class TestQueueCapacityInvariance:
    def test_weights_invariant_to_queue_capacity(self, data):
        """The documented contract: queue capacity shapes only the timing
        model; the trained weights follow strict dataflow order."""
        reports = []
        systems = []
        for q in (1, 8):
            system = _make_system(data)
            cluster = Cluster.from_names(CLUSTER_NAMES, memory_budget=8 * MB)
            reports.append(
                system.train_parallel(
                    cluster, epochs=1, schedule="pipelined", queue_capacity=q
                )
            )
            systems.append(system)
        _assert_identical_weights(systems[0], systems[1])
        # ...while the timing model does respond to the queue depth.
        assert reports[0].makespan_s >= reports[1].makespan_s
