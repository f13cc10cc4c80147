"""Tests for live migration mechanics and the re-placement policy."""

import numpy as np
import pytest

from repro.core.auxiliary import build_aux_heads
from repro.core.worker import BlockWorker
from repro.errors import ConfigError, PlacementError
from repro.models.zoo import build_model
from repro.nn import make_optimizer
from repro.parallel import Cluster
from repro.runtime import (
    CheckpointStore,
    ReplacementPolicy,
    failure_recovery,
    planned_migration,
    refined_step_times,
    restore_worker,
    snapshot_worker,
)
from repro.utils.rng import spawn_rng

MB = 2**20
NAMES = ("nano", "xavier-nx", "xavier-nx", "agx-orin")


def _make_worker(cluster, device: int, seed: int = 0) -> BlockWorker:
    model = build_model(
        "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=seed
    )
    specs = model.local_layers()[:2]
    aux = list(
        build_aux_heads(model, rule="aan", classic_filters=16, seed=seed)
    )[:2]
    optimizers = [
        make_optimizer(
            "sgd-momentum",
            specs[i].module.parameters() + aux[i].parameters(),
            lr=0.05,
        )
        for i in range(2)
    ]
    return BlockWorker(
        specs, aux, optimizers, cluster[device].sim, sample_bytes=3072
    )


def _train_a_bit(worker, seed=0):
    rng = spawn_rng(seed, "migrate-test")
    for _ in range(3):
        x = rng.normal(size=(4, 3, 16, 16)).astype(np.float32)
        y = rng.integers(0, 4, size=4)
        worker.train_batch(x, y)


def _state(worker):
    out = {}
    for i, spec in enumerate(worker.layer_specs):
        for key, value in spec.module.state_dict().items():
            out[f"l{i}.{key}"] = value
    for i, opt in enumerate(worker.optimizers):
        for key, value in opt.state_dict().items():
            out[f"o{i}.{key}"] = value
    return out


class TestPlannedMigration:
    def test_moves_state_bit_identically_and_charges_sender(self):
        cluster = Cluster.from_names(NAMES, memory_budget=8 * MB)
        worker = _make_worker(cluster, device=1)
        _train_a_bit(worker)
        want = _state(worker)
        comm_before = cluster[1].sim.ledger.communication
        record = planned_migration(cluster, block=0, dst=3, worker=worker, now=1.0)
        assert worker.sim is cluster[3].sim
        assert record.src == 1 and record.dst == 3
        assert record.reason == "drift"
        assert record.transfer_s > 0
        # Sender pays the link; the wire payload is at least the state.
        assert cluster[1].sim.ledger.communication > comm_before
        state_bytes = sum(
            s.module.parameter_bytes() for s in worker.layer_specs
        ) + sum(a.parameter_bytes() for a in worker.aux_heads) + sum(
            o.state_bytes() for o in worker.optimizers
        )
        assert record.nbytes >= state_bytes
        for key, value in _state(worker).items():
            assert np.array_equal(value, want[key]), key

    def test_rejects_out_of_range_destination(self):
        cluster = Cluster.from_names(NAMES, memory_budget=8 * MB)
        worker = _make_worker(cluster, device=0)
        with pytest.raises(ConfigError):
            planned_migration(cluster, block=0, dst=9, worker=worker, now=0.0)


class TestFailureRecovery:
    def test_restores_and_replays_on_destination(self):
        cluster = Cluster.from_names(NAMES, memory_budget=8 * MB)
        worker = _make_worker(cluster, device=0)
        ckpt = snapshot_worker(worker)
        _train_a_bit(worker)  # 3 batches since the checkpoint die with dev0
        dst_before = cluster[2].sim.elapsed
        record = failure_recovery(
            cluster,
            block=0,
            src=0,
            dst=2,
            worker=worker,
            ckpt=ckpt,
            lost_microbatches=3,
            replay_batch=4,
            input_mode="prefetch-cache",
            now=5.0,
        )
        assert worker.sim is cluster[2].sim
        assert record.replay_microbatches == 3
        assert record.replay_s > 0 and record.restore_s > 0
        assert record.recovery_s == pytest.approx(
            record.replay_s + record.restore_s
        )
        # All recovery seconds land on the destination's ledger.
        assert cluster[2].sim.elapsed - dst_before == pytest.approx(
            record.recovery_s
        )
        assert cluster[2].sim.ledger.cache_io > 0

    def test_negative_lost_count_rejected(self):
        cluster = Cluster.from_names(NAMES, memory_budget=8 * MB)
        worker = _make_worker(cluster, device=0)
        with pytest.raises(ConfigError):
            failure_recovery(
                cluster, 0, 0, 1, worker, snapshot_worker(worker),
                lost_microbatches=-1, replay_batch=4,
                input_mode="prefetch-raw", now=0.0,
            )


class TestRuntimeReportJson:
    def test_seconds_use_the_report_number_rule(self):
        """The runtime report rounds seconds with ``json_num``: six
        decimals, a NaN written as null, coefficients at four."""
        import json

        from repro.api.report import json_num
        from repro.runtime import MigrationRecord, RuntimeReport

        report = RuntimeReport(
            adapt=True,
            migrations=[
                MigrationRecord(0, 0, 1, 1.0, "drift", transfer_s=0.123456789),
                MigrationRecord(1, 1, 2, 2.0, "failure", transfer_s=0.5, restore_s=1 / 3),
            ],
            coefficients=[1.234567],
            checkpoint_time_s=2.718281828,
        )
        payload = report.to_json_dict()
        assert payload["checkpoint_time_s"] == json_num(2.718281828) == 2.718282
        assert payload["migration_transfer_s"] == 0.123457
        assert payload["recovery_time_s"] == json_num(0.5 + 1 / 3) == 0.833333
        assert payload["coefficients"] == [1.2346]
        report.checkpoint_time_s = float("nan")
        again = json.loads(json.dumps(report.to_json_dict(), allow_nan=False))
        assert again["checkpoint_time_s"] is None


class TestSnapshotRestoreStore:
    def test_snapshot_restore_round_trip(self):
        cluster = Cluster.from_names(NAMES, memory_budget=8 * MB)
        worker = _make_worker(cluster, device=0)
        _train_a_bit(worker, seed=1)
        want = _state(worker)
        ckpt = snapshot_worker(worker)
        _train_a_bit(worker, seed=2)
        restore_worker(worker, ckpt)
        for key, value in _state(worker).items():
            assert np.array_equal(value, want[key]), key

    def test_store_keeps_latest_per_block(self):
        store = CheckpointStore()
        assert store.get(0) is None
        store.put(0, 4, "ckpt-a")
        store.put(0, 8, "ckpt-b")
        store.put(1, 2, "ckpt-c")
        assert store.get(0) == (8, "ckpt-b")
        assert 1 in store and len(store) == 2
        with pytest.raises(ConfigError):
            store.put(0, -1, "x")


def _toy_problem(cluster, n_train=64, microbatch=8, epochs=2):
    from repro.core.config import NeuroFluxConfig
    from repro.core.controller import NeuroFlux
    from repro.data.registry import dataset_spec
    from repro.parallel.placement import build_problem
    from dataclasses import replace

    spec = dataset_spec(
        "cifar10", num_classes=4, image_hw=(16, 16), noise_std=0.4, seed=7
    )
    spec = replace(spec, n_train=n_train, n_val=16, n_test=16)
    data = spec.materialize()
    model = build_model(
        "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.25, seed=3
    )
    system = NeuroFlux(
        model, data, memory_budget=3 * MB,
        config=NeuroFluxConfig(batch_limit=64, seed=0),
    )
    blocks, _ = system.plan()
    return build_problem(
        blocks, system.specs, list(system.aux_heads), cluster,
        microbatch=microbatch, n_train=n_train, epochs=epochs,
        sample_bytes=data.spec.sample_bytes,
    )


class TestRefinedStepTimes:
    def test_unit_coefficients_reproduce_base_prices(self):
        cluster = Cluster.from_names(NAMES, memory_budget=8 * MB)
        problem = _toy_problem(cluster)
        refined = refined_step_times(problem, cluster, [1.0] * len(cluster))
        for base_row, refined_row in zip(problem.step_times, refined):
            assert refined_row == pytest.approx(base_row)

    def test_coefficients_scale_columns(self):
        cluster = Cluster.from_names(NAMES, memory_budget=8 * MB)
        problem = _toy_problem(cluster)
        refined = refined_step_times(problem, cluster, [1.0, 2.0, 1.0, 1.0])
        for base_row, refined_row in zip(problem.step_times, refined):
            assert refined_row[1] == pytest.approx(2.0 * base_row[1])
            assert refined_row[0] == pytest.approx(base_row[0])

    def test_dead_devices_price_at_infinity(self):
        cluster = Cluster.from_names(NAMES, memory_budget=8 * MB)
        problem = _toy_problem(cluster)
        refined = refined_step_times(
            problem, cluster, [1.0] * len(cluster), dead={3}
        )
        assert all(row[3] == float("inf") for row in refined)


class TestReplacementPolicy:
    def _consider(self, policy, problem, cluster, placement, coefficients,
                  dead=frozenset()):
        return policy.consider(
            problem, cluster, placement, coefficients, set(dead),
            remaining_microbatches=problem.n_microbatches,
            migration_cost_fn=lambda k, s, d: 1e-4,
        )

    def test_no_drift_means_no_move(self):
        """The optimizer's own placement under unit coefficients is already
        optimal: the policy must not churn."""
        from repro.parallel.placement import optimize_placement

        cluster = Cluster.from_names(NAMES, memory_budget=8 * MB)
        problem = _toy_problem(cluster)
        placement = list(optimize_placement(problem).placement)
        decision = self._consider(
            ReplacementPolicy(), problem, cluster, placement,
            [1.0] * len(cluster),
        )
        assert not decision.accept
        assert tuple(decision.placement) == tuple(placement)

    def test_big_drift_accepts_with_saving(self):
        from repro.parallel.placement import optimize_placement

        cluster = Cluster.from_names(NAMES, memory_budget=8 * MB)
        problem = _toy_problem(cluster)
        placement = list(optimize_placement(problem).placement)
        coefficients = [1.0] * len(cluster)
        coefficients[placement[0]] = 6.0  # the loaded device throttled 6x
        decision = self._consider(
            ReplacementPolicy(), problem, cluster, placement, coefficients
        )
        assert decision.accept and decision.reason == "drift"
        assert decision.predicted_candidate_s < decision.predicted_current_s
        assert decision.moved_blocks

    def test_all_devices_dead_raises(self):
        cluster = Cluster.from_names(NAMES, memory_budget=8 * MB)
        problem = _toy_problem(cluster)
        with pytest.raises(PlacementError):
            self._consider(
                ReplacementPolicy(), problem, cluster,
                [0] * problem.n_blocks, [1.0] * len(cluster),
                dead={0, 1, 2, 3},
            )

    def test_hysteresis_margin_prevents_oscillation(self):
        """Two near-equal placements: after moving once, moving back can
        never clear the improvement margin, so the policy stays put."""
        from repro.parallel.placement import optimize_placement, predict_makespan
        from repro.runtime.policy import refined_problem

        cluster = Cluster.from_names(NAMES, memory_budget=8 * MB)
        problem = _toy_problem(cluster)
        placement = list(optimize_placement(problem).placement)
        coefficients = [1.0] * len(cluster)
        coefficients[placement[0]] = 6.0
        policy = ReplacementPolicy()
        first = self._consider(
            policy, problem, cluster, placement, coefficients
        )
        assert first.accept
        # Re-consider from the new placement under the same coefficients:
        # it is (near-)optimal now, so no further move is accepted.
        second = self._consider(
            policy, problem, cluster, list(first.placement), coefficients
        )
        assert not second.accept
        rp = refined_problem(
            problem, cluster, coefficients, set(), problem.n_microbatches
        )
        assert predict_makespan(rp, list(first.placement)) <= (
            first.predicted_current_s
        )
