"""Tests for the BlockWorker and the end-to-end NeuroFlux controller."""

import numpy as np
import pytest

from repro.core import NeuroFlux, NeuroFluxConfig, build_aux_heads
from repro.core.partitioner import validate_partition
from repro.core.worker import BlockWorker
from repro.data import DataLoader
from repro.errors import ConfigError, PartitionError
from repro.hw import AGX_ORIN
from repro.hw.simulator import ExecutionSimulator
from repro.models import build_model
from repro.nn import make_optimizer
from repro.utils.rng import spawn_rng

MB = 2**20


@pytest.fixture()
def nf_model():
    return build_model(
        "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=0
    )


def _make_worker(model, n_layers=2, lr=0.05):
    specs = model.local_layers()[:n_layers]
    heads = build_aux_heads(model, rule="aan")[:n_layers]
    opts = [
        make_optimizer("sgd-momentum", s.module.parameters() + h.parameters(), lr=lr)
        for s, h in zip(specs, heads)
    ]
    sim = ExecutionSimulator(AGX_ORIN)
    worker = BlockWorker(specs, heads, opts, sim, sample_bytes=3 * 16 * 16 * 4)
    return worker, sim


class TestBlockWorker:
    def test_train_pass_counts(self, nf_model, tiny_dataset):
        worker, sim = _make_worker(nf_model)
        loader = DataLoader(
            tiny_dataset.x_train, tiny_dataset.y_train, 32, rng=spawn_rng(0, "w")
        )
        n_batches, n_samples, loss = worker.train_pass(loader)
        assert n_batches == len(loader)
        assert n_samples == len(tiny_dataset.x_train)
        assert np.isfinite(loss)
        assert sim.elapsed > 0

    def test_loss_decreases_over_passes(self, nf_model, tiny_dataset):
        worker, _ = _make_worker(nf_model)
        losses = []
        for epoch in range(4):
            loader = DataLoader(
                tiny_dataset.x_train, tiny_dataset.y_train, 32, rng=spawn_rng(epoch, "w")
            )
            _, _, loss = worker.train_pass(loader)
            losses.append(loss)
        assert losses[-1] < losses[0]

    def test_forward_pass_emits_all_samples(self, nf_model, tiny_dataset):
        worker, _ = _make_worker(nf_model)
        loader = DataLoader(
            tiny_dataset.x_train, tiny_dataset.y_train, 32, shuffle=False
        )
        collected = []
        n = worker.forward_pass(loader, lambda x, y: collected.append(len(y)))
        assert n == len(tiny_dataset.x_train)
        assert sum(collected) == n

    def test_forward_pass_output_geometry(self, nf_model, tiny_dataset):
        worker, _ = _make_worker(nf_model, n_layers=2)
        spec = nf_model.local_layers()[1]
        loader = DataLoader(tiny_dataset.x_train[:8], tiny_dataset.y_train[:8], 8)
        shapes = []
        worker.forward_pass(loader, lambda x, y: shapes.append(x.shape))
        assert shapes[0][1:] == (spec.out_channels, *spec.out_hw)

    def test_mismatched_inputs_raise(self, nf_model):
        specs = nf_model.local_layers()[:2]
        heads = build_aux_heads(nf_model, rule="aan")[:1]
        with pytest.raises(ConfigError):
            BlockWorker(specs, heads, [], ExecutionSimulator(AGX_ORIN), 1)

    def test_time_budget_stops_pass(self, nf_model, tiny_dataset):
        worker, sim = _make_worker(nf_model)
        loader = DataLoader(tiny_dataset.x_train, tiny_dataset.y_train, 8)
        n_batches, _, _ = worker.train_pass(loader, time_budget_s=0.01)
        assert n_batches < len(loader)


class TestNeuroFluxController:
    @pytest.fixture()
    def run_report(self, nf_model, tiny_dataset):
        nf = NeuroFlux(
            nf_model,
            tiny_dataset,
            memory_budget=24 * MB,
            config=NeuroFluxConfig(batch_limit=64, seed=1),
        )
        return nf, nf.run(epochs=3)

    def test_partition_valid(self, run_report, nf_model):
        nf, report = run_report
        validate_partition(report.blocks, nf_model.num_local_layers)

    def test_accuracy_beats_chance(self, run_report):
        _, report = run_report
        assert report.exit_test_accuracy > 0.45

    def test_exit_selected(self, run_report, nf_model):
        _, report = run_report
        assert 0 <= report.exit_layer < nf_model.num_local_layers
        assert report.exit_params > 0
        assert len(report.layer_val_accuracies) == nf_model.num_local_layers

    def test_compression_factor(self, run_report):
        _, report = run_report
        assert report.compression_factor > 1.0

    def test_peak_memory_within_budget(self, run_report):
        _, report = run_report
        assert 0 < report.result.peak_memory_bytes <= 24 * MB

    def test_history_time_monotone(self, run_report):
        _, report = run_report
        times = [p.sim_time_s for p in report.result.history]
        assert times == sorted(times)

    def test_block_reports_align_with_blocks(self, run_report):
        _, report = run_report
        assert len(report.block_reports) == len(report.blocks)
        for blk, br in zip(report.blocks, report.block_reports):
            assert br.layer_indices == blk.layer_indices
            assert br.batch_size == blk.batch_size

    def test_overheads_recorded(self, run_report):
        _, report = run_report
        assert report.profiling_time_s > 0
        assert report.profiling_overhead_fraction < 0.1
        if len(report.blocks) > 1:
            assert report.cache_bytes_written > 0
            assert report.cache_overhead_ratio > 0

    def test_summary_renders(self, run_report):
        _, report = run_report
        text = report.summary()
        assert "exit layer" in text
        assert "compression" in text

    def test_exit_model_is_a_one_exit_model(self, nf_model, tiny_dataset):
        """The deployed model is a MultiExitModel with one exit: the stages
        up to the exit layer, then that layer's auxiliary head."""
        from repro.core import MultiExitModel

        nf = NeuroFlux(nf_model, tiny_dataset, memory_budget=24 * MB)
        exit_model = nf.build_exit_model(2)
        assert isinstance(exit_model, MultiExitModel)
        assert exit_model.exit_layers == [2] and exit_model.num_exits == 1
        assert exit_model.exit_heads == [nf.aux_heads[2]]
        assert exit_model.name == f"{nf_model.name}-exit3"
        assert not exit_model.training
        x = tiny_dataset.x_test[:4]
        chain = x
        for spec in nf.specs[:3]:
            chain = spec.module.forward(chain)
        np.testing.assert_array_equal(exit_model.forward(x), nf.aux_heads[2].forward(chain))

    def test_build_exit_model_predicts(self, run_report, tiny_dataset):
        nf, report = run_report
        exit_model = nf.build_exit_model(report.exit_layer)
        preds = exit_model.predict(tiny_dataset.x_test[:10])
        assert preds.shape == (10,)

    def test_adaptive_batches_differ_across_blocks(self, nf_model, tiny_dataset):
        nf = NeuroFlux(
            nf_model,
            tiny_dataset,
            memory_budget=12 * MB,
            config=NeuroFluxConfig(batch_limit=256),
        )
        blocks, _ = nf.plan()
        if len(blocks) > 1:
            sizes = [b.batch_size for b in blocks]
            assert max(sizes) > min(sizes)

    def test_invalid_budget_raises(self, nf_model, tiny_dataset):
        with pytest.raises(ConfigError):
            NeuroFlux(nf_model, tiny_dataset, memory_budget=0)

    def test_tiny_budget_raises_partition_error(self, nf_model, tiny_dataset):
        nf = NeuroFlux(nf_model, tiny_dataset, memory_budget=64 * 1024)
        with pytest.raises(PartitionError):
            nf.plan()

    def test_zero_epochs_raises(self, nf_model, tiny_dataset):
        nf = NeuroFlux(nf_model, tiny_dataset, memory_budget=24 * MB)
        with pytest.raises(ConfigError):
            nf.run(epochs=0)


class TestAblationSwitches:
    def test_no_cache_still_trains(self, tiny_dataset):
        model = build_model(
            "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=0
        )
        nf = NeuroFlux(
            model,
            tiny_dataset,
            memory_budget=24 * MB,
            config=NeuroFluxConfig(use_cache=False, batch_limit=64),
        )
        report = nf.run(epochs=2)
        assert report.cache_bytes_written == 0
        assert np.isfinite(report.exit_test_accuracy)

    def test_cache_reduces_simulated_time(self, tiny_dataset):
        def run(use_cache):
            model = build_model(
                "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=0
            )
            nf = NeuroFlux(
                model,
                tiny_dataset,
                memory_budget=10 * MB,  # tight budget -> multiple blocks
                config=NeuroFluxConfig(use_cache=use_cache, batch_limit=64),
            )
            report = nf.run(epochs=2)
            return report

        with_cache = run(True)
        without = run(False)
        if len(with_cache.blocks) > 1:
            # Skipping forward passes over trained blocks must save compute.
            assert (
                with_cache.result.ledger.compute < without.result.ledger.compute
            )

    def test_fixed_batch_ablation(self, tiny_dataset):
        model = build_model(
            "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=0
        )
        nf = NeuroFlux(
            model,
            tiny_dataset,
            memory_budget=10 * MB,
            config=NeuroFluxConfig(adaptive_batch=False, batch_limit=256),
        )
        blocks, _ = nf.plan()
        assert len({b.batch_size for b in blocks}) == 1
