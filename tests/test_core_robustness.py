"""Robustness and failure-injection tests for the NeuroFlux core."""

import tempfile

import numpy as np
import pytest

from repro.core import NeuroFlux, NeuroFluxConfig
from repro.core.cache import ActivationStore
from repro.core.prefetcher import rebatch
from repro.errors import ConfigError, MemoryBudgetExceeded, PartitionError
from repro.models import build_model

MB = 2**20


def _model(name="vgg11", seed=0):
    return build_model(
        name, num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=seed
    )


class TestControllerAcrossArchitectures:
    """The controller must handle every model family, not just VGG."""

    @pytest.mark.parametrize("name", ["resnet18", "mobilenet", "vgg13"])
    def test_full_run(self, name, tiny_dataset):
        model = _model(name)
        nf = NeuroFlux(
            model, tiny_dataset, memory_budget=24 * MB,
            config=NeuroFluxConfig(batch_limit=32, seed=1),
        )
        # Narrow ResNet/MobileNet variants converge slower than VGG at
        # this width; four epochs clears chance for all three families.
        report = nf.run(epochs=4)
        assert 0 <= report.exit_layer < model.num_local_layers
        assert report.exit_test_accuracy > 0.3  # chance = 0.25
        assert report.result.peak_memory_bytes <= 24 * MB + 512


class TestTimeBudgetedRun:
    def test_run_stops_on_time_budget(self, tiny_dataset):
        nf = NeuroFlux(
            _model(), tiny_dataset, memory_budget=16 * MB,
            config=NeuroFluxConfig(batch_limit=16, seed=2),
        )
        report = nf.run(epochs=50, time_budget_s=1.0)
        # A couple of steps may overshoot, but 50 epochs must not complete.
        assert report.result.sim_time_s < 5.0
        assert report.result.history  # at least one checkpoint recorded


class TestFailurePathsReleaseWhatTheyTook:
    """A run that fails must leave no workspace attached to the model or
    the aux heads, and no orphaned activation-cache directory."""

    @pytest.fixture()
    def cache_root(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        return tmp_path

    @staticmethod
    def _assert_released(system, cache_root):
        for module in (system.model, *system.aux_heads):
            assert all(m.workspace is None for m in module.modules())
        assert not list(cache_root.glob("neuroflux-cache-*"))

    def test_partition_error_from_run(self, tiny_dataset, cache_root):
        nf = NeuroFlux(
            _model(), tiny_dataset, memory_budget=4096,
            config=NeuroFluxConfig(batch_limit=16, seed=2),
        )
        for _ in range(3):
            with pytest.raises(PartitionError):
                nf.run(epochs=1)
            self._assert_released(nf, cache_root)

    def test_runtime_refusing_to_bind_a_pipelined_run(self, tiny_dataset, cache_root):
        from repro.parallel import Cluster
        from repro.runtime import AdaptiveRuntime, DeviceSlowdown, EventSchedule

        nf = NeuroFlux(
            _model(), tiny_dataset, memory_budget=MB,
            config=NeuroFluxConfig(batch_limit=16, seed=2),
        )
        events = EventSchedule([DeviceSlowdown(time_s=9.0, device=9, factor=2.0)])
        with pytest.raises(ConfigError, match="targets device 9"):
            nf.train_parallel(
                Cluster.from_names(["nano", "agx-orin"], memory_budget=8 * MB),
                epochs=1,
                schedule="pipelined",
                runtime=AdaptiveRuntime(events=events),
            )
        self._assert_released(nf, cache_root)

    def test_a_successful_run_releases_too(self, tiny_dataset, cache_root):
        nf = NeuroFlux(
            _model(), tiny_dataset, memory_budget=MB,
            config=NeuroFluxConfig(batch_limit=16, seed=2),
        )
        nf.run(epochs=1)
        self._assert_released(nf, cache_root)


class TestCacheRobustness:
    def test_interleaved_blocks(self, tmp_path):
        """Writes to different blocks must not interleave within a block's
        read order."""
        with ActivationStore(tmp_path / "c") as store:
            rng = np.random.default_rng(0)
            for i in range(4):
                x = np.full((2, 1, 2, 2), i, dtype=np.float32)
                store.write(i % 2, x, np.full(2, i, dtype=np.int64))
            labels0 = [int(y[0]) for _, y in store.batches(0)]
            labels1 = [int(y[0]) for _, y in store.batches(1)]
            assert labels0 == [0, 2]
            assert labels1 == [1, 3]

    def test_clear_then_rewrite_restarts_sequence(self, tmp_path):
        with ActivationStore(tmp_path / "c") as store:
            x = np.zeros((1, 1, 2, 2), dtype=np.float32)
            y = np.zeros(1, dtype=np.int64)
            store.write(0, x, y)
            store.clear_block(0)
            store.write(0, x, y + 7)
            read = list(store.batches(0))
            assert len(read) == 1
            assert int(read[0][1][0]) == 7

    def test_rebatch_from_store_roundtrip(self, tmp_path):
        """The controller's exact cache -> rebatch pipeline conserves
        samples in order."""
        with ActivationStore(tmp_path / "c") as store:
            total = 0
            for i, n in enumerate([5, 3, 7, 2]):
                x = np.arange(total, total + n, dtype=np.float32).reshape(n, 1, 1, 1)
                y = np.arange(total, total + n, dtype=np.int64)
                store.write(0, x, y)
                total += n
            out = list(rebatch(store.batches(0), 4))
            ys = np.concatenate([y for _, y in out])
            np.testing.assert_array_equal(ys, np.arange(total))


class TestBudgetEdgeCases:
    def test_budget_exactly_at_worst_unit(self, tiny_dataset):
        """A budget equal to the worst unit's batch-1 footprint must be
        feasible (batch 1) rather than raising."""
        from repro.core.auxiliary import build_aux_heads
        from repro.core.profiler import measure_unit_memory

        model = _model(seed=3)
        heads = build_aux_heads(model, rule="aan")
        worst = max(
            measure_unit_memory(s, h, 1)
            for s, h in zip(model.local_layers(), heads)
        )
        nf = NeuroFlux(
            _model(seed=3), tiny_dataset, memory_budget=worst + 4096,
            config=NeuroFluxConfig(batch_limit=8, seed=3),
        )
        blocks, _ = nf.plan()
        assert all(b.batch_size >= 1 for b in blocks)

    def test_oversized_batch_limit_is_capped_by_memory(self, tiny_dataset):
        model = _model(seed=4)
        nf = NeuroFlux(
            model, tiny_dataset, memory_budget=8 * MB,
            config=NeuroFluxConfig(batch_limit=100_000, seed=4),
        )
        blocks, _ = nf.plan()
        from repro.core.profiler import MemoryProfiler
        from repro.core.auxiliary import build_aux_heads

        # Every block's predicted footprint must respect the budget.
        heads = build_aux_heads(model, rule="aan")
        profile = MemoryProfiler(model.local_layers(), list(heads)).profile()
        for block in blocks:
            for i in block.layer_indices:
                assert profile.models[i].predict(block.batch_size) <= 8 * MB


class TestSimulatedOomPropagation:
    def test_residency_overflow_raises(self, tiny_dataset):
        """If the plan somehow passes but residency does not fit (e.g. a
        budget squeezed between plan and run), the run must raise rather
        than silently exceed."""
        nf = NeuroFlux(
            _model(seed=5), tiny_dataset, memory_budget=16 * MB,
            config=NeuroFluxConfig(batch_limit=32, seed=5),
        )
        nf.memory_budget = 64 * 1024  # squeeze after construction
        with pytest.raises(Exception) as exc:
            nf.run(epochs=1)
        assert isinstance(
            exc.value, (MemoryBudgetExceeded, Exception)
        )
