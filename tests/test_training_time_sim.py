"""Tests for the closed-form training-time simulation.

The critical property: the simulation must agree with the real trainers'
time accounting, since Figure 11 is produced from it.
"""

import pytest
from helpers import replay_bp, replay_classic_ll, replay_neuroflux

from repro.core.config import NeuroFluxConfig
from repro.core.controller import NeuroFlux
from repro.data.registry import dataset_spec
from repro.evalsim.training_time import (
    simulate_bp,
    simulate_classic_ll,
    simulate_neuroflux,
    try_simulate,
)
from repro.hw import AGX_ORIN, JETSON_NANO
from repro.models import build_model
from repro.training import BackpropTrainer, LocalLearningTrainer

MB = 2**20


def _small_model(seed=0):
    return build_model(
        "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=seed
    )


def _assert_ledgers_agree(sim_ledger, real_ledger, cache_io_rel=1e-12):
    """Line by line: the closed form multiplies by a step count where the
    run adds step by step, so equality is to the last few ulps, not ``==``."""
    sim, real = sim_ledger.as_dict(), real_ledger.as_dict()
    assert sim.keys() == real.keys()
    for line in sim:
        if line in ("cache_io", "total"):
            assert sim[line] == pytest.approx(real[line], rel=cache_io_rel), line
        else:
            assert sim[line] == pytest.approx(real[line], rel=1e-12), line


def _aligned(nbytes):
    """``nbytes`` as a ``SimulatedGpu`` reports it (allocator granularity)."""
    from repro.memory.tracker import ALLOCATOR_ALIGNMENT

    return -(-nbytes // ALLOCATOR_ALIGNMENT) * ALLOCATOR_ALIGNMENT


class TestConsistencyWithRealTrainers:
    @staticmethod
    def _assert_same_run(sim, real, trainer):
        """Same batch, same peak (the trainer reads it off the allocator,
        i.e. rounded up to its granularity), same clock, same ledger."""
        assert sim.batch_size == real.batch_size
        assert sim.peak_memory_bytes == trainer.memory_at_batch(real.batch_size)
        assert _aligned(sim.peak_memory_bytes) == real.peak_memory_bytes
        assert sim.time_s == pytest.approx(real.sim_time_s, rel=1e-12)
        _assert_ledgers_agree(sim.ledger, real.ledger)

    # Sized by the batch cap, then by a budget that binds below it.
    @pytest.mark.parametrize("sizing", [{"batch_limit": 32}, {"memory_budget": 5 * MB}])
    def test_bp_simulation_matches_trainer_ledger(self, tiny_dataset, sizing):
        model = _small_model()
        trainer = BackpropTrainer(
            model, tiny_dataset, memory_budget=sizing.get("memory_budget")
        )
        real = trainer.train(epochs=2, batch_limit=sizing.get("batch_limit", 256))
        sim = simulate_bp(model, tiny_dataset.spec, AGX_ORIN, epochs=2, **sizing)
        assert sim.batch_size == 32 if "batch_limit" in sizing else sim.batch_size < 32
        self._assert_same_run(sim, real, trainer)

    @pytest.mark.parametrize("sizing", [{"batch_limit": 32}, {"memory_budget": 14 * MB}])
    def test_ll_simulation_matches_trainer_ledger(self, tiny_dataset, sizing):
        trainer = LocalLearningTrainer(
            _small_model(), tiny_dataset, classic_filters=256,
            memory_budget=sizing.get("memory_budget"),
        )
        real = trainer.train(epochs=1, batch_limit=sizing.get("batch_limit", 256))
        sim = simulate_classic_ll(
            _small_model(), tiny_dataset.spec, AGX_ORIN, epochs=1, **sizing
        )
        assert sim.batch_size == 32 if "batch_limit" in sizing else sim.batch_size < 32
        self._assert_same_run(sim, real, trainer)

    @pytest.mark.parametrize("adaptive_batch", [True, False])
    @pytest.mark.parametrize("use_cache", [True, False])
    @pytest.mark.parametrize("budget_mb", [3, 8])
    def test_neuroflux_simulation_matches_run_ledger(
        self, tiny_dataset, budget_mb, use_cache, adaptive_batch
    ):
        """Same plan, same ledger.  ``cache_io`` (and the total it feeds)
        agree to 1e-3 only: ``ActivationStore.write`` charges the ``.npz``
        container bytes, which the closed form cannot know."""
        system = NeuroFlux(
            _small_model(),
            tiny_dataset,
            memory_budget=budget_mb * MB,
            config=NeuroFluxConfig(
                batch_limit=64, seed=0, use_cache=use_cache, adaptive_batch=adaptive_batch
            ),
        )
        real = system.run(2)
        sim = simulate_neuroflux(
            _small_model(), tiny_dataset.spec, AGX_ORIN, 2, budget_mb * MB,
            batch_limit=64, use_cache=use_cache, adaptive_batch=adaptive_batch,
        )
        assert [(b.layer_indices, b.batch_size) for b in sim.blocks] == [
            (b.layer_indices, b.batch_size) for b in real.blocks
        ]
        # 3 MiB splits the model (batch 45 then 64); 8 MiB holds it whole.
        assert len(sim.blocks) == (2 if budget_mb == 3 else 1)
        _assert_ledgers_agree(sim.ledger, real.result.ledger, cache_io_rel=1e-3)
        if use_cache and len(sim.blocks) > 1:
            assert sim.ledger.cache_io > 0


class TestSimulatedShapes:
    @pytest.fixture(scope="class")
    def spec(self):
        return dataset_spec("cifar10", scale=0.1)

    def test_bp_infeasible_under_tight_budget(self, spec):
        model = build_model("vgg16", num_classes=10)
        assert (
            try_simulate(
                simulate_bp, model, spec, AGX_ORIN, 1, memory_budget=100 * MB
            )
            is None
        )

    def test_neuroflux_feasible_under_tight_budget(self, spec):
        model = build_model("vgg16", num_classes=10)
        run = try_simulate(
            simulate_neuroflux, model, spec, AGX_ORIN, 1, memory_budget=100 * MB
        )
        assert run is not None
        assert run.peak_memory_bytes <= 100 * MB

    def test_neuroflux_faster_than_bp_at_same_budget(self, spec):
        model = build_model("vgg16", num_classes=10)
        budget = 300 * MB
        bp = simulate_bp(model, spec, AGX_ORIN, 5, memory_budget=budget)
        nf = simulate_neuroflux(model, spec, AGX_ORIN, 5, memory_budget=budget)
        assert nf.time_s < bp.time_s

    def test_cache_ablation_slower_once_amortized(self, spec):
        """The cache-fill pass is an upfront cost: over enough epochs the
        skipped forward passes dominate and caching wins."""
        model = build_model("vgg16", num_classes=10)
        with_cache = simulate_neuroflux(
            model, spec, AGX_ORIN, 15, memory_budget=200 * MB, use_cache=True
        )
        without = simulate_neuroflux(
            model, spec, AGX_ORIN, 15, memory_budget=200 * MB, use_cache=False
        )
        assert without.time_s > with_cache.time_s
        # The compute saving exists at any epoch count.
        assert without.ledger.compute > with_cache.ledger.compute

    def test_adaptive_batch_ablation_slower(self, spec):
        model = build_model("vgg16", num_classes=10)
        adaptive = simulate_neuroflux(
            model, spec, AGX_ORIN, 3, memory_budget=200 * MB, adaptive_batch=True
        )
        fixed = simulate_neuroflux(
            model, spec, AGX_ORIN, 3, memory_budget=200 * MB, adaptive_batch=False
        )
        assert fixed.time_s >= adaptive.time_s

    def test_slower_platform_longer_times(self, spec):
        model = build_model("vgg16", num_classes=10)
        orin = simulate_neuroflux(model, spec, AGX_ORIN, 2, memory_budget=300 * MB)
        nano = simulate_neuroflux(model, spec, JETSON_NANO, 2, memory_budget=300 * MB)
        assert nano.time_s > orin.time_s

    def test_more_epochs_more_time(self, spec):
        model = build_model("vgg16", num_classes=10)
        t1 = simulate_bp(model, spec, AGX_ORIN, 1, memory_budget=400 * MB).time_s
        t3 = simulate_bp(model, spec, AGX_ORIN, 3, memory_budget=400 * MB).time_s
        assert t3 > 2.5 * t1


class TestClosedFormMatchesReplay:
    """The counted charges must book what the step-by-step replay of
    ``tests/helpers.py`` books, and must not grow with ``epochs``."""

    @pytest.fixture(scope="class")
    def spec(self):
        # 200 samples: fewer than the largest feasible batches (256),
        # a multiple of some (1, 20) and not of most.
        spec = dataset_spec("cifar10", scale=0.004)
        assert spec.n_train == 200
        return spec

    @pytest.fixture(scope="class", params=["vgg11", "resnet18"])
    def model(self, request):
        return build_model(request.param, num_classes=10, width_multiplier=0.25)

    @staticmethod
    def _assert_same(fast, slow):
        assert (fast is None) == (slow is None)
        if fast is None:
            return None
        assert fast.batch_size == slow.batch_size
        assert fast.peak_memory_bytes == slow.peak_memory_bytes
        assert [(b.layer_indices, b.batch_size) for b in fast.blocks] == [
            (b.layer_indices, b.batch_size) for b in slow.blocks
        ]
        assert fast.time_s == pytest.approx(slow.time_s, rel=1e-9)
        assert fast.ledger.as_dict() == pytest.approx(slow.ledger.as_dict(), rel=1e-9)
        return fast

    @pytest.mark.parametrize("epochs", [1, 7])
    @pytest.mark.parametrize("budget_mb", [8, 32, 128])
    @pytest.mark.parametrize(
        "simulate, replay",
        [(simulate_bp, replay_bp), (simulate_classic_ll, replay_classic_ll)],
    )
    def test_full_graph_methods(self, model, spec, simulate, replay, budget_mb, epochs):
        args = (model, spec, AGX_ORIN, epochs)
        self._assert_same(
            try_simulate(simulate, *args, memory_budget=budget_mb * MB),
            try_simulate(replay, *args, memory_budget=budget_mb * MB),
        )

    @pytest.mark.parametrize("adaptive_batch", [True, False])
    @pytest.mark.parametrize("use_cache", [True, False])
    @pytest.mark.parametrize("epochs", [1, 7])
    @pytest.mark.parametrize("budget_mb", [8, 32, 128])
    def test_neuroflux(self, model, spec, budget_mb, epochs, use_cache, adaptive_batch):
        kwargs = dict(
            memory_budget=budget_mb * MB, use_cache=use_cache, adaptive_batch=adaptive_batch
        )
        args = (model, spec, AGX_ORIN, epochs)
        run = self._assert_same(
            try_simulate(simulate_neuroflux, *args, **kwargs),
            try_simulate(replay_neuroflux, *args, **kwargs),
        )
        assert run is not None and run.blocks

    def test_remainder_and_short_epochs_are_covered(self, spec):
        """The matrix above really contains an epoch with a remainder
        batch, one without, and one shorter than a single batch."""
        model = build_model("resnet18", num_classes=10, width_multiplier=0.25)
        batches = {
            simulate_bp(model, spec, AGX_ORIN, 1, memory_budget=mb * MB).batch_size
            for mb in (32, 128)
        }
        nf = simulate_neuroflux(model, spec, AGX_ORIN, 1, memory_budget=128 * MB)
        batches.update(b.batch_size for b in nf.blocks)
        assert any(spec.n_train % b == 0 for b in batches)
        assert any(spec.n_train % b and b < spec.n_train for b in batches)
        assert any(b > spec.n_train for b in batches)

    @pytest.mark.parametrize(
        "simulate, kwargs",
        [
            (simulate_bp, {}),
            (simulate_classic_ll, {}),
            (simulate_neuroflux, {}),
            (simulate_neuroflux, {"use_cache": False}),
        ],
    )
    def test_charge_calls_do_not_grow_with_epochs(self, monkeypatch, spec, simulate, kwargs):
        """A regression to per-step loops fails here by count, not by
        timing: 50 epochs cost exactly the simulator calls of one."""
        from repro.hw.simulator import ExecutionSimulator

        calls = []
        for name in (
            "add_training_step", "add_inference_batch", "add_cache_read",
            "add_cache_write", "add_profiling", "charge",
        ):
            def counted(self, *args, _original=getattr(ExecutionSimulator, name), **kw):
                calls.append(_original.__name__)
                return _original(self, *args, **kw)

            monkeypatch.setattr(ExecutionSimulator, name, counted)

        model = build_model("vgg11", num_classes=10, width_multiplier=0.25)
        counts = []
        for epochs in (1, 50):
            calls.clear()
            simulate(model, spec, AGX_ORIN, epochs, memory_budget=32 * MB, **kwargs)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0
        # O(layers + blocks): a handful of charges per block at most.
        assert counts[0] <= 12 * len(model.local_layers())
