"""Tests for the memory estimator and simulated allocator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auxiliary import build_aux_heads
from repro.errors import ConfigError, MemoryBudgetExceeded, ShapeError
from repro.memory import (
    SimulatedGpu,
    bp_training_memory,
    inference_memory,
    ll_training_memory,
    local_unit_training_memory,
    measure_peak,
    optimizer_state_bytes,
)
from repro.models import build_model


@pytest.fixture(scope="module")
def vgg():
    return build_model("vgg11", num_classes=10, input_hw=(32, 32), width_multiplier=0.25)


@pytest.fixture(scope="module")
def vgg_aux(vgg):
    return build_aux_heads(vgg, rule="aan")


class TestEstimatorBasics:
    def test_breakdown_total_is_sum(self, vgg):
        b = bp_training_memory(vgg, 8)
        assert b.total == b.activations + b.parameters + b.gradients + b.optimizer + b.workspace

    def test_linear_in_batch(self, vgg):
        m1 = bp_training_memory(vgg, 1).total
        m2 = bp_training_memory(vgg, 2).total
        m4 = bp_training_memory(vgg, 4).total
        # Equal increments: memory(b) = slope*b + intercept.
        assert (m2 - m1) == (m4 - m2) / 2

    def test_optimizer_multipliers(self, vgg):
        params = vgg.parameter_bytes()
        assert optimizer_state_bytes(params, "sgd") == 0
        assert optimizer_state_bytes(params, "sgd-momentum") == params
        assert optimizer_state_bytes(params, "adam") == 2 * params

    def test_unknown_optimizer_raises(self):
        with pytest.raises(ConfigError):
            optimizer_state_bytes(100, "lion")

    def test_zero_batch_raises(self, vgg):
        with pytest.raises(ConfigError):
            bp_training_memory(vgg, 0)

    @settings(deadline=None, max_examples=20)
    @given(b1=st.integers(1, 64), b2=st.integers(1, 64))
    def test_monotone_in_batch(self, vgg, b1, b2):
        lo, hi = min(b1, b2), max(b1, b2)
        assert bp_training_memory(vgg, lo).total <= bp_training_memory(vgg, hi).total


class TestPaperOrderings:
    """Figure 4: inference < AAN-LL < BP < classic LL (full-scale model)."""

    @pytest.fixture(scope="class")
    def full_vgg(self):
        return build_model("vgg19", num_classes=100, input_hw=(32, 32))

    @pytest.mark.parametrize("batch", [10, 30, 90])
    def test_fig4_ordering(self, full_vgg, batch):
        classic = list(build_aux_heads(full_vgg, rule="classic")[:-1]) + [None]
        aan = build_aux_heads(full_vgg, rule="aan")
        inf = inference_memory(full_vgg, batch).total
        aan_mem = ll_training_memory(full_vgg, aan, batch, residency="params-only").total
        bp = bp_training_memory(full_vgg, batch).total
        cll = ll_training_memory(full_vgg, classic, batch, residency="full").total
        assert inf < aan_mem < bp < cll

    def test_fig1_activations_dominate(self, full_vgg):
        b = bp_training_memory(full_vgg, 256)
        assert b.activations > 3 * (b.parameters + b.optimizer)

    def test_fig5_early_layers_dominate(self, full_vgg):
        aan = build_aux_heads(full_vgg, rule="aan")
        specs = full_vgg.local_layers()
        per_layer = [
            local_unit_training_memory(s, a, 30).total for s, a in zip(specs, aan)
        ]
        peak_idx = int(np.argmax(per_layer))
        assert peak_idx <= 2  # the memory bottleneck is an initial layer
        assert per_layer[peak_idx] > 2 * per_layer[-1]
        # The *activation* gap (what Figure 5 plots) is much larger still.
        act = [
            local_unit_training_memory(s, a, 30).activations
            for s, a in zip(specs, aan)
        ]
        assert act[peak_idx] > 10 * act[-1]

    def test_inference_far_below_training(self, full_vgg):
        # Section 2.2: MobileNet trains in 830MB but infers under 35MB --
        # the ratio claim, not the absolute numbers.
        mob = build_model("mobilenet", num_classes=200)
        train = bp_training_memory(mob, 256).activations
        infer = inference_memory(mob, 1).activations
        assert train > 20 * infer


class TestUnitMemory:
    def test_aux_head_increases_footprint(self, vgg, vgg_aux):
        spec = vgg.local_layers()[0]
        with_aux = local_unit_training_memory(spec, vgg_aux[0], 8).total
        without = local_unit_training_memory(spec, None, 8).total
        assert with_aux > without

    def test_ll_needs_aux_per_layer(self, vgg, vgg_aux):
        with pytest.raises(ShapeError):
            ll_training_memory(vgg, vgg_aux[:-1], 8)

    def test_ll_bad_residency(self, vgg, vgg_aux):
        with pytest.raises(ConfigError):
            ll_training_memory(vgg, vgg_aux, 8, residency="hybrid")

    def test_unit_less_than_bp(self, vgg, vgg_aux):
        # A single unit (NeuroFlux's working set) is far below BP's.
        spec = vgg.local_layers()[0]
        unit = local_unit_training_memory(spec, vgg_aux[0], 16).total
        bp = bp_training_memory(vgg, 16).total
        assert unit < bp

    def test_zero_batch_raises_in_estimator_and_profiler(self, vgg, vgg_aux):
        from repro.core.profiler import measure_unit_memory

        spec = vgg.local_layers()[0]
        with pytest.raises(ConfigError):
            local_unit_training_memory(spec, vgg_aux[0], 0)
        with pytest.raises(ConfigError):
            measure_unit_memory(spec, vgg_aux[0], 0)

    def test_retained_bytes_requires_known_op(self):
        class Strange:
            pass

        from repro.memory import retained_bytes

        with pytest.raises(ShapeError):
            retained_bytes(Strange(), (1, 1, 2, 2), (1, 1, 2, 2))


class TestSimulatedGpu:
    def test_alloc_free_cycle(self):
        gpu = SimulatedGpu(budget_bytes=10_000)
        h = gpu.alloc(1000, "x")
        assert gpu.in_use == 1024  # 512-byte alignment
        gpu.free(h)
        assert gpu.in_use == 0
        assert gpu.peak == 1024

    def test_budget_enforced(self):
        gpu = SimulatedGpu(budget_bytes=1024)
        gpu.alloc(512)
        with pytest.raises(MemoryBudgetExceeded):
            gpu.alloc(1024)

    def test_oom_error_details(self):
        gpu = SimulatedGpu(budget_bytes=100)
        with pytest.raises(MemoryBudgetExceeded) as exc:
            gpu.alloc(1000, "weights")
        assert exc.value.budget == 100
        assert "weights" in str(exc.value)

    def test_budget_rounds_up_to_block_granularity(self):
        # A request of exactly the (unaligned) budget is admissible: the
        # allocator works in whole blocks.
        gpu = SimulatedGpu(budget_bytes=100)
        handle = gpu.alloc(100)
        gpu.free(handle)

    def test_double_free_raises(self):
        gpu = SimulatedGpu()
        h = gpu.alloc(10)
        gpu.free(h)
        with pytest.raises(ConfigError):
            gpu.free(h)

    def test_peak_tracks_high_water(self):
        gpu = SimulatedGpu()
        h1 = gpu.alloc(512)
        h2 = gpu.alloc(512)
        gpu.free(h1)
        gpu.free(h2)
        gpu.alloc(512)
        assert gpu.peak == 1024

    def test_base_reserved(self):
        gpu = SimulatedGpu(budget_bytes=2048, base_reserved=1024)
        assert gpu.in_use == 1024
        with pytest.raises(MemoryBudgetExceeded):
            gpu.alloc(2048)

    def test_measure_peak_releases_everything(self):
        gpu = SimulatedGpu()
        peak = measure_peak([("a", 1000), ("b", 2000)], gpu)
        assert peak >= 3000
        assert gpu.in_use == 0

    def test_measure_peak_releases_everything_on_overflow(self):
        gpu = SimulatedGpu(budget_bytes=1024)
        with pytest.raises(MemoryBudgetExceeded):
            measure_peak([("a", 512), ("b", 2048)], gpu)
        assert gpu.in_use == 0
        gpu.free(gpu.alloc(1024))  # the whole budget is free again

    def test_negative_alloc_raises(self):
        with pytest.raises(ConfigError):
            SimulatedGpu().alloc(-1)

    @settings(deadline=None, max_examples=30)
    @given(sizes=st.lists(st.integers(0, 10_000), min_size=1, max_size=20))
    def test_peak_equals_sum_when_no_frees(self, sizes):
        gpu = SimulatedGpu()
        for s in sizes:
            gpu.alloc(s)
        aligned = sum(-(-s // 512) * 512 for s in sizes)
        assert gpu.peak == aligned
