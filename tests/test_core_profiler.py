"""Tests for the NeuroFlux Profiler (linear memory models)."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auxiliary import build_aux_heads
from repro.core.profiler import LinearMemoryModel, MemoryProfiler, measure_unit_memory
from repro.errors import ProfilingError
from repro.memory.estimator import local_unit_tensors_by_batch, local_unit_training_memory
from repro.memory.tracker import ALLOCATOR_ALIGNMENT
from repro.models import build_model


@pytest.fixture(scope="module")
def profiled():
    model = build_model("vgg11", num_classes=10, input_hw=(32, 32), width_multiplier=0.25)
    heads = build_aux_heads(model, rule="aan")
    profiler = MemoryProfiler(model.local_layers(), list(heads))
    return model, heads, profiler.profile()


@functools.lru_cache(maxsize=None)
def _units(name: str, rule: str):
    """``(spec, head)`` of every unit of a width-0.25 model under a head rule."""
    model = build_model(name, num_classes=10, width_multiplier=0.25)
    specs = model.local_layers()
    heads = [None] * len(specs) if rule == "none" else build_aux_heads(model, rule=rule)
    return list(zip(specs, heads))


class TestLinearMemoryModel:
    def test_predict(self):
        m = LinearMemoryModel(slope=100.0, intercept=50.0, r_squared=1.0)
        assert m.predict(10) == 1050.0

    def test_max_batch(self):
        m = LinearMemoryModel(slope=100.0, intercept=50.0, r_squared=1.0)
        assert m.max_batch(1050) == 10
        assert m.max_batch(1049) == 9
        assert m.max_batch(10) == 0

    def test_nonpositive_slope_raises(self):
        with pytest.raises(ProfilingError):
            LinearMemoryModel(slope=0.0, intercept=1.0, r_squared=1.0).max_batch(100)


class TestMeasurement:
    def test_plan_components_nonnegative(self, profiled):
        model, heads, _ = profiled
        spec = model.local_layers()[0]
        plan = local_unit_tensors_by_batch(spec, heads[0])(8)
        assert all(nbytes >= 0 for _, nbytes in plan)
        tags = [t for t, _ in plan]
        assert "params" in tags and "input" in tags and "conv-workspace" in tags

    @settings(deadline=None, max_examples=40)
    @given(
        name=st.sampled_from(["vgg11", "resnet18", "mobilenet"]),
        rule=st.sampled_from(["aan", "classic", "none"]),
        layer=st.integers(0, 63),
        batch=st.integers(1, 128),
        optimizer=st.sampled_from(["sgd", "sgd-momentum", "adam"]),
    )
    def test_measured_close_to_analytic(self, name, rule, layer, batch, optimizer):
        """The Profiler measures exactly the estimator's model: the
        breakdown's total is the unit's tensor list summed, the measured
        peak the same list with each tensor rounded up to an allocator
        block."""
        units = _units(name, rule)
        spec, head = units[layer % len(units)]
        plan = local_unit_tensors_by_batch(spec, head, optimizer)(batch)
        analytic = local_unit_training_memory(spec, head, batch, optimizer).total
        assert analytic == sum(nbytes for _, nbytes in plan)
        block = ALLOCATOR_ALIGNMENT
        assert measure_unit_memory(spec, head, batch, optimizer) == sum(
            -(-nbytes // block) * block for _, nbytes in plan
        )

    def test_measurement_monotone_in_batch(self, profiled):
        model, heads, _ = profiled
        spec = model.local_layers()[0]
        peaks = [measure_unit_memory(spec, heads[0], b) for b in (4, 8, 16, 32)]
        assert peaks == sorted(peaks)


class TestProfile:
    def test_one_model_per_layer(self, profiled):
        model, _, result = profiled
        assert len(result) == model.num_local_layers

    def test_fits_are_near_perfectly_linear(self, profiled):
        """Figure 8's observation: layer memory is linear in batch size."""
        _, _, result = profiled
        for lm in result.models:
            assert lm.r_squared > 0.999

    def test_predictions_match_fresh_measurements(self, profiled):
        model, heads, result = profiled
        spec = model.local_layers()[2]
        lm = result.models[2]
        measured = measure_unit_memory(spec, heads[2], 48)  # not a sample point
        assert abs(lm.predict(48) - measured) / measured < 0.01

    def test_profiling_flops_positive(self, profiled):
        _, _, result = profiled
        assert result.profiling_flops > 0

    def test_requires_two_sample_batches(self, profiled):
        model, heads, _ = profiled
        with pytest.raises(ProfilingError):
            MemoryProfiler(model.local_layers(), list(heads), sample_batches=(8,))

    def test_mismatched_heads_raise(self, profiled):
        model, heads, _ = profiled
        with pytest.raises(ProfilingError):
            MemoryProfiler(model.local_layers(), list(heads[:-1]))

    def test_early_layer_slope_exceeds_late(self, profiled):
        """The per-batch memory cost of initial layers dominates (Fig 5/8)."""
        _, _, result = profiled
        slopes = [m.slope for m in result.models]
        assert max(slopes[:3]) > slopes[-1]
