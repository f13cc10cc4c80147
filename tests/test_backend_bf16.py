"""bf16 weight emulation: truncation numerics, storage accounting, training."""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.bf16 import (
    BF16_BYTES,
    BF16_REL_ERROR_BOUND,
    Bf16WeightOptimizer,
    bf16_roundtrip,
    enable_bf16_weights,
    from_bf16,
    is_bf16,
    pack_bf16_state,
    to_bf16,
    truncate_bf16_,
    unpack_bf16_state,
)
from repro.models.zoo import build_model
from repro.nn import Linear, make_optimizer


class TestTruncationNumerics:
    def test_round_trip_error_bound(self):
        """Truncation changes a normal fp32 value by < 2**-7 relative."""
        rng = np.random.default_rng(0)
        x = np.concatenate(
            [
                rng.standard_normal(4096).astype(np.float32),
                (10.0 ** rng.uniform(-30, 30, 4096)).astype(np.float32),
            ]
        )
        rt = bf16_roundtrip(x)
        rel = np.abs(rt - x) / np.abs(x)
        assert float(rel.max()) < BF16_REL_ERROR_BOUND

    def test_wire_format_is_uint16(self):
        x = np.random.default_rng(1).standard_normal((3, 4)).astype(np.float32)
        u = to_bf16(x)
        assert u.dtype == np.uint16
        assert u.itemsize == BF16_BYTES
        assert np.array_equal(from_bf16(u), bf16_roundtrip(x).reshape(-1).reshape(3, 4))

    def test_truncate_is_idempotent(self):
        """bf16-representable values are the fixed points of truncation."""
        x = np.random.default_rng(2).standard_normal(1024).astype(np.float32)
        once = truncate_bf16_(x.copy())
        twice = truncate_bf16_(once.copy())
        assert np.array_equal(once, twice)

    def test_truncate_matches_roundtrip(self):
        x = np.random.default_rng(3).standard_normal((8, 8)).astype(np.float32)
        assert np.array_equal(truncate_bf16_(x.copy()), bf16_roundtrip(x))

    def test_truncate_non_contiguous_fallback(self):
        x = np.random.default_rng(4).standard_normal((8, 8)).astype(np.float32)
        view = x[:, ::2]
        expected = bf16_roundtrip(view)
        truncate_bf16_(view)
        assert np.array_equal(view, expected)

    def test_exact_values_preserved(self):
        """Powers of two and zero are bf16-representable exactly."""
        x = np.array([0.0, 1.0, -2.0, 0.5, 1024.0], dtype=np.float32)
        assert np.array_equal(bf16_roundtrip(x), x)

    def test_state_pack_round_trip(self):
        rng = np.random.default_rng(5)
        state = {
            "weight": truncate_bf16_(rng.standard_normal((4, 3)).astype(np.float32)),
            "bias": truncate_bf16_(rng.standard_normal(4).astype(np.float32)),
        }
        unpacked = unpack_bf16_state(pack_bf16_state(state))
        for key, value in state.items():
            assert unpacked[key].shape == value.shape
            assert np.array_equal(unpacked[key], value)


class TestStorageAccounting:
    def test_enable_marks_and_truncates(self, small_vgg):
        n_params = len(small_vgg.parameters())
        converted = enable_bf16_weights(small_vgg)
        assert converted == n_params
        for p in small_vgg.parameters():
            assert is_bf16(p)
            assert np.array_equal(p.data, bf16_roundtrip(p.data))

    def test_parameter_bytes_halve(self, small_vgg):
        fp32_bytes = small_vgg.parameter_bytes()
        enable_bf16_weights(small_vgg)
        assert small_vgg.parameter_bytes() == fp32_bytes // 2

    def test_gradient_bytes_stay_full_precision(self, small_vgg):
        grads_before = small_vgg.gradient_bytes()
        enable_bf16_weights(small_vgg)
        assert small_vgg.gradient_bytes() == grads_before

    def test_block_weight_memory_drops_at_least_35pct(self, small_vgg):
        """The acceptance floor: a vgg11 block's resident weight bytes
        drop >= 35% (exactly 50% under 2-byte storage)."""
        spec = small_vgg.local_layers()[0]
        before = spec.module.parameter_bytes()
        enable_bf16_weights(small_vgg)
        after = spec.module.parameter_bytes()
        assert after <= 0.65 * before
        assert after == before // 2

    def test_unit_plan_optimizer_sized_from_fp32_grads(self, small_vgg):
        """A unit's tensor list: params line halves, grads/optimizer lines do not."""
        from repro.core.auxiliary import build_aux_heads
        from repro.memory.estimator import local_unit_tensors_by_batch

        aux = build_aux_heads(small_vgg, rule="classic", classic_filters=32, seed=0)
        spec = small_vgg.local_layers()[0]
        plan_fp32 = dict(local_unit_tensors_by_batch(spec, aux[0])(8))
        enable_bf16_weights(small_vgg, *aux)
        plan_bf16 = dict(local_unit_tensors_by_batch(spec, aux[0])(8))
        assert plan_bf16["params"] == plan_fp32["params"] // 2
        assert plan_bf16["grads"] == plan_fp32["grads"]
        assert plan_bf16["optimizer"] == plan_fp32["optimizer"]

    def test_every_footprint_sizes_gradients_from_fp32(self):
        """One gradient rule: the estimator's breakdowns charge a bf16
        model's gradients and optimizer state at fp32, as the Profiler's
        allocations do."""
        from repro.core.auxiliary import build_aux_heads
        from repro.memory.estimator import bp_training_memory, local_unit_training_memory

        model = build_model("vgg11", num_classes=10, width_multiplier=0.25)
        heads = build_aux_heads(model, rule="aan")
        enable_bf16_weights(model, *heads)
        unit = local_unit_training_memory(model.local_layers()[0], heads[0], 8)
        assert (unit.parameters, unit.gradients, unit.optimizer) == (8_244, 16_488, 16_488)
        bp = bp_training_memory(model, 8)
        assert bp.gradients == bp.optimizer == model.gradient_bytes() == 2 * bp.parameters


class TestBf16WeightOptimizer:
    def _linear(self, seed=0):
        layer = Linear(6, 4, rng=np.random.default_rng(seed))
        enable_bf16_weights(layer)
        return layer

    def test_step_keeps_weights_bf16_representable(self):
        layer = self._linear()
        opt = Bf16WeightOptimizer(
            make_optimizer("sgd-momentum", layer.parameters(), lr=0.05)
        )
        rng = np.random.default_rng(1)
        for _ in range(5):
            for p in layer.parameters():
                p.grad[...] = rng.standard_normal(p.grad.shape)
            opt.step()
            opt.zero_grad()
        for p in layer.parameters():
            assert np.array_equal(p.data, bf16_roundtrip(p.data))

    def test_momentum_state_stays_fp32(self):
        layer = self._linear()
        inner = make_optimizer("sgd-momentum", layer.parameters(), lr=0.05)
        opt = Bf16WeightOptimizer(inner)
        rng = np.random.default_rng(2)
        for p in layer.parameters():
            p.grad[...] = rng.standard_normal(p.grad.shape)
        opt.step()
        state = opt.state_dict()
        # At least one momentum buffer must carry low mantissa bits --
        # i.e. the optimizer state was NOT truncated alongside weights.
        flat = np.concatenate([np.ravel(v) for v in state.values()])
        assert flat.dtype == np.float32
        assert not np.array_equal(flat, bf16_roundtrip(flat))
        assert opt.state_bytes() == inner.state_bytes()

    def test_delegation(self):
        layer = self._linear()
        inner = make_optimizer("sgd-momentum", layer.parameters(), lr=0.05)
        opt = Bf16WeightOptimizer(inner)
        assert opt.params is inner.params
        assert opt.lr == inner.lr
        opt.lr = 0.01
        assert inner.lr == 0.01
        restored = make_optimizer("sgd-momentum", layer.parameters(), lr=0.01)
        restored.load_state_dict(opt.state_dict())

    def test_non_bf16_params_left_alone(self):
        layer = Linear(6, 4, rng=np.random.default_rng(3))
        reference = [p.data.copy() for p in layer.parameters()]
        opt = Bf16WeightOptimizer(make_optimizer("sgd", layer.parameters(), lr=0.05))
        for p in layer.parameters():
            p.grad[...] = 0.0
        opt.step()  # zero grads, no bf16 storage: weights must be untouched
        for p, ref in zip(layer.parameters(), reference):
            assert np.array_equal(p.data, ref)


class TestBf16Training:
    def _system(self, tiny_dataset, bf16: bool):
        from repro.backend import ComputeConfig
        from repro.core.config import NeuroFluxConfig
        from repro.core.controller import NeuroFlux

        return NeuroFlux(
            build_model(
                "vgg11",
                num_classes=4,
                input_hw=(16, 16),
                width_multiplier=0.125,
                seed=3,
            ),
            tiny_dataset,
            memory_budget=16 * 2**20,
            config=NeuroFluxConfig(batch_limit=64, seed=0),
            compute=ComputeConfig(bf16_weights=bf16),
        )

    def test_reported_peak_memory_drops(self, tiny_dataset):
        fp32 = self._system(tiny_dataset, bf16=False).run(1)
        bf16 = self._system(tiny_dataset, bf16=True).run(1)
        assert bf16.result.peak_memory_bytes < fp32.result.peak_memory_bytes

    def test_accuracy_within_half_point(self, tiny_dataset):
        fp32 = self._system(tiny_dataset, bf16=False).run(2)
        bf16 = self._system(tiny_dataset, bf16=True).run(2)
        assert abs(bf16.exit_test_accuracy - fp32.exit_test_accuracy) <= 0.10

    def test_trained_weights_stay_truncated(self, tiny_dataset):
        system = self._system(tiny_dataset, bf16=True)
        system.run(1)
        for p in system.model.parameters():
            assert is_bf16(p)
            assert np.array_equal(p.data, bf16_roundtrip(p.data))
