"""Tests for repro.perf: BufferPool, Workspace, and module attachment."""

import numpy as np
import pytest
from helpers import BASELINE_TRAINERS

from repro.models.zoo import build_model
from repro.nn import Conv2d, Sequential
from repro.perf import BufferPool, Workspace


class TestBufferPool:
    def test_acquire_allocates_then_recycles(self):
        pool = BufferPool()
        a = pool.acquire((4, 3), np.float32)
        assert a.shape == (4, 3) and a.dtype == np.float32
        assert pool.misses == 1 and pool.hits == 0
        pool.release(a)
        b = pool.acquire((4, 3), np.float32)
        assert b is a
        assert pool.hits == 1

    def test_shape_and_dtype_keyed(self):
        pool = BufferPool()
        a = pool.acquire((4, 3), np.float32)
        pool.release(a)
        assert pool.acquire((3, 4), np.float32) is not a
        assert pool.acquire((4, 3), np.float64) is not a

    def test_bytes_accounting(self):
        pool = BufferPool()
        a = pool.acquire((8,), np.float32)
        assert pool.bytes_allocated == 32
        assert pool.bytes_pooled == 0
        pool.release(a)
        assert pool.bytes_pooled == 32
        pool.clear()
        assert pool.bytes_pooled == 0

    def test_stats_keys(self):
        stats = BufferPool().stats()
        assert set(stats) == {"hits", "misses", "bytes_allocated", "bytes_pooled"}


class TestWorkspace:
    def test_slot_is_stable_while_shape_holds(self):
        ws = Workspace()
        a, fresh_a = ws.get("x", (2, 2), np.float32)
        b, fresh_b = ws.get("x", (2, 2), np.float32)
        assert a is b
        assert fresh_a and not fresh_b

    def test_slot_rotates_on_shape_change(self):
        pool = BufferPool()
        ws = Workspace(pool)
        a, _ = ws.get("x", (2, 2), np.float32)
        b, fresh = ws.get("x", (3, 3), np.float32)
        assert fresh and b.shape == (3, 3)
        # The old buffer went back to the pool and is reused on re-request.
        c, _ = ws.get("y", (2, 2), np.float32)
        assert c is a

    def test_zeros_clears_every_call(self):
        ws = Workspace()
        a = ws.zeros("z", (3,), np.float32)
        a += 5
        assert ws.zeros("z", (3,), np.float32).sum() == 0

    def test_release_returns_slots_to_pool(self):
        pool = BufferPool()
        ws = Workspace(pool)
        ws.buf("a", (4,), np.float32)
        ws.buf("b", (4,), np.float32)
        assert len(ws) == 2
        ws.release()
        assert len(ws) == 0
        assert pool.bytes_pooled == 32


class TestModuleAttachment:
    def test_attach_detach_walks_children(self):
        model = build_model("vgg11", width_multiplier=0.125, input_hw=(8, 8))
        model.attach_workspace()
        pools = {m.workspace.pool for m in model.modules()}
        assert len(pools) == 1  # one shared pool
        model.detach_workspace()
        assert all(m.workspace is None for m in model.modules())

    def test_workspace_reuse_is_bitwise_identical(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        g = rng.standard_normal((2, 4, 8, 8)).astype(np.float32)
        plain = Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(1))
        pooled = Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(1))
        pooled.attach_workspace()
        for _ in range(3):  # repeat so buffers are actually reused
            ya = plain.forward(x)
            yb = pooled.forward(x)
            np.testing.assert_array_equal(ya, yb)
            plain.zero_grad()
            pooled.zero_grad()
            np.testing.assert_array_equal(plain.backward(g), pooled.backward(g))
            np.testing.assert_array_equal(plain.weight.grad, pooled.weight.grad)

    @pytest.fixture(params=BASELINE_TRAINERS)
    def trainer(self, request):
        from dataclasses import replace

        import repro.training
        from repro.data.registry import dataset_spec

        spec = dataset_spec("cifar10", num_classes=2, image_hw=(8, 8), seed=0)
        data = replace(spec, n_train=64, n_val=16, n_test=16).materialize()
        model = build_model("vgg11", num_classes=2, input_hw=(8, 8), width_multiplier=0.125)
        # Four steps an epoch for every trainer: a budget that fits 16
        # samples, and for microbatching a logical batch of as many.
        extra = {"logical_batch": 16} if request.param == "MicrobatchTrainer" else {}
        trainer = getattr(repro.training, request.param)(model, data, **extra)
        trainer.memory_budget = trainer.memory_at_batch(16)
        return trainer

    @staticmethod
    def _pooled_modules(trainer):
        heads = [aux for aux in trainer.aux_heads if aux is not None]
        return [m for root in (trainer.model, *heads) for m in root.modules()]

    def test_trainer_detaches_after_run(self, trainer):
        trainer.train(epochs=1)
        modules = self._pooled_modules(trainer)
        assert modules and all(m.workspace is None for m in modules)

    def test_trainer_detaches_when_a_step_raises(self, trainer, monkeypatch):
        """The frame attaches one pool to the model and every aux head and
        must hand all of it back when training dies mid-epoch."""
        real_step = type(trainer).step
        seen = []

        def step(xb, yb):
            # The first step of the epoch trains; the second one dies.
            if seen:
                assert all(m.workspace is not None for m in self._pooled_modules(trainer))
                raise RuntimeError("loss blew up")
            seen.append(len(xb))
            return real_step(trainer, xb, yb)

        monkeypatch.setattr(trainer, "step", step)
        with pytest.raises(RuntimeError, match="loss blew up"):
            trainer.train(epochs=1)
        assert seen == [16]
        assert all(m.workspace is None for m in self._pooled_modules(trainer))


class TestSequentialNeedInputGrad:
    def test_skip_returns_none_but_accumulates_param_grads(self):
        rng = np.random.default_rng(0)
        a = Sequential(Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(1)))
        b = Sequential(Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(1)))
        x = rng.standard_normal((2, 3, 6, 6)).astype(np.float32)
        g = rng.standard_normal((2, 4, 6, 6)).astype(np.float32)
        a.forward(x)
        b.forward(x)
        assert a.backward(g) is not None
        assert b.backward(g, need_input_grad=False) is None
        np.testing.assert_array_equal(
            a.layers[0].weight.grad, b.layers[0].weight.grad
        )

    @pytest.mark.parametrize("fused", [False, True])
    def test_model_backward_flag(self, fused):
        model = build_model(
            "vgg11", width_multiplier=0.125, input_hw=(8, 8),
            batch_norm=False, fused=fused,
        )
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        logits = model.forward(x)
        g = rng.standard_normal(logits.shape).astype(np.float32)
        assert model.backward(g, need_input_grad=False) is None
        model.forward(x)
        dx = model.backward(g)
        assert dx is not None and dx.shape == x.shape
