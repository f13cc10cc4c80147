"""Tests for repro.perf: the capacity-keyed Workspace and module attachment."""

import numpy as np
import pytest
from helpers import BASELINE_TRAINERS
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auxiliary import AuxiliaryHead
from repro.models.layers import conv_unit
from repro.models.zoo import build_model
from repro.nn import (
    Conv2d,
    CrossEntropyLoss,
    DepthwiseConv2d,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn.module import run_backward
from repro.perf import Workspace


class TestWorkspace:
    def test_slot_is_stable_while_shape_holds(self):
        ws = Workspace()
        a, fresh_a = ws.get("x", (2, 2), np.float32)
        b, fresh_b = ws.get("x", (2, 2), np.float32)
        assert a is b
        assert fresh_a and not fresh_b
        a[...] = 7  # contents persist with the view
        assert ws.get("x", (2, 2), np.float32)[0].sum() == 28

    def test_every_shape_or_dtype_change_is_fresh(self):
        ws = Workspace()
        seen = []
        for shape, dtype in [
            ((4, 4), np.float32),  # first use
            ((2, 4), np.float32),  # shrink
            ((4, 4), np.float32),  # back to an earlier shape
            ((16,), np.float32),  # same bytes, other layout
            ((16,), np.int32),  # same layout, other dtype
            ((5, 5), np.float32),  # grow
        ]:
            view, fresh = ws.get("x", shape, dtype)
            assert fresh
            assert view.shape == shape and view.dtype == dtype
            assert view.flags.c_contiguous and view.flags.writeable
            assert not any(view is old for old in seen)
            assert ws.get("x", shape, dtype)[1] is False
            seen.append(view)

    def test_growing_reallocates_once_and_shrinking_never(self):
        ws = Workspace()
        small, _ = ws.get("x", (8,), np.float32)
        assert ws.nbytes == 32
        big, _ = ws.get("x", (20,), np.float32)
        assert ws.nbytes == 80
        assert not np.shares_memory(small, big)  # the one reallocation
        for n in (12, 20, 1, 19, 20):
            view, _ = ws.get("x", (n,), np.float32)
            assert np.shares_memory(view, big)  # same bytes ever after
            assert ws.nbytes == 80

    @given(
        requests=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c"]),
                st.integers(0, 40),
                st.sampled_from([np.float32, np.float64, np.bool_, np.int64]),
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_nbytes_is_the_largest_request_per_slot(self, requests):
        ws = Workspace()
        largest: dict[str, int] = {}
        held = 0
        for name, n, dtype in requests:
            view, _ = ws.get(name, (n, 3), dtype)
            assert view.nbytes == n * 3 * np.dtype(dtype).itemsize
            largest[name] = max(largest.get(name, 0), view.nbytes)
            assert ws.nbytes >= held  # non-decreasing in requests
            held = ws.nbytes
            assert held == sum(largest.values())
        assert len(ws) == len(largest)

    def test_slots_do_not_alias_each_other(self):
        ws = Workspace()
        a = ws.buf("a", (4,), np.float32)
        b = ws.buf("b", (4,), np.float32)
        assert not np.shares_memory(a, b)
        assert len(ws) == 2 and ws.nbytes == 32

    def test_zeros_clears_every_call(self):
        ws = Workspace()
        a = ws.zeros("z", (3,), np.float32)
        a += 5
        assert ws.zeros("z", (3,), np.float32).sum() == 0

    def test_another_user_in_between_makes_the_slot_fresh(self):
        ws = Workspace()
        a, b = object(), object()
        view, fresh = ws.get("x", (4,), np.float32, a)
        assert fresh
        assert ws.get("x", (4,), np.float32, a) == (view, False)
        # Same shape and dtype, but b may have left anything there.
        assert ws.get("x", (4,), np.float32, b) == (view, True)
        assert ws.get("x", (4,), np.float32, b)[1] is False
        assert ws.get("x", (4,), np.float32, a)[1] is True
        assert ws.nbytes == 16


def _twin_units(batch_norm: bool):
    """A pooled ``conv_unit`` + ``AuxiliaryHead`` and an unpooled twin."""
    twins = []
    for _ in range(2):
        unit = conv_unit(
            3, 4, batch_norm=batch_norm, pool=2, rng=np.random.default_rng(1)
        )
        head = AuxiliaryHead(4, 5, 3, (4, 4), kernel_size=3, rng=np.random.default_rng(2))
        twins.append((unit, head))
    for module in twins[0]:
        module.attach_workspace()
    return twins


class TestModuleAttachment:
    def test_attach_detach_walks_children(self):
        model = build_model("vgg11", width_multiplier=0.125, input_hw=(8, 8))
        model.attach_workspace()
        spaces = [m.workspace for m in model.modules()]
        assert all(ws is not None for ws in spaces)
        assert len({id(ws) for ws in spaces}) == len(spaces)  # one each, unshared
        model.forward(np.zeros((2, 3, 8, 8), np.float32))
        assert sum(ws.nbytes for ws in spaces) > 0
        model.detach_workspace()
        assert all(m.workspace is None for m in model.modules())

    def test_padded_conv_survives_a_smaller_batch_in_between(self):
        """20 -> 12 -> 20 re-views the same bytes twice; a padding border
        not re-zeroed after either change would show in the output."""
        rng = np.random.default_rng(0)
        plain = Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(1))
        pooled = Conv2d(3, 4, 3, padding=1, rng=np.random.default_rng(1))
        pooled.attach_workspace()
        for n in (20, 12, 20):
            x = rng.standard_normal((n, 3, 8, 8)).astype(np.float32) + 3.0
            g = rng.standard_normal((n, 4, 8, 8)).astype(np.float32)
            np.testing.assert_array_equal(plain.forward(x), pooled.forward(x))
            plain.zero_grad()
            pooled.zero_grad()
            np.testing.assert_array_equal(plain.backward(g), pooled.backward(g))
            np.testing.assert_array_equal(plain.weight.grad, pooled.weight.grad)
            np.testing.assert_array_equal(plain.bias.grad, pooled.bias.grad)

    @pytest.mark.parametrize(
        "make,x_shape",
        [
            (lambda: Conv2d(3, 5, 3, padding=1, rng=np.random.default_rng(7)), (2, 3, 6, 6)),
            (lambda: Linear(6, 5, rng=np.random.default_rng(7)), (2, 6)),
        ],
        ids=["conv", "linear"],
    )
    def test_reseeded_feedback_is_honored_with_warm_workspace(self, make, x_shape):
        """A backward with warm workspace slots must not reuse anything
        of the feedback weights it replaced."""
        rng = np.random.default_rng(4)
        layer = make().attach_workspace()
        layer.enable_feedback_alignment(np.random.default_rng(1))
        x = rng.standard_normal(x_shape).astype(np.float32)
        g = rng.standard_normal(layer.forward(x).shape).astype(np.float32)
        layer.backward(g)  # warms every backward slot
        layer.enable_feedback_alignment(np.random.default_rng(2))
        layer.forward(x)
        dx = layer.backward(g)
        fresh = make()
        fresh.enable_feedback_alignment(np.random.default_rng(2))
        fresh.forward(x)
        np.testing.assert_array_equal(dx, fresh.backward(g))

    @pytest.mark.parametrize("batch_norm", [True, False])
    @given(
        steps=st.lists(
            st.tuples(st.integers(1, 9), st.booleans()), min_size=2, max_size=8
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_unit_and_head_match_unpooled_twin_over_any_batch_sequence(
        self, batch_norm, steps
    ):
        """Random batch sizes and train/eval modes: forward, and after a
        training step every weight and bias gradient, bit-equal."""
        (unit, head), (unit_ref, head_ref) = _twin_units(batch_norm)
        rng = np.random.default_rng(3)
        loss_fn = CrossEntropyLoss()
        for n, training in steps:
            x = rng.standard_normal((n, 3, 8, 8)).astype(np.float32)
            y = rng.integers(0, 3, size=n)
            logits = []
            for u, h in ((unit, head), (unit_ref, head_ref)):
                u.train(training)
                h.train(training)
                u.zero_grad()
                h.zero_grad()
                out = u.forward(x)
                z = h.forward(out)
                logits.append((out, z))
                if training:
                    loss_fn(z, y)
                    dout = h.backward(loss_fn.backward())
                    run_backward(u, dout, need_input_grad=False)
            np.testing.assert_array_equal(logits[0][0], logits[1][0])
            np.testing.assert_array_equal(logits[0][1], logits[1][1])
            for module, ref in ((unit, unit_ref), (head, head_ref)):
                for (name, p), (_, q) in zip(
                    module.named_parameters(), ref.named_parameters()
                ):
                    np.testing.assert_array_equal(p.grad, q.grad, err_msg=name)

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


def _second_forward_cases():
    """Every workspace-using module, at geometries down to a 1x1 output."""
    rng = np.random.default_rng
    return {
        "conv-1x1-out": (lambda: Conv2d(4, 8, 3, padding=1, rng=rng(1)), (2, 4, 1, 1)),
        "conv": (lambda: Conv2d(4, 8, 3, padding=1, rng=rng(1)), (2, 4, 5, 5)),
        # A 1x1 map has nothing to pool: that unit stops at its ReLU.
        "unit-1x1-out": (
            lambda: conv_unit(4, 8, batch_norm=False, rng=rng(1)), (2, 4, 1, 1)
        ),
        "unit-pooled-1x1-out": (
            lambda: conv_unit(4, 8, batch_norm=False, pool=2, rng=rng(1)), (2, 4, 2, 2)
        ),
        "unit-pooled": (
            lambda: conv_unit(4, 8, batch_norm=False, pool=2, rng=rng(1)), (2, 4, 4, 4)
        ),
        # The unit every VGG stage trains: conv, batch norm, ReLU, pool.
        "unit-bn-pooled": (lambda: conv_unit(4, 8, pool=2, rng=rng(1)), (2, 4, 4, 4)),
        # Conv, adaptive pool and linear sharing one arena.
        "aux-head": (
            lambda: AuxiliaryHead(4, 5, 3, (4, 4), kernel_size=3, rng=rng(1)),
            (2, 4, 4, 4),
        ),
        "depthwise-1x1-out": (
            lambda: DepthwiseConv2d(4, 3, padding=1, rng=rng(1)), (2, 4, 1, 1)
        ),
        "maxpool-tiled-1x1-out": (lambda: MaxPool2d(2), (2, 4, 2, 2)),
        "maxpool-generic": (lambda: MaxPool2d(3, stride=2), (2, 4, 5, 5)),
        "linear": (lambda: Linear(6, 3, rng=rng(1)), (2, 6)),
    }


class TestArena:
    def test_pool_binds_each_position_to_one_workspace(self):
        a = Sequential(Conv2d(3, 4, 3, padding=1), ReLU())
        b = Sequential(Conv2d(4, 6, 3), ReLU(), MaxPool2d(2))
        pool: dict[int, Workspace] = {}
        a.attach_workspace(pool)
        b.attach_workspace(pool)
        assert sorted(pool) == [0, 1, 2, 3]
        for i, module in enumerate(b.modules()):
            assert module.workspace is pool[i]
        for i, module in enumerate(a.modules()):
            assert module.workspace is pool[i]
        a.detach_workspace()
        assert all(m.workspace is None for m in a.modules())
        assert all(m.workspace is pool[i] for i, m in enumerate(b.modules()))

    @pytest.mark.parametrize("case", sorted(_second_forward_cases()))
    @pytest.mark.parametrize("training", [True, False])
    def test_a_second_forward_leaves_the_first_result_unchanged(self, case, training):
        make, shape = _second_forward_cases()[case]
        module = make().attach_workspace().train(training)
        rng = np.random.default_rng(0)
        x1 = rng.standard_normal(shape).astype(np.float32)
        x2 = rng.standard_normal(shape).astype(np.float32)
        y1 = module.forward(x1)
        kept = y1.copy()
        module.forward(x2)
        np.testing.assert_array_equal(y1, kept)

    @staticmethod
    def _block(pooled: bool):
        """Three units a block could hold, chained, each with its head:
        a padded 3x3 conv, an unpadded one with another C, and a padded
        5x5 one whose padded input has the first's shape but a wider
        zero border."""
        rng = np.random.default_rng
        layers = [
            Sequential(Conv2d(3, 4, 3, padding=1, rng=rng(1)), ReLU()),
            Sequential(Conv2d(4, 3, 3, padding=0, rng=rng(2)), ReLU()),
            Sequential(Conv2d(3, 4, 5, padding=2, rng=rng(3)), ReLU()),
        ]
        heads = [
            AuxiliaryHead(4, 5, 3, (8, 8), kernel_size=3, rng=rng(4)),
            AuxiliaryHead(3, 5, 3, (6, 6), kernel_size=3, rng=rng(5)),
            AuxiliaryHead(4, 5, 3, (6, 6), kernel_size=3, rng=rng(6)),
        ]
        layer_pool, head_pool = ({}, {}) if pooled else (None, None)
        for layer, head in zip(layers, heads):
            layer.attach_workspace(layer_pool)
            head.attach_workspace(head_pool)
        return layers, heads

    @given(
        steps=st.lists(
            st.tuples(st.integers(1, 6), st.booleans()), min_size=3, max_size=8
        )
    )
    @settings(max_examples=15, deadline=None)
    def test_units_of_different_geometry_share_one_pool(self, steps):
        """The block step of ``BlockWorker.train_batch`` over any batch
        sequence: shared slots stay bit-equal to every unit's own."""
        blocks = [self._block(pooled=True), self._block(pooled=False)]
        rng = np.random.default_rng(7)
        loss_fn = CrossEntropyLoss()
        for n, training in steps:
            x0 = rng.standard_normal((n, 3, 8, 8)).astype(np.float32) + 2.0
            y = rng.integers(0, 3, size=n)
            seen = []
            for layers, heads in blocks:
                x, outs = x0, []
                for layer, head in zip(layers, heads):
                    layer.train(training)
                    head.train(training)
                    layer.zero_grad()
                    head.zero_grad()
                    out = layer.forward(x)
                    z = head.forward(out)
                    if training:
                        loss_fn(z, y)
                        run_backward(layer, head.backward(loss_fn.backward()), False)
                    outs.append((out, z))
                    x = out
                grads = [p.grad.copy() for m in (*layers, *heads) for p in m.parameters()]
                seen.append((outs, grads))
            (outs, grads), (ref_outs, ref_grads) = seen
            for (out, z), (ref_out, ref_z) in zip(outs, ref_outs):
                np.testing.assert_array_equal(out, ref_out)
                np.testing.assert_array_equal(z, ref_z)
            for g, ref in zip(grads, ref_grads):
                np.testing.assert_array_equal(g, ref)


def _layer_path_cases():
    """Every layer that takes scratch arrays from ``Module._buf``, at
    geometries that reach each of its slots: padded and unpadded, strided,
    down to a 1x1 output."""
    rng = np.random.default_rng
    return {
        "conv-pad1": (lambda: Conv2d(3, 4, 3, padding=1, rng=rng(1)), (3, 6, 6)),
        "conv-stride2-pad1": (
            lambda: Conv2d(3, 4, 3, stride=2, padding=1, rng=rng(1)), (3, 7, 7)
        ),
        "conv-unpadded": (lambda: Conv2d(3, 4, 3, rng=rng(1)), (3, 6, 6)),
        "conv-k5-pad2-nobias": (
            lambda: Conv2d(3, 4, 5, padding=2, bias=False, rng=rng(1)), (3, 5, 5)
        ),
        "conv-1x1-out": (lambda: Conv2d(4, 8, 3, padding=1, rng=rng(1)), (4, 1, 1)),
        "depthwise-pad1": (lambda: DepthwiseConv2d(4, 3, padding=1, rng=rng(1)), (4, 6, 6)),
        "depthwise-stride2-pad1": (
            lambda: DepthwiseConv2d(4, 3, stride=2, padding=1, rng=rng(1)), (4, 7, 7)
        ),
        "depthwise-unpadded": (lambda: DepthwiseConv2d(4, 3, rng=rng(1)), (4, 6, 6)),
        "linear": (lambda: Linear(6, 5, rng=rng(1)), (6,)),
    }


class TestOneLayerPath:
    """A layer runs the same code with or without a workspace: only where
    its scratch arrays come from differs, so an attached layer and an
    unattached twin agree bit for bit, step after step."""

    @pytest.mark.parametrize("case", sorted(_layer_path_cases()))
    @pytest.mark.parametrize("need_input_grad", [True, False])
    def test_attached_and_unattached_twins_agree(self, case, need_input_grad):
        make, sample_shape = _layer_path_cases()[case]
        pooled, plain = make().attach_workspace(), make()
        assert plain.workspace is None
        rng = np.random.default_rng(5)
        first = None
        # A repeated batch reuses every slot as it stands; a changed one
        # hands every slot out fresh.  Gradients accumulate throughout.
        for n in (3, 3, 1, 3):
            x = rng.standard_normal((n, *sample_shape)).astype(np.float32) + 1.0
            y, ref_y = pooled.forward(x), plain.forward(x)
            np.testing.assert_array_equal(y, ref_y)
            if first is None:
                first = [(y, y.copy()), (ref_y, ref_y.copy())]
            g = rng.standard_normal(y.shape).astype(np.float32)
            dx = pooled.backward(g, need_input_grad=need_input_grad)
            ref_dx = plain.backward(g, need_input_grad=need_input_grad)
            if need_input_grad:
                np.testing.assert_array_equal(dx, ref_dx)
            else:
                assert dx is None and ref_dx is None
            for (name, p), (_, q) in zip(
                pooled.named_parameters(), plain.named_parameters()
            ):
                np.testing.assert_array_equal(p.grad, q.grad, err_msg=name)
        # Neither side handed out an output that a later step overwrote.
        for y, kept in first:
            np.testing.assert_array_equal(y, kept)


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

    @pytest.mark.parametrize("batch_norm", [False, True])
    def test_model_backward_flag(self, batch_norm):
        model = build_model(
            "vgg11", width_multiplier=0.125, input_hw=(8, 8), batch_norm=batch_norm
        )
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
        logits = model.forward(x)
        g = rng.standard_normal(logits.shape).astype(np.float32)
        assert model.backward(g, need_input_grad=False) is None
        model.forward(x)
        dx = model.backward(g)
        assert dx is not None and dx.shape == x.shape
