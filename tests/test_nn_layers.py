"""Tests for linear, activations, pooling, batch norm, dropout, flatten."""

import numpy as np
import pytest

from helpers import check_module_input_grad, check_param_grads, rand_image_batch
from repro.errors import ConfigError, ShapeError
from repro.models.layers import conv_unit
from repro.nn import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm2d,
    Dropout,
    Flatten,
    GlobalAvgPool2d,
    LeakyReLU,
    Linear,
    MaxPool2d,
    ReLU,
    Tanh,
)
from repro.nn.conv import Conv2d, DepthwiseConv2d
from repro.utils.rng import spawn_rng


class TestLinear:
    def _linear(self, fin, fout, seed=0):
        return Linear(fin, fout, rng=spawn_rng(seed, "lin"), dtype=np.float64)

    def test_forward_matches_matmul(self):
        lin = self._linear(4, 3)
        x = spawn_rng(0, "x").normal(size=(5, 4))
        np.testing.assert_allclose(lin.forward(x), x @ lin.weight.data.T + lin.bias.data)

    def test_input_grad(self):
        lin = self._linear(6, 4, seed=1)
        check_module_input_grad(lin, spawn_rng(1, "x").normal(size=(3, 6)))

    def test_param_grads(self):
        lin = self._linear(3, 2, seed=2)
        check_param_grads(lin, spawn_rng(2, "x").normal(size=(4, 3)))

    def test_shape_error(self):
        lin = self._linear(4, 2)
        with pytest.raises(ShapeError):
            lin.forward(np.zeros((2, 5)))

    def test_feedback_alignment_diverges_input_grad(self):
        x = spawn_rng(3, "x").normal(size=(2, 5))
        g = spawn_rng(3, "g").normal(size=(2, 3))
        exact = self._linear(5, 3, seed=3)
        exact.forward(x)
        dx1 = exact.backward(g)
        fa = self._linear(5, 3, seed=3)
        fa.enable_feedback_alignment(spawn_rng(42, "fb"))
        fa.forward(x)
        dx2 = fa.backward(g)
        assert not np.allclose(dx1, dx2)
        np.testing.assert_allclose(exact.weight.grad, fa.weight.grad)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Conv2d(2, 3, 3, stride=0),
        lambda: Conv2d(2, 3, 0),
        lambda: Conv2d(2, 3, 3, padding=-1),
        lambda: DepthwiseConv2d(2, 3, stride=0),
        lambda: DepthwiseConv2d(2, 0),
        lambda: DepthwiseConv2d(2, 3, padding=-1),
        lambda: DepthwiseConv2d(0, 3),
        lambda: Linear(3, 0),
        lambda: Linear(0, 3),
    ],
    ids=[
        "conv-stride0", "conv-kernel0", "conv-padding-1",
        "dw-stride0", "dw-kernel0", "dw-padding-1", "dw-channels0",
        "linear-out0", "linear-in0",
    ],
)
def test_bad_geometry_is_rejected_at_construction(build):
    with pytest.raises(ShapeError):
        build()


class TestActivations:
    def test_relu_values(self):
        relu = ReLU()
        x = np.array([[-1.0, 0.0, 2.0]])
        np.testing.assert_array_equal(relu.forward(x), [[0.0, 0.0, 2.0]])

    def test_relu_grad(self):
        relu = ReLU()
        check_module_input_grad(relu, rand_image_batch(2, 3, 4, 4, seed=1) + 0.05)

    def test_leaky_relu_grad(self):
        lrelu = LeakyReLU(0.1)
        check_module_input_grad(lrelu, rand_image_batch(2, 2, 3, 3, seed=2) + 0.05)

    def test_tanh_grad(self):
        tanh = Tanh()
        check_module_input_grad(tanh, rand_image_batch(1, 2, 3, 3, seed=3))

    def test_backward_before_forward_raises(self):
        with pytest.raises(ShapeError):
            ReLU().backward(np.ones((1, 1)))


class TestMaxPool:
    def test_known_values(self):
        pool = MaxPool2d(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        out = pool.forward(x)
        np.testing.assert_array_equal(out[0, 0], [[5, 7], [13, 15]])

    def test_grad_routes_to_argmax(self):
        pool = MaxPool2d(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        pool.forward(x)
        dx = pool.backward(np.ones((1, 1, 2, 2)))
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        np.testing.assert_array_equal(dx[0, 0], expected)

    def test_input_grad_numeric(self):
        pool = MaxPool2d(2)
        # Perturbations must not flip the argmax: use well-separated values.
        x = (np.arange(32, dtype=np.float64) * 7.0).reshape(2, 1, 4, 4)
        check_module_input_grad(pool, x)

    def test_overlapping_windows(self):
        pool = MaxPool2d(3, stride=1)
        x = spawn_rng(4, "x").normal(size=(1, 2, 5, 5)) * 10
        assert pool.forward(x).shape == (1, 2, 3, 3)


def _nan_pool_path(path: str):
    """(module, input) whose one pooling window is [1, NaN, 3, 2]."""
    window = np.array([[[[1.0, np.nan], [3.0, 2.0]]]], np.float32)
    if path == "tiled":
        return MaxPool2d(2), window
    if path == "tiled-noncontiguous":
        column_major = np.ascontiguousarray(window.transpose(0, 1, 3, 2))
        return MaxPool2d(2), column_major.transpose(0, 1, 3, 2)
    if path == "generic":  # 3x3 does not tile by 2: the argmax path
        x = np.full((1, 1, 3, 3), -5.0, np.float32)
        x[:, :, :2, :2] = window
        return MaxPool2d(2), x
    # "unit": a 1x1 identity conv, its ReLU, then the pool
    unit = conv_unit(1, 1, kernel_size=1, padding=0, batch_norm=False, pool=2)
    unit.layers[0].weight.data[...] = 1.0
    return unit, window


class TestMaxPoolNaN:
    """NaN propagates on every path and in both modes; the gradient of a
    NaN window goes to its first NaN (argmax's rule)."""

    @pytest.mark.parametrize("mode", ["train", "eval"])
    @pytest.mark.parametrize(
        "path", ["tiled", "tiled-noncontiguous", "generic", "unit"]
    )
    def test_nan_window_pools_to_nan(self, path, mode):
        module, x = _nan_pool_path(path)
        module.train(mode == "train")
        out = module.forward(x)
        assert np.isnan(out[0, 0, 0, 0])

    @pytest.mark.parametrize("path", ["tiled", "tiled-noncontiguous", "generic"])
    def test_nan_window_routes_gradient_to_first_nan(self, path):
        module, x = _nan_pool_path(path)
        out = module.forward(x)
        dx = module.backward(np.full(out.shape, 7.0, np.float32))
        expected = np.zeros(x.shape, np.float32)
        expected[0, 0, 0, 1] = 7.0
        np.testing.assert_array_equal(dx, expected)


class TestMaxPoolLayouts:
    @pytest.mark.parametrize("workspace", [False, True])
    def test_noncontiguous_input_trains_like_its_contiguous_copy(self, workspace):
        rng = spawn_rng(6, "pool-layout")
        base = np.maximum(rng.normal(size=(3, 4, 8, 6)), 0).astype(np.float32)
        x_nc = base.transpose(0, 1, 3, 2)  # (3, 4, 6, 8), not C-contiguous
        assert not x_nc.flags.c_contiguous
        g = rng.normal(size=(3, 4, 3, 4)).astype(np.float32)
        results = []
        for x in (x_nc, np.ascontiguousarray(x_nc)):
            pool = MaxPool2d(2)
            if workspace:
                pool.attach_workspace()
            out = pool.forward(x)
            results.append((out.tobytes(), pool.backward(g).tobytes()))
        assert results[0] == results[1]


class TestAvgPool:
    def test_known_values(self):
        pool = AvgPool2d(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        np.testing.assert_allclose(pool.forward(x)[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_input_grad(self):
        pool = AvgPool2d(2)
        check_module_input_grad(pool, rand_image_batch(2, 2, 4, 4, seed=5))


class TestAdaptiveAvgPool:
    def test_global_pool(self):
        pool = GlobalAvgPool2d()
        x = rand_image_batch(2, 3, 5, 5, seed=6)
        out = pool.forward(x)
        assert out.shape == (2, 3, 1, 1)
        np.testing.assert_allclose(out[..., 0, 0], x.mean(axis=(2, 3)))

    def test_divisible_bins(self):
        pool = AdaptiveAvgPool2d(2)
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        np.testing.assert_allclose(pool.forward(x)[0, 0], [[2.5, 4.5], [10.5, 12.5]])

    def test_non_divisible_bins(self):
        pool = AdaptiveAvgPool2d(2)
        x = rand_image_batch(1, 1, 5, 5, seed=7)
        out = pool.forward(x)
        assert out.shape == (1, 1, 2, 2)
        # Bin edges are floor(i*5/2) = [0, 2, 5].
        np.testing.assert_allclose(out[0, 0, 0, 0], x[0, 0, :2, :2].mean())
        np.testing.assert_allclose(out[0, 0, 1, 1], x[0, 0, 2:, 2:].mean())

    def test_input_grad(self):
        pool = AdaptiveAvgPool2d(2)
        check_module_input_grad(pool, rand_image_batch(2, 2, 5, 5, seed=8))

    def test_input_grad_global(self):
        pool = GlobalAvgPool2d()
        check_module_input_grad(pool, rand_image_batch(1, 3, 4, 4, seed=9))

    def test_too_small_input_raises(self):
        with pytest.raises(ShapeError):
            AdaptiveAvgPool2d(4).forward(np.zeros((1, 1, 2, 2)))


class TestBatchNorm:
    def test_normalizes_in_training(self):
        bn = BatchNorm2d(3, dtype=np.float64)
        x = rand_image_batch(8, 3, 6, 6, seed=10) * 3 + 1
        out = bn.forward(x)
        np.testing.assert_allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
        np.testing.assert_allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-3)

    def test_running_stats_updated(self):
        bn = BatchNorm2d(2, momentum=0.5, dtype=np.float64)
        x = rand_image_batch(4, 2, 3, 3, seed=11) + 5
        bn.forward(x)
        assert (bn.running_mean > 1).all()

    def test_eval_uses_running_stats(self):
        bn = BatchNorm2d(2, momentum=1.0, dtype=np.float64)
        x = rand_image_batch(4, 2, 3, 3, seed=12)
        bn.forward(x)  # running stats <- batch stats exactly (momentum 1)
        bn.eval()
        out_eval = bn.forward(x)
        bn.train()
        out_train = bn.forward(x)
        np.testing.assert_allclose(out_eval, out_train, rtol=1e-5, atol=1e-6)

    def test_input_grad(self):
        bn = BatchNorm2d(2, dtype=np.float64)
        check_module_input_grad(bn, rand_image_batch(3, 2, 3, 3, seed=13), rtol=1e-3, atol=1e-5)

    def test_param_grads(self):
        bn = BatchNorm2d(2, dtype=np.float64)
        check_param_grads(bn, rand_image_batch(3, 2, 3, 3, seed=14), rtol=1e-3, atol=1e-5)

    def test_eval_backward_raises(self):
        bn = BatchNorm2d(2)
        bn.eval()
        bn.forward(rand_image_batch(2, 2, 3, 3).astype(np.float32))
        with pytest.raises(ShapeError):
            bn.backward(np.zeros((2, 2, 3, 3), dtype=np.float32))


class TestDropoutFlatten:
    def test_dropout_eval_identity(self):
        drop = Dropout(0.5)
        drop.eval()
        x = rand_image_batch(2, 2, 3, 3)
        assert drop.forward(x) is x

    def test_dropout_scaling_preserves_expectation(self):
        drop = Dropout(0.5, rng=spawn_rng(15, "d"))
        x = np.ones((2000, 10))
        out = drop.forward(x)
        assert abs(out.mean() - 1.0) < 0.05

    def test_dropout_backward_uses_same_mask(self):
        drop = Dropout(0.5, rng=spawn_rng(16, "d"))
        x = np.ones((10, 10))
        out = drop.forward(x)
        dx = drop.backward(np.ones_like(x))
        np.testing.assert_array_equal(out, dx)

    def test_invalid_probability(self):
        with pytest.raises(ConfigError):
            Dropout(1.0)

    def test_flatten_roundtrip(self):
        flat = Flatten()
        x = rand_image_batch(2, 3, 4, 4)
        out = flat.forward(x)
        assert out.shape == (2, 48)
        dx = flat.backward(out)
        np.testing.assert_array_equal(dx, x)
