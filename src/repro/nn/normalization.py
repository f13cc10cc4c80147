"""Batch normalization over NCHW feature maps.

The training forward computes the batch statistics in one pass over the
centered batch: numpy's own ``mean`` / ``var`` steps (one ``add.reduce``,
a ``true_divide`` by the ``intp`` element count, the squared deviations
summed and divided the same way), with ``x - mean`` computed once and
scaled in place into ``xhat``.  ``mean``, ``var``, ``xhat`` and the
running statistics are bit-equal to ``x.mean`` / ``x.var`` and a second
subtraction, which ``tests/test_nn_kernel_oracle.py`` holds it to.
Backward runs the textbook expression's ufuncs in their order, in place
in two full-size buffers instead of eight temporaries, and is held to
that expression bit for bit the same way.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.module import Module, Parameter


class BatchNorm2d(Module):
    """Standard batch norm with running statistics for inference.

    Training-mode forward caches the normalized activations ``xhat`` and the
    batch inverse std; the memory estimator counts both (this mirrors what a
    CUDA autograd engine retains for the BN backward).
    """

    def __init__(
        self,
        num_features: int,
        eps: float = 1e-5,
        momentum: float = 0.1,
        dtype=np.float32,
    ):
        super().__init__()
        self.num_features = num_features
        self.eps = float(eps)
        self.momentum = float(momentum)
        self.gamma = Parameter(np.ones(num_features, dtype=dtype), "gamma")
        self.beta = Parameter(np.zeros(num_features, dtype=dtype), "beta")
        self.running_mean = np.zeros(num_features, dtype=dtype)
        self.running_var = np.ones(num_features, dtype=dtype)
        self._xhat: np.ndarray | None = None
        self._inv_std: np.ndarray | None = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.num_features:
            raise ShapeError(f"expected (N, {self.num_features}, H, W), got {x.shape}")
        if self.training:
            # numpy's own mean/var steps, so both stay bit-equal to
            # x.mean / x.var; the centered batch becomes xhat in place.
            count = np.intp(x.shape[0] * x.shape[2] * x.shape[3])
            mean = np.add.reduce(x, axis=(0, 2, 3), keepdims=True)
            np.true_divide(mean, count, out=mean, casting="unsafe")
            xhat = x - mean
            var = np.add.reduce(np.square(xhat), axis=(0, 2, 3))
            np.true_divide(var, count, out=var, casting="unsafe")
            mean = mean.reshape(-1)
            self.running_mean = (
                (1 - self.momentum) * self.running_mean + self.momentum * mean
            ).astype(self.running_mean.dtype)
            self.running_var = (
                (1 - self.momentum) * self.running_var + self.momentum * var
            ).astype(self.running_var.dtype)
            inv_std = 1.0 / np.sqrt(var + self.eps)
            np.multiply(xhat, inv_std[None, :, None, None], out=xhat)
            self._xhat = xhat
            self._inv_std = inv_std
        else:
            inv_std = 1.0 / np.sqrt(self.running_var + self.eps)
            xhat = (x - self.running_mean[None, :, None, None]) * inv_std[
                None, :, None, None
            ]
            self._xhat = None
        out = self.gamma.data[None, :, None, None] * xhat
        out += self.beta.data[None, :, None, None]
        return out.astype(x.dtype, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._xhat is None or self._inv_std is None:
            raise ShapeError("backward called before training-mode forward")
        xhat, inv_std = self._xhat, self._inv_std
        m = grad_out.shape[0] * grad_out.shape[2] * grad_out.shape[3]
        axes = (0, 2, 3)
        # dx = (dxhat - mean(dxhat) - xhat * sum(dxhat * xhat) / m) * inv_std,
        # with dxhat = grad_out * gamma: the same ufuncs in the same order
        # as that expression, run in place in two full-size buffers (bit
        # for bit while gradient, input and parameters share one dtype).
        prod = np.multiply(grad_out, xhat)
        self.gamma.grad += prod.sum(axis=axes)
        self.beta.grad += grad_out.sum(axis=axes)
        dx = np.multiply(grad_out, self.gamma.data[None, :, None, None])
        dxhat_mean = dx.mean(axis=axes, keepdims=True)
        np.multiply(dx, xhat, out=prod)
        proj = prod.sum(axis=axes, keepdims=True)
        np.subtract(dx, dxhat_mean, out=dx)
        np.multiply(xhat, proj, out=prod)
        np.true_divide(prod, m, out=prod)
        np.subtract(dx, prod, out=dx)
        np.multiply(dx, inv_std[None, :, None, None], out=dx)
        self._xhat = None
        self._inv_std = None
        return dx.astype(grad_out.dtype, copy=False)
