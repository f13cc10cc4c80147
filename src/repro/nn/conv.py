"""Convolution layers (dense and depthwise), im2col-based.

``Conv2d`` also implements the Feedback Alignment variant used by the FA
baseline of Figure 3: when ``feedback`` weights are attached, the *input*
gradient is computed with a fixed random matrix instead of the transposed
forward weights, while the weight gradient stays exact.

There is one execution path, the NCHW im2col lowering, its column matrix
and GEMM operands kept bit-for-bit stable.  When a workspace is attached
its column matrix, GEMM outputs and scatter targets come from reusable
buffers instead of fresh allocations, and its ``xp`` slot is the
zero-bordered NHWC scratch the column gather is staged through.  Backward
reuses forward's slots once they are dead: the output gradient goes into
``out_mat`` (forward already copied its result out) and the column
gradient into ``cols`` (dead once ``dW`` is computed), so a training step
holds one column matrix, not two.

``backward(..., need_input_grad=False)`` skips the input-gradient GEMM and
scatter entirely -- local learning discards the stage input gradient,
which makes this the single cheapest flag in the whole backward pass.
"""

from __future__ import annotations

import numpy as np

from repro.backend.registry import matmul as backend_matmul
from repro.errors import ShapeError
from repro.nn import init as nn_init
from repro.nn.functional import (
    check_conv_geometry,
    col2im,
    conv_output_hw,
    im2col,
    pad2d,
    scatter_windows,
    sliding_windows,
)
from repro.nn.module import Module, Parameter


class Conv2d(Module):
    """2-D convolution over NCHW inputs with square kernels.

    Caches the im2col matrix of its input during training-mode forward so
    the backward pass costs one matmul per gradient; inference-mode forward
    drops the cache (this distinction is what the memory estimator models).
    """

    supports_no_input_grad = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ):
        super().__init__()
        if in_channels < 1 or out_channels < 1:
            raise ShapeError("channel counts must be positive")
        check_conv_geometry(kernel_size, stride, padding)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = rng if rng is not None else np.random.default_rng(0)
        wshape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(nn_init.kaiming_normal(rng, wshape, dtype), "weight")
        self.bias = Parameter(nn_init.zeros((out_channels,), dtype), "bias") if bias else None
        # Feedback Alignment: fixed random backward weights (None => exact BP).
        self.feedback: np.ndarray | None = None
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None
        self._out_hw: tuple[int, int] | None = None

    def enable_feedback_alignment(self, rng: np.random.Generator) -> None:
        """Attach fixed random feedback weights (FA baseline)."""
        self.feedback = nn_init.kaiming_normal(
            rng, self.weight.data.shape, self.weight.data.dtype
        )

    def output_hw(self, in_hw: tuple[int, int]) -> tuple[int, int]:
        return conv_output_hw(in_hw, self.kernel_size, self.stride, self.padding)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        n = x.shape[0]
        rt = np.result_type(x.dtype, self.weight.data.dtype)
        wmat = self.weight.data.reshape(self.out_channels, -1)
        out_h, out_w = self.output_hw((x.shape[2], x.shape[3]))
        xp = None
        if self.padding:
            hp = x.shape[2] + 2 * self.padding
            wp = x.shape[3] + 2 * self.padding
            xp, fresh = self._buf("xp", (n, hp, wp, self.in_channels), x.dtype)
            if fresh:
                xp.fill(0)
        kk = self.in_channels * self.kernel_size * self.kernel_size
        cols, _ = self._buf("cols", (n * out_h * out_w, kk), x.dtype)
        im2col(x, self.kernel_size, self.stride, self.padding, out=cols, padded=xp)
        out, _ = self._buf("out_mat", (cols.shape[0], self.out_channels), rt)
        backend_matmul(cols, wmat.T, out=out)
        if self.bias is not None:
            out += self.bias.data
        y = out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2)
        if self.training:
            self._cols = cols
            self._x_shape = x.shape
            self._out_hw = (out_h, out_w)
        else:
            self._cols = None
        # Always a copy: at a 1x1 output the transposed view is already
        # contiguous, and returning it would alias the out_mat slot.
        return y.copy()

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> np.ndarray | None:
        if self._cols is None or self._x_shape is None or self._out_hw is None:
            raise ShapeError("backward called before training-mode forward")
        n = grad_out.shape[0]
        out_h, out_w = self._out_hw
        m = n * out_h * out_w
        # A contiguous copy: at batch 1 the reshape is a strided view,
        # whose bias sum would round differently.
        dmat, _ = self._buf("out_mat", (m, self.out_channels), grad_out.dtype)
        dmat[...] = grad_out.transpose(0, 2, 3, 1).reshape(m, self.out_channels)
        dw, _ = self._buf("dw", (self.out_channels, self._cols.shape[1]), dmat.dtype)
        backend_matmul(dmat.T, self._cols, out=dw)
        self.weight.grad += dw.reshape(self.weight.data.shape)
        if self.bias is not None:
            self.bias.grad += dmat.sum(axis=0)
        if not need_input_grad:
            self._cols = None
            return None
        back_w = self.feedback if self.feedback is not None else self.weight.data
        wmat = back_w.reshape(self.out_channels, -1)
        dcols, _ = self._buf("cols", (m, wmat.shape[1]), dmat.dtype)
        backend_matmul(dmat, wmat, out=dcols)
        dx = col2im(
            dcols, self._x_shape, self.kernel_size, self.stride, self.padding, self._out_hw
        )
        self._cols = None
        return dx


class DepthwiseConv2d(Module):
    """Per-channel (depthwise) convolution, the MobileNet building block."""

    supports_no_input_grad = True

    def __init__(
        self,
        channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ):
        super().__init__()
        if channels < 1:
            raise ShapeError("channel count must be positive")
        check_conv_geometry(kernel_size, stride, padding)
        self.channels = channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        rng = rng if rng is not None else np.random.default_rng(0)
        # Shape (C, k, k); each channel has its own kernel.  fan_in = k*k.
        wshape = (channels, kernel_size, kernel_size)
        self.weight = Parameter(nn_init.kaiming_normal(rng, wshape, dtype), "weight")
        self.bias = Parameter(nn_init.zeros((channels,), dtype), "bias") if bias else None
        self._win: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def output_hw(self, in_hw: tuple[int, int]) -> tuple[int, int]:
        return conv_output_hw(in_hw, self.kernel_size, self.stride, self.padding)

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.channels:
            raise ShapeError(f"expected (N, {self.channels}, H, W), got {x.shape}")
        xp = pad2d(x, self.padding)
        win = sliding_windows(xp, self.kernel_size, self.stride)
        out = np.einsum("nchwij,cij->nchw", win, self.weight.data, optimize=True)
        if self.bias is not None:
            out += self.bias.data[None, :, None, None]
        if self.training:
            self._win, _ = self._buf("win", win.shape, win.dtype)
            np.copyto(self._win, win)
            self._x_shape = x.shape
        else:
            self._win = None
        return out.astype(x.dtype, copy=False)

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> np.ndarray | None:
        if self._win is None or self._x_shape is None:
            raise ShapeError("backward called before training-mode forward")
        self.weight.grad += np.einsum(
            "nchw,nchwij->cij", grad_out, self._win, optimize=True
        )
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=(0, 2, 3))
        if not need_input_grad:
            self._win = None
            return None
        n, c, h, w = self._x_shape
        p = self.padding
        dwin = np.einsum("nchw,cij->nchwij", grad_out, self.weight.data, optimize=True)
        dxp, _ = self._buf("dxp", (n, c, h + 2 * p, w + 2 * p), grad_out.dtype)
        self._win = None
        return scatter_windows(dwin, self._x_shape, self.kernel_size, self.stride, p, out=dxp)
