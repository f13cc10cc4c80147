"""Convolution layers (dense and depthwise), im2col-based.

``Conv2d`` also implements the Feedback Alignment variant used by the FA
baseline of Figure 3: when ``feedback`` weights are attached, the *input*
gradient is computed with a fixed random matrix instead of the transposed
forward weights, while the weight gradient stays exact.

Two execution paths share the same parameters and (up to fp32 rounding)
the same numbers:

* the default path -- the original NCHW im2col lowering, its column
  matrix and GEMM operands kept bit-for-bit stable; when a workspace is
  attached its column matrix, GEMM outputs and scatter targets come from
  reusable buffers instead of fresh allocations, and its ``xp`` slot is
  the zero-bordered NHWC scratch the column gather is staged through.
  Backward reuses forward's slots once they are dead: the output
  gradient goes into ``out_mat`` (forward already copied its result
  out) and the column gradient into ``cols`` (dead once ``dW`` is
  computed), so a training step holds one column matrix, not two.
* the ``fused=True`` path -- conv, bias and an optional ReLU run as one
  NHWC pipeline: the padding copy doubles as the layout transpose, the
  window gather moves contiguous channel runs, bias rides along as a ones
  column of the column matrix (so conv+bias is a single GEMM and the
  weight *and* bias gradients fall out of one backward GEMM), and the
  activation is applied in place on the GEMM output.

Both paths accept ``backward(..., need_input_grad=False)`` to skip the
input-gradient GEMM and scatter entirely -- local learning discards the
stage input gradient, which makes this the single cheapest flag in the
whole backward pass.
"""

from __future__ import annotations

import numpy as np

from repro.backend.registry import matmul as backend_matmul
from repro.errors import ConfigError, ShapeError
from repro.nn import init as nn_init
from repro.nn.functional import (
    col2im,
    col2im_nhwc,
    conv_output_hw,
    im2col,
    im2col_nhwc,
    pad2d,
    pad2d_nhwc,
    sliding_windows,
)
from repro.nn.module import Module, Parameter

_ACTIVATIONS = (None, "relu")


class Conv2d(Module):
    """2-D convolution over NCHW inputs with square kernels.

    Caches the im2col matrix of its input during training-mode forward so
    the backward pass costs one matmul per gradient; inference-mode forward
    drops the cache (this distinction is what the memory estimator models).

    ``fused=True`` switches to the fused NHWC execution path and
    ``activation="relu"`` folds the nonlinearity into the conv kernel
    (forward applies it in place, backward masks the incoming gradient
    before the GEMMs).  Fused and unfused paths are numerically equivalent
    within fp32 tolerances; property tests pin this down.
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
        fused: bool = False,
        activation: str | None = None,
    ):
        super().__init__()
        if in_channels < 1 or out_channels < 1:
            raise ShapeError("channel counts must be positive")
        if activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown conv activation {activation!r}")
        if activation is not None and not fused:
            raise ConfigError("activation requires fused=True")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.fused = fused
        self.activation = activation
        rng = rng if rng is not None else np.random.default_rng(0)
        wshape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(nn_init.kaiming_normal(rng, wshape, dtype), "weight")
        self.bias = Parameter(nn_init.zeros((out_channels,), dtype), "bias") if bias else None
        # Feedback Alignment: fixed random backward weights (None => exact BP).
        self.feedback: np.ndarray | None = None
        self._cols: np.ndarray | None = None
        self._out_mat: np.ndarray | None = None
        self._wext: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None
        self._out_hw: tuple[int, int] | None = None

    def enable_feedback_alignment(self, rng: np.random.Generator) -> None:
        """Attach fixed random feedback weights (FA baseline)."""
        self.feedback = nn_init.kaiming_normal(
            rng, self.weight.data.shape, self.weight.data.dtype
        )

    def output_hw(self, in_hw: tuple[int, int]) -> tuple[int, int]:
        return conv_output_hw(in_hw, self.kernel_size, self.stride, self.padding)

    # -- default (NCHW im2col) path ---------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ShapeError(
                f"expected (N, {self.in_channels}, H, W), got {x.shape}"
            )
        if self.fused:
            return self._forward_fused(x)
        n = x.shape[0]
        rt = np.result_type(x.dtype, self.weight.data.dtype)
        wmat = self.weight.data.reshape(self.out_channels, -1)
        if self._ws is None:
            cols, (out_h, out_w) = im2col(x, self.kernel_size, self.stride, self.padding)
            out = backend_matmul(cols, wmat.T)
        else:
            out_h, out_w = self.output_hw((x.shape[2], x.shape[3]))
            xp = None
            if self.padding:
                hp = x.shape[2] + 2 * self.padding
                wp = x.shape[3] + 2 * self.padding
                xp, fresh = self._buf("xp", (n, hp, wp, self.in_channels), x.dtype)
                if fresh:
                    xp.fill(0)
            kk = self.in_channels * self.kernel_size * self.kernel_size
            cols_buf, _ = self._buf("cols", (n * out_h * out_w, kk), x.dtype)
            cols, _ = im2col(
                x, self.kernel_size, self.stride, self.padding,
                out=cols_buf, padded=xp,
            )
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
        if self.fused:
            return self._backward_fused(grad_out, need_input_grad)
        n = grad_out.shape[0]
        out_h, out_w = self._out_hw
        m = n * out_h * out_w
        if self._ws is None:
            # Contiguous like the workspace path's copy: at batch 1 the
            # reshape is a strided view, whose bias sum rounds differently.
            dmat = np.ascontiguousarray(
                grad_out.transpose(0, 2, 3, 1).reshape(m, self.out_channels)
            )
            self.weight.grad += backend_matmul(dmat.T, self._cols).reshape(self.weight.data.shape)
        else:
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
        if self._ws is None:
            dcols = backend_matmul(dmat, wmat)
        else:
            dcols, _ = self._buf("cols", (m, wmat.shape[1]), dmat.dtype)
            backend_matmul(dmat, wmat, out=dcols)
        dx = col2im(
            dcols, self._x_shape, self.kernel_size, self.stride, self.padding, self._out_hw
        )
        self._cols = None
        return dx

    # -- fused (NHWC) path -------------------------------------------------
    def _fused_forward_core(self, x: np.ndarray) -> np.ndarray:
        """Conv+bias+activation into the NHWC workspace; returns (M, F).

        The result reshapes (zero-copy) to the NHWC activation
        ``(N, out_h, out_w, F)``.  :class:`~repro.nn.fused.FusedConvBlock`
        keeps going in this layout; plain fused ``forward`` transposes it
        back to NCHW at the module edge.
        """
        n, _, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h, out_w = self.output_hw((h, w))
        c, f = self.in_channels, self.out_channels
        kk = k * k * c
        kext = kk + (1 if self.bias is not None else 0)
        m = n * out_h * out_w
        rt = np.result_type(x.dtype, self.weight.data.dtype)

        xp, fresh = self._buf("xp_nhwc", (n, h + 2 * p, w + 2 * p, c), x.dtype)
        pad2d_nhwc(x, p, out=xp, fresh=fresh)

        # Bias trick: the column matrix carries a ones column, the weight
        # matrix the bias values, so conv+bias is one GEMM (and backward's
        # dW GEMM yields the bias gradient for free).  The ones column
        # makes the gather target a strided window into the (M, K+1)
        # buffer, hence the manual as_strided.
        cols, fresh = self._buf("cols_ext", (m, kext), rt)
        if self.bias is not None and fresh:
            cols[:, kk] = 1.0
        it = cols.itemsize
        cols6 = np.lib.stride_tricks.as_strided(
            cols,
            shape=(n, out_h, out_w, k, k, c),
            strides=(
                out_h * out_w * kext * it,
                out_w * kext * it,
                kext * it,
                k * c * it,
                c * it,
                it,
            ),
        )
        im2col_nhwc(xp, k, s, out=cols6)

        # Weights stored (K+1, F) so the forward GEMM runs in plain NN form
        # (marginally faster BLAS kernel) and backward can reuse the view.
        wext, _ = self._buf("wext_t", (kext, f), rt)
        wext[:kk, :] = self.weight.data.transpose(2, 3, 1, 0).reshape(kk, f)
        if self.bias is not None:
            wext[kk, :] = self.bias.data

        out, _ = self._buf("out_mat", (m, f), rt)
        backend_matmul(cols, wext, out=out)
        if self.activation == "relu":
            np.maximum(out, 0, out=out)
        if self.training:
            self._cols = cols
            self._out_mat = out
            self._wext = wext
            self._x_shape = x.shape
            self._out_hw = (out_h, out_w)
        else:
            self._cols = None
            self._out_mat = None
        return out

    def _forward_fused(self, x: np.ndarray) -> np.ndarray:
        out = self._fused_forward_core(x)
        n = x.shape[0]
        out_h, out_w = self.output_hw((x.shape[2], x.shape[3]))
        return out.reshape(n, out_h, out_w, self.out_channels).transpose(0, 3, 1, 2).copy()

    def _fused_backward_core(
        self,
        dmat: np.ndarray,
        need_input_grad: bool,
        apply_activation_mask: bool = True,
    ) -> np.ndarray | None:
        """Backward from an NHWC (M, F) gradient; returns padded NHWC dx.

        ``dmat`` may alias a workspace buffer and is masked in place when
        ``apply_activation_mask`` (callers that already routed gradients
        through the activation -- the fused pool scatter -- pass False).
        Returns the padded ``(N, Hp, Wp, C)`` input gradient, or None.
        """
        n, _, h, w = self._x_shape
        k, s, p = self.kernel_size, self.stride, self.padding
        out_h, out_w = self._out_hw
        c, f = self.in_channels, self.out_channels
        kk = k * k * c
        m = n * out_h * out_w

        if apply_activation_mask and self.activation == "relu":
            mask, _ = self._buf("relu_mask", (m, f), np.bool_)
            np.greater(self._out_mat, 0, out=mask)
            np.multiply(dmat, mask, out=dmat)

        dwdb, _ = self._buf("dwdb", (f, self._cols.shape[1]), dmat.dtype)
        backend_matmul(dmat.T, self._cols, out=dwdb)
        self.weight.grad += dwdb[:, :kk].reshape(f, k, k, c).transpose(0, 3, 1, 2)
        if self.bias is not None:
            self.bias.grad += dwdb[:, kk]
        if not need_input_grad:
            self._cols = None
            self._out_mat = None
            return None

        if self.feedback is not None:
            # Rewritten every backward (it is parameter-sized, i.e. cheap)
            # so a re-seeded/replaced feedback matrix is always honored.
            back_w, _ = self._buf("feedback_k", (kk, f), self.feedback.dtype)
            back_w[...] = self.feedback.transpose(2, 3, 1, 0).reshape(kk, f)
        else:
            back_w = self._wext[:kk, :]
        dcols, _ = self._buf("dcols", (m, kk), dmat.dtype)
        backend_matmul(dmat, back_w.T, out=dcols)
        dxp, _ = self._buf("dxp_nhwc", (n, h + 2 * p, w + 2 * p, c), dmat.dtype)
        col2im_nhwc(dcols.reshape(n, out_h, out_w, k, k, c), k, s, out=dxp)
        self._cols = None
        self._out_mat = None
        return dxp

    def _backward_fused(
        self, grad_out: np.ndarray, need_input_grad: bool
    ) -> np.ndarray | None:
        n, _, h, w = self._x_shape
        p = self.padding
        out_h, out_w = self._out_hw
        m = n * out_h * out_w
        dmat, _ = self._buf("dmat", (m, self.out_channels), self._cols.dtype)
        dmat[...] = grad_out.transpose(0, 2, 3, 1).reshape(m, self.out_channels)
        dxp = self._fused_backward_core(dmat, need_input_grad)
        if dxp is None:
            return None
        return np.ascontiguousarray(
            dxp[:, p : p + h, p : p + w, :].transpose(0, 3, 1, 2)
        )


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
        self._out_hw: tuple[int, int] | None = None

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
            if self._ws is not None:
                buf, _ = self._ws.get("win", win.shape, win.dtype)
                np.copyto(buf, win)
                self._win = buf
            else:
                self._win = np.ascontiguousarray(win)
            self._x_shape = x.shape
            self._out_hw = (out.shape[2], out.shape[3])
        else:
            self._win = None
        return out.astype(x.dtype, copy=False)

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> np.ndarray | None:
        if self._win is None or self._x_shape is None or self._out_hw is None:
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
        out_h, out_w = self._out_hw
        k, s, p = self.kernel_size, self.stride, self.padding
        dwin = np.einsum("nchw,cij->nchwij", grad_out, self.weight.data, optimize=True)
        if self._ws is not None:
            dxp = self._ws.zeros("dxp", (n, c, h + 2 * p, w + 2 * p), grad_out.dtype)
        else:
            dxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=grad_out.dtype)
        for i in range(k):
            for j in range(k):
                dxp[:, :, i : i + s * out_h : s, j : j + s * out_w : s] += dwin[:, :, :, :, i, j]
        self._win = None
        if p == 0:
            return dxp
        return dxp[:, :, p : p + h, p : p + w]
