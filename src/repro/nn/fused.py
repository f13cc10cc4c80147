"""FusedConvBlock: conv -> bias -> ReLU -> max-pool as one NHWC pipeline.

The fused :class:`~repro.nn.conv.Conv2d` already folds bias and ReLU into
its GEMM, but at its module edge it must transpose back to NCHW -- and a
following pool immediately re-walks that full-size tensor.  This block
keeps the chain in NHWC end to end: the conv GEMM output *is* the pool
input (zero-copy reshape), pooling runs as pure-ufunc running maxima over
contiguous channel runs, and the only NCHW conversions happen at the block
edges on the *pooled* (k*k-times smaller) tensors.

Backward fuses the other way: the pool scatter writes the routed gradient
straight into the conv's (M, F) gradient buffer, the ReLU mask collapses
to one multiply on the pooled tensor (the selected window element equals
the pooled maximum, so ``pooled > 0`` decides gradient flow exactly), and
the conv core takes over from there.  Gradient routing is the one-hot
mask of :func:`~repro.nn.pooling.first_max_mask`, shared with
``MaxPool2d``: ``argmax``'s first-maximum tie semantics bit for bit, NaN
included; the GEMM outputs
match the unfused stage within fp32 rounding (property-tested).

Parameters live on the inner ``Conv2d`` at ``layers.0``, exactly where the
equivalent unfused ``Sequential(Conv2d, ReLU, MaxPool2d)`` keeps them, so
state dicts are interchangeable between fused and unfused builds.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.conv import Conv2d
from repro.nn.module import Sequential
from repro.nn.pooling import MaxPool2d, first_max_mask


class FusedConvBlock(Sequential):
    """conv(+bias)+ReLU(+max-pool) executed as a single fused unit.

    Subclasses :class:`Sequential` purely for introspection (parameter
    paths, FLOP/memory visitors, traversal); forward/backward bypass the
    child modules' own compute.  When the pool geometry does not tile the
    conv output exactly (odd test inputs), the pool gracefully falls back
    to the standalone :class:`MaxPool2d` on the NCHW tensor.
    """

    supports_no_input_grad = True

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int = 3,
        stride: int = 1,
        padding: int = 1,
        bias: bool = True,
        pool: int | None = None,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ):
        conv = Conv2d(
            in_channels,
            out_channels,
            kernel_size,
            stride=stride,
            padding=padding,
            bias=bias,
            rng=rng,
            dtype=dtype,
            fused=True,
            activation="relu",
        )
        layers = [conv] if pool is None else [conv, MaxPool2d(pool)]
        super().__init__(*layers)
        self.pool_size = pool
        self._pout: np.ndarray | None = None
        self._pooled_tiled = False

    # The conv/pool are reached through ``layers`` (never duplicated as
    # attributes, which would double-count their parameters in traversal).
    @property
    def conv(self) -> Conv2d:
        return self.layers[0]

    @property
    def _pool_module(self) -> MaxPool2d | None:
        return self.layers[1] if len(self.layers) > 1 else None

    def output_hw(self, in_hw: tuple[int, int]) -> tuple[int, int]:
        hw = self.conv.output_hw(in_hw)
        if self._pool_module is not None:
            hw = self._pool_module.output_hw(hw)
        return hw

    def count_kernels(self) -> int:
        """Kernel dispatches per forward: conv+bias+ReLU fuse to one.

        The pool is charged as its own dispatch whenever present.  Whether
        it actually fuses depends on the input geometry (exact tiling),
        which is unknown when trainers snapshot kernel counts before the
        first forward, so the charge is kept static and conservative.
        """
        return 1 if self.pool_size is None else 2

    # -- forward ----------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        conv = self.conv
        out = conv._fused_forward_core(x)
        n = x.shape[0]
        oh, ow = conv.output_hw((x.shape[2], x.shape[3]))
        f = conv.out_channels
        k = self.pool_size
        if k is None:
            # Copies, not ascontiguousarray: at a 1x1 output that would
            # return the workspace slot itself.
            return out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2).copy()
        if oh % k or ow % k:
            # Non-tiling geometry: fall back to the module pool on NCHW.
            self._pooled_tiled = False
            y = np.ascontiguousarray(out.reshape(n, oh, ow, f).transpose(0, 3, 1, 2))
            return self._pool_module.forward(y)
        self._pooled_tiled = True
        ph, pw = oh // k, ow // k
        v = out.reshape(n, ph, k, pw, k, f)
        pout, _ = self._buf("pout", (n, ph, pw, f), out.dtype)
        pout[...] = v[:, :, 0, :, 0, :]
        for t in range(1, k * k):
            i, j = divmod(t, k)
            np.maximum(pout, v[:, :, i, :, j, :], out=pout)
        self._pout = pout if self.training else None
        return pout.transpose(0, 3, 1, 2).copy()

    # -- backward ---------------------------------------------------------
    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> np.ndarray | None:
        conv = self.conv
        if conv._cols is None or conv._x_shape is None or conv._out_hw is None:
            raise ShapeError("backward called before training-mode forward")
        n, _, h, w = conv._x_shape
        p = conv.padding
        oh, ow = conv._out_hw
        f = conv.out_channels
        m = n * oh * ow
        k = self.pool_size

        if k is None or not self._pooled_tiled:
            if k is not None:
                grad_out = self._pool_module.backward(grad_out)
            dmat, _ = self._buf("dmat", (m, f), conv._cols.dtype)
            dmat[...] = grad_out.transpose(0, 2, 3, 1).reshape(m, f)
            dxp = conv._fused_backward_core(dmat, need_input_grad)
        else:
            if self._pout is None:
                raise ShapeError("backward called before training-mode forward")
            ph, pw = oh // k, ow // k
            pout = self._pout
            gp, _ = self._buf("gp", (n, ph, pw, f), grad_out.dtype)
            gp[...] = grad_out.transpose(0, 2, 3, 1)
            # Fused ReLU backward: the selected window element *is* the
            # pooled maximum, so `pooled > 0` gates gradient flow exactly
            # -- one multiply on the pooled tensor replaces a full-size
            # mask pass.
            np.multiply(gp, pout > 0, out=gp)
            # First-maximum routing, shared with MaxPool2d: a one-hot
            # mask over the conv output, then one broadcast multiply.
            dmat, _ = self._buf("dmat", (m, f), gp.dtype)
            mask, _ = self._buf("mask", (m, f), np.bool_)
            taken, _ = self._buf("taken", (n, ph, pw, f), np.bool_)

            def offsets_first(a: np.ndarray) -> np.ndarray:
                return a.reshape(n, ph, k, pw, k, f).transpose(2, 4, 0, 1, 3, 5)

            mask = first_max_mask(
                offsets_first(conv._out_mat), pout, offsets_first(mask), taken
            )
            np.multiply(gp, mask, out=offsets_first(dmat))
            self._pout = None
            dxp = conv._fused_backward_core(
                dmat, need_input_grad, apply_activation_mask=False
            )
        if dxp is None:
            return None
        return np.ascontiguousarray(
            dxp[:, p : p + h, p : p + w, :].transpose(0, 3, 1, 2)
        )
