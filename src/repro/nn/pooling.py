"""Pooling layers: max, average, and adaptive average (global) pooling.

The overwhelmingly common geometry -- ``stride == kernel`` with the input
an exact multiple of the window (every pool in the model zoo) -- gets a
vectorized fast path: forward reduces over a zero-copy window-major view
of the input (whatever its strides) instead of materializing a window
copy, max pooling records its gradient routing as a one-hot bool mask
built by :func:`first_max_mask` (shared with the fused conv block), and
backward is one broadcast multiply or assignment instead of the k x k
Python loop.  The generic geometry keeps the original formulation (with
workspace-backed buffers when a workspace is attached), and
``_scatter_windows`` additionally vectorizes the ``stride == 1`` overlap
case via :func:`overlap_add`.  Max pooling propagates NaN on every path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.functional import conv_output_hw, overlap_add, sliding_windows
from repro.nn.module import Module


def _scatter_windows(
    dwin: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    out: np.ndarray | None = None,
    method: str = "auto",
) -> np.ndarray:
    """Scatter-add per-window gradients (N,C,oh,ow,k,k) back onto the input.

    ``method="auto"`` picks a single reshaped assignment when ``stride ==
    kernel`` tiles the input exactly, else the bulk slice-add loop.
    ``method="overlap"`` (explicit) vectorizes ``stride == 1`` scatters as
    two :func:`overlap_add` passes instead of the k x k Python loop.
    """
    n, c, h, w = x_shape
    out_h, out_w = dwin.shape[2], dwin.shape[3]
    tiled_ok = stride == kernel and h == out_h * kernel and w == out_w * kernel
    if method == "auto":
        # "overlap" stays opt-in; the benchmark shows it only at parity
        # with the bulk-add loop for realistic kernel sizes.
        method = "tiled" if tiled_ok else "loop"
    if method == "tiled":
        if not tiled_ok:
            raise ShapeError("tiled scatter requires stride == kernel exact tiling")
        dx = out if out is not None else np.empty((n, c, h, w), dtype=dwin.dtype)
        view = dx.reshape(n, c, out_h, kernel, out_w, kernel)
        view[...] = dwin.transpose(0, 1, 2, 4, 3, 5)
        return dx
    if method == "overlap":
        if stride != 1 or h != out_h + kernel - 1 or w != out_w + kernel - 1:
            raise ShapeError("overlap scatter requires stride == 1")
        # Fold kj into the width axis, then ki into the height axis.
        by_width = overlap_add(dwin.transpose(0, 1, 2, 4, 5, 3), ntail=0)
        dx_val = overlap_add(by_width.transpose(0, 1, 3, 2, 4), ntail=1)
        if out is None:
            return np.ascontiguousarray(dx_val)
        out[...] = dx_val
        return out
    if method != "loop":
        raise ShapeError(f"unknown scatter method {method!r}")
    if out is None:
        dx = np.zeros((n, c, h, w), dtype=dwin.dtype)
    else:
        dx = out
        dx.fill(0)
    for i in range(kernel):
        for j in range(kernel):
            dx[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += dwin[
                :, :, :, :, i, j
            ]
    return dx


def _tiles_exactly(shape: tuple[int, ...], kernel: int, stride: int) -> bool:
    h, w = shape[2], shape[3]
    return stride == kernel and h % kernel == 0 and w % kernel == 0


def _window_major(a: np.ndarray, k: int) -> np.ndarray:
    """(k, k, N, C, H//k, W//k) view of an NCHW array tiled by k x k
    windows: window offset (i, j) first, whatever the array's strides."""
    n, c, h, w = a.shape
    return a.reshape(n, c, h // k, k, w // k, k).transpose(3, 5, 0, 1, 2, 4)


def first_max_mask(
    windows: np.ndarray, pooled: np.ndarray, mask: np.ndarray, taken: np.ndarray
) -> np.ndarray:
    """One-hot routing mask: each window's first maximum, in window order.

    ``windows`` is a (k, k, *P) view of the pooled input, ``pooled`` its
    maxima, broadcastable to that shape, ``mask`` a bool (k, k, *P) view
    it fills and ``taken`` a bool (*P) scratch.  A position is marked iff
    it equals the window's maximum and no earlier position (row-major over
    the window) did -- ``argmax``'s tie rule.  A window whose maximum is
    NaN marks its first NaN, again as ``argmax`` does.  One broadcast
    compare does the bulk; ties are resolved on pooled-size arrays.
    """
    k = windows.shape[1]
    np.equal(windows, pooled, out=mask)
    np.copyto(taken, mask[0, 0])
    for t in range(1, k * k):
        m = mask[divmod(t, k)]
        np.greater(m, taken, out=m)  # m and not taken
        np.logical_or(taken, m, out=taken)
    if not taken.all():
        # Only a NaN maximum equals nothing in its window.
        for t in range(k * k):
            m = mask[divmod(t, k)]
            nan = np.isnan(windows[divmod(t, k)])
            np.greater(nan, taken, out=nan)
            np.logical_or(m, nan, out=m)
            np.logical_or(taken, nan, out=taken)
    return mask


class MaxPool2d(Module):
    """Max pooling with square windows (no padding, floor semantics).

    NaN propagates: a window holding a NaN pools to NaN, as ``np.maximum``
    and PyTorch do, on every path and in both modes.  The gradient of a
    window goes to its first maximum in row-major window order; a NaN
    window sends it to its first NaN.

    Two paths.  When ``stride == kernel`` tiles the input exactly (every
    pool in the model zoo), the windows are a zero-copy view: forward is a
    chain of ``np.maximum`` over the k*k window offsets, training records a
    bool one-hot mask (:func:`first_max_mask`, k*k bytes per pooled output,
    laid out window-major as (k, k, N, C, oh, ow)) and backward is one
    broadcast multiply.  Any other geometry copies the windows and routes
    by ``argmax``.  Backward follows whichever record forward left.
    """

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._mask: np.ndarray | None = None
        self._argmax: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def output_hw(self, in_hw: tuple[int, int]) -> tuple[int, int]:
        return conv_output_hw(in_hw, self.kernel_size, self.stride, 0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        k = self.kernel_size
        self._mask = self._argmax = None
        if _tiles_exactly(x.shape, k, self.stride):
            v = _window_major(x, k)
            out = np.empty(v.shape[2:], dtype=x.dtype)
            out[...] = v[0, 0]
            for t in range(1, k * k):
                np.maximum(out, v[divmod(t, k)], out=out)
            if self.training:
                # Window-major, so every per-offset slice is contiguous.
                mask, _ = self._buf("mask", v.shape, np.bool_)
                taken, _ = self._buf("taken", out.shape, np.bool_)
                self._mask = first_max_mask(v, out, mask, taken)
        else:
            win = sliding_windows(x, k, self.stride)
            n, c, oh, ow, _, _ = win.shape
            flat, _ = self._buf("flat", (n, c, oh, ow, k * k), x.dtype)
            flat.reshape(n, c, oh, ow, k, k)[...] = win
            idx = flat.argmax(axis=-1)
            out = np.ascontiguousarray(
                np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
            )
            if self.training:
                self._argmax = idx
        self._x_shape = x.shape if self.training else None
        return out

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None or (self._mask is None and self._argmax is None):
            raise ShapeError("backward called before training-mode forward")
        k = self.kernel_size
        n, c, oh, ow = grad_out.shape
        if self._mask is not None:
            dx = np.empty(self._x_shape, dtype=grad_out.dtype)
            np.multiply(grad_out, self._mask, out=_window_major(dx, k))
        else:
            dflat, _ = self._buf("dflat", (n, c, oh, ow, k * k), grad_out.dtype)
            dflat.fill(0)
            np.put_along_axis(dflat, self._argmax[..., None], grad_out[..., None], axis=-1)
            dwin = dflat.reshape(n, c, oh, ow, k, k)
            dx = _scatter_windows(dwin, self._x_shape, k, self.stride)
        self._mask = self._argmax = None
        return dx


class AvgPool2d(Module):
    """Average pooling with square windows (no padding, floor semantics)."""

    def __init__(self, kernel_size: int, stride: int | None = None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride if stride is not None else kernel_size
        self._x_shape: tuple[int, int, int, int] | None = None

    def output_hw(self, in_hw: tuple[int, int]) -> tuple[int, int]:
        return conv_output_hw(in_hw, self.kernel_size, self.stride, 0)

    def forward(self, x: np.ndarray) -> np.ndarray:
        win = sliding_windows(x, self.kernel_size, self.stride)
        out = win.mean(axis=(-1, -2))
        self._x_shape = x.shape if self.training else None
        return np.ascontiguousarray(out.astype(x.dtype, copy=False))

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise ShapeError("backward called before training-mode forward")
        k = self.kernel_size
        n, c, oh, ow = grad_out.shape
        share = grad_out / (k * k)
        if _tiles_exactly(self._x_shape, k, self.stride):
            # Every input position belongs to exactly one window: broadcast
            # the per-window share straight into a reshaped view of dx.
            dx = np.empty(self._x_shape, dtype=grad_out.dtype)
            dx.reshape(n, c, oh, k, ow, k)[...] = share[:, :, :, None, :, None]
        else:
            # Scatter the share directly -- no (N,C,oh,ow,k,k) broadcast
            # copy is ever materialized.
            s = self.stride
            dx = np.zeros(self._x_shape, dtype=grad_out.dtype)
            for i in range(k):
                for j in range(k):
                    dx[:, :, i : i + s * oh : s, j : j + s * ow : s] += share
        self._x_shape = None
        return dx


class AdaptiveAvgPool2d(Module):
    """Average pooling to a fixed output grid, PyTorch bin semantics.

    Bin edges are ``floor(i * H / out)``; handles inputs that are not exact
    multiples of the output size.  ``output_size=1`` is global average
    pooling (the classifier heads use this).
    """

    def __init__(self, output_size: int):
        super().__init__()
        if output_size < 1:
            raise ShapeError("output_size must be >= 1")
        self.output_size = output_size
        self._x_shape: tuple[int, int, int, int] | None = None

    def output_hw(self, in_hw: tuple[int, int]) -> tuple[int, int]:
        return (self.output_size, self.output_size)

    def _edges(self, size: int) -> np.ndarray:
        return (np.arange(self.output_size + 1) * size) // self.output_size

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        if h < self.output_size or w < self.output_size:
            raise ShapeError(
                f"input spatial {h}x{w} smaller than output {self.output_size}"
            )
        eh, ew = self._edges(h), self._edges(w)
        # reduceat sums over [edge_i, edge_{i+1}) slices along each axis.
        summed_h = np.add.reduceat(x, eh[:-1], axis=2)
        summed = np.add.reduceat(summed_h, ew[:-1], axis=3)
        counts = np.outer(np.diff(eh), np.diff(ew)).astype(x.dtype)
        out = summed / counts[None, None, :, :]
        self._x_shape = x.shape if self.training else None
        return out.astype(x.dtype, copy=False)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._x_shape is None:
            raise ShapeError("backward called before training-mode forward")
        n, c, h, w = self._x_shape
        eh, ew = self._edges(h), self._edges(w)
        hw_counts = np.outer(np.diff(eh), np.diff(ew)).astype(grad_out.dtype)
        share = grad_out / hw_counts[None, None, :, :]
        # Expand each bin's share across its rows/cols.
        dx = np.repeat(share, np.diff(eh), axis=2)
        dx = np.repeat(dx, np.diff(ew), axis=3)
        self._x_shape = None
        return np.ascontiguousarray(dx)


class GlobalAvgPool2d(AdaptiveAvgPool2d):
    """Global average pooling (adaptive pooling to 1x1)."""

    def __init__(self) -> None:
        super().__init__(output_size=1)
