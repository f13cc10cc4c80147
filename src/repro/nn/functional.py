"""Array-level primitives shared by the nn modules.

The convolution layers use the classic im2col/col2im lowering: convolution
becomes one large matrix multiply, which is the fastest formulation available
to a pure-numpy substrate.  ``col2im`` is the exact adjoint of ``im2col``,
verified by property tests.

The conv layers train on one layout, the NCHW column layout
(``im2col``/``col2im``), whose values are kept bit-for-bit stable.
``im2col`` stages its input once in NHWC (:func:`pad2d_nhwc`) and gathers
one contiguous-channel slab per kernel offset into that layout, instead of
copying k-float runs out of a 6-D strided window view (the reference
formulation ``tests/test_nn_kernel_oracle.py`` holds it to).

The NHWC lowerings ``im2col_nhwc``/``col2im_nhwc`` no longer back any
layer.  They remain because the kernels suite's ``im2col`` / ``col2im``
rows time them against the NCHW pair and the e2e span table
(``benchmarks/e2e/span_table.py``) names them; they go when that table
does.  Their window extraction and scatter-add move contiguous channel
runs, and ``col2im_nhwc`` is one reshaped assignment when ``stride ==
kernel`` tiles its target.

:func:`scatter_windows` is the one NCHW window scatter, the adjoint of
``sliding_windows(pad2d(x, p))``: ``col2im``, the depthwise conv's input
gradient and both pools' generic backward are calls to it.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


#: Column bytes :func:`im2col` gathers per tile of samples: well inside a
#: core's L2, so a tile's k*k strided passes hit cache.
IM2COL_TILE_BYTES = 1 << 20


def check_conv_geometry(kernel: int, stride: int, padding: int) -> None:
    """Reject a kernel, stride or padding no conv/pool can be built with."""
    if kernel < 1 or stride < 1 or padding < 0:
        raise ShapeError(
            f"kernel {kernel} and stride {stride} must be positive and "
            f"padding {padding} non-negative"
        )


def conv_output_hw(
    in_hw: tuple[int, int], kernel: int, stride: int, padding: int
) -> tuple[int, int]:
    """Spatial output size of a conv/pool with square kernel."""
    h, w = in_hw
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError(
            f"kernel {kernel} stride {stride} padding {padding} does not fit "
            f"input {in_hw}"
        )
    return out_h, out_w


def pad2d(x: np.ndarray, padding: int) -> np.ndarray:
    """Zero-pad the two trailing (spatial) axes of an NCHW array."""
    if padding == 0:
        return x
    return np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))


def sliding_windows(
    x: np.ndarray, kernel: int, stride: int
) -> np.ndarray:
    """View of shape (N, C, out_h, out_w, kernel, kernel) over an NCHW array.

    The result is a zero-copy strided view; callers must not write to it.
    """
    n, c, h, w = x.shape
    out_h = (h - kernel) // stride + 1
    out_w = (w - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"kernel {kernel} stride {stride} does not fit {x.shape}")
    sn, sc, sh, sw = x.strides
    return np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(sn, sc, sh * stride, sw * stride, sh, sw),
        writeable=False,
    )


def im2col(
    x: np.ndarray,
    kernel: int,
    stride: int,
    padding: int,
    out: np.ndarray | None = None,
    padded: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[int, int]]:
    """Lower an NCHW batch to a (N*out_h*out_w, C*k*k) matrix.

    Returns the column matrix and the spatial output size.  ``out`` is an
    optional preallocated column buffer; ``padded`` an optional padded
    NHWC scratch (N, H+2p, W+2p, C) whose border is already zero --
    workspace callers pass both so the lowering allocates nothing.

    The input is staged once in NHWC (the padding copy doubles as the
    transpose), then each of the k*k kernel offsets gathers one
    (n, out_h, out_w, C) slab, moving contiguous channel runs, into its
    column of the ``(C, k, k)``-ordered layout.  A 1x1 unpadded kernel
    gathers straight from the transposed input.

    The gather runs over tiles of samples, about :data:`IM2COL_TILE_BYTES`
    of columns each, all k*k offsets per tile: each offset writes every
    k*k-th float, so an untiled pass streams the whole matrix through
    the cache k*k times, while a tile's passes stay in L2.  Every
    element is the same copy either way.
    """
    n, c, h, w = x.shape
    out_h, out_w = conv_output_hw((h, w), kernel, stride, padding)
    shape = (n * out_h * out_w, c * kernel * kernel)
    if out is None:
        out = np.empty(shape, dtype=x.dtype)
    elif out.shape != shape:
        raise ShapeError(f"column buffer {out.shape} does not match {shape}")
    if kernel == 1 and padding == 0:
        xs = x.transpose(0, 2, 3, 1)
    else:
        xs = pad2d_nhwc(x, padding, out=padded, fresh=False)
    cols = out.reshape(n, out_h, out_w, c, kernel, kernel)
    sample_bytes = out.itemsize * c * kernel * kernel * out_h * out_w
    tile = max(1, IM2COL_TILE_BYTES // max(1, sample_bytes))
    for lo in range(0, n, tile):
        hi = min(n, lo + tile)
        for i in range(kernel):
            for j in range(kernel):
                cols[lo:hi, :, :, :, i, j] = xs[
                    lo:hi, i : i + stride * out_h : stride, j : j + stride * out_w : stride, :
                ]
    return out, (out_h, out_w)


def col2im(
    dcols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int,
    out_hw: tuple[int, int],
) -> np.ndarray:
    """Adjoint of :func:`im2col`: scatter-add column gradients back to NCHW."""
    n, c = x_shape[:2]
    out_h, out_w = out_hw
    dwin = dcols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(0, 3, 1, 2, 4, 5)
    return scatter_windows(dwin, x_shape, kernel, stride, padding)


def scatter_windows(
    dwin: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: int,
    stride: int,
    padding: int = 0,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Adjoint of ``sliding_windows(pad2d(x, padding), kernel, stride)``.

    Scatter-adds per-window gradients (N, C, out_h, out_w, k, k) onto an
    NCHW input of ``x_shape``: one bulk slice add per window offset, in
    ``(i, j)`` order, so every input position sums its addends in that
    order.  ``out`` is an optional padded (N, C, H+2p, W+2p) target,
    cleared here; the result is its unpadded interior.
    """
    n, c, h, w = x_shape
    out_h, out_w = dwin.shape[2], dwin.shape[3]
    shape = (n, c, h + 2 * padding, w + 2 * padding)
    if out is None:
        out = np.zeros(shape, dtype=dwin.dtype)
    elif out.shape != shape:
        raise ShapeError(f"scatter target {out.shape} does not match {shape}")
    else:
        out.fill(0)
    for i in range(kernel):
        for j in range(kernel):
            out[..., i : i + stride * out_h : stride, j : j + stride * out_w : stride] += dwin[
                ..., i, j
            ]
    if padding == 0:
        return out
    return out[..., padding : padding + h, padding : padding + w]


def pad2d_nhwc(
    x: np.ndarray, padding: int, out: np.ndarray | None = None, fresh: bool = True
) -> np.ndarray:
    """Zero-pad an NCHW batch into an NHWC buffer, layout change and pad
    in one pass.

    This is ``im2col``'s staging copy: the one pass ``np.pad`` would cost
    doubles as the NCHW->NHWC transpose.
    ``out`` is the padded (N, H+2p, W+2p, C) target; when ``fresh`` is
    False its border is assumed to still be zero from a previous call and
    only the interior is rewritten.
    """
    n, c, h, w = x.shape
    hp, wp = h + 2 * padding, w + 2 * padding
    if out is None:
        out = np.zeros((n, hp, wp, c), dtype=x.dtype)
    elif fresh:
        out.fill(0)
    if out.shape != (n, hp, wp, c):
        raise ShapeError(f"pad buffer {out.shape} does not match {(n, hp, wp, c)}")
    out[:, padding : padding + h, padding : padding + w, :] = x.transpose(0, 2, 3, 1)
    return out


def im2col_nhwc(
    xp: np.ndarray, kernel: int, stride: int, out: np.ndarray | None = None
) -> np.ndarray:
    """Lower a padded NHWC batch to (N, out_h, out_w, k, k, C) columns.

    Unlike the NCHW gather, every assignment here moves contiguous
    C-element runs, so the copy approaches memcpy speed.  Reshaping the
    result to ``(N*out_h*out_w, k*k*C)`` is free (it is C-contiguous) and
    matches a weight matrix laid out as ``(F, k*k*C)``.
    """
    n, hp, wp, c = xp.shape
    out_h = (hp - kernel) // stride + 1
    out_w = (wp - kernel) // stride + 1
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"kernel {kernel} stride {stride} does not fit {xp.shape}")
    shape = (n, out_h, out_w, kernel, kernel, c)
    if out is None:
        out = np.empty(shape, dtype=xp.dtype)
    if out.shape != shape:
        raise ShapeError(f"column buffer {out.shape} does not match {shape}")
    if stride == 1:
        # One copy per kernel *row*: for a fixed i, the (out_w, kernel, c)
        # tail of a destination row reads overlapping windows of the source
        # row, expressible as a zero-copy overlapping strided view (the j
        # axis reuses the w stride).  k copies instead of k*k.
        sn, sh, sw, sc = xp.strides
        for i in range(kernel):
            src = np.lib.stride_tricks.as_strided(
                xp[:, i:, :, :],
                shape=(n, out_h, out_w, kernel, c),
                strides=(sn, sh, sw, sw, sc),
            )
            out[:, :, :, i, :, :] = src
    else:
        for i in range(kernel):
            for j in range(kernel):
                out[:, :, :, i, j, :] = xp[
                    :, i : i + stride * out_h : stride, j : j + stride * out_w : stride, :
                ]
    return out


def col2im_nhwc(dcols: np.ndarray, kernel: int, stride: int, out: np.ndarray) -> np.ndarray:
    """Adjoint of :func:`im2col_nhwc`: scatter-add columns onto ``out``.

    ``dcols`` is (N, out_h, out_w, k, k, C); ``out`` is the padded NHWC
    gradient target (N, Hp, Wp, C), fully overwritten.  When ``stride ==
    kernel`` tiles the target exactly, every position receives one window
    element and the scatter is one reshaped assignment (no zero-fill, no
    loop); otherwise it is one bulk slice add per window offset.
    """
    n, out_h, out_w, k, _, c = dcols.shape
    np_, hp, wp, c_ = out.shape
    if (np_, c_) != (n, c) or k != kernel:
        raise ShapeError(f"col2im target {out.shape} does not match {dcols.shape}")
    if stride == kernel and hp == out_h * kernel and wp == out_w * kernel:
        view = out.reshape(n, out_h, kernel, out_w, kernel, c)
        view[...] = dcols.transpose(0, 1, 3, 2, 4, 5)
        return out
    if stride == 1:
        # First window offset covers [0:out_h, 0:out_w] -- write it as an
        # assignment and zero only the uncovered border strips, saving a
        # full clearing pass over the target.
        out[:, :out_h, :out_w, :] = dcols[:, :, :, 0, 0, :]
        out[:, out_h:, :, :] = 0
        out[:, :out_h, out_w:, :] = 0
        offsets = [(i, j) for i in range(kernel) for j in range(kernel)][1:]
    else:
        out.fill(0)
        offsets = [(i, j) for i in range(kernel) for j in range(kernel)]
    for i, j in offsets:
        out[
            :, i : i + stride * out_h : stride, j : j + stride * out_w : stride, :
        ] += dcols[:, :, :, i, j, :]
    return out


def softmax_parts(
    logits: np.ndarray, axis: int = -1
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Shared work of softmax/log-softmax: (shifted, exp, sum-of-exp).

    One max pass, one exp pass, one sum -- both normalizations derive from
    these, so callers needing probabilities *and* log-probabilities (the
    cross-entropy loss) pay for the expensive passes once.
    """
    shifted = logits - logits.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=axis, keepdims=True)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    _, e, se = softmax_parts(logits, axis)
    return e / se


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax."""
    shifted, _, se = softmax_parts(logits, axis)
    return shifted - np.log(se)


def softmax_with_log(
    logits: np.ndarray, axis: int = -1
) -> tuple[np.ndarray, np.ndarray]:
    """(softmax, log_softmax) from a single max/exp/sum pass."""
    shifted, e, se = softmax_parts(logits, axis)
    return e / se, shifted - np.log(se)


def one_hot(labels: np.ndarray, num_classes: int, dtype=np.float32) -> np.ndarray:
    """One-hot encode an int label vector as (N, num_classes)."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ShapeError(
            f"labels out of range [0, {num_classes}): "
            f"min={labels.min()} max={labels.max()}"
        )
    out = np.zeros((labels.shape[0], num_classes), dtype=dtype)
    out[np.arange(labels.shape[0]), labels] = 1
    return out
