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
layer.  They remain because the kernels suite's ``im2col`` / ``col2im`` /
``col2im_overlap_k5`` rows time them against the NCHW pair and the e2e
span table (``benchmarks/e2e/span_table.py``) names them; they go when
that table does.  Their window extraction and scatter-add move contiguous
channel runs, and ``col2im_nhwc``'s fast paths replace the k x k Python
loop with reshaped assignments (``stride == kernel``) or two
:func:`overlap_add` passes (``stride == 1``), which ``MaxPool2d``'s
scatter shares.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError


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
    (N, out_h, out_w, C) slab, moving contiguous channel runs, into its
    column of the ``(C, k, k)``-ordered layout.  A 1x1 unpadded kernel
    gathers straight from the transposed input.
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
    for i in range(kernel):
        for j in range(kernel):
            cols[:, :, :, :, i, j] = xs[
                :, i : i + stride * out_h : stride, j : j + stride * out_w : stride, :
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
    n, c, h, w = x_shape
    out_h, out_w = out_hw
    hp, wp = h + 2 * padding, w + 2 * padding
    dwin = dcols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(0, 3, 4, 5, 1, 2)
    dxp = np.zeros((n, c, hp, wp), dtype=dcols.dtype)
    for i in range(kernel):
        for j in range(kernel):
            dxp[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride] += dwin[
                :, :, i, j
            ]
    if padding == 0:
        return dxp
    return dxp[:, :, padding : padding + h, padding : padding + w]


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


def overlap_add(contrib: np.ndarray, ntail: int = 1) -> np.ndarray:
    """Vectorized 1-D overlap-add: fold a window axis into a length axis.

    ``contrib`` has shape ``(..., k, L, *tail)`` (``ntail`` trailing axes);
    element ``[r, o]`` contributes to output position ``o + r``.  Returns
    ``(..., L + k - 1, *tail)`` with ``out[d] = sum_r contrib[r, d - r]``.

    Instead of a Python loop over the ``k`` shifts, the contributions are
    written into a zero-tailed scratch whose rows are then *re-strided* so
    that row ``r`` appears shifted right by ``r`` (stride ``sk - sl`` on
    the window axis); a single ``sum`` over the window axis finishes the
    job.  The shifted view only ever reads the zero tail of the previous
    row, never foreign memory.
    """
    kpos = -2 - ntail
    lpos = -1 - ntail
    k, length = contrib.shape[kpos], contrib.shape[lpos]
    out_len = length + k - 1
    if k == 1:
        return contrib.take(0, axis=kpos)
    scratch_shape = list(contrib.shape)
    scratch_shape[lpos] = out_len
    scratch = np.zeros(tuple(scratch_shape), dtype=contrib.dtype)
    tail_idx = (slice(None),) * ntail
    scratch[(Ellipsis, slice(None), slice(0, length)) + tail_idx] = contrib
    strides = list(scratch.strides)
    strides[kpos] = scratch.strides[kpos] - scratch.strides[lpos]
    shifted = np.lib.stride_tricks.as_strided(
        scratch, shape=scratch.shape, strides=tuple(strides)
    )
    return shifted.sum(axis=kpos)


def col2im_nhwc(
    dcols: np.ndarray,
    kernel: int,
    stride: int,
    out: np.ndarray,
    method: str = "auto",
) -> np.ndarray:
    """Adjoint of :func:`im2col_nhwc`: scatter-add columns onto ``out``.

    ``dcols`` is (N, out_h, out_w, k, k, C); ``out`` is the padded NHWC
    gradient target (N, Hp, Wp, C), fully overwritten.  Three execution
    strategies:

    * ``"tiled"`` -- ``stride == kernel`` with exact tiling: every input
      position receives exactly one window element, so the whole scatter is
      one reshaped assignment (no zero-fill, no loop).
    * ``"overlap"`` -- ``stride == 1``: two :func:`overlap_add` passes
      (width then height) replace the k*k Python loop.  Benchmarks at
      parity with the loop for realistic kernels, so it is explicit-only.
    * ``"loop"`` -- generic bulk slice adds (one per window offset); for
      small kernels this touches the least memory.

    ``method="auto"`` is ``"tiled"`` when the geometry tiles, else
    ``"loop"``.
    """
    n, out_h, out_w, k, _, c = dcols.shape
    np_, hp, wp, c_ = out.shape
    if (np_, c_) != (n, c) or k != kernel:
        raise ShapeError(f"col2im target {out.shape} does not match {dcols.shape}")
    tiled_ok = stride == kernel and hp == out_h * kernel and wp == out_w * kernel
    if method == "auto":
        method = "tiled" if tiled_ok else "loop"
    if method == "tiled":
        if not tiled_ok:
            raise ShapeError("tiled col2im requires stride == kernel and exact tiling")
        view = out.reshape(n, out_h, kernel, out_w, kernel, c)
        view[...] = dcols.transpose(0, 1, 3, 2, 4, 5)
        return out
    if method == "overlap":
        if stride != 1:
            raise ShapeError("overlap col2im requires stride == 1")
        # Fold kj into the width axis, then ki into the height axis.
        by_width = overlap_add(dcols.transpose(0, 1, 3, 4, 2, 5), ntail=1)
        out[...] = overlap_add(by_width.transpose(0, 2, 1, 3, 4), ntail=2)
        return out
    if method != "loop":
        raise ShapeError(f"unknown col2im method {method!r}")
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
