"""Property tests: the window scatters, the NHWC lowering helpers and the
pooling fast paths match their reference formulations.

The references scatter with one unbuffered ``np.add.at`` per window
offset, in ``(i, j)`` order, so every position sums the same addends in
the same order as the code under test: comparisons are exact.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.nn import AvgPool2d, DepthwiseConv2d, MaxPool2d
from repro.nn.functional import (
    col2im_nhwc,
    im2col_nhwc,
    pad2d,
    pad2d_nhwc,
    scatter_windows,
    sliding_windows,
)
from repro.utils.rng import spawn_rng


def ref_scatter(dwin, x_shape, kernel, stride, padding=0):
    """NCHW window scatter, one unbuffered ``np.add.at`` per window offset."""
    n, c, h, w = x_shape
    oh, ow = dwin.shape[2], dwin.shape[3]
    dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dwin.dtype)
    rows = stride * np.arange(oh)[:, None]
    cols = stride * np.arange(ow)[None, :]
    for i in range(kernel):
        for j in range(kernel):
            np.add.at(dxp, (slice(None), slice(None), i + rows, j + cols), dwin[..., i, j])
    return dxp[:, :, padding : padding + h, padding : padding + w]


def ref_col2im_nhwc(dcols, kernel, stride, target_shape):
    """NHWC column scatter onto a zeroed padded target, same order."""
    oh, ow = dcols.shape[1], dcols.shape[2]
    out = np.zeros(target_shape, dcols.dtype)
    rows = stride * np.arange(oh)[:, None]
    cols = stride * np.arange(ow)[None, :]
    for i in range(kernel):
        for j in range(kernel):
            np.add.at(out, (slice(None), i + rows, j + cols), dcols[:, :, :, i, j, :])
    return out


class TestScatterWindows:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 2), c=st.integers(1, 3), k=st.integers(1, 5),
        s=st.integers(1, 3), p=st.integers(0, 2), hw=st.integers(1, 9),
        seed=st.integers(0, 2**16),
    )
    def test_exact_adjoint_of_padded_sliding_windows(self, n, c, k, s, p, hw, seed):
        # <win(x), d> == <x, scatter(d)>, and the scatter is the np.add.at
        # reference to the bit, into a fresh target or a NaN-filled one.
        if hw + 2 * p < k:
            return
        rng = spawn_rng(seed, "scatter-windows")
        x = rng.normal(size=(n, c, hw, hw))
        win = sliding_windows(pad2d(x, p), k, s)
        d = rng.normal(size=win.shape)
        dx = scatter_windows(d, x.shape, k, s, p)
        assert dx.shape == x.shape
        assert np.isclose(np.vdot(win, d), np.vdot(x, dx), rtol=1e-9)
        np.testing.assert_array_equal(dx, ref_scatter(d, x.shape, k, s, p))
        stale = np.full((n, c, hw + 2 * p, hw + 2 * p), np.nan)
        reused = scatter_windows(d, x.shape, k, s, p, out=stale)
        assert np.shares_memory(reused, stale)
        np.testing.assert_array_equal(reused, dx)

    def test_target_must_be_the_padded_input(self):
        d = np.zeros((1, 2, 3, 3, 3, 3))
        with pytest.raises(ShapeError, match="does not match"):
            scatter_windows(d, (1, 2, 5, 5), 3, 1, 1, out=np.zeros((1, 2, 5, 5)))

    @pytest.mark.parametrize("attached", [False, True], ids=["fresh", "workspace"])
    @pytest.mark.parametrize("k, s, p", [(3, 1, 1), (3, 2, 1), (5, 1, 2), (2, 2, 0)])
    def test_depthwise_input_grad_is_the_reference_scatter(self, k, s, p, attached):
        # Two steps on one module: with a workspace the second scatters
        # into the slot the first left holding its gradient.
        conv = DepthwiseConv2d(3, k, s, p, rng=np.random.default_rng(1))
        if attached:
            conv.attach_workspace()
        rng = spawn_rng(14, "depthwise")
        for _ in range(2):
            x = rng.normal(size=(2, 3, 7, 7)).astype(np.float32)
            y = conv.forward(x)
            g = rng.normal(size=y.shape).astype(np.float32)
            dwin = np.einsum("nchw,cij->nchwij", g, conv.weight.data, optimize=True)
            dx = conv.backward(g)
            np.testing.assert_array_equal(dx, ref_scatter(dwin, x.shape, k, s, p))


class TestCol2imNhwcAdjoint:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 2), c=st.integers(1, 3), k=st.integers(1, 5),
        s=st.integers(1, 3), hw=st.integers(5, 10),
    )
    def test_scatter_is_exact_adjoint_of_gather(self, n, c, k, s, hw):
        # <im2col(x), d> == <x, col2im(d)> for every geometry, tiled or not.
        if hw < k:
            return
        rng = spawn_rng(7, "adjoint")
        xp = rng.normal(size=(n, hw, hw, c)).astype(np.float64)
        cols = im2col_nhwc(xp, k, s)
        d = rng.normal(size=cols.shape).astype(np.float64)
        dx = col2im_nhwc(d, k, s, out=np.empty_like(xp))
        assert np.isclose(float(np.vdot(cols, d)), float(np.vdot(xp, dx)), rtol=1e-9)
        np.testing.assert_array_equal(dx, ref_col2im_nhwc(d, k, s, xp.shape))

    def test_pad2d_nhwc_matches_transpose_pad(self):
        rng = spawn_rng(9, "pad")
        x = rng.normal(size=(2, 3, 4, 5)).astype(np.float32)
        got = pad2d_nhwc(x, 2)
        ref = np.pad(x.transpose(0, 2, 3, 1), ((0, 0), (2, 2), (2, 2), (0, 0)))
        np.testing.assert_array_equal(got, ref)


def _col2im_case(k, s, oh, extra=0, n=2, c=3, seed=10):
    """dcols for an (oh, oh) output grid and an empty padded target."""
    d = spawn_rng(seed, "col2im").normal(size=(n, oh, oh, k, k, c)).astype(np.float32)
    hp = (oh - 1) * s + k + extra
    return d, np.empty((n, hp, hp, c), np.float32)


class TestCol2imMethodChoice:
    """The scatter is one reshaped assignment when the geometry tiles, else
    the slice-add loop; either way it equals the ``np.add.at`` reference."""

    @pytest.mark.parametrize("k, s, oh", [(2, 2, 4), (3, 3, 3), (1, 1, 5)])
    def test_auto_is_tiled_when_the_geometry_tiles(self, k, s, oh):
        d, out = _col2im_case(k, s, oh)
        got = col2im_nhwc(d, k, s, out=out)
        np.testing.assert_array_equal(got, ref_col2im_nhwc(d, k, s, out.shape))

    @pytest.mark.parametrize(
        "k, s, oh, extra", [(3, 1, 6, 0), (5, 1, 4, 0), (3, 2, 4, 0), (2, 2, 4, 1)]
    )
    def test_auto_is_the_loop_otherwise(self, k, s, oh, extra):
        d, out = _col2im_case(k, s, oh, extra)
        got = col2im_nhwc(d, k, s, out=out)
        np.testing.assert_array_equal(got, ref_col2im_nhwc(d, k, s, out.shape))

    @pytest.mark.parametrize(
        "path, k, s", [("loop", 3, 1), ("loop", 3, 2), ("tiled", 2, 2)]
    )
    def test_stale_target_is_fully_overwritten(self, path, k, s):
        d, out = _col2im_case(k, s, 4)
        fresh = col2im_nhwc(d, k, s, out=np.zeros_like(out))
        out.fill(np.nan)
        stale = col2im_nhwc(d, k, s, out=out)
        assert stale is out
        np.testing.assert_array_equal(stale, fresh)

    @pytest.mark.parametrize("mismatch", ["channels", "kernel"])
    def test_target_must_match_the_columns(self, mismatch):
        d, out = _col2im_case(3, 1, 4)
        if mismatch == "channels":
            out = np.empty(out.shape[:-1] + (out.shape[-1] + 1,), np.float32)
            kernel = 3
        else:
            kernel = 2
        with pytest.raises(ShapeError, match="does not match"):
            col2im_nhwc(d, kernel, 1, out=out)


class TestPoolingPaths:
    @settings(max_examples=25, deadline=None)
    @given(
        k=st.integers(1, 3), hw=st.integers(4, 9), n=st.integers(1, 3),
        tie_heavy=st.booleans(),
    )
    def test_maxpool_tiled_equals_generic(self, k, hw, n, tie_heavy):
        # Same module, tiling vs non-tiling inputs; tie-heavy integer data
        # checks the argmax-compatible routing of the fast path.
        if hw < k:
            return
        rng = spawn_rng(12, "pool")
        if tie_heavy:
            x = rng.integers(0, 3, size=(n, 2, hw, hw)).astype(np.float64)
        else:
            x = rng.normal(size=(n, 2, hw, hw))
        pool = MaxPool2d(k)
        y = pool.forward(x)
        win = sliding_windows(x, k, k)
        np.testing.assert_array_equal(y, win.max(axis=(-1, -2)))
        g = rng.normal(size=y.shape)
        dx = pool.backward(g)
        # Reference backward via the original flat-argmax formulation.
        oh = (hw - k) // k + 1
        flat = np.ascontiguousarray(win).reshape(n, 2, oh, oh, k * k)
        idx = flat.argmax(axis=-1)
        dflat = np.zeros_like(flat)
        np.put_along_axis(dflat, idx[..., None], g[..., None], axis=-1)
        ref = ref_scatter(dflat.reshape(n, 2, oh, oh, k, k), x.shape, k, k)
        np.testing.assert_array_equal(dx, ref)

    @settings(max_examples=25, deadline=None)
    @given(k=st.integers(1, 3), s=st.integers(1, 3), hw=st.integers(4, 9))
    def test_avgpool_backward_scatters_share(self, k, s, hw):
        if hw < k:
            return
        rng = spawn_rng(13, "avg")
        x = rng.normal(size=(2, 3, hw, hw))
        pool = AvgPool2d(k, s)
        y = pool.forward(x)
        g = rng.normal(size=y.shape)
        dx = pool.backward(g)
        # Reference: scatter g/k^2 into every window position.
        share = np.broadcast_to((g / (k * k))[..., None, None], g.shape + (k, k))
        np.testing.assert_array_equal(dx, ref_scatter(share, x.shape, k, s))
