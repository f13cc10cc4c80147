"""Property tests: the NHWC lowering helpers and the pooling fast paths
match their reference formulations.

The vectorized col2im variants and the pooling fast paths must be
numerically interchangeable with the original formulations (exact for
pure re-orderings of the same additions, allclose where the overlap-add
sums in a different order).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.nn import AvgPool2d, MaxPool2d
from repro.nn.functional import (
    col2im_nhwc,
    im2col_nhwc,
    overlap_add,
    pad2d_nhwc,
    sliding_windows,
)
from repro.nn.pooling import _scatter_windows
from repro.utils.rng import spawn_rng

class TestCol2imNhwcAdjoint:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 2), c=st.integers(1, 3), k=st.integers(1, 5),
        s=st.integers(1, 3), hw=st.integers(5, 10),
    )
    def test_scatter_is_exact_adjoint_of_gather(self, n, c, k, s, hw):
        # <im2col(x), d> == <x, col2im(d)> for every geometry and method.
        if hw < k:
            return
        rng = spawn_rng(7, "adjoint")
        xp = rng.normal(size=(n, hw, hw, c)).astype(np.float64)
        cols = im2col_nhwc(xp, k, s)
        d = rng.normal(size=cols.shape).astype(np.float64)
        out = np.empty_like(xp)
        methods = ["loop"]
        oh = (hw - k) // s + 1
        if s == k and hw == oh * k:
            methods.append("tiled")
        if s == 1:
            methods.append("overlap")
        for method in methods:
            dx = col2im_nhwc(d, k, s, out=out, method=method)
            lhs = float(np.vdot(cols, d))
            rhs = float(np.vdot(xp, dx))
            assert np.isclose(lhs, rhs, rtol=1e-9), method

    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 2), c=st.integers(1, 3), k=st.integers(2, 6),
        oh=st.integers(1, 5),
    )
    def test_overlap_method_equals_loop(self, n, c, k, oh):
        rng = spawn_rng(8, "overlap")
        d = rng.normal(size=(n, oh, oh, k, k, c)).astype(np.float64)
        hp = oh + k - 1
        a = col2im_nhwc(d, k, 1, out=np.empty((n, hp, hp, c)), method="loop")
        b = col2im_nhwc(d, k, 1, out=np.empty((n, hp, hp, c)), method="overlap")
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-12)

    def test_overlap_add_basic(self):
        contrib = np.zeros((2, 4, 3, 1))
        contrib[:, 1, 0, 0] = 1.0  # window row 1, position 0 -> output 1
        out = overlap_add(contrib, ntail=1)
        assert out.shape == (2, 6, 1)
        np.testing.assert_array_equal(out[:, 1, 0], [1.0, 1.0])

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
    """``method="auto"`` is ``"tiled"`` when the geometry tiles, else
    ``"loop"``; explicit methods check their own preconditions."""

    @pytest.mark.parametrize("k, s, oh", [(2, 2, 4), (3, 3, 3), (1, 1, 5)])
    def test_auto_is_tiled_when_the_geometry_tiles(self, k, s, oh):
        d, out = _col2im_case(k, s, oh)
        auto = col2im_nhwc(d, k, s, out=out.copy(), method="auto")
        tiled = col2im_nhwc(d, k, s, out=out.copy(), method="tiled")
        loop = col2im_nhwc(d, k, s, out=out.copy(), method="loop")
        np.testing.assert_array_equal(auto, tiled)
        np.testing.assert_array_equal(auto, loop)

    @pytest.mark.parametrize(
        "k, s, oh, extra", [(3, 1, 6, 0), (5, 1, 4, 0), (3, 2, 4, 0), (2, 2, 4, 1)]
    )
    def test_auto_is_the_loop_otherwise(self, k, s, oh, extra):
        d, out = _col2im_case(k, s, oh, extra)
        auto = col2im_nhwc(d, k, s, out=out.copy())
        loop = col2im_nhwc(d, k, s, out=out.copy(), method="loop")
        np.testing.assert_array_equal(auto, loop)
        with pytest.raises(ShapeError, match="tiled col2im requires"):
            col2im_nhwc(d, k, s, out=out.copy(), method="tiled")

    @pytest.mark.parametrize(
        "method, k, s", [("loop", 3, 1), ("loop", 3, 2), ("overlap", 3, 1), ("tiled", 2, 2)]
    )
    def test_stale_target_is_fully_overwritten(self, method, k, s):
        d, out = _col2im_case(k, s, 4)
        fresh = col2im_nhwc(d, k, s, out=np.zeros_like(out), method=method)
        out.fill(np.nan)
        stale = col2im_nhwc(d, k, s, out=out, method=method)
        assert stale is out
        np.testing.assert_array_equal(stale, fresh)

    @pytest.mark.parametrize("method", ["threaded", "fast"])
    def test_unknown_method_raises(self, method):
        d, out = _col2im_case(3, 1, 4)
        with pytest.raises(ShapeError, match="unknown col2im method"):
            col2im_nhwc(d, 3, 1, out=out, method=method)

    def test_overlap_requires_stride_one(self):
        d, out = _col2im_case(3, 2, 4)
        with pytest.raises(ShapeError, match="overlap col2im requires stride == 1"):
            col2im_nhwc(d, 3, 2, out=out, method="overlap")

    def test_tiled_requires_stride_equal_to_kernel(self):
        d, out = _col2im_case(3, 1, 4)
        with pytest.raises(ShapeError, match="tiled col2im requires"):
            col2im_nhwc(d, 3, 1, out=out, method="tiled")

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


class TestScatterWindowsFastPaths:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(1, 2), c=st.integers(1, 3), k=st.integers(1, 5),
        s=st.integers(1, 3), hw=st.integers(5, 10),
    )
    def test_methods_agree(self, n, c, k, s, hw):
        if hw < k:
            return
        oh = (hw - k) // s + 1
        rng = spawn_rng(10, "scatter")
        dwin = rng.normal(size=(n, c, oh, oh, k, k))
        ref = _scatter_windows(dwin, (n, c, hw, hw), k, s, method="loop")
        if s == k and hw == oh * k:
            got = _scatter_windows(dwin, (n, c, hw, hw), k, s, method="tiled")
            np.testing.assert_array_equal(ref, got)
        if s == 1 and hw == oh + k - 1:
            got = _scatter_windows(dwin, (n, c, hw, hw), k, s, method="overlap")
            np.testing.assert_allclose(ref, got, rtol=1e-10, atol=1e-12)

    def test_auto_dispatch_matches_loop(self):
        rng = spawn_rng(11, "auto")
        for (k, s, hw) in [(2, 2, 8), (3, 3, 9), (5, 1, 9), (3, 2, 7)]:
            oh = (hw - k) // s + 1
            dwin = rng.normal(size=(1, 2, oh, oh, k, k))
            ref = _scatter_windows(dwin, (1, 2, hw, hw), k, s, method="loop")
            got = _scatter_windows(dwin, (1, 2, hw, hw), k, s)
            np.testing.assert_allclose(ref, got, rtol=1e-10, atol=1e-12)


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
        ref = _scatter_windows(
            dflat.reshape(n, 2, oh, oh, k, k), x.shape, k, k, method="loop"
        )
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
        # Reference: scatter g/k^2 into every window position explicitly.
        oh = (hw - k) // s + 1
        ref = np.zeros_like(x)
        share = g / (k * k)
        for i in range(k):
            for j in range(k):
                ref[:, :, i : i + s * oh : s, j : j + s * oh : s] += share
        np.testing.assert_allclose(dx, ref, rtol=1e-12, atol=1e-12)
