"""Tests for repro.nn.functional: im2col/col2im, softmax, one-hot."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.nn.functional import (
    col2im,
    conv_output_hw,
    im2col,
    log_softmax,
    one_hot,
    pad2d,
    sliding_windows,
    softmax,
)
from repro.utils.rng import spawn_rng


class TestConvOutputHw:
    def test_basic(self):
        assert conv_output_hw((32, 32), 3, 1, 1) == (32, 32)
        assert conv_output_hw((32, 32), 3, 2, 1) == (16, 16)
        assert conv_output_hw((8, 8), 2, 2, 0) == (4, 4)

    def test_rectangular(self):
        assert conv_output_hw((16, 8), 3, 1, 1) == (16, 8)

    def test_too_small_raises(self):
        with pytest.raises(ShapeError):
            conv_output_hw((2, 2), 5, 1, 0)


class TestPad2d:
    def test_zero_padding_is_identity(self):
        x = np.ones((1, 1, 3, 3))
        assert pad2d(x, 0) is x

    def test_shape_and_values(self):
        x = np.ones((2, 3, 4, 4), dtype=np.float32)
        p = pad2d(x, 2)
        assert p.shape == (2, 3, 8, 8)
        assert p[:, :, :2].sum() == 0
        assert p[:, :, 2:6, 2:6].sum() == x.sum()


class TestSlidingWindows:
    def test_values_match_manual(self):
        x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
        win = sliding_windows(x, 2, 2)
        assert win.shape == (1, 1, 2, 2, 2, 2)
        np.testing.assert_array_equal(win[0, 0, 0, 0], [[0, 1], [4, 5]])
        np.testing.assert_array_equal(win[0, 0, 1, 1], [[10, 11], [14, 15]])

    def test_stride_one_overlap(self):
        x = np.arange(9, dtype=np.float64).reshape(1, 1, 3, 3)
        win = sliding_windows(x, 2, 1)
        assert win.shape == (1, 1, 2, 2, 2, 2)
        np.testing.assert_array_equal(win[0, 0, 0, 1], [[1, 2], [4, 5]])


class TestIm2Col:
    def test_identity_kernel_shape(self):
        x = spawn_rng(0, "x").normal(size=(2, 3, 5, 5))
        cols, out_hw = im2col(x, 1, 1, 0)
        assert out_hw == (5, 5)
        assert cols.shape == (2 * 25, 3)

    def test_matches_naive_conv(self):
        rng = spawn_rng(1, "conv")
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        cols, (oh, ow) = im2col(x, 3, 1, 1)
        out = (cols @ w.reshape(4, -1).T).reshape(2, oh, ow, 4).transpose(0, 3, 1, 2)
        # naive direct convolution
        xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
        naive = np.zeros((2, 4, 6, 6))
        for n in range(2):
            for f in range(4):
                for i in range(6):
                    for j in range(6):
                        naive[n, f, i, j] = (xp[n, :, i : i + 3, j : j + 3] * w[f]).sum()
        np.testing.assert_allclose(out, naive, rtol=1e-10, atol=1e-10)

    @pytest.mark.parametrize("tile_bytes", [1, 2 * 5292, None], ids=["1", "2", "default"])
    @pytest.mark.parametrize("k, s, p", [(3, 1, 1), (3, 2, 1), (1, 1, 0), (1, 2, 0), (5, 2, 2)])
    def test_sample_tiles_gather_the_reference(self, monkeypatch, tile_bytes, k, s, p):
        """Tiles of one sample, of two with a ragged last tile (5292 B is
        one sample's 3x3 columns here), and the default: the same matrix."""
        from repro.nn import functional
        from test_nn_kernel_oracle import ref_im2col

        if tile_bytes is not None:
            monkeypatch.setattr(functional, "IM2COL_TILE_BYTES", tile_bytes)
        x = spawn_rng(2, "tiles").normal(size=(5, 3, 7, 7)).astype(np.float32)
        cols, _ = im2col(x, k, s, p)
        assert np.array_equal(cols, ref_im2col(x, k, s, p))

    def test_default_tiles_split_a_training_batch(self):
        """At a vgg layer's size one sample's columns pass half the
        default tile, so the batch is gathered a sample at a time."""
        from repro.nn import functional
        from test_nn_kernel_oracle import ref_im2col

        x = spawn_rng(3, "tiles").normal(size=(4, 16, 32, 32)).astype(np.float32)
        assert 32 * 32 * 16 * 9 * 4 > functional.IM2COL_TILE_BYTES // 2
        cols, _ = im2col(x, 3, 1, 1)
        assert np.array_equal(cols, ref_im2col(x, 3, 1, 1))

    def test_wrong_column_buffer_raises_shape_error(self):
        x = np.ones((2, 3, 5, 5), np.float32)
        with pytest.raises(ShapeError, match="column buffer"):
            im2col(x, 3, 1, 1, out=np.empty((50, 26), np.float32))

    def test_wrong_padded_buffer_raises_shape_error(self):
        x = np.ones((2, 3, 5, 5), np.float32)
        out = np.empty((50, 27), np.float32)
        # The NCHW shape the padded scratch had before it moved to NHWC.
        with pytest.raises(ShapeError, match="pad buffer"):
            im2col(x, 3, 1, 1, out=out, padded=np.zeros((2, 3, 7, 7), np.float32))

    @settings(deadline=None, max_examples=25)
    @given(
        n=st.integers(1, 3),
        c=st.integers(1, 4),
        hw=st.integers(4, 10),
        k=st.sampled_from([1, 2, 3]),
        stride=st.sampled_from([1, 2]),
        pad=st.sampled_from([0, 1]),
    )
    def test_col2im_is_adjoint_of_im2col(self, n, c, hw, k, stride, pad):
        """<im2col(x), y> == <x, col2im(y)> for all x, y (exact adjointness)."""
        rng = spawn_rng(n * 1000 + c * 100 + hw * 10 + k, "adjoint")
        x = rng.normal(size=(n, c, hw, hw))
        cols, out_hw = im2col(x, k, stride, pad)
        y = rng.normal(size=cols.shape)
        lhs = float((cols * y).sum())
        back = col2im(y, x.shape, k, stride, pad, out_hw)
        rhs = float((x * back).sum())
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(lhs))


class TestSoftmax:
    def test_rows_sum_to_one(self):
        x = spawn_rng(2, "sm").normal(size=(5, 7))
        s = softmax(x, axis=1)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, rtol=1e-12)
        assert (s > 0).all()

    def test_shift_invariance(self):
        x = spawn_rng(3, "sm").normal(size=(4, 6))
        np.testing.assert_allclose(softmax(x), softmax(x + 100.0), rtol=1e-10)

    def test_log_softmax_consistent(self):
        x = spawn_rng(4, "lsm").normal(size=(3, 9))
        np.testing.assert_allclose(np.exp(log_softmax(x)), softmax(x), rtol=1e-10)

    def test_extreme_values_stable(self):
        x = np.array([[1000.0, -1000.0, 0.0]])
        s = softmax(x)
        assert np.isfinite(s).all()
        np.testing.assert_allclose(s[0, 0], 1.0, atol=1e-12)


class TestOneHot:
    def test_basic(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_array_equal(out, np.eye(3)[[0, 2, 1]])

    def test_out_of_range_raises(self):
        with pytest.raises(ShapeError):
            one_hot(np.array([3]), 3)
        with pytest.raises(ShapeError):
            one_hot(np.array([-1]), 3)

    def test_wrong_rank_raises(self):
        with pytest.raises(ShapeError):
            one_hot(np.zeros((2, 2), dtype=int), 4)
