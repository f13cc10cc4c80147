"""Kernel oracle: the seed-path kernels against the formulations they replaced.

The NCHW ``im2col`` and its adjoint ``col2im``, the tiled ``MaxPool2d``
and ``BatchNorm2d``'s training forward and backward are written for speed
under one contract: every value stays what the straightforward
formulation gives, to the bit.  Those formulations live here as test-only
references:

* ``ref_im2col`` -- the 6-D strided window view, transposed and copied;
* ``ref_col2im`` -- one unbuffered ``np.add.at`` per kernel offset, in
  the same ``(i, j)`` order, so every input position sums the same
  addends in the same order;
* ``ref_maxpool`` -- the running max/argmax over a tiled window view with
  its k*k equal/multiply backward (window copy + ``argmax`` + scatter for
  every other geometry);
* ``ref_batchnorm_train`` -- ``x.mean`` / ``x.var`` and a second
  subtraction for ``xhat``;
* ``ref_batchnorm_backward`` -- the textbook input-gradient expression,
  one fresh temporary per operation.

Hypothesis drives module and reference over small geometries, with and
without an attached workspace, and reuses one module across two batch
sizes so the workspace's reshaped (``fresh``) slots are exercised.  The
workspace-backed conv backward, which writes its gradients into the
slots forward's results have left dead, is held to its unpooled twin.
Comparisons are ``np.array_equal``, never ``allclose``.  Finite-difference
checks pin the gradients themselves.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import check_module_input_grad
from repro.nn.conv import Conv2d
from repro.nn.functional import col2im, conv_output_hw, im2col, pad2d, sliding_windows
from repro.nn.normalization import BatchNorm2d
from repro.nn.pooling import MaxPool2d

# --------------------------------------------------------------------- #
# references                                                            #
# --------------------------------------------------------------------- #


def ref_im2col(x, kernel, stride, padding):
    win = sliding_windows(pad2d(x, padding), kernel, stride)
    n, c, oh, ow, _, _ = win.shape
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(n * oh * ow, c * kernel * kernel)
    return np.ascontiguousarray(cols)


def ref_col2im(dcols, x_shape, kernel, stride, padding, out_hw):
    n, c, h, w = x_shape
    oh, ow = out_hw
    dwin = dcols.reshape(n, oh, ow, c, kernel, kernel)
    dxp = np.zeros((n, c, h + 2 * padding, w + 2 * padding), dcols.dtype)
    rows = stride * np.arange(oh)[:, None]
    cols = stride * np.arange(ow)[None, :]
    for i in range(kernel):
        for j in range(kernel):
            np.add.at(
                dxp,
                (slice(None), slice(None), i + rows, j + cols),
                dwin[..., i, j].transpose(0, 3, 1, 2),
            )
    return dxp[:, :, padding : padding + h, padding : padding + w]


def ref_maxpool(x, kernel, stride, grad_out):
    """(pooled, dx) by the formulation the tiled path replaced."""
    n, c, h, w = x.shape
    k, s = kernel, stride
    if s == k and h % k == 0 and w % k == 0:
        oh, ow = h // k, w // k
        v = np.ascontiguousarray(x).reshape(n, c, oh, k, ow, k)
        out = v[:, :, :, 0, :, 0].copy()
        idx = np.zeros(out.shape, np.int64)
        for t in range(1, k * k):
            i, j = divmod(t, k)
            cand = v[:, :, :, i, :, j]
            better = cand > out
            np.copyto(out, cand, where=better)
            np.copyto(idx, t, where=better)
        dx = np.empty(x.shape, grad_out.dtype)
        dv = dx.reshape(n, c, oh, k, ow, k)
        for t in range(k * k):
            i, j = divmod(t, k)
            dv[:, :, :, i, :, j] = grad_out * (idx == t)
        return out, dx
    win = sliding_windows(x, k, s)
    oh, ow = win.shape[2], win.shape[3]
    flat = win.reshape(n, c, oh, ow, k * k)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    dflat = np.zeros(flat.shape, grad_out.dtype)
    np.put_along_axis(dflat, idx[..., None], grad_out[..., None], axis=-1)
    dwin = dflat.reshape(n, c, oh, ow, k, k)
    dx = np.zeros(x.shape, grad_out.dtype)
    for i in range(k):
        for j in range(k):
            dx[:, :, i : i + s * oh : s, j : j + s * ow : s] += dwin[..., i, j]
    return out, dx


def ref_batchnorm_train(x, gamma, beta, running_mean, running_var, momentum, eps):
    """(out, xhat, inv_std, running_mean, running_var) of one training step."""
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    running_mean = ((1 - momentum) * running_mean + momentum * mean).astype(
        running_mean.dtype
    )
    running_var = ((1 - momentum) * running_var + momentum * var).astype(
        running_var.dtype
    )
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    out = gamma[None, :, None, None] * xhat + beta[None, :, None, None]
    return out.astype(x.dtype, copy=False), xhat, inv_std, running_mean, running_var


def ref_batchnorm_backward(grad_out, xhat, inv_std, gamma):
    """(dx, dgamma, dbeta) of one training step."""
    m = grad_out.shape[0] * grad_out.shape[2] * grad_out.shape[3]
    dgamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    dbeta = grad_out.sum(axis=(0, 2, 3))
    dxhat = grad_out * gamma[None, :, None, None]
    dx = (
        dxhat
        - dxhat.mean(axis=(0, 2, 3), keepdims=True)
        - xhat * (dxhat * xhat).sum(axis=(0, 2, 3), keepdims=True) / m
    ) * inv_std[None, :, None, None]
    return dx.astype(grad_out.dtype, copy=False), dgamma, dbeta


def assert_same(actual, expected):
    assert actual.shape == expected.shape
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)


# --------------------------------------------------------------------- #
# inputs                                                                #
# --------------------------------------------------------------------- #
KINDS = ("normal", "relu", "repeated", "neginf")


def make_input(kind, shape, seed, dtype=np.float32):
    """Float input of one kind; all but ``normal`` are built to tie."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape)
    if kind == "relu":  # all-zero windows, as after a ReLU
        x = np.maximum(x, 0)
    elif kind == "repeated":  # repeated maxima
        x = rng.integers(-1, 2, size=shape).astype(np.float64)
    elif kind == "neginf":  # -inf entries, some whole windows of them
        x[rng.random(shape) < 0.6] = -np.inf
    return x.astype(dtype)


geometry = dict(
    n1=st.integers(1, 8),
    n2=st.integers(1, 8),
    c=st.sampled_from([1, 3, 16]),
    hw=st.integers(1, 9),
    k=st.sampled_from([1, 2, 3, 5]),
    s=st.sampled_from([1, 2]),
    workspace=st.booleans(),
    seed=st.integers(0, 2**16),
)


# --------------------------------------------------------------------- #
# im2col                                                                #
# --------------------------------------------------------------------- #
class TestIm2colOracle:
    @settings(deadline=None, max_examples=60)
    @given(p=st.sampled_from([0, 1, 2]), **geometry)
    def test_conv_columns_match_reference(self, n1, n2, c, hw, k, s, p, workspace, seed):
        assume(hw + 2 * p >= k)
        conv = Conv2d(c, 2, k, stride=s, padding=p, rng=np.random.default_rng(seed))
        if workspace:
            conv.attach_workspace()
        # Back to the first batch size last: every change of shape hands
        # the workspace slots out fresh again.
        for i, n in enumerate((n1, n2, n1)):
            x = make_input("normal", (n, c, hw, hw), seed + i)
            conv.forward(x)
            assert_same(conv._cols, ref_im2col(x, k, s, p))
            cols, _ = im2col(x, k, s, p)
            assert_same(cols, ref_im2col(x, k, s, p))

    @settings(deadline=None, max_examples=60)
    @given(
        p=st.sampled_from([0, 1, 2]),
        need_input_grad=st.booleans(),
        feedback=st.booleans(),
        **{key: value for key, value in geometry.items() if key != "workspace"},
    )
    def test_workspace_backward_matches_unpooled_twin(
        self, n1, n2, c, hw, k, s, p, need_input_grad, feedback, seed
    ):
        assume(hw + 2 * p >= k)
        twins = []
        for _ in range(2):
            conv = Conv2d(c, 3, k, stride=s, padding=p, rng=np.random.default_rng(seed))
            if feedback:
                conv.enable_feedback_alignment(np.random.default_rng(seed + 1))
            twins.append(conv)
        pooled, plain = twins
        pooled.attach_workspace()
        # Gradients accumulate over the three steps, as over a block's batches.
        for i, n in enumerate((n1, n2, n1)):
            x = make_input("normal", (n, c, hw, hw), seed + i)
            y = pooled.forward(x)
            assert_same(y, plain.forward(x))
            g = make_input("normal", y.shape, seed + 100 + i)
            dx = pooled.backward(g, need_input_grad=need_input_grad)
            ref_dx = plain.backward(g, need_input_grad=need_input_grad)
            if need_input_grad:
                assert_same(dx, ref_dx)
            else:
                assert dx is None and ref_dx is None
            assert_same(pooled.weight.grad, plain.weight.grad)
            assert_same(pooled.bias.grad, plain.bias.grad)

    @settings(deadline=None, max_examples=30)
    @given(p=st.sampled_from([0, 1, 2]), **geometry)
    def test_caller_buffers_match_reference(self, n1, n2, c, hw, k, s, p, workspace, seed):
        assume(hw + 2 * p >= k)
        x = make_input("normal", (n1, c, hw, hw), seed)
        expected = ref_im2col(x, k, s, p)
        padded = np.zeros((n1, hw + 2 * p, hw + 2 * p, c), np.float32)
        out = np.full(expected.shape, np.nan, np.float32)
        cols, _ = im2col(x, k, s, p, out=out, padded=padded)
        assert cols is out
        assert_same(out, expected)


# --------------------------------------------------------------------- #
# col2im                                                                #
# --------------------------------------------------------------------- #
class TestCol2imOracle:
    @settings(deadline=None, max_examples=80)
    @given(
        n=st.integers(1, 4),
        c=st.sampled_from([1, 3, 16]),
        hw=st.integers(1, 9),
        k=st.sampled_from([1, 2, 3, 5]),
        s=st.sampled_from([1, 2, 3]),
        p=st.sampled_from([0, 1, 2]),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**16),
    )
    def test_scatter_matches_reference(self, n, c, hw, k, s, p, dtype, seed):
        assume(hw + 2 * p >= k)
        out_hw = conv_output_hw((hw, hw), k, s, p)
        dcols = make_input(
            "normal", (n * out_hw[0] * out_hw[1], c * k * k), seed, dtype
        )
        x_shape = (n, c, hw, hw)
        assert_same(
            col2im(dcols, x_shape, k, s, p, out_hw),
            ref_col2im(dcols, x_shape, k, s, p, out_hw),
        )


# --------------------------------------------------------------------- #
# MaxPool2d                                                             #
# --------------------------------------------------------------------- #
class TestMaxPoolOracle:
    @settings(deadline=None, max_examples=80)
    @given(kind=st.sampled_from(KINDS), **geometry)
    def test_forward_backward_match_reference(self, kind, n1, n2, c, hw, k, s, workspace, seed):
        assume(hw >= k)
        pool = MaxPool2d(k, stride=s)
        if workspace:
            pool.attach_workspace()
        for i, n in enumerate((n1, n2, n1)):
            x = make_input(kind, (n, c, hw, hw), seed + i)
            out = pool.forward(x)
            g = make_input("normal", out.shape, seed + 100 + i)
            dx = pool.backward(g)
            ref_out, ref_dx = ref_maxpool(x, k, s, g)
            assert_same(out, ref_out)
            assert_same(dx, ref_dx)
        pool.eval()
        assert_same(pool.forward(x), ref_out)

    def test_tie_windows_route_to_first_maximum(self):
        # One window per tie kind: all zero, a repeated maximum, all -inf.
        x = np.array(
            [[[[0, 0, 2, 1], [0, 0, 2, 2], [-np.inf, -np.inf, 5, 0], [-np.inf, -np.inf, 1, 5]]]],
            np.float32,
        )
        g = np.array([[[[1, 2], [3, 4]]]], np.float32)
        pool = MaxPool2d(2)
        out = pool.forward(x)
        dx = pool.backward(g)
        ref_out, ref_dx = ref_maxpool(x, 2, 2, g)
        assert_same(out, ref_out)
        assert_same(dx, ref_dx)
        assert dx[0, 0, 0, 0] == 1 and dx[0, 0, 0, 2] == 2
        assert dx[0, 0, 2, 0] == 3 and dx[0, 0, 2, 2] == 4
        assert np.count_nonzero(dx) == 4

    def test_input_grad_numeric_tiled(self):
        rng = np.random.default_rng(0)
        x = (rng.permutation(2 * 3 * 4 * 4) * 0.5).reshape(2, 3, 4, 4)
        check_module_input_grad(MaxPool2d(2), x)

    def test_input_grad_numeric_generic(self):
        rng = np.random.default_rng(1)
        x = (rng.permutation(2 * 2 * 5 * 5) * 0.5).reshape(2, 2, 5, 5)
        check_module_input_grad(MaxPool2d(3, stride=2), x)


# --------------------------------------------------------------------- #
# BatchNorm2d                                                           #
# --------------------------------------------------------------------- #
class TestBatchNormOracle:
    @settings(deadline=None, max_examples=60)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        n1=geometry["n1"],
        n2=geometry["n2"],
        c=geometry["c"],
        hw=geometry["hw"],
        workspace=geometry["workspace"],
        seed=geometry["seed"],
    )
    def test_training_forward_matches_reference(self, dtype, n1, n2, c, hw, workspace, seed):
        rng = np.random.default_rng(seed)
        bn = BatchNorm2d(c, dtype=dtype)
        bn.gamma.data[...] = rng.normal(size=c)
        bn.beta.data[...] = rng.normal(size=c)
        bn.running_mean[...] = rng.normal(size=c)
        bn.running_var[...] = rng.uniform(0.5, 2.0, size=c)
        if workspace:
            bn.attach_workspace()
        for i, n in enumerate((n1, n2)):
            x = (make_input("normal", (n, c, hw, hw), seed + i, dtype) * 3 + 1).astype(dtype)
            expected = ref_batchnorm_train(
                x, bn.gamma.data, bn.beta.data, bn.running_mean, bn.running_var,
                bn.momentum, bn.eps,
            )
            out = bn.forward(x)
            for actual, ref in zip(
                (out, bn._xhat, bn._inv_std, bn.running_mean, bn.running_var), expected
            ):
                assert_same(actual, ref)
            bn.backward(np.ones_like(out))

    @settings(deadline=None, max_examples=60)
    @given(
        dtype=st.sampled_from([np.float32, np.float64]),
        n1=geometry["n1"],
        n2=geometry["n2"],
        c=geometry["c"],
        hw=st.sampled_from([1, 2, 3, 4, 5, 8]),
        seed=geometry["seed"],
    )
    def test_backward_matches_reference(self, dtype, n1, n2, c, hw, seed):
        rng = np.random.default_rng(seed)
        bn = BatchNorm2d(c, dtype=dtype)
        bn.gamma.data[...] = rng.normal(size=c)
        bn.beta.data[...] = rng.normal(size=c)
        dgamma_sum = np.zeros(c, dtype)
        dbeta_sum = np.zeros(c, dtype)
        # Two steps: the parameter gradients accumulate across them.
        for i, n in enumerate((n1, n2)):
            x = (make_input("normal", (n, c, hw, hw), seed + i, dtype) * 3 + 1).astype(dtype)
            bn.forward(x)
            g = make_input("normal", x.shape, seed + 100 + i, dtype)
            ref_dx, dgamma, dbeta = ref_batchnorm_backward(
                g, bn._xhat, bn._inv_std, bn.gamma.data
            )
            dgamma_sum += dgamma
            dbeta_sum += dbeta
            assert_same(bn.backward(g), ref_dx)
            assert_same(bn.gamma.grad, dgamma_sum)
            assert_same(bn.beta.grad, dbeta_sum)

    def test_input_grad_numeric(self):
        x = np.random.default_rng(2).normal(size=(3, 2, 3, 3)) * 2 + 0.5
        check_module_input_grad(BatchNorm2d(2, dtype=np.float64), x)
