"""Tests for the Module/Parameter/Sequential abstractions."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.nn import Conv2d, Identity, Linear, ReLU, Sequential
from repro.nn.module import Module, Parameter
from repro.utils.rng import spawn_rng


class TestParameter:
    def test_grad_initialized_zero(self):
        p = Parameter(np.ones((2, 3), dtype=np.float32))
        assert p.grad.shape == (2, 3)
        assert p.grad.sum() == 0

    def test_zero_grad(self):
        p = Parameter(np.ones(4, dtype=np.float32))
        p.grad[...] = 5
        p.zero_grad()
        assert p.grad.sum() == 0

    def test_size_and_bytes(self):
        p = Parameter(np.zeros((4, 4), dtype=np.float32))
        assert p.size == 16
        assert p.nbytes == 64


class TestTraversal:
    def test_parameters_found_recursively(self):
        seq = Sequential(
            Conv2d(1, 2, 3, rng=spawn_rng(0, "a")),
            ReLU(),
            Sequential(Linear(4, 2, rng=spawn_rng(0, "b"))),
        )
        params = seq.parameters()
        assert len(params) == 4  # conv w+b, linear w+b

    def test_named_parameters_paths(self):
        seq = Sequential(Conv2d(1, 2, 3, bias=False), Linear(2, 2, bias=False))
        names = [n for n, _ in seq.named_parameters()]
        assert names == ["layers.0.weight", "layers.1.weight"]

    def test_modules_iteration(self):
        inner = Sequential(ReLU())
        outer = Sequential(inner, Identity())
        types = [type(m).__name__ for m in outer.modules()]
        assert types == ["Sequential", "Sequential", "ReLU", "Identity"]

    def test_train_eval_propagates(self):
        seq = Sequential(ReLU(), Sequential(ReLU()))
        seq.eval()
        assert all(not m.training for m in seq.modules())
        seq.train()
        assert all(m.training for m in seq.modules())


class TestStateDict:
    def _model(self, seed=0):
        return Sequential(
            Conv2d(1, 2, 3, rng=spawn_rng(seed, "c")),
            Linear(4, 2, rng=spawn_rng(seed, "l")),
        )

    def test_roundtrip(self):
        a, b = self._model(0), self._model(1)
        b.load_state_dict(a.state_dict())
        for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_missing_key_raises(self):
        a = self._model()
        state = a.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(ShapeError):
            a.load_state_dict(state)

    def test_wrong_shape_raises(self):
        a = self._model()
        state = a.state_dict()
        key = next(iter(state))
        state[key] = np.zeros((1, 1))
        with pytest.raises(ShapeError):
            a.load_state_dict(state)


class TestSequential:
    def test_forward_backward_chain(self):
        seq = Sequential(ReLU(), ReLU())
        x = spawn_rng(1, "x").normal(size=(2, 4))
        out = seq.forward(x)
        np.testing.assert_array_equal(out, np.maximum(x, 0))
        dx = seq.backward(np.ones_like(out))
        np.testing.assert_array_equal(dx, (x > 0).astype(float))

    def test_len_and_index(self):
        seq = Sequential(ReLU(), Identity())
        assert len(seq) == 2
        assert isinstance(seq[1], Identity)

    def test_num_parameters(self):
        seq = Sequential(Linear(3, 4))
        assert seq.num_parameters() == 3 * 4 + 4

    def test_base_module_forward_raises(self):
        with pytest.raises(NotImplementedError):
            Module().forward(np.zeros(1))
