"""Fully-connected layer with optional Feedback Alignment backward.

Forward is one GEMM plus the bias add.  Backward accumulates the weight
gradient (into a workspace slot when one is attached) and the bias
gradient, and with ``need_input_grad=False`` skips the input-gradient
GEMM that local learning would discard.
"""

from __future__ import annotations

import numpy as np

from repro.backend.registry import matmul as backend_matmul
from repro.errors import ShapeError
from repro.nn import init as nn_init
from repro.nn.module import Module, Parameter


class Linear(Module):
    """Affine map ``y = x @ W.T + b`` over (N, in_features) inputs."""

    supports_no_input_grad = True

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        dtype=np.float32,
    ):
        super().__init__()
        if in_features < 1 or out_features < 1:
            raise ShapeError("feature counts must be positive")
        self.in_features = in_features
        self.out_features = out_features
        rng = rng if rng is not None else np.random.default_rng(0)
        self.weight = Parameter(
            nn_init.kaiming_uniform(rng, (out_features, in_features), dtype), "weight"
        )
        self.bias = Parameter(nn_init.zeros((out_features,), dtype), "bias") if bias else None
        self.feedback: np.ndarray | None = None
        self._x: np.ndarray | None = None

    def enable_feedback_alignment(self, rng: np.random.Generator) -> None:
        """Attach fixed random feedback weights (FA baseline)."""
        self.feedback = nn_init.kaiming_uniform(
            rng, self.weight.data.shape, self.weight.data.dtype
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ShapeError(f"expected (N, {self.in_features}), got {x.shape}")
        out = backend_matmul(x, self.weight.data.T)
        if self.bias is not None:
            out += self.bias.data
        self._x = x if self.training else None
        return out

    def backward(
        self, grad_out: np.ndarray, need_input_grad: bool = True
    ) -> np.ndarray | None:
        if self._x is None:
            raise ShapeError("backward called before training-mode forward")
        if self._ws is None:
            self.weight.grad += backend_matmul(grad_out.T, self._x)
        else:
            dw, _ = self._buf("dw", self.weight.data.shape, grad_out.dtype)
            backend_matmul(grad_out.T, self._x, out=dw)
            self.weight.grad += dw
        if self.bias is not None:
            self.bias.grad += grad_out.sum(axis=0)
        self._x = None
        if not need_input_grad:
            return None
        back_w = self.feedback if self.feedback is not None else self.weight.data
        return backend_matmul(grad_out, back_w)
