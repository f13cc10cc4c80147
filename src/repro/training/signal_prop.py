"""Signal Propagation baseline (Figure 3 quadrant).

SP [Kohan et al. 2023] trains layer-wise with forward passes only and *no*
auxiliary networks: a target generator recasts labels into the feature
space and each layer is nudged toward its class target.  This
implementation uses the simplest faithful form of that idea -- fixed random
unit-norm class embeddings per layer as targets, an MSE alignment loss on
globally-pooled features, and nearest-embedding classification -- which
reproduces SP's published profile: memory far below BP/LL (no aux nets, one
layer resident) but accuracy below both.  The fixed embeddings stand in
for SP's learned target generator: a simplification that keeps the memory
profile the paper compares and claims nothing about SP's best accuracy.
"""

from __future__ import annotations

import numpy as np

from repro.backend.registry import matmul as backend_matmul
from repro.data.datasets import SyntheticImageDataset
from repro.flops.count import (
    count_module_kernels,
    module_forward_flops,
    training_step_flops,
)
from repro.hw.platforms import AGX_ORIN, Platform
from repro.memory.estimator import local_unit_training_memory
from repro.models.base import ConvNet
from repro.nn import make_optimizer
from repro.nn.module import run_backward
from repro.training.common import BaselineTrainer
from repro.utils.rng import spawn_rng


class SignalPropagationTrainer(BaselineTrainer):
    """Forward-only layer-wise trainer with class-embedding targets."""

    method = "signal-propagation"
    gpu_tag = "sp-training-step"
    rng_tag = "sp"
    #: Forward-only training: a layer's local update is priced at one more
    #: forward pass, not at a backward pass's two.
    backward_multiplier = 1.0

    def __init__(
        self,
        model: ConvNet,
        data: SyntheticImageDataset,
        platform: Platform = AGX_ORIN,
        memory_budget: int | None = None,
        optimizer: str = "sgd-momentum",
        lr: float = 0.05,
        seed: int = 0,
    ):
        super().__init__(model, data, platform, memory_budget, optimizer, lr, seed)
        # Fixed random unit-norm class embeddings per layer (the 'context'
        # produced by SP's target generator).
        self._targets: list[np.ndarray] = []
        rng = spawn_rng(seed, "sp/targets")
        for spec in model.local_layers():
            t = rng.normal(size=(model.num_classes, spec.out_channels)).astype(np.float32)
            t /= np.linalg.norm(t, axis=1, keepdims=True) + 1e-8
            self._targets.append(t)

    def memory_at_batch(self, batch_size: int) -> int:
        # One layer resident at a time, no auxiliary networks: the defining
        # memory advantage of SP.
        return max(
            local_unit_training_memory(spec, None, batch_size, self.optimizer_name).total
            for spec in self.model.local_layers()
        )

    def step_price(self) -> tuple[int, int]:
        specs = self.model.local_layers()
        flops = sum(
            training_step_flops(
                module_forward_flops(s.module, (1, s.in_channels, *s.in_hw))[0],
                self.backward_multiplier,
            )
            for s in specs
        )
        return flops, sum(count_module_kernels(s.module) for s in specs)

    def predict_logits(self, x: np.ndarray) -> np.ndarray:
        """Negative distance to each class embedding at the final layer."""
        feats = self.model.forward_features(x)
        pooled = feats.mean(axis=(2, 3))
        t = self._targets[-1]
        # -||f - t_c||^2 expanded; monotone in similarity.
        logits = backend_matmul(2 * pooled, t.T) - (t * t).sum(axis=1)[None, :]
        return logits

    def _setup(self) -> None:
        self._units = [
            (
                spec.module,
                target,
                make_optimizer(self.optimizer_name, spec.module.parameters(), lr=self.lr),
            )
            for spec, target in zip(self.model.local_layers(), self._targets)
        ]

    def step(self, xb: np.ndarray, yb: np.ndarray) -> float:
        x = xb
        for layer, targets, opt in self._units:
            out = layer.forward(x)
            hw = out.shape[2] * out.shape[3]
            pooled = out.mean(axis=(2, 3))
            diff = pooled - targets[yb]
            dpooled = (2.0 / diff.size) * diff
            dout = np.broadcast_to(
                (dpooled / hw)[:, :, None, None], out.shape
            ).astype(out.dtype)
            # Forward-only learning: nothing flows to the layer below.
            run_backward(layer, np.ascontiguousarray(dout), need_input_grad=False)
            opt.step()
            opt.zero_grad()
            x = out
        # The alignment loss is not a classification loss; none is reported.
        return float("nan")
