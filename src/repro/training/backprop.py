"""End-to-end backpropagation baseline (the paper's "BP").

Vanilla backprop with no activation/gradient checkpointing, exactly as the
evaluation section specifies.  Memory: every layer's backward state is
resident simultaneously (see :func:`repro.memory.bp_training_memory`),
which forces small batches under tight budgets -- the effect NeuroFlux
exploits.
"""

from __future__ import annotations

import numpy as np

from repro.flops.count import (
    model_forward_flops,
    model_kernel_count,
    training_step_flops,
)
from repro.memory.estimator import bp_training_memory
from repro.models.base import ConvNet
from repro.nn import CrossEntropyLoss, make_optimizer
from repro.training.common import (  # noqa: F401  (re-exported: their public home)
    DEFAULT_BATCH_LIMIT,
    BaselineTrainer,
    max_feasible_batch,
)


def bp_step_price(model: ConvNet) -> tuple[int, int]:
    """``(FLOPs per sample, kernel dispatches)`` of one end-to-end BP step."""
    flops = training_step_flops(model_forward_flops(model, 1))
    return flops, model_kernel_count(model)


class BackpropTrainer(BaselineTrainer):
    """Trains a ConvNet with SGD over a global cross-entropy loss."""

    method = "backprop"
    gpu_tag = "bp-training-step"
    rng_tag = "bp"

    def memory_at_batch(self, batch_size: int) -> int:
        return bp_training_memory(self.model, batch_size, self.optimizer_name).total

    def step_price(self) -> tuple[int, int]:
        return bp_step_price(self.model)

    def _setup(self) -> None:
        self._loss_fn = CrossEntropyLoss()
        self._opt = make_optimizer(
            self.optimizer_name, self.model.parameters(), lr=self.lr
        )

    def step(self, xb: np.ndarray, yb: np.ndarray) -> float:
        loss = self._loss_fn(self.model.forward(xb), yb)
        self.model.zero_grad()
        # The gradient w.r.t. the model input is never used.
        self.model.backward(self._loss_fn.backward(), need_input_grad=False)
        self._opt.step()
        return loss
