"""Microbatching baseline (paper Section 7, related work).

Splits each logical batch into micro-batches that fit the memory budget
and accumulates gradients before stepping.  Memory follows the micro-batch
size; step count (and per-batch overhead) follows the micro-batch count --
the paper's criticism: memory-efficient but slow, with tuning burden.
"""

from __future__ import annotations

import numpy as np

from repro.data.datasets import SyntheticImageDataset
from repro.errors import ConfigError
from repro.hw.platforms import AGX_ORIN, Platform
from repro.models.base import ConvNet
from repro.training.backprop import BackpropTrainer
from repro.training.common import TrainResult


class MicrobatchTrainer(BackpropTrainer):
    """BP with gradient accumulation over budget-sized micro-batches.

    Memory and price per sample are BP's; what differs is that a step
    loads ``logical_batch`` samples and passes them through the device
    one micro-batch at a time (:meth:`_passes`; the frame charges each
    pass separately).
    """

    method = "microbatching"
    gpu_tag = "microbatch-step"
    rng_tag = "micro"

    def __init__(
        self,
        model: ConvNet,
        data: SyntheticImageDataset,
        platform: Platform = AGX_ORIN,
        memory_budget: int | None = None,
        logical_batch: int = 64,
        optimizer: str = "sgd-momentum",
        lr: float = 0.05,
        seed: int = 0,
    ):
        if logical_batch < 1:
            raise ConfigError("logical_batch must be >= 1")
        super().__init__(model, data, platform, memory_budget, optimizer, lr, seed)
        self.logical_batch = logical_batch

    def micro_batch_size(self) -> int:
        """Largest micro-batch that fits the budget (capped at logical)."""
        return self.max_feasible_batch(self.logical_batch)

    def _passes(self, batch_size: int) -> list[int]:
        full, rem = divmod(self.logical_batch, batch_size)
        return [batch_size] * full + [rem] * bool(rem)

    def _setup(self) -> None:
        super()._setup()
        self._micro = self.micro_batch_size()

    def train(self, epochs: int, time_budget_s: float | None = None) -> TrainResult:
        result = super().train(
            epochs, batch_limit=self.logical_batch, time_budget_s=time_budget_s
        )
        result.extras["logical_batch"] = self.logical_batch
        return result

    def step(self, xb: np.ndarray, yb: np.ndarray) -> float:
        self.model.zero_grad()
        loss = float("nan")
        for start in range(0, len(xb), self._micro):
            xm = xb[start : start + self._micro]
            ym = yb[start : start + self._micro]
            loss = self._loss_fn(self.model.forward(xm), ym)
            grad = self._loss_fn.backward() * (len(xm) / len(xb))
            self.model.backward(grad, need_input_grad=False)
        self._opt.step()
        return loss
