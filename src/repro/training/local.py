"""Classic local learning baseline (the paper's "classic LL").

Implements greedy layer-wise training per Belilovsky et al. [5] as
described in Section 2.3: every layer except the last is paired with a
fixed-width (256-filter) auxiliary classifier; layers update from their
local loss as the batch flows forward; the final layer trains jointly with
the model's real classifier head.  A single fixed batch size is used for
the whole network -- sized by the *worst* layer's memory footprint, which
is why classic LL underperforms BP on memory (Figure 4).
"""

from __future__ import annotations

import numpy as np

from repro.core.auxiliary import CLASSIC_AUX_FILTERS, build_aux_heads
from repro.core.worker import unit_kernel_count, unit_train_flops
from repro.data.datasets import SyntheticImageDataset
from repro.hw.platforms import AGX_ORIN, Platform
from repro.memory.estimator import ll_training_memory
from repro.models.base import ConvNet
from repro.nn import CrossEntropyLoss, make_optimizer
from repro.nn.module import Module, run_backward
from repro.training.common import BaselineTrainer


def _local_heads(model: ConvNet, aux_heads: list[Module | None]) -> list[Module]:
    """The network each layer's local loss is read from: its auxiliary
    head, or the model's real classifier where it has none."""
    return [aux if aux is not None else model.head for aux in aux_heads]


def ll_step_price(model: ConvNet, aux_heads: list[Module | None]) -> tuple[int, int]:
    """``(FLOPs per sample, kernel dispatches)`` of one classic-LL step:
    every layer trained with its head, priced like a NeuroFlux unit."""
    units = list(zip(model.local_layers(), _local_heads(model, aux_heads)))
    flops = sum(unit_train_flops(spec, head) for spec, head in units)
    return flops, sum(unit_kernel_count(spec, head) for spec, head in units)


class LocalLearningTrainer(BaselineTrainer):
    """Greedy layer-wise trainer with fixed-width auxiliary heads."""

    method = "classic-ll"
    gpu_tag = "ll-training-step"
    rng_tag = "ll"

    def __init__(
        self,
        model: ConvNet,
        data: SyntheticImageDataset,
        platform: Platform = AGX_ORIN,
        memory_budget: int | None = None,
        optimizer: str = "sgd-momentum",
        lr: float = 0.05,
        aux_rule: str = "classic",
        classic_filters: int = CLASSIC_AUX_FILTERS,
        seed: int = 0,
    ):
        super().__init__(model, data, platform, memory_budget, optimizer, lr, seed)
        heads = build_aux_heads(
            model, rule=aux_rule, classic_filters=classic_filters, seed=seed
        )
        # The last layer trains against the model's real head (Figure 2), so
        # it carries no auxiliary network.
        self.aux_heads = list(heads[:-1]) + [None]

    def memory_at_batch(self, batch_size: int) -> int:
        return ll_training_memory(
            self.model, self.aux_heads, batch_size, self.optimizer_name
        ).total

    def step_price(self) -> tuple[int, int]:
        return ll_step_price(self.model, self.aux_heads)

    def _setup(self) -> None:
        self._loss_fn = CrossEntropyLoss()
        self._units = [
            (
                spec.module,
                head,
                make_optimizer(
                    self.optimizer_name,
                    spec.module.parameters() + head.parameters(),
                    lr=self.lr,
                ),
            )
            for spec, head in zip(
                self.model.local_layers(), _local_heads(self.model, self.aux_heads)
            )
        ]

    def step(self, xb: np.ndarray, yb: np.ndarray) -> float:
        x = xb
        for layer, head, opt in self._units:
            out = layer.forward(x)
            loss = self._loss_fn(head.forward(out), yb)
            dout = head.backward(self._loss_fn.backward())
            # Local learning never propagates past the stage input.
            run_backward(layer, dout, need_input_grad=False)
            opt.step()
            opt.zero_grad()
            x = out
        return loss
