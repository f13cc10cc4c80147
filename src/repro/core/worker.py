"""NeuroFlux Worker: block-wise local learning, Algorithm 2.

The Worker owns one block at a time: it runs each training batch through
the block's layers, computing a local loss at every layer's auxiliary head
and updating that layer (plus head) immediately -- no feedback to earlier
layers, no retention of other layers' activations.  The execution
simulator is charged per optimizer step, and a forward-only pass produces
the activations cached for the next block.
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.api.callbacks import BatchInfo, Callback
from repro.errors import ConfigError
from repro.flops.count import (
    count_module_kernels,
    module_forward_flops,
    training_step_flops,
)
from repro.hw.simulator import ExecutionSimulator
from repro.memory.estimator import local_unit_tensors_by_batch
from repro.models.layers import LayerSpec
from repro.nn import CrossEntropyLoss
from repro.nn.module import Module, run_backward
from repro.nn.optim import Optimizer


def unit_train_flops(spec: LayerSpec, aux: Module) -> int:
    """Per-sample training-step FLOPs of one local unit (layer + aux head).

    The single source of truth shared by the worker's simulator charges
    and the placement optimizer's cost model -- if these diverged, the
    optimizer would price a schedule the executor never runs.
    """
    in_shape = (1, spec.in_channels, *spec.in_hw)
    fwd, out_shape = module_forward_flops(spec.module, in_shape)
    total = training_step_flops(fwd)
    aux_fwd, _ = module_forward_flops(aux, out_shape)
    total += training_step_flops(aux_fwd)
    return total


def unit_kernel_count(spec: LayerSpec, aux: Module) -> int:
    """Kernel dispatches of one local unit (layer + aux head)."""
    return count_module_kernels(spec.module) + count_module_kernels(aux)


#: Host seconds per byte a training step touches, and per kernel it
#: dispatches: numpy on the host is bound by the bytes a step moves and
#: by per-kernel overhead, not by FLOPs.  Least-squares fit of
#: :func:`unit_host_step_seconds` to measured blocks on one BLAS thread
#: (the stages' own condition); the table and the measuring script are
#: ``tests/data/host_price_fit.json`` and ``benchmarks/host_price_fit.py``.
HOST_S_PER_BYTE = 6.37e-10
HOST_DISPATCH_S = 1.51e-4


def unit_step_bytes_per_sample(spec: LayerSpec, aux: Module) -> int:
    """Bytes one training step of a local unit touches per sample: the
    batch-proportional part of its tensor list
    (:func:`repro.memory.estimator.local_unit_tensors_by_batch`, the one
    memory model), so the host price follows the estimator rather than a
    second byte count."""
    tensors_at = local_unit_tensors_by_batch(spec, aux)
    return sum(n for _, n in tensors_at(2)) - sum(n for _, n in tensors_at(1))


def unit_host_step_seconds(spec: LayerSpec, aux: Module, batch: int) -> float:
    """Host seconds of one training step of a local unit (layer + aux
    head) at ``batch`` samples: the bytes it touches plus its kernel
    dispatches, priced by the fitted host constants above."""
    return (
        batch * unit_step_bytes_per_sample(spec, aux) * HOST_S_PER_BYTE
        + unit_kernel_count(spec, aux) * HOST_DISPATCH_S
    )


class BlockWorker:
    """Trains the layers of one block with per-layer local losses."""

    def __init__(
        self,
        layer_specs: list[LayerSpec],
        aux_heads: list[Module],
        optimizers: list[Optimizer],
        sim: ExecutionSimulator,
        sample_bytes: int,
    ):
        if not (len(layer_specs) == len(aux_heads) == len(optimizers)):
            raise ConfigError(
                "layer_specs, aux_heads and optimizers must align: "
                f"{len(layer_specs)}/{len(aux_heads)}/{len(optimizers)}"
            )
        self.layer_specs = layer_specs
        self.aux_heads = aux_heads
        self.optimizers = optimizers
        self.sim = sim
        self.sample_bytes = sample_bytes
        self.loss_fn = CrossEntropyLoss()
        self._train_flops_per_sample = sum(
            unit_train_flops(spec, aux) for spec, aux in zip(layer_specs, aux_heads)
        )
        self._forward_flops_per_sample = self._compute_forward_flops()
        self._n_kernels = sum(
            unit_kernel_count(spec, aux)
            for spec, aux in zip(layer_specs, aux_heads)
        )

    def _compute_forward_flops(self) -> int:
        total = 0
        for spec in self.layer_specs:
            in_shape = (1, spec.in_channels, *spec.in_hw)
            fwd, _ = module_forward_flops(spec.module, in_shape)
            total += fwd
        return total

    @property
    def units(self) -> list[Module]:
        """Every module this worker trains: its layers, then their heads."""
        return [spec.module for spec in self.layer_specs] + list(self.aux_heads)

    @property
    def train_flops_per_sample(self) -> int:
        return self._train_flops_per_sample

    @property
    def n_kernels(self) -> int:
        """Kernel dispatches per training step (for external step pricing)."""
        return self._n_kernels

    def train_batch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        input_mode: str = "prefetch-raw",
    ) -> tuple[np.ndarray, float, float]:
        """One Algorithm-2 step over a single micro-batch.

        Trains every layer of the block against its local loss, charges
        the simulator for one optimizer step, and returns ``(block_output,
        last_layer_loss, charged_seconds)``.  The pipeline executor calls
        this directly to stream micro-batches between devices.
        """
        loss = float("nan")
        for spec, aux, opt in zip(self.layer_specs, self.aux_heads, self.optimizers):
            out = spec.module.forward(x)  # Eq. 1: x_{n+1} = alpha P theta x_n
            z = aux.forward(out)  # Eq. 2: local prediction
            loss = self.loss_fn(z, y)  # Alg. 2 line 5
            dz = self.loss_fn.backward()
            dout = aux.backward(dz)  # Alg. 2 line 6
            # Local learning: the stage's input gradient is discarded,
            # so its GEMM + scatter kernels are skipped outright.
            run_backward(spec.module, dout, need_input_grad=False)
            opt.step()  # Alg. 2 line 7
            opt.zero_grad()
            x = out
        step_time = self.sim.add_training_step(
            self._train_flops_per_sample * len(x),
            self.sample_bytes * len(x),
            self._n_kernels,
            input_mode=input_mode,
        )
        return x, loss, step_time

    def train_pass(
        self,
        batches: Iterable[tuple[np.ndarray, np.ndarray]],
        time_budget_s: float | None = None,
        input_mode: str = "prefetch-raw",
        callbacks: Callback | None = None,
        block_index: int = 0,
    ) -> tuple[int, int, float]:
        """One pass of Algorithm 2 over the input stream.

        Returns ``(n_batches, n_samples, mean_last_layer_loss)``.  Stops
        early if the simulated clock passes ``time_budget_s``.
        ``callbacks`` receives one :meth:`~Callback.on_batch` per trained
        batch (the unified observation hook -- the adaptive runtime
        subscribes through it and may rebind :attr:`sim` for live
        migration; later batches charge the new device).  ``block_index``
        labels the emitted :class:`BatchInfo`.
        """
        for unit in self.units:
            unit.train()
        n_batches = 0
        n_samples = 0
        loss_sum = 0.0
        for x, y in batches:
            out, loss, step_t = self.train_batch(x, y, input_mode=input_mode)
            loss_sum += loss * len(out)
            n_batches += 1
            n_samples += len(out)
            if callbacks is not None:
                callbacks.on_batch(
                    BatchInfo(
                        scope="sequential",
                        block_index=block_index,
                        n_done=n_batches,
                        step_s=step_t,
                        n_samples=len(out),
                    )
                )
            if time_budget_s is not None and self.sim.elapsed >= time_budget_s:
                break
        mean_loss = loss_sum / n_samples if n_samples else float("nan")
        return n_batches, n_samples, mean_loss

    def forward_pass(
        self,
        batches: Iterable[tuple[np.ndarray, np.ndarray]],
        on_output: Callable[[np.ndarray, np.ndarray], None],
        charge_time: bool = True,
    ) -> int:
        """Eval-mode forward over the trained block, emitting its outputs.

        Used after training to produce the activations cached for the next
        block.  Returns the number of samples processed.
        """
        for spec in self.layer_specs:
            spec.module.eval()
        n_samples = 0
        for x, y in batches:
            for spec in self.layer_specs:
                x = spec.module.forward(x)
            on_output(x, y)
            n_samples += len(x)
            if charge_time:
                self.sim.add_inference_batch(
                    self._forward_flops_per_sample * len(x),
                    self.sample_bytes * len(x),
                    self._n_kernels,
                )
        for spec in self.layer_specs:
            spec.module.train()
        return n_samples
