"""NeuroFlux Profiler (architecture step 1).

Assigns auxiliary networks to every layer (AAN-LL rule), then *measures*
the simulated-GPU memory of training each layer+aux unit at several batch
sizes and fits a per-layer linear model ``memory = slope * batch +
intercept`` by least squares.  The paper observes (Figure 8) that layer
training memory is linear in the batch size, which makes these models
usable for feasible-batch prediction by the Partitioner.

What is measured is the estimator's own model: a unit's tensor list
(:func:`repro.memory.estimator.local_unit_tensors_by_batch`, the list the
estimator's breakdown sums by tensor class) allocated on the
:class:`SimulatedGpu`, one allocation per tensor.  So the fitted lines see
the alignment quantization a real profiler would and are not handed the
analytic totals, and no byte rule lives in this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ProfilingError
from repro.flops.count import module_forward_flops, training_step_flops
from repro.memory.estimator import local_unit_tensors_by_batch
from repro.memory.tracker import SimulatedGpu, measure_peak
from repro.models.layers import LayerSpec
from repro.nn.module import Module


@dataclass(frozen=True)
class LinearMemoryModel:
    """Per-layer linear predictor of training memory vs batch size."""

    slope: float
    intercept: float
    r_squared: float

    def predict(self, batch_size: int) -> float:
        return self.slope * batch_size + self.intercept

    def max_batch(self, budget_bytes: int) -> int:
        """Largest batch whose predicted memory fits the budget (>= 0)."""
        if self.slope <= 0:
            raise ProfilingError(f"non-positive slope {self.slope}")
        return max(0, int((budget_bytes - self.intercept) // self.slope))


def measure_unit_memory(
    spec: LayerSpec,
    aux_head: Module | None,
    batch_size: int,
    optimizer: str = "sgd-momentum",
    gpu: SimulatedGpu | None = None,
) -> int:
    """Simulated peak memory of one training step of a unit: its tensor
    list allocated tensor by tensor."""
    tensors = local_unit_tensors_by_batch(spec, aux_head, optimizer)(batch_size)
    return measure_peak(tensors, gpu if gpu is not None else SimulatedGpu())


def block_residency_bytes(
    specs: list[LayerSpec],
    aux_heads: list[Module | None],
    layer_indices: list[int],
    batch_size: int,
    optimizer: str = "sgd-momentum",
) -> int:
    """Peak working set of training a block: its worst member unit.

    Only one layer of a block trains at a time, so the block's residency
    is the max over member units.  The one residency rule: it is
    :func:`repro.core.worker.block_cost`'s ``residency_bytes``, which the
    controller allocates by, the placement optimizer budgets with and
    the closed form checks against the budget.
    """
    return max(
        measure_unit_memory(specs[i], aux_heads[i], batch_size, optimizer)
        for i in layer_indices
    )


@dataclass
class ProfileResult:
    """Output of the Profiler: one linear model per layer, plus overheads."""

    models: list[LinearMemoryModel]
    sample_batches: tuple[int, ...]
    profiling_flops: int
    #: Measured peak bytes per layer, one per sample batch (what each
    #: line was fitted to).
    measured: list[tuple[int, ...]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.models)


class MemoryProfiler:
    """Fits layer-wise linear memory models from simulated measurements."""

    def __init__(
        self,
        layer_specs: list[LayerSpec],
        aux_heads: list[Module | None],
        optimizer: str = "sgd-momentum",
        sample_batches: tuple[int, ...] = (8, 16, 32, 64),
    ):
        if len(layer_specs) != len(aux_heads):
            raise ProfilingError(
                f"one aux entry per layer required: {len(aux_heads)} vs "
                f"{len(layer_specs)}"
            )
        if len(sample_batches) < 2:
            raise ProfilingError("need at least two sample batch sizes to fit a line")
        self.layer_specs = layer_specs
        self.aux_heads = aux_heads
        self.optimizer = optimizer
        self.sample_batches = tuple(sorted(set(int(b) for b in sample_batches)))

    def _fit(self, batches: np.ndarray, peaks: np.ndarray) -> LinearMemoryModel:
        slope, intercept = np.polyfit(batches, peaks, deg=1)
        predicted = slope * batches + intercept
        ss_res = float(((peaks - predicted) ** 2).sum())
        ss_tot = float(((peaks - peaks.mean()) ** 2).sum())
        r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
        if slope <= 0:
            raise ProfilingError(
                f"fitted non-positive slope {slope:.1f}; memory must grow with batch"
            )
        return LinearMemoryModel(float(slope), float(intercept), r2)

    def profile(self) -> ProfileResult:
        """Measure every layer at every sample batch size and fit lines.

        Each unit's tensor list is built once and allocated at every
        sample batch.  Also returns the FLOPs spent profiling (one training
        step per layer per sample batch), which the controller converts to
        time for the Section 6.4 overhead accounting.
        """
        gpu = SimulatedGpu()
        models = []
        measured = []
        profiling_flops = 0
        batches = np.asarray(self.sample_batches, dtype=np.float64)
        for spec, aux in zip(self.layer_specs, self.aux_heads):
            tensors_at = local_unit_tensors_by_batch(spec, aux, self.optimizer)
            peaks = []
            for b in self.sample_batches:
                peaks.append(measure_peak(tensors_at(b), gpu))
                in_shape = (b, spec.in_channels, *spec.in_hw)
                fwd, out_shape = module_forward_flops(spec.module, in_shape)
                step = training_step_flops(fwd)
                if aux is not None:
                    aux_fwd, _ = module_forward_flops(aux, out_shape)
                    step += training_step_flops(aux_fwd)
                profiling_flops += step
            models.append(self._fit(batches, np.asarray(peaks, dtype=np.float64)))
            measured.append(tuple(peaks))
        return ProfileResult(
            models=models,
            sample_batches=self.sample_batches,
            profiling_flops=profiling_flops,
            measured=measured,
        )


def profile_layers(
    specs: list[LayerSpec], aux_heads: list[Module], config
) -> ProfileResult:
    """Step 1 as a run configures it: every layer profiled with its head
    under ``config``'s optimizer and sample batches (a
    :class:`~repro.core.config.NeuroFluxConfig`)."""
    return MemoryProfiler(
        specs,
        list(aux_heads),
        optimizer=config.optimizer,
        sample_batches=config.sample_batches,
    ).profile()


def profiling_seconds(profiling_flops: float, n_layers: int, platform) -> float:
    """§6.4's profiling overhead on ``platform``: the profiled steps'
    FLOPs at its effective rate plus one kernel launch per layer."""
    return (
        profiling_flops / platform.effective_flops
        + n_layers * platform.kernel_launch_overhead
    )
