"""Closed-form training-time simulation at paper scale.

Real numpy training of full-size VGG/ResNet on 50k-100k-sample datasets is
not feasible in this environment, but the Figure 11 comparison (training
time vs memory budget) depends only on *step counts x step costs*, both of
which the library models exactly.  These functions book each method's
accounting -- the same formulas the real trainers charge to the execution
simulator -- without running the arithmetic, so Figure 11 can be produced
at the paper's scale (full models, full dataset sizes, 100-500 MB
budgets).

"Closed-form" is a guarantee about host cost, not only about skipping the
arithmetic: every step of an epoch that has the same sample count is one
charge with ``count = steps x epochs`` (the full batches, then the
remainder batch), so a simulation makes the same number of simulator
calls whatever ``epochs`` and ``n_train`` are, and costs O(layers +
blocks) of host work.  ``tests/helpers.py`` keeps the step-by-step replay
as the reference the charges are checked against.

Consistency with the real trainers is covered by tests: for a small real
run, the simulated time here equals the trainer's ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.auxiliary import build_aux_heads
from repro.core.partitioner import Block, partition
from repro.core.profiler import MemoryProfiler, measure_unit_memory
from repro.data.datasets import DatasetSpec
from repro.errors import MemoryBudgetExceeded, PartitionError
from repro.flops.count import model_forward_flops, module_forward_flops, training_step_flops
from repro.hw.platforms import Platform
from repro.hw.simulator import ExecutionSimulator, TimeLedger
from repro.memory.estimator import bp_memory_by_batch, ll_memory_by_batch
from repro.models.base import ConvNet
from repro.training.backprop import DEFAULT_BATCH_LIMIT, max_feasible_batch
from repro.training.common import count_module_kernels, model_kernel_count

FLOAT_BYTES = 4


@dataclass(frozen=True)
class SimulatedRun:
    """Outcome of a closed-form training-time simulation."""

    method: str
    batch_size: int
    epochs: int
    time_s: float
    ledger: TimeLedger
    peak_memory_bytes: int
    feasible: bool = True
    #: The partition NeuroFlux was simulated with, batch sizes as run
    #: (empty for the methods that do not partition).
    blocks: tuple[Block, ...] = ()


def _epoch_steps(n_samples: int, batch: int) -> list[tuple[int, int]]:
    """One epoch as ``(samples per step, steps)`` runs of identical steps:
    the full batches, then the remainder batch."""
    full, rem = divmod(n_samples, batch)
    return [(n, steps) for n, steps in ((batch, full), (rem, 1)) if n and steps]


def simulate_bp(
    model: ConvNet,
    data: DatasetSpec,
    platform: Platform,
    epochs: int,
    memory_budget: int | None = None,
    batch_limit: int = DEFAULT_BATCH_LIMIT,
    backward_multiplier: float = 2.0,
) -> SimulatedRun:
    """Replay :class:`BackpropTrainer`'s time accounting without training."""
    breakdown = bp_memory_by_batch(model)
    mem = lambda b: breakdown(b).total
    batch = max_feasible_batch(mem, memory_budget, batch_limit)
    sim = ExecutionSimulator(platform)
    step_flops = training_step_flops(model_forward_flops(model, 1), backward_multiplier)
    n_kernels = model_kernel_count(model)
    for n, steps in _epoch_steps(data.n_train, batch):
        sim.add_training_step(
            step_flops * n, data.sample_bytes * n, n_kernels, count=steps * epochs
        )
    return SimulatedRun("backprop", batch, epochs, sim.elapsed, sim.ledger, mem(batch))


def simulate_classic_ll(
    model: ConvNet,
    data: DatasetSpec,
    platform: Platform,
    epochs: int,
    memory_budget: int | None = None,
    batch_limit: int = DEFAULT_BATCH_LIMIT,
    backward_multiplier: float = 2.0,
    seed: int = 0,
) -> SimulatedRun:
    """Replay :class:`LocalLearningTrainer`'s accounting (256-filter heads)."""
    heads = build_aux_heads(model, rule="classic", seed=seed)
    aux = list(heads[:-1]) + [None]
    breakdown = ll_memory_by_batch(model, aux, residency="full")
    mem = lambda b: breakdown(b).total
    batch = max_feasible_batch(mem, memory_budget, batch_limit)

    step_flops = 0
    n_kernels = 0
    for spec, head in zip(model.local_layers(), aux):
        in_shape = (1, spec.in_channels, *spec.in_hw)
        fwd, out_shape = module_forward_flops(spec.module, in_shape)
        step_flops += training_step_flops(fwd, backward_multiplier)
        n_kernels += count_module_kernels(spec.module)
        if head is not None:
            aux_fwd, _ = module_forward_flops(head, out_shape)
            step_flops += training_step_flops(aux_fwd, backward_multiplier)
            n_kernels += count_module_kernels(head)
    last = model.local_layers()[-1]
    head_fwd, _ = module_forward_flops(
        model.head, (1, last.out_channels, *last.out_hw)
    )
    step_flops += training_step_flops(head_fwd, backward_multiplier)
    n_kernels += count_module_kernels(model.head)

    sim = ExecutionSimulator(platform)
    for n, steps in _epoch_steps(data.n_train, batch):
        sim.add_training_step(
            step_flops * n, data.sample_bytes * n, n_kernels, count=steps * epochs
        )
    return SimulatedRun("classic-ll", batch, epochs, sim.elapsed, sim.ledger, mem(batch))


def simulate_neuroflux(
    model: ConvNet,
    data: DatasetSpec,
    platform: Platform,
    epochs: int,
    memory_budget: int,
    batch_limit: int = 256,
    rho: float = 0.4,
    backward_multiplier: float = 2.0,
    use_cache: bool = True,
    adaptive_batch: bool = True,
    seed: int = 0,
) -> SimulatedRun:
    """Replay the NeuroFlux controller's accounting without training.

    Mirrors :class:`repro.core.controller.NeuroFlux.run`: profiling,
    block swaps, Algorithm-2 training steps per block, the post-training
    cache-write forward pass, and per-epoch cache reads.
    """
    heads = build_aux_heads(model, rule="aan", seed=seed)
    specs = model.local_layers()
    profiler = MemoryProfiler(
        specs, list(heads), backward_multiplier=backward_multiplier
    )
    profile = profiler.profile()
    blocks = partition(profile.models, memory_budget, batch_limit, rho=rho)
    if not adaptive_batch:
        global_batch = min(b.batch_size for b in blocks)
        for b in blocks:
            b.batch_size = global_batch

    sim = ExecutionSimulator(platform)
    sim.add_profiling(
        profile.profiling_flops / platform.effective_flops
        + len(specs) * platform.kernel_launch_overhead
    )

    peak = 0
    for block in blocks:
        block_specs = [specs[i] for i in block.layer_indices]
        block_heads = [heads[i] for i in block.layer_indices]
        train_flops = 0
        fwd_flops = 0
        n_kernels = 0
        for spec, head in zip(block_specs, block_heads):
            in_shape = (1, spec.in_channels, *spec.in_hw)
            fwd, out_shape = module_forward_flops(spec.module, in_shape)
            fwd_flops += fwd
            train_flops += training_step_flops(fwd, backward_multiplier)
            aux_fwd, _ = module_forward_flops(head, out_shape)
            train_flops += training_step_flops(aux_fwd, backward_multiplier)
            n_kernels += count_module_kernels(spec.module) + count_module_kernels(head)
        residency = max(
            measure_unit_memory(specs[i], heads[i], block.batch_size)
            for i in block.layer_indices
        )
        peak = max(peak, residency)
        if residency > memory_budget:
            raise MemoryBudgetExceeded(residency, 0, memory_budget, "block residency")

        block_params = sum(s.module.parameter_bytes() for s in block_specs) + sum(
            h.parameter_bytes() for h in block_heads
        )
        sim.ledger.overhead += sim.storage_time(block_params, n_ops=1)

        in_spec = block_specs[0]
        in_bytes_per_sample = (
            in_spec.in_channels * in_spec.in_hw[0] * in_spec.in_hw[1] * FLOAT_BYTES
        )
        out_spec = block_specs[-1]
        out_bytes_per_sample = (
            out_spec.out_channels * out_spec.out_hw[0] * out_spec.out_hw[1] * FLOAT_BYTES
        )
        prior_fwd_flops = 0
        if not use_cache and block.index > 0:
            for s in specs[: block.first_layer]:
                f, _ = module_forward_flops(s.module, (1, s.in_channels, *s.in_hw))
                prior_fwd_flops += f
        cached_input = use_cache and block.index > 0
        input_mode = "prefetch-cache" if cached_input else "prefetch-raw"
        # Post-training forward pass that fills the activation cache.
        fills_cache = use_cache and block.index < len(blocks) - 1
        for n, steps in _epoch_steps(data.n_train, block.batch_size):
            trained = steps * epochs
            sim.add_training_step(
                train_flops * n,
                data.sample_bytes * n,
                n_kernels,
                input_mode=input_mode,
                count=trained,
            )
            read_bytes = in_bytes_per_sample * n + 8 * n
            if cached_input:
                sim.add_cache_read(read_bytes, n_files=1, count=trained)
            elif prior_fwd_flops:
                sim.add_inference_batch(
                    prior_fwd_flops * n,
                    data.sample_bytes * n,
                    block.first_layer,
                    count=trained,
                )
            if fills_cache:
                sim.add_inference_batch(
                    fwd_flops * n, data.sample_bytes * n, n_kernels, count=steps
                )
                if cached_input:
                    sim.add_cache_read(read_bytes, n_files=1, count=steps)
                sim.add_cache_write(
                    out_bytes_per_sample * n + 8 * n, n_files=1, count=steps
                )
    return SimulatedRun(
        "neuroflux",
        max(b.batch_size for b in blocks),
        epochs,
        sim.elapsed,
        sim.ledger,
        peak,
        blocks=tuple(blocks),
    )


def try_simulate(fn, *args, **kwargs) -> SimulatedRun | None:
    """Run a simulation, returning None where the paper shows 'no data
    point' (the method cannot train under the budget)."""
    try:
        return fn(*args, **kwargs)
    except (MemoryBudgetExceeded, PartitionError):
        return None
