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

The step prices are not copies: ``simulate_bp`` and
``simulate_classic_ll`` call the cost functions their trainers charge with
(:func:`~repro.training.backprop.bp_step_price`,
:func:`~repro.training.local.ll_step_price`), ``simulate_neuroflux`` the
worker's (:func:`~repro.core.worker.unit_train_flops`).  Three tests in
``tests/test_training_time_sim.py`` hold the rest of the accounting to a
real run, ledger line by ledger line:
``test_bp_simulation_matches_trainer_ledger``,
``test_ll_simulation_matches_trainer_ledger`` and
``test_neuroflux_simulation_matches_run_ledger``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.auxiliary import build_aux_heads
from repro.core.partitioner import Block, partition
from repro.core.profiler import MemoryProfiler, measure_unit_memory
from repro.core.worker import unit_kernel_count, unit_train_flops
from repro.data.datasets import DatasetSpec
from repro.errors import MemoryBudgetExceeded, PartitionError
from repro.flops.count import module_forward_flops
from repro.hw.platforms import Platform
from repro.hw.simulator import ExecutionSimulator, TimeLedger
from repro.memory.estimator import (
    boundary_sample_bytes,
    bp_memory_by_batch,
    ll_memory_by_batch,
)
from repro.models.base import ConvNet
from repro.training.backprop import (
    DEFAULT_BATCH_LIMIT,
    BackpropTrainer,
    bp_step_price,
    max_feasible_batch,
)
from repro.training.local import LocalLearningTrainer, ll_step_price


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


def _forward_flops(specs) -> int:
    """Per-sample forward FLOPs of a run of layers."""
    return sum(
        module_forward_flops(s.module, (1, s.in_channels, *s.in_hw))[0] for s in specs
    )


def _simulate_full_graph(
    method: str,
    step_price: tuple[int, int],
    memory_by_batch,
    data: DatasetSpec,
    platform: Platform,
    epochs: int,
    memory_budget: int | None,
    batch_limit: int,
) -> SimulatedRun:
    """The baseline frame's accounting (:class:`BaselineTrainer.train`):
    one budget-sized batch for the whole model, one charge per step."""
    mem = lambda b: memory_by_batch(b).total
    batch = max_feasible_batch(mem, memory_budget, batch_limit)
    sim = ExecutionSimulator(platform)
    flops_per_sample, n_kernels = step_price
    for n, steps in _epoch_steps(data.n_train, batch):
        sim.add_training_step(
            flops_per_sample * n, data.sample_bytes * n, n_kernels, count=steps * epochs
        )
    return SimulatedRun(method, batch, epochs, sim.elapsed, sim.ledger, mem(batch))


def simulate_bp(
    model: ConvNet,
    data: DatasetSpec,
    platform: Platform,
    epochs: int,
    memory_budget: int | None = None,
    batch_limit: int = DEFAULT_BATCH_LIMIT,
) -> SimulatedRun:
    """Replay :class:`BackpropTrainer`'s time accounting without training."""
    return _simulate_full_graph(
        BackpropTrainer.method,
        bp_step_price(model),
        bp_memory_by_batch(model),
        data, platform, epochs, memory_budget, batch_limit,
    )


def simulate_classic_ll(
    model: ConvNet,
    data: DatasetSpec,
    platform: Platform,
    epochs: int,
    memory_budget: int | None = None,
    batch_limit: int = DEFAULT_BATCH_LIMIT,
    seed: int = 0,
    heads=None,
) -> SimulatedRun:
    """Replay :class:`LocalLearningTrainer`'s accounting (256-filter heads).

    ``heads`` are the classic heads if the caller has built them already.
    """
    if heads is None:
        heads = build_aux_heads(model, rule="classic", seed=seed)
    aux = list(heads[:-1]) + [None]
    return _simulate_full_graph(
        LocalLearningTrainer.method,
        ll_step_price(model, aux),
        ll_memory_by_batch(model, aux, residency="full"),
        data, platform, epochs, memory_budget, batch_limit,
    )


def simulate_neuroflux(
    model: ConvNet,
    data: DatasetSpec,
    platform: Platform,
    epochs: int,
    memory_budget: int,
    batch_limit: int = 256,
    rho: float = 0.4,
    use_cache: bool = True,
    adaptive_batch: bool = True,
    seed: int = 0,
    heads=None,
    profile=None,
) -> SimulatedRun:
    """Replay the NeuroFlux controller's accounting without training.

    Mirrors :class:`repro.core.controller.NeuroFlux.run`: profiling,
    block swaps, Algorithm-2 training steps per block, the post-training
    cache-write forward pass, and per-epoch cache reads.  ``heads`` and
    ``profile`` are the AAN heads and their memory profile if the caller
    has built them already.
    """
    specs = model.local_layers()
    if heads is None:
        heads = build_aux_heads(model, rule="aan", seed=seed)
    if profile is None:
        profile = MemoryProfiler(specs, list(heads)).profile()
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
        units = list(zip(block_specs, block_heads))
        train_flops = sum(unit_train_flops(s, h) for s, h in units)
        n_kernels = sum(unit_kernel_count(s, h) for s, h in units)
        residency = max(
            measure_unit_memory(spec, head, block.batch_size) for spec, head in units
        )
        peak = max(peak, residency)
        if residency > memory_budget:
            raise MemoryBudgetExceeded(residency, 0, memory_budget, "block residency")

        block_params = sum(s.module.parameter_bytes() for s in block_specs) + sum(
            h.parameter_bytes() for h in block_heads
        )
        sim.ledger.overhead += sim.storage_time(block_params, n_ops=1)

        cached_input = use_cache and block.index > 0
        input_mode = "prefetch-cache" if cached_input else "prefetch-raw"
        # Post-training forward pass that fills the activation cache.
        fills_cache = use_cache and block.index < len(blocks) - 1
        fwd_flops = _forward_flops(block_specs) if fills_cache else 0
        # Ablation: without the cache every batch re-runs the trained prefix.
        prior_fwd_flops = 0 if use_cache else _forward_flops(specs[: block.first_layer])
        for n, steps in _epoch_steps(data.n_train, block.batch_size):
            sim.add_training_step(
                train_flops * n,
                data.sample_bytes * n,
                n_kernels,
                input_mode=input_mode,
                count=steps * epochs,
            )
            if prior_fwd_flops:
                sim.add_inference_batch(
                    prior_fwd_flops * n,
                    data.sample_bytes * n,
                    block.first_layer,
                    count=steps * epochs,
                )
            if fills_cache:
                sim.add_inference_batch(
                    fwd_flops * n, data.sample_bytes * n, n_kernels, count=steps
                )
                sim.add_cache_write(
                    boundary_sample_bytes(block_specs[-1].output_elements_per_sample) * n,
                    n_files=1, count=steps,
                )
        if cached_input:
            # One read per file the previous block wrote -- its batch size,
            # not this block's (the prefetcher rebatches after the read) --
            # on every training pass and on the cache-fill pass.
            read_bytes = boundary_sample_bytes(
                specs[block.first_layer - 1].output_elements_per_sample
            )
            passes = epochs + 1 if fills_cache else epochs
            for n, files in _epoch_steps(data.n_train, blocks[block.index - 1].batch_size):
                sim.add_cache_read(read_bytes * n, n_files=1, count=files * passes)
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
