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
:func:`~repro.training.local.ll_step_price`) and size their batch under
the trainers' optimizer.  ``simulate_neuroflux`` is the run's own plan
(:func:`~repro.core.profiler.profile_layers` and
:func:`~repro.core.partitioner.plan_blocks`, what
:meth:`NeuroFlux.plan` calls) priced by :func:`price_partition`, which
prices any contiguous block list with the block price the controller
charges (:func:`~repro.core.worker.block_cost`: FLOPs, kernels, load
bytes, residency), the run's input mode
(:func:`~repro.hw.simulator.block_input_mode`) and its profiling rule
(:func:`~repro.core.profiler.profiling_seconds`).  Three tests in
``tests/test_training_time_sim.py`` hold the rest of the accounting to a
real run, ledger line by ledger line:
``test_bp_simulation_matches_trainer_ledger``,
``test_ll_simulation_matches_trainer_ledger`` and
``test_neuroflux_simulation_matches_run_ledger``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.auxiliary import build_aux_heads
from repro.core.config import NeuroFluxConfig
from repro.core.partitioner import Block, plan_blocks
from repro.core.profiler import profile_layers, profiling_seconds
from repro.core.worker import block_cost
from repro.data.datasets import DatasetSpec
from repro.errors import MemoryBudgetExceeded, PartitionError
from repro.hw.platforms import Platform
from repro.hw.simulator import ExecutionSimulator, TimeLedger, block_input_mode
from repro.memory.estimator import bp_memory_by_batch, ll_memory_by_batch
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
    optimizer: str = "sgd-momentum",
) -> SimulatedRun:
    """Replay :class:`BackpropTrainer`'s time accounting without training
    (its batch sized under ``optimizer``'s state, as the trainer's)."""
    return _simulate_full_graph(
        BackpropTrainer.method,
        bp_step_price(model),
        bp_memory_by_batch(model, optimizer),
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
    optimizer: str = "sgd-momentum",
) -> SimulatedRun:
    """Replay :class:`LocalLearningTrainer`'s accounting (256-filter heads,
    its batch sized under ``optimizer``'s state, as the trainer's).

    ``heads`` are the classic heads if the caller has built them already.
    """
    if heads is None:
        heads = build_aux_heads(model, rule="classic", seed=seed)
    aux = list(heads[:-1]) + [None]
    return _simulate_full_graph(
        LocalLearningTrainer.method,
        ll_step_price(model, aux),
        ll_memory_by_batch(model, aux, optimizer, residency="full"),
        data, platform, epochs, memory_budget, batch_limit,
    )


def simulate_neuroflux(
    model: ConvNet,
    data: DatasetSpec,
    platform: Platform,
    epochs: int,
    memory_budget: int,
    config: NeuroFluxConfig | None = None,
    heads=None,
    profile=None,
) -> SimulatedRun:
    """Replay :meth:`repro.core.controller.NeuroFlux.run` without training:
    its plan (:func:`~repro.core.partitioner.plan_blocks`), priced by
    :func:`price_partition`.

    ``config`` supplies what the run reads of it: ``optimizer``,
    ``sample_batches``, ``batch_limit``, ``rho``, ``use_cache``,
    ``adaptive_batch`` and ``seed``.  The heads are always AAN heads.
    ``heads`` and ``profile`` are the AAN heads and their memory profile
    if the caller has built them already.
    """
    config = config if config is not None else NeuroFluxConfig()
    specs = model.local_layers()
    if heads is None:
        heads = build_aux_heads(model, rule="aan", seed=config.seed)
    if profile is None:
        profile = profile_layers(specs, heads, config)
    return price_partition(
        plan_blocks(profile, memory_budget, config),
        specs,
        heads,
        data,
        platform,
        epochs,
        memory_budget,
        profile.profiling_flops,
        config.use_cache,
        config.optimizer,
    )


def price_partition(
    blocks: list[Block],
    specs,
    heads,
    data: DatasetSpec,
    platform: Platform,
    epochs: int,
    memory_budget: int,
    profiling_flops: float,
    use_cache: bool,
    optimizer: str = "sgd-momentum",
) -> SimulatedRun:
    """The controller's accounting of training ``blocks`` -- any
    contiguous partition of ``specs`` from layer 0, batch sizes as run --
    for ``epochs`` epochs: profiling, block loads, Algorithm-2 training
    steps per block, the post-training cache-fill pass and the cache
    reads, each block priced by :func:`~repro.core.worker.block_cost`.

    Raises :class:`MemoryBudgetExceeded` where a block's residency
    overshoots ``memory_budget``, as the run's allocation does.
    """
    sim = ExecutionSimulator(platform)
    sim.add_profiling(profiling_seconds(profiling_flops, len(specs), platform))
    costs = [
        block_cost(specs, heads, b.layer_indices, b.batch_size, optimizer) for b in blocks
    ]
    # Ablation: without the cache every batch re-runs the trained prefix.
    prior_fwd_flops = 0
    for k, (block, cost) in enumerate(zip(blocks, costs)):
        if cost.residency_bytes > memory_budget:
            raise MemoryBudgetExceeded(
                cost.residency_bytes, 0, memory_budget, "block residency"
            )
        sim.ledger.overhead += sim.storage_time(cost.param_bytes, n_ops=1)
        input_mode = block_input_mode(k, use_cache)
        # Post-training forward pass that fills the activation cache.
        fills_cache = use_cache and k < len(blocks) - 1
        for n, steps in _epoch_steps(data.n_train, block.batch_size):
            sim.add_training_step(
                cost.train_flops_per_sample * n,
                data.sample_bytes * n,
                cost.n_kernels,
                input_mode=input_mode,
                count=steps * epochs,
            )
            if prior_fwd_flops and not use_cache:
                sim.add_inference_batch(
                    prior_fwd_flops * n,
                    data.sample_bytes * n,
                    block.first_layer,
                    count=steps * epochs,
                )
            if fills_cache:
                sim.add_inference_batch(
                    cost.forward_flops_per_sample * n,
                    data.sample_bytes * n,
                    cost.n_kernels,
                    count=steps,
                )
                sim.add_cache_write(
                    cost.out_bytes_per_sample * n, n_files=1, count=steps
                )
        if use_cache and k > 0:
            # One read per file the previous block wrote -- its batch size,
            # not this block's (the prefetcher rebatches after the read) --
            # on every training pass and on the cache-fill pass.
            passes = epochs + 1 if fills_cache else epochs
            for n, files in _epoch_steps(data.n_train, blocks[k - 1].batch_size):
                sim.add_cache_read(
                    costs[k - 1].out_bytes_per_sample * n, n_files=1, count=files * passes
                )
        prior_fwd_flops += cost.forward_flops_per_sample
    return SimulatedRun(
        "neuroflux",
        max(b.batch_size for b in blocks),
        epochs,
        sim.elapsed,
        sim.ledger,
        max(cost.residency_bytes for cost in costs),
        blocks=tuple(blocks),
    )


def try_simulate(fn, *args, **kwargs) -> SimulatedRun | None:
    """Run a simulation, returning None where the paper shows 'no data
    point' (the method cannot train under the budget)."""
    try:
        return fn(*args, **kwargs)
    except (MemoryBudgetExceeded, PartitionError):
        return None
