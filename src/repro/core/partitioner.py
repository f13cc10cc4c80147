"""NeuroFlux Partitioner: Algorithm 1 of the paper.

Computes the largest feasible batch per layer under the GPU memory budget
(via the Profiler's linear models), caps it at the user's batch-size limit
(over-large batches hurt generalization, Section 5.2), then groups
contiguous layers whose feasible batches differ by at most the grouping
threshold rho (40% by default, the paper's empirically best value) into
blocks.  A block's batch size is the minimum over its member layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.profiler import LinearMemoryModel, ProfileResult
from repro.errors import ConfigError, PartitionError

#: Paper Section 5.2: 40% was empirically the best grouping threshold
#: across the 10%-70% sweep (reproduced by benchmarks/sweeps/ablation_rho.json).
DEFAULT_GROUPING_THRESHOLD = 0.4


@dataclass
class Block:
    """A contiguous group of layers trained together with one batch size."""

    index: int
    layer_indices: list[int] = field(default_factory=list)
    batch_size: int = 0

    @property
    def first_layer(self) -> int:
        return self.layer_indices[0]

    @property
    def last_layer(self) -> int:
        return self.layer_indices[-1]

    def __len__(self) -> int:
        return len(self.layer_indices)


def feasible_batches(
    models: list[LinearMemoryModel], budget_bytes: int, batch_limit: int
) -> list[int]:
    """Per-layer max feasible batch, capped at the limit (Alg. 1 lines 2-5).

    Raises :class:`PartitionError` if some layer cannot train even one
    sample under the budget -- NeuroFlux's own infeasibility point.
    """
    if budget_bytes <= 0:
        raise ConfigError("memory budget must be positive")
    if batch_limit < 1:
        raise ConfigError("batch limit must be >= 1")
    result = []
    for i, model in enumerate(models):
        t = model.max_batch(budget_bytes)
        if t < 1:
            raise PartitionError(
                f"layer {i} cannot fit a single sample under "
                f"{budget_bytes} B (needs {model.predict(1):.0f} B)"
            )
        result.append(min(t, batch_limit))
    return result


def partition(
    models: list[LinearMemoryModel],
    budget_bytes: int,
    batch_limit: int,
    rho: float = DEFAULT_GROUPING_THRESHOLD,
) -> list[Block]:
    """Algorithm 1: group layers into blocks by feasible-batch similarity."""
    if not models:
        raise PartitionError("no layers to partition")
    if rho < 0:
        raise ConfigError("grouping threshold must be non-negative")
    b = feasible_batches(models, budget_bytes, batch_limit)
    blocks: list[Block] = []
    i = 0
    n = len(b)
    while i < n:
        block = Block(index=len(blocks), layer_indices=[i], batch_size=b[i])
        # Alg. 1 line 10: extend while the next layer's feasible batch is
        # within rho of the current layer's.
        while i + 1 < n and abs(b[i + 1] - b[i]) <= rho * b[i]:
            block.batch_size = min(block.batch_size, b[i + 1])
            block.layer_indices.append(i + 1)
            i += 1
        blocks.append(block)
        i += 1
    return blocks


def plan_blocks(profile: ProfileResult, memory_budget: int, config) -> list[Block]:
    """Step 2 as a run takes it: Algorithm 1 over ``profile``'s lines
    under ``config``'s batch limit and rho, checked, then -- where
    ``config.adaptive_batch`` is off -- the AB-LL ablation's one global
    batch.  The one plan :meth:`NeuroFlux.plan` and the closed form
    (:func:`repro.evalsim.training_time.simulate_neuroflux`) share."""
    blocks = partition(profile.models, memory_budget, config.batch_limit, rho=config.rho)
    validate_partition(blocks, len(profile))
    if not config.adaptive_batch:
        # Ablation: a single global batch (what AAN-LL alone would use).
        global_batch = min(b.batch_size for b in blocks)
        for b in blocks:
            b.batch_size = global_batch
    return blocks


def validate_partition(blocks: list[Block], n_layers: int) -> None:
    """Check the partition invariants (used by tests and the controller).

    Blocks must cover layers 0..n-1 exactly once, in order, contiguously,
    with positive batch sizes.
    """
    covered = [idx for blk in blocks for idx in blk.layer_indices]
    if covered != list(range(n_layers)):
        raise PartitionError(
            f"blocks do not cover layers exactly once in order: {covered}"
        )
    for blk in blocks:
        if blk.batch_size < 1:
            raise PartitionError(f"block {blk.index} has batch size {blk.batch_size}")
        if blk.layer_indices != list(
            range(blk.layer_indices[0], blk.layer_indices[-1] + 1)
        ):
            raise PartitionError(f"block {blk.index} is not contiguous")
