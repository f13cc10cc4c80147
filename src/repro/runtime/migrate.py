"""Live block migration and fault recovery.

A NeuroFlux block's entire training state is its member layers' and
auxiliary heads' weights and BatchNorm running statistics (the cached
eval-mode outputs the next block trains on read them), and its
optimizers' momentum buffers -- a
:class:`~repro.training.checkpointing.BlockCheckpoint`.  Because local
learning never back-propagates across blocks, moving a block between
devices requires no pipeline flush: the block checkpoints, ships over a
cluster link, restores bit-identically on the destination, and splices
back into the stream.  Two flavours:

* :func:`planned_migration` -- the source is alive: serialize, transfer
  (charged to the sender's ``communication`` category, as always), and
  round-trip the restore through the real wire format, so a migrated run
  is *provably* bit-identical to an unmigrated one;
* :func:`failure_recovery` -- the source is gone: the destination pulls
  the last periodic checkpoint from the cluster checkpoint store
  (charged as a storage read) and *replays* the micro-batches trained
  since that checkpoint.  Replay of the same batches through restored
  bit-identical state reproduces the lost updates exactly -- the
  deterministic-replay guarantee the round-trip property test pins down
  -- so the simulation keeps the in-memory weights and charges the
  destination for the replayed steps.

In both cases every second of recovery lands on a device ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.report import json_num
from repro.core.worker import BlockWorker
from repro.errors import ConfigError
from repro.training.checkpointing import (
    BlockCheckpoint,
    checkpoint_block,
    deserialize_checkpoint,
    restore_block,
    serialize_checkpoint,
)


def snapshot_worker(worker: BlockWorker) -> BlockCheckpoint:
    """Checkpoint a block worker's layers, aux heads and optimizers."""
    return checkpoint_block(
        [spec.module for spec in worker.layer_specs],
        worker.aux_heads,
        worker.optimizers,
    )


def restore_worker(worker: BlockWorker, ckpt: BlockCheckpoint) -> None:
    """Load a checkpoint back into a block worker, bit for bit."""
    restore_block(
        ckpt,
        [spec.module for spec in worker.layer_specs],
        worker.aux_heads,
        worker.optimizers,
    )


class CheckpointStore:
    """Cluster-level store of the latest checkpoint per block.

    Models checkpoints replicated off-device (shared storage / a peer):
    writes charge the owner's storage path, restores charge the reader's.
    Each entry remembers the micro-batch index it covers, so a recovery
    knows how many steps of work died with the device.
    """

    def __init__(self) -> None:
        self._latest: dict[int, tuple[int, BlockCheckpoint]] = {}

    def put(self, block: int, upto_microbatch: int, ckpt: BlockCheckpoint) -> None:
        if upto_microbatch < 0:
            raise ConfigError("checkpoint micro-batch index must be >= 0")
        self._latest[block] = (upto_microbatch, ckpt)

    def get(self, block: int) -> tuple[int, BlockCheckpoint] | None:
        return self._latest.get(block)

    def __contains__(self, block: int) -> bool:
        return block in self._latest

    def __len__(self) -> int:
        return len(self._latest)


@dataclass
class MigrationRecord:
    """One block move: who, where, why, and what the recovery cost."""

    block: int
    src: int
    dst: int
    time_s: float
    reason: str  # "drift" | "failure"
    nbytes: int = 0
    transfer_s: float = 0.0
    restore_s: float = 0.0
    replay_microbatches: int = 0
    replay_s: float = 0.0

    @property
    def recovery_s(self) -> float:
        """Seconds the destination spent before resuming normal steps."""
        return self.transfer_s + self.restore_s + self.replay_s

    def to_json_dict(self) -> dict:
        return {
            "block": self.block,
            "src": self.src,
            "dst": self.dst,
            "time_s": json_num(self.time_s),
            "reason": self.reason,
            "nbytes": self.nbytes,
            "transfer_s": json_num(self.transfer_s),
            "restore_s": json_num(self.restore_s),
            "replay_microbatches": self.replay_microbatches,
            "replay_s": json_num(self.replay_s),
            "recovery_s": json_num(self.recovery_s),
        }


def planned_migration(
    cluster, block: int, dst: int, worker: BlockWorker, now: float
) -> MigrationRecord:
    """Move a live block to ``dst``: snapshot, ship, restore, splice.

    The state genuinely round-trips through the serialized wire format
    before the worker is rebound -- the production path exercises the
    same (de)serialization the bit-identity tests pin down.  The
    transfer is charged to the sender's ``communication`` ledger.
    """
    src_index = _device_index_of(cluster, worker)
    if not 0 <= dst < len(cluster):
        raise ConfigError(f"migration destination {dst} out of range")
    data = serialize_checkpoint(snapshot_worker(worker))
    transfer_s = cluster.charge_transfer(src_index, dst, len(data))
    restore_worker(worker, deserialize_checkpoint(data))
    worker.sim = cluster[dst].sim
    return MigrationRecord(
        block=block,
        src=src_index,
        dst=dst,
        time_s=now,
        reason="drift",
        nbytes=len(data),
        transfer_s=transfer_s,
    )


def failure_recovery(
    cluster,
    block: int,
    src: int,
    dst: int,
    worker: BlockWorker,
    ckpt: BlockCheckpoint,
    lost_microbatches: int,
    replay_batch: int,
    input_mode: str,
    now: float,
) -> MigrationRecord:
    """Recover a block whose device died: restore + deterministic replay.

    The destination reads the last checkpoint from the store (storage
    path) and replays the ``lost_microbatches`` steps trained since it,
    each charged at the destination's own step cost.  Replaying the same
    batches through the restored state reproduces the in-memory weights
    exactly (see module docstring), so only the ledgers move.
    """
    if not 0 <= dst < len(cluster):
        raise ConfigError(f"recovery destination {dst} out of range")
    if lost_microbatches < 0:
        raise ConfigError("lost micro-batch count must be >= 0")
    data = serialize_checkpoint(ckpt)
    dst_sim = cluster[dst].sim
    restore_s = dst_sim.add_cache_read(len(data), n_files=1)
    replay_s = 0.0
    for _ in range(lost_microbatches):
        replay_s += dst_sim.add_training_step(
            worker.cost.train_flops_per_sample * replay_batch,
            worker.sample_bytes * replay_batch,
            worker.cost.n_kernels,
            input_mode=input_mode,
        )
    worker.sim = dst_sim
    return MigrationRecord(
        block=block,
        src=src,
        dst=dst,
        time_s=now,
        reason="failure",
        nbytes=len(data),
        restore_s=restore_s,
        replay_microbatches=lost_microbatches,
        replay_s=replay_s,
    )


def _device_index_of(cluster, worker: BlockWorker) -> int:
    for d, device in enumerate(cluster):
        if device.sim is worker.sim:
            return d
    raise ConfigError("worker's simulator belongs to no cluster device")
