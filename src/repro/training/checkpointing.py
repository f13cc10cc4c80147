"""Checkpointing: the gradient-checkpointing baseline and state snapshots.

Two related concerns live here:

* :class:`GradientCheckpointTrainer` -- the paper's Section 7 baseline
  that trades compute for memory by recomputing segment interiors during
  backward;
* block *state* checkpointing -- bit-exact snapshot / serialize /
  restore of a partition block's layers and auxiliary heads (weights
  and BatchNorm running statistics) and its optimizer state.  This is
  the substrate live block migration and fault-tolerant recovery
  (:mod:`repro.runtime.migrate`) rely on: a restored block must be
  indistinguishable from the original, down to the last bit, or a
  migrated run would silently diverge from the unperturbed one.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError
from repro.flops.count import model_forward_flops
from repro.memory.estimator import checkpointed_training_memory
from repro.nn.module import run_backward
from repro.training.backprop import BackpropTrainer


class GradientCheckpointTrainer(BackpropTrainer):
    """BP with stage-granular activation checkpointing."""

    method = "gradient-checkpointing"
    gpu_tag = "checkpointed-step"
    rng_tag = "ckpt"

    def memory_at_batch(self, batch_size: int) -> int:
        return checkpointed_training_memory(self.model, batch_size, self.optimizer_name)

    def step_price(self) -> tuple[int, int]:
        # Checkpointing re-runs the forward during backward: one extra
        # forward per step on top of the usual forward + backward.
        flops, n_kernels = super().step_price()
        return flops + model_forward_flops(self.model, 1), n_kernels

    def step(self, xb: np.ndarray, yb: np.ndarray) -> float:
        # Forward pass collecting segment boundaries; the backward loop
        # re-runs each segment's forward (the recomputation cost of
        # checkpointing) just before its backward.  As in naive
        # torch.utils.checkpoint, BN running stats see each batch twice.
        stages = [*self.model.stages, self.model.head]
        boundaries = [xb]
        for stage in stages:
            boundaries.append(stage.forward(boundaries[-1]))
        loss = self._loss_fn(boundaries[-1], yb)
        self.model.zero_grad()
        grad = self._loss_fn.backward()
        for i in reversed(range(len(stages))):
            stages[i].forward(boundaries[i])  # recompute segment
            # The gradient w.r.t. the images is never used.
            grad = run_backward(stages[i], grad, need_input_grad=i > 0)
        self._opt.step()
        return loss


# -- block state checkpointing (migration / fault tolerance) ----------------

#: Serialized key layout: ``<section><index>:<name>``.  Parameter names may
#: contain dots (``layers.0.weight``) but never colons, so the first colon
#: splits unambiguously.
_SECTIONS = ("layer", "aux", "opt")


@dataclass
class BlockCheckpoint:
    """Bit-exact snapshot of one partition block's training state.

    One state dict per member layer, per auxiliary head, and per
    optimizer, in block order; a layer's or head's state dict is its
    parameters plus its BatchNorm running statistics, which the eval-mode
    forward that feeds the next block reads.  ``nbytes`` is the in-memory
    payload size -- parameter, statistic and optimizer bytes, what a
    migration must move; the serialized form adds a small container
    overhead on top.
    """

    layer_states: list[dict[str, np.ndarray]] = field(default_factory=list)
    aux_states: list[dict[str, np.ndarray]] = field(default_factory=list)
    optimizer_states: list[dict[str, np.ndarray]] = field(default_factory=list)

    @property
    def nbytes(self) -> int:
        return sum(
            arr.nbytes
            for states in (self.layer_states, self.aux_states, self.optimizer_states)
            for state in states
            for arr in state.values()
        )


def checkpoint_block(
    modules: list, aux_heads: list, optimizers: list
) -> BlockCheckpoint:
    """Snapshot the layers, heads and optimizers of one block."""
    if not (len(modules) == len(aux_heads) == len(optimizers)):
        raise ConfigError(
            "modules, aux_heads and optimizers must align: "
            f"{len(modules)}/{len(aux_heads)}/{len(optimizers)}"
        )
    return BlockCheckpoint(
        layer_states=[m.state_dict() for m in modules],
        aux_states=[a.state_dict() for a in aux_heads],
        optimizer_states=[o.state_dict() for o in optimizers],
    )


def restore_block(
    ckpt: BlockCheckpoint, modules: list, aux_heads: list, optimizers: list
) -> None:
    """Load a :class:`BlockCheckpoint` back into live layers/heads/optimizers."""
    if not (
        len(ckpt.layer_states) == len(modules)
        and len(ckpt.aux_states) == len(aux_heads)
        and len(ckpt.optimizer_states) == len(optimizers)
    ):
        raise ConfigError(
            f"checkpoint shape {len(ckpt.layer_states)}/{len(ckpt.aux_states)}/"
            f"{len(ckpt.optimizer_states)} does not match block "
            f"{len(modules)}/{len(aux_heads)}/{len(optimizers)}"
        )
    for module, state in zip(modules, ckpt.layer_states):
        module.load_state_dict(state)
    for aux, state in zip(aux_heads, ckpt.aux_states):
        aux.load_state_dict(state)
    for opt, state in zip(optimizers, ckpt.optimizer_states):
        opt.load_state_dict(state)


def serialize_checkpoint(ckpt: BlockCheckpoint) -> bytes:
    """Serialize a checkpoint to bytes (the wire format migration ships).

    Uses the ``.npz`` container, which preserves dtype, shape and every
    bit of the payload; :func:`deserialize_checkpoint` inverts it exactly.
    """
    arrays: dict[str, np.ndarray] = {}
    for section, states in zip(
        _SECTIONS, (ckpt.layer_states, ckpt.aux_states, ckpt.optimizer_states)
    ):
        # Record the unit count even when a unit's state is empty (plain
        # SGD), so the round trip restores the exact list structure.
        arrays[f"{section}_count"] = np.array(len(states), dtype=np.int64)
        for i, state in enumerate(states):
            for name, arr in state.items():
                if ":" in name:
                    raise ConfigError(
                        f"state name {name!r} contains ':' (reserved as the "
                        "checkpoint key separator)"
                    )
                arrays[f"{section}{i}:{name}"] = arr
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    return buf.getvalue()


def deserialize_checkpoint(data: bytes) -> BlockCheckpoint:
    """Inverse of :func:`serialize_checkpoint` (bit-identical payload)."""
    with np.load(io.BytesIO(data), allow_pickle=False) as npz:
        counts = {}
        sections: dict[str, list[dict[str, np.ndarray]]] = {}
        for section in _SECTIONS:
            key = f"{section}_count"
            if key not in npz:
                raise ConfigError(f"corrupt checkpoint: missing {key!r}")
            counts[section] = int(npz[key])
            sections[section] = [{} for _ in range(counts[section])]
        for key in npz.files:
            if ":" not in key:  # the section-count headers
                continue
            head, _, name = key.partition(":")
            section = head.rstrip("0123456789")
            try:
                index = int(head[len(section):])
            except ValueError:
                raise ConfigError(
                    f"corrupt checkpoint: unexpected key {key!r}"
                ) from None
            if section not in sections or not 0 <= index < counts[section]:
                raise ConfigError(f"corrupt checkpoint: unexpected key {key!r}")
            sections[section][index][name] = npz[key]
    return BlockCheckpoint(
        layer_states=sections["layer"],
        aux_states=sections["aux"],
        optimizer_states=sections["opt"],
    )
