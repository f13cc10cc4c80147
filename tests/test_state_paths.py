"""Every path that moves module state carries BatchNorm statistics.

NeuroFlux caches a trained block's eval-mode outputs as the next block's
input, and an eval-mode BatchNorm normalizes with its running
statistics, so those statistics are trained state exactly as the
weights are.  Each test here trains every layer of a zoo model (with its
auxiliary heads) for a few local steps, moves the state into a fresh
twin -- other init seed, BatchNorms at their 0 / 1 -- through one path,
and requires the twin's eval-mode outputs to equal the original's bit
for bit:

* ``snapshot_worker`` -> ``serialize_checkpoint`` ->
  ``deserialize_checkpoint`` -> ``restore_worker`` (block migration);
* ``state_dict`` -> pickle -> ``load_state_dict`` (the forked-stage
  result pipe);
* ``save_checkpoint`` -> ``load_checkpoint`` (model files).
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.auxiliary import build_aux_heads
from repro.core.worker import BlockWorker
from repro.hw.platforms import AGX_ORIN
from repro.hw.simulator import ExecutionSimulator
from repro.models.zoo import build_model, list_models
from repro.nn import make_optimizer
from repro.nn.normalization import BatchNorm2d
from repro.runtime import restore_worker, snapshot_worker
from repro.training.checkpointing import deserialize_checkpoint, serialize_checkpoint
from repro.utils.rng import spawn_rng
from repro.utils.serialization import load_checkpoint, save_checkpoint


def _worker(name: str, seed: int) -> tuple:
    """``(model, worker)``: every local layer of ``name`` as one block."""
    model = build_model(
        name, num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=seed
    )
    specs = model.local_layers()
    heads = list(
        build_aux_heads(model, rule="aan", classic_filters=16, seed=seed)
    )
    optimizers = [
        make_optimizer(
            "sgd-momentum", spec.module.parameters() + head.parameters(), lr=0.05
        )
        for spec, head in zip(specs, heads)
    ]
    worker = BlockWorker(
        specs, heads, optimizers, ExecutionSimulator(AGX_ORIN), sample_bytes=3072
    )
    return model, worker


def _eval_outputs(worker: BlockWorker, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's and every head's eval-mode output, in block order."""
    outs = []
    for spec, head in zip(worker.layer_specs, worker.aux_heads):
        spec.module.eval()
        head.eval()
        x = spec.module.forward(x).copy()
        outs += [x, head.forward(x).copy()]
    return outs


def _move_by_block_checkpoint(src, dst, tmp_path) -> None:
    wire = serialize_checkpoint(snapshot_worker(src[1]))
    restore_worker(dst[1], deserialize_checkpoint(wire))


def _move_by_ship(src, dst, tmp_path) -> None:
    units = zip(
        [*(s.module for s in src[1].layer_specs), *src[1].aux_heads],
        [*(s.module for s in dst[1].layer_specs), *dst[1].aux_heads],
    )
    for a, b in units:
        b.load_state_dict(pickle.loads(pickle.dumps(a.state_dict())))


def _move_by_checkpoint_file(src, dst, tmp_path) -> None:
    units = zip([src[0], *src[1].aux_heads], [dst[0], *dst[1].aux_heads])
    for i, (a, b) in enumerate(units):
        path = tmp_path / f"unit{i}.npz"
        save_checkpoint(a, path)
        load_checkpoint(b, path)


PATHS = {
    "block-checkpoint": _move_by_block_checkpoint,
    "ship": _move_by_ship,
    "checkpoint-file": _move_by_checkpoint_file,
}


@pytest.mark.parametrize("path", sorted(PATHS))
@settings(max_examples=6, deadline=None)
@given(
    name=st.sampled_from(list_models()),
    seed=st.integers(0, 2**16),
    steps=st.integers(1, 3),
)
def test_twin_evaluates_bit_for_bit(tmp_path_factory, path, name, seed, steps):
    src = _worker(name, seed)
    assert any(isinstance(m, BatchNorm2d) for m in src[0].modules())
    rng = spawn_rng(seed, "state-paths")
    for _ in range(steps):
        x = rng.normal(size=(4, 3, 16, 16)).astype(np.float32)
        src[1].train_batch(x, rng.integers(0, 4, size=4))
    dst = _worker(name, seed + 1)
    PATHS[path](src, dst, tmp_path_factory.mktemp("state"))

    x = rng.normal(size=(3, 3, 16, 16)).astype(np.float32)
    want, got = _eval_outputs(src[1], x), _eval_outputs(dst[1], x)
    assert len(want) == len(got)
    for a, b in zip(want, got):
        assert np.array_equal(a, b)
