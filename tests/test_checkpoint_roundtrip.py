"""Round-trip property tests for block state checkpointing.

Live migration and failure recovery (repro.runtime.migrate) are only
sound if a block's weights, BatchNorm statistics *and* optimizer
state serialize/deserialize bit-identically -- a single flipped bit
and a migrated run would diverge from the unperturbed one.  These
tests pin that property down across optimizers, seeds and the real
wire format.
"""

import numpy as np
import pytest

from repro.core.auxiliary import build_aux_heads
from repro.core.worker import BlockWorker
from repro.errors import ConfigError
from repro.hw.platforms import AGX_ORIN
from repro.hw.simulator import ExecutionSimulator
from repro.models.zoo import build_model
from repro.nn import make_optimizer
from repro.nn.normalization import BatchNorm2d
from repro.training.checkpointing import (
    checkpoint_block,
    deserialize_checkpoint,
    restore_block,
    serialize_checkpoint,
)
from repro.utils.rng import spawn_rng


def _make_worker(seed: int, optimizer: str, n_layers: int = 2) -> BlockWorker:
    model = build_model(
        "vgg11", num_classes=4, input_hw=(16, 16), width_multiplier=0.125, seed=seed
    )
    specs = model.local_layers()[:n_layers]
    aux = list(
        build_aux_heads(model, rule="aan", classic_filters=16, seed=seed)
    )[:n_layers]
    optimizers = [
        make_optimizer(
            optimizer, specs[i].module.parameters() + aux[i].parameters(), lr=0.05
        )
        for i in range(n_layers)
    ]
    return BlockWorker(
        specs, aux, optimizers, ExecutionSimulator(AGX_ORIN), sample_bytes=3072
    )


def _train_a_bit(worker: BlockWorker, seed: int, steps: int = 3) -> None:
    rng = spawn_rng(seed, "ckpt-test")
    for _ in range(steps):
        x = rng.normal(size=(4, 3, 16, 16)).astype(np.float32)
        y = rng.integers(0, 4, size=4)
        worker.train_batch(x, y)


def _full_state(worker: BlockWorker) -> dict[str, np.ndarray]:
    state = {}
    for i, spec in enumerate(worker.layer_specs):
        for key, value in spec.module.state_dict().items():
            state[f"layer{i}.{key}"] = value
    for i, aux in enumerate(worker.aux_heads):
        for key, value in aux.state_dict().items():
            state[f"aux{i}.{key}"] = value
    for i, opt in enumerate(worker.optimizers):
        for key, value in opt.state_dict().items():
            state[f"opt{i}.{key}"] = value
    return state


def _assert_bit_identical(a: dict, b: dict) -> None:
    assert set(a) == set(b)
    for key in a:
        assert a[key].dtype == b[key].dtype, key
        assert np.array_equal(a[key], b[key]), f"bits differ at {key}"


@pytest.mark.parametrize("optimizer", ["sgd", "sgd-momentum", "adam"])
@pytest.mark.parametrize("seed", [0, 7])
def test_serialize_deserialize_restore_is_bit_identical(optimizer, seed):
    """The property migration relies on: snapshot -> bytes -> restore
    reproduces weights + optimizer state exactly, for every optimizer."""
    worker = _make_worker(seed, optimizer)
    _train_a_bit(worker, seed)
    want = _full_state(worker)
    data = serialize_checkpoint(
        checkpoint_block(
            [s.module for s in worker.layer_specs],
            worker.aux_heads,
            worker.optimizers,
        )
    )
    # Restore into a *different* worker (other init seed, same shape):
    # every original bit must land.
    other = _make_worker(seed + 100, optimizer)
    _train_a_bit(other, seed + 100)  # dirty its optimizer state too
    restore_block(
        deserialize_checkpoint(data),
        [s.module for s in other.layer_specs],
        other.aux_heads,
        other.optimizers,
    )
    _assert_bit_identical(want, _full_state(other))


def test_restored_worker_trains_identically():
    """Beyond state equality: the restored block must *continue* training
    exactly like the original (same future updates)."""
    a = _make_worker(3, "sgd-momentum")
    _train_a_bit(a, 3)
    data = serialize_checkpoint(snapshot(a))
    b = _make_worker(4, "sgd-momentum")
    restore_block(
        deserialize_checkpoint(data),
        [s.module for s in b.layer_specs],
        b.aux_heads,
        b.optimizers,
    )
    rng = spawn_rng(99, "ckpt-test/cont")
    x = rng.normal(size=(4, 3, 16, 16)).astype(np.float32)
    y = rng.integers(0, 4, size=4)
    out_a, loss_a, _ = a.train_batch(x.copy(), y.copy())
    out_b, loss_b, _ = b.train_batch(x.copy(), y.copy())
    assert np.array_equal(out_a, out_b)
    assert loss_a == loss_b
    _assert_bit_identical(_full_state(a), _full_state(b))


def snapshot(worker: BlockWorker):
    return checkpoint_block(
        [s.module for s in worker.layer_specs], worker.aux_heads, worker.optimizers
    )


def test_snapshot_is_a_copy_not_a_view():
    """Mutating the live block after the snapshot must not corrupt it."""
    worker = _make_worker(1, "sgd-momentum")
    _train_a_bit(worker, 1)
    want = _full_state(worker)
    ckpt = snapshot(worker)
    _train_a_bit(worker, 2)  # drift the live state away
    restore_block(
        ckpt,
        [s.module for s in worker.layer_specs],
        worker.aux_heads,
        worker.optimizers,
    )
    _assert_bit_identical(want, _full_state(worker))


def _batchnorm_stats(worker: BlockWorker) -> list[np.ndarray]:
    units = [s.module for s in worker.layer_specs] + list(worker.aux_heads)
    return [
        stat.copy()
        for unit in units
        for m in unit.modules()
        if isinstance(m, BatchNorm2d)
        for stat in (m.running_mean, m.running_var)
    ]


def test_nbytes_counts_payload():
    """Parameter bytes + BatchNorm statistic bytes + optimizer bytes."""
    worker = _make_worker(0, "adam")
    ckpt = snapshot(worker)
    params = sum(
        s.module.parameter_bytes() for s in worker.layer_specs
    ) + sum(a.parameter_bytes() for a in worker.aux_heads)
    stats = sum(stat.nbytes for stat in _batchnorm_stats(worker))
    assert stats > 0
    opt = sum(o.state_bytes() for o in worker.optimizers)
    # Adam also serializes its step counter (one int64 per unit).
    assert ckpt.nbytes == params + stats + opt + 8 * len(worker.optimizers)


def test_restore_worker_rolls_back_batchnorm_statistics():
    """Training on after a snapshot moves the running statistics;
    ``restore_worker`` puts them back with the weights."""
    from repro.runtime import restore_worker, snapshot_worker

    worker = _make_worker(5, "sgd-momentum")
    _train_a_bit(worker, 5)
    want = _batchnorm_stats(worker)
    ckpt = snapshot_worker(worker)
    _train_a_bit(worker, 6)
    assert not all(np.array_equal(a, b) for a, b in zip(want, _batchnorm_stats(worker)))
    restore_worker(worker, ckpt)
    for a, b in zip(want, _batchnorm_stats(worker)):
        assert np.array_equal(a, b)


def test_misaligned_inputs_rejected():
    worker = _make_worker(0, "sgd-momentum")
    with pytest.raises(ConfigError):
        checkpoint_block([s.module for s in worker.layer_specs], worker.aux_heads, [])
    ckpt = snapshot(worker)
    with pytest.raises(ConfigError):
        restore_block(ckpt, [], worker.aux_heads, worker.optimizers)


def test_corrupt_bytes_rejected():
    with pytest.raises(Exception):
        deserialize_checkpoint(b"this is not an npz file")


def test_plain_sgd_has_empty_but_valid_optimizer_state():
    worker = _make_worker(0, "sgd")
    ckpt = snapshot(worker)
    assert all(state == {} for state in ckpt.optimizer_states)
    data = serialize_checkpoint(ckpt)
    back = deserialize_checkpoint(data)
    assert back.optimizer_states == [{}] * len(worker.optimizers)
