"""The memory model's numbers reproduce their recorded values.

``tests/data/memory_golden.json`` was recorded (by :func:`record` below)
while the Profiler still built its own tensor list beside the
estimator's per-category sums.  For vgg11, resnet18 and mobilenet at
width 0.25 it pins:

* per heads rule (``aan``, ``classic``, no head) x batch x optimizer:
  every unit's tensor list (tags and bytes, one sha256 over the model),
  its allocator-measured peak and its estimator breakdown per category;
* per batch x optimizer: the whole-model footprints -- BP, local
  learning with ``full`` and ``params-only`` residency under both head
  rules, checkpointed BP and inference.

A moved value means a byte rule, a tensor or the allocator moved.
Re-record (only when the memory model is *meant* to change) with
``PYTHONPATH=src python tests/test_memory_golden.py``.
"""

import dataclasses
import functools
import hashlib
import json
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).resolve().parent / "data/memory_golden.json"
MODELS = ("vgg11", "resnet18", "mobilenet")
HEADS = ("aan", "classic", "none")
BATCHES = (1, 7, 64)
OPTIMIZERS = ("sgd", "sgd-momentum", "adam")


def unit_plan(spec, head, batch, optimizer):
    from repro.memory.estimator import local_unit_tensors_by_batch

    return local_unit_tensors_by_batch(spec, head, optimizer)(batch)


@functools.lru_cache(maxsize=None)
def model_and_heads(name):
    from repro.core.auxiliary import build_aux_heads
    from repro.models import build_model

    model = build_model(name, num_classes=10, width_multiplier=0.25)
    heads = {rule: build_aux_heads(model, rule=rule) for rule in ("aan", "classic")}
    heads["none"] = [None] * model.num_local_layers
    return model, heads


def breakdown(b) -> dict:
    return dataclasses.asdict(b)


def unit_case(name, rule, batch, optimizer) -> dict:
    from repro.core.profiler import measure_unit_memory
    from repro.memory.estimator import local_unit_training_memory

    model, heads = model_and_heads(name)
    units = list(zip(model.local_layers(), heads[rule]))
    plans = [unit_plan(s, h, batch, optimizer) for s, h in units]
    estimated = [
        breakdown(local_unit_training_memory(s, h, batch, optimizer)) for s, h in units
    ]
    return {
        "plan_sha256": hashlib.sha256(json.dumps(plans).encode()).hexdigest(),
        "measured": [measure_unit_memory(s, h, batch, optimizer) for s, h in units],
        "estimator": {k: [e[k] for e in estimated] for k in estimated[0]},
    }


def model_case(name, batch, optimizer) -> dict:
    from repro.memory.estimator import (
        bp_training_memory,
        checkpointed_training_memory,
        inference_memory,
        ll_training_memory,
    )

    model, heads = model_and_heads(name)
    case = {
        "bp": breakdown(bp_training_memory(model, batch, optimizer)),
        "checkpointed": checkpointed_training_memory(model, batch, optimizer),
        "inference": breakdown(inference_memory(model, batch)),
    }
    for rule in ("aan", "classic"):
        for residency in ("full", "params-only"):
            case[f"ll/{rule}/{residency}"] = breakdown(
                ll_training_memory(model, heads[rule], batch, optimizer, residency)
            )
    return case


UNIT_KEYS = [
    f"unit/{m}/{h}/b{b}/{o}"
    for m in MODELS for h in HEADS for b in BATCHES for o in OPTIMIZERS
]
MODEL_KEYS = [f"model/{m}/b{b}/{o}" for m in MODELS for b in BATCHES for o in OPTIMIZERS]
KEYS = UNIT_KEYS + MODEL_KEYS


def compute(key):
    kind, *parts = key.split("/")
    batch, optimizer = int(parts[-2][1:]), parts[-1]
    if kind == "unit":
        return unit_case(parts[0], parts[1], batch, optimizer)
    return model_case(parts[0], batch, optimizer)


def record() -> None:
    lines = [f" {json.dumps(k)}: {json.dumps(compute(k), sort_keys=True)}" for k in KEYS]
    GOLDEN_PATH.write_text("{\n" + ",\n".join(lines) + "\n}\n")


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_golden_is_the_matrix_the_recorder_describes():
    assert sorted(GOLDEN) == sorted(KEYS)


@pytest.mark.parametrize("key", KEYS)
def test_memory_matches_golden(key):
    assert compute(key) == GOLDEN[key]


if __name__ == "__main__":
    record()
