"""MobileNet's initial weights reproduce their recorded digests.

``tests/data/model_weights_golden.json`` was recorded (by :func:`record`
below) while ``DepthwiseConv2d`` still drew its kernel inline with
``rng.normal(...).astype(dtype)`` instead of through ``repro.nn.init``.
Each case is ``build_model("mobilenet", seed=s).named_parameters()`` for
one seed; the digest is a sha256 over every parameter's name, dtype, shape
and bytes, in name order.  A moved digest means a MobileNet parameter
drew a different stream, std or cast.

Re-record (only when initial weights are *meant* to change) with
``PYTHONPATH=src python tests/test_model_weights_golden.py``.
"""

import hashlib
import json
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).resolve().parent / "data/model_weights_golden.json"
SEEDS = (0, 1)


def state_digest(state: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(state):
        value = state[name]
        h.update(f"{name}|{value.dtype.str}|{value.shape}|".encode())
        h.update(value.tobytes())
    return h.hexdigest()


def mobilenet_digest(seed: int) -> str:
    from repro.models import build_model

    model = build_model("mobilenet", seed=seed)
    return state_digest({name: p.data for name, p in model.named_parameters()})


def record() -> None:
    golden = {f"mobilenet-seed{s}": mobilenet_digest(s) for s in SEEDS}
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_golden_is_the_matrix_the_recorder_describes():
    assert sorted(GOLDEN) == [f"mobilenet-seed{s}" for s in SEEDS]


@pytest.mark.parametrize("seed", SEEDS)
def test_mobilenet_weights_match_golden(seed):
    assert mobilenet_digest(seed) == GOLDEN[f"mobilenet-seed{seed}"]


if __name__ == "__main__":
    record()
