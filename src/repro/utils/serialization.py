"""Model checkpointing: a module's ``state_dict`` -- parameters and
BatchNorm running statistics, keyed by path -- in an ``.npz`` file."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.nn.module import Module


def save_checkpoint(module: Module, path: str | Path) -> int:
    """Write ``module.state_dict()`` to an ``.npz`` file.

    Returns the number of bytes written.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez(path, **module.state_dict())
    return path.stat().st_size


def load_checkpoint(module: Module, path: str | Path) -> None:
    """Load a file written by :func:`save_checkpoint` (strict, as
    :meth:`~repro.nn.module.Module.load_state_dict` is)."""
    with np.load(Path(path)) as data:
        module.load_state_dict({key: data[key] for key in data.files})
