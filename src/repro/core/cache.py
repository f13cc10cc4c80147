"""Activation cache (architecture step 3.3).

When a block finishes training, the activations of its final layer are
written to the storage device and become the next block's inputs -- this is
what lets NeuroFlux skip forward passes over already-trained blocks
(Figure 9).  The store is a directory of ``.npz`` files, one per cached
batch, ordered by sequence number; byte counters feed the Section 6.4
storage-overhead accounting and the storage-time simulation.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import ConfigError


class ActivationStore:
    """Disk-backed, ordered store of (activation, label) batches per block."""

    def __init__(self, root: str | Path | None = None):
        if root is None:
            self._tmp = tempfile.mkdtemp(prefix="neuroflux-cache-")
            self.root = Path(self._tmp)
        else:
            self._tmp = None
            self.root = Path(root)
            self.root.mkdir(parents=True, exist_ok=True)
        self._bytes_written = 0
        self._counts: dict[int, int] = {}

    def _block_dir(self, block_index: int) -> Path:
        return self.root / f"block{block_index:04d}"

    def write(self, block_index: int, x: np.ndarray, y: np.ndarray) -> int:
        """Append one batch to a block's stream; returns bytes written."""
        if len(x) != len(y):
            raise ConfigError(f"x/y length mismatch: {len(x)} vs {len(y)}")
        block_dir = self._block_dir(block_index)
        block_dir.mkdir(parents=True, exist_ok=True)
        seq = self._counts.get(block_index, 0)
        path = block_dir / f"batch{seq:06d}.npz"
        np.savez(path, x=x, y=y)
        self._counts[block_index] = seq + 1
        nbytes = path.stat().st_size
        self._bytes_written += nbytes
        return nbytes

    def batches(self, block_index: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Iterate a block's cached batches in write order."""
        block_dir = self._block_dir(block_index)
        if not block_dir.exists():
            return
        for path in sorted(block_dir.glob("batch*.npz")):
            with np.load(path) as data:
                yield data["x"], data["y"]

    def clear_block(self, block_index: int) -> None:
        """Drop a block's cached activations (no longer needed once the
        next block has consumed them)."""
        block_dir = self._block_dir(block_index)
        if block_dir.exists():
            shutil.rmtree(block_dir)
        self._counts.pop(block_index, None)

    @property
    def bytes_written(self) -> int:
        return self._bytes_written

    def close(self) -> None:
        """Remove all cache files (and the temp dir if we created one)."""
        if self.root.exists():
            shutil.rmtree(self.root, ignore_errors=True)
        self._counts.clear()

    def __enter__(self) -> "ActivationStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
