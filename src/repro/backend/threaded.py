"""Threaded tiled-GEMM backend for the im2col hot path.

The fused conv kernels spend nearly all their time in three big GEMMs
per layer (forward, dW, dX) whose left operand has one row per output
pixel -- tens of thousands of rows even at bench scale.  numpy's matmul
releases the GIL while BLAS runs, so those rows can be cut into
cache-blocked tiles and fanned over a ``ThreadPoolExecutor``: each
thread computes ``a[lo:hi] @ b`` straight into the matching ``out``
row-slice.  Row-partitioning keeps the reduction order per output
element identical to the monolithic call, so results match the numpy
backend bit for bit (property-tested), and disjoint output slices mean
no locks and no scratch on the hot path.

Tiles are sized so one left-operand tile plus its output slice fit in a
conservative per-core cache share, then shrunk (never below
``min_rows``) so every pool thread gets work.  Problems too small to
amortize a dispatch -- and every problem when the pool has one thread,
e.g. on a 1-core host -- short-circuit to plain ``np.matmul``.

Tiles never allocate; the batch-sliced scatter helper (``map_slices``,
used by the threaded col2im path) hands each worker thread a disjoint
batch range of the caller's target, so it needs no scratch either.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Callable

import numpy as np

from repro.backend.base import ArrayBackend
from repro.backend.blas import usable_cores
from repro.backend.registry import register_array_backend
from repro.errors import ConfigError

#: Per-tile cache budget: half of a typical 1 MiB L2, leaving room for
#: the shared right operand's streaming working set.
TILE_CACHE_BYTES = 512 * 1024

#: Smallest row-tile worth a thread dispatch; below 2x this the whole
#: GEMM runs monolithically.
MIN_TILE_ROWS = 256


@register_array_backend("threaded")
class ThreadedBackend(ArrayBackend):
    """Cache-blocked row-tiled GEMMs on a thread pool."""

    name = "threaded"

    def __init__(self, threads: int | None = None, min_rows: int = MIN_TILE_ROWS):
        if threads is not None and threads < 1:
            raise ConfigError(f"threads must be >= 1, got {threads}")
        self.threads = int(threads) if threads is not None else usable_cores()
        self.min_rows = int(min_rows)
        self._pool = (
            ThreadPoolExecutor(
                max_workers=self.threads, thread_name_prefix="repro-gemm"
            )
            if self.threads > 1
            else None
        )

    @property
    def parallel(self) -> bool:  # type: ignore[override]
        return self._pool is not None

    # -- GEMM --------------------------------------------------------------
    def matmul(
        self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        if (
            self._pool is None
            or a.ndim != 2
            or b.ndim != 2
            or a.shape[0] < 2 * self.min_rows
        ):
            if out is None:
                return np.matmul(a, b)
            return np.matmul(a, b, out=out)
        m, k = a.shape
        n = b.shape[1]
        if out is None:
            out = np.empty((m, n), dtype=np.result_type(a, b))
        tile = self._tile_rows(m, k, n, a.itemsize)
        futures = [
            self._pool.submit(np.matmul, a[lo : lo + tile], b, out[lo : lo + tile])
            for lo in range(0, m, tile)
        ]
        for f in futures:
            f.result()
        return out

    def _tile_rows(self, m: int, k: int, n: int, itemsize: int) -> int:
        """Rows per tile: cache-bounded, then split to feed every thread."""
        by_cache = TILE_CACHE_BYTES // max(1, itemsize * (k + n))
        by_threads = -(-m // self.threads)  # ceil: at most one tile short
        tile = min(max(self.min_rows, by_cache), by_threads)
        return max(1, tile)

    # -- batch-sliced fan-out ---------------------------------------------
    def map_slices(
        self, fn: Callable[[int, int], None], n: int, min_chunk: int = 1
    ) -> None:
        if n <= 0:
            return
        if self._pool is None or n < 2 * min_chunk:
            fn(0, n)
            return
        chunk = max(min_chunk, -(-n // self.threads))
        futures = [
            self._pool.submit(fn, lo, min(lo + chunk, n))
            for lo in range(0, n, chunk)
        ]
        for f in futures:
            f.result()

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def describe(self) -> dict:
        return {
            "name": self.name,
            "parallel": self.parallel,
            "threads": self.threads,
            "cores": usable_cores(),
        }
