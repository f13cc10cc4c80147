"""The GEMM the nn kernels call, at a dotted path the e2e benchmark patches.

``benchmarks/e2e/span_table.py`` times and FLOP-counts every conv and
linear GEMM by wrapping ``repro.backend.registry.matmul``, so
``nn/conv.py`` and ``nn/linear.py`` call it here rather than
``np.matmul`` directly.
"""

from __future__ import annotations

import numpy as np


def matmul(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``a @ b``, optionally into a preallocated ``out``."""
    return np.matmul(a, b, out=out)
