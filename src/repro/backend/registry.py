"""The GEMM repro's kernels call, at a dotted path the e2e benchmark patches.

``benchmarks/e2e/span_table.py`` times and FLOP-counts every conv and
linear GEMM by wrapping ``repro.backend.registry.matmul``, so
``nn/conv.py``, ``nn/linear.py`` and ``training/signal_prop.py`` call it
here rather than ``np.matmul`` directly.  It is also where
:func:`repro.backend.blas.one_thread`, the one-thread rule, applies.
"""

from __future__ import annotations

import numpy as np


def matmul(
    a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """``a @ b`` on one BLAS thread, optionally into a preallocated ``out``."""
    from repro.backend.blas import one_thread  # a run with no GEMM never loads it

    with one_thread():
        return np.matmul(a, b, out=out)
