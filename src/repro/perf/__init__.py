"""Performance subsystem: workspace allocator and kernel benchmarks.

``Workspace`` (see :mod:`repro.perf.workspace`) backs the fused and
workspace-aware paths of the nn layers; :mod:`repro.perf.bench`
is the wall-clock benchmark harness behind ``benchmarks/bench_kernels.py``
and the ``bench`` CLI subcommand.
"""

from repro.perf.workspace import Workspace

__all__ = ["Workspace"]
