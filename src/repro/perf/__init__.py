"""Performance subsystem: workspace allocator and kernel benchmarks.

``Workspace`` (see :mod:`repro.perf.workspace`) backs the scratch
buffers of the nn layers' one execution path; :mod:`repro.perf.bench`
is the wall-clock kernel suite behind ``python -m repro.cli bench
kernels``.
"""

from repro.perf.workspace import Workspace

__all__ = ["Workspace"]
