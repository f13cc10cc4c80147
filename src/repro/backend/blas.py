"""The one place the program decides BLAS threading.

OpenBLAS starts one spinning worker thread per core in *every* process,
so N forked compute processes on a C-core host run N x C BLAS threads
on C cores and each GEMM slows several-fold.  Whoever forks compute
(:mod:`repro.backend.multiproc`, :mod:`repro.sweep.driver`) brackets
the fork with ``blas_threads(threads_per_process(n))``: the children
inherit the count across ``fork`` and the parent gets its own back on
exit.  Single-process paths never call in here.

Control is ctypes on the OpenBLAS numpy already has mapped, resolved on
first use (never at import).  With no such library -- MKL, Accelerate, a
static build -- everything is a no-op and ``blas_threads`` yields False.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import os

#: ``<prefix>openblas_{set,get}_num_threads<suffix>``: plain OpenBLAS,
#: its ILP64 build, and the scipy-openblas wheels numpy links against.
_SPELLINGS = [(p, s) for p in ("", "scipy_") for s in ("", "64_")]


def usable_cores() -> int:
    """Cores this process may run on: the affinity mask (``taskset``,
    cpuset cgroups) where the OS exposes it, else the machine count."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _mapped_openblas() -> list[str]:
    """Paths of the OpenBLAS shared objects numpy has loaded."""
    import numpy  # a library that was never loaded is not in the maps

    try:
        with open("/proc/self/maps") as maps:
            fields = (line.split(None, 5) for line in maps)
            paths = {f[5].strip() for f in fields if len(f) == 6}
        return sorted(p for p in paths if "openblas" in os.path.basename(p).lower())
    except OSError:  # no procfs: look where the wheels vendor it
        root = os.path.dirname(numpy.__file__)
        return sorted(
            glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
            + glob.glob(os.path.join(os.path.dirname(root), "numpy.libs", "*openblas*"))
        )


@functools.lru_cache(maxsize=1)
def _lookup():
    """``(set_num_threads, get_num_threads)`` of the loaded OpenBLAS, or
    ``None`` when this process's BLAS cannot be controlled."""
    for path in _mapped_openblas():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in _SPELLINGS:
            try:
                setter = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}")
                getter = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}")
            except AttributeError:
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


def threads_per_process(n_procs: int) -> int:
    """BLAS threads each of ``n_procs`` concurrent compute processes
    gets: an even share of the usable cores, never more than the count
    already in force (an inherited ``OPENBLAS_NUM_THREADS`` stays an
    upper bound), never less than one."""
    share = max(1, usable_cores() // max(1, n_procs))
    blas = _lookup()
    return max(1, min(share, blas[1]())) if blas else share


@contextlib.contextmanager
def blas_threads(n: int):
    """Run the body (and whatever it forks) with ``n`` BLAS threads, then
    restore the previous count.  Yields whether BLAS was controllable."""
    blas = _lookup()
    if blas is None:
        yield False
        return
    setter, getter = blas
    before = getter()
    setter(n)
    try:
        yield True
    finally:
        setter(before)
