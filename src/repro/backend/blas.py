"""The one rule for BLAS threading, :func:`one_thread`: repro's numpy
compute runs on one BLAS thread in every process, and cores are used by
processes.  OpenBLAS's pool of one thread per core holds memory no budget
accounts for and makes trained weights depend on the core count; the rule
gives up one core's GEMM throughput per process, on every host.
:func:`repro.backend.registry.matmul` runs each product under it, and
whoever forks compute (:mod:`repro.backend.multiproc`,
:mod:`repro.sweep.driver`) forks under it.

Control is ctypes on the OpenBLAS numpy already has mapped, resolved on
first use (never at import).  With no such library -- MKL, Accelerate, a
static build -- everything is a no-op and ``one_thread`` yields False.
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


def threads_in_force() -> int | None:
    """The count a plain ``np.matmul`` runs with; None if uncontrollable."""
    blas = _lookup()
    return blas[1]() if blas else None


@contextlib.contextmanager
def one_thread():
    """The rule: run the body on one BLAS thread and hand the caller's
    count back; yields whether BLAS was controllable.  A count already in
    force is not set again, so a child forked under it never rebuilds the
    pool OpenBLAS drops at a fork (it does so at the next count change)."""
    blas = _lookup()
    if blas is None:
        yield False
        return
    setter, getter = blas
    before = getter()
    if before == 1:
        yield True
        return
    setter(1)
    try:
        yield True
    finally:
        setter(before)
