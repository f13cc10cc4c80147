"""repro.backend.blas: the BLAS-thread budget shared by forked compute."""

from __future__ import annotations

import multiprocessing as mp
import os
import subprocess
import sys

import pytest

from helpers import FakeBlas
from repro.backend import blas
from repro.backend.multiproc import fork_available


real_blas = pytest.mark.skipif(
    blas._lookup() is None, reason="this numpy's BLAS is not a controllable OpenBLAS"
)


class TestUsableCores:
    def test_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert blas.usable_cores() == 3

    def test_falls_back_to_machine_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert blas.usable_cores() == 1


class TestThreadsPerProcess:
    @pytest.mark.parametrize(
        "cores, in_force, n_procs, expected",
        [
            (8, 8, 1, 8),
            (8, 8, 2, 4),
            (8, 8, 3, 2),
            (2, 2, 2, 1),
            (2, 2, 3, 1),  # more processes than cores: floor of one
            (8, 2, 2, 2),  # inherited OPENBLAS_NUM_THREADS=2 stays a cap
            (8, 1, 2, 1),
            (8, None, 2, 4),  # uncontrollable: the plain share
        ],
    )
    def test_table(self, monkeypatch, cores, in_force, n_procs, expected):
        monkeypatch.setattr(blas, "usable_cores", lambda: cores)
        if in_force is None:
            monkeypatch.setattr(blas, "_lookup", lambda: None)
        else:
            FakeBlas(in_force).install(monkeypatch)
        assert blas.threads_per_process(n_procs) == expected


class TestBlasThreads:
    def test_sets_then_restores(self, monkeypatch):
        fake = FakeBlas(6).install(monkeypatch)
        with blas.blas_threads(2) as controllable:
            assert controllable is True
            assert fake.count == 2
        assert fake.sets == [2, 6]

    def test_restores_on_exception(self, monkeypatch):
        fake = FakeBlas(6).install(monkeypatch)
        with pytest.raises(RuntimeError, match="boom"):
            with blas.blas_threads(2):
                raise RuntimeError("boom")
        assert fake.sets == [2, 6]

    def test_uncontrollable_is_a_silent_noop(self, monkeypatch):
        monkeypatch.setattr(blas, "_lookup", lambda: None)
        with blas.blas_threads(1) as controllable:
            assert controllable is False

    def test_lookup_miss_reports_uncontrollable(self, monkeypatch):
        """No mapped OpenBLAS (MKL, static build): lookup yields None."""
        monkeypatch.setattr(blas, "_mapped_openblas", lambda: [])
        assert blas._lookup.__wrapped__() is None

    @real_blas
    def test_real_library_round_trip(self):
        _, getter = blas._lookup()
        before = getter()
        with blas.blas_threads(1) as controllable:
            assert controllable is True
            assert getter() == 1
        assert getter() == before

    @real_blas
    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_forked_child_inherits_budget_parent_restored(self):
        _, getter = blas._lookup()
        before = getter()
        ctx = mp.get_context("fork")
        seen = ctx.Queue()
        with blas.blas_threads(1):
            probe = ctx.Process(target=lambda: seen.put(getter()))
            probe.start()
            assert seen.get(timeout=30) == 1
            probe.join(timeout=30)
        assert probe.exitcode == 0
        assert getter() == before


def test_import_repro_resolves_no_library():
    """BLAS is looked up on first use, never while importing ``repro``."""
    code = (
        "import repro; from repro.backend import blas; "
        "assert blas._lookup.cache_info().currsize == 0"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
