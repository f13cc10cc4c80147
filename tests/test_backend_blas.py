"""repro.backend.blas: the one-BLAS-thread rule's controls (the rule
itself, at the GEMM call site, is held by ``test_backend_matmul.py``)."""

from __future__ import annotations

import multiprocessing as mp
import os
import subprocess
import sys

import numpy as np
import pytest

from helpers import FakeBlas
from repro.backend import blas, registry
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


class TestThreadsInForce:
    def test_reads_the_library_count(self, monkeypatch):
        FakeBlas(3).install(monkeypatch)
        assert blas.threads_in_force() == 3

    def test_uncontrollable_is_none(self, monkeypatch):
        monkeypatch.setattr(blas, "_lookup", lambda: None)
        assert blas.threads_in_force() is None


class TestBlasThreads:
    def test_sets_then_restores(self, monkeypatch):
        fake = FakeBlas(6).install(monkeypatch)
        with blas.one_thread() as controllable:
            assert controllable is True
            assert fake.count == 1
        assert fake.sets == [1, 6]

    def test_restores_on_exception(self, monkeypatch):
        fake = FakeBlas(6).install(monkeypatch)
        with pytest.raises(RuntimeError, match="boom"):
            with blas.one_thread():
                raise RuntimeError("boom")
        assert fake.sets == [1, 6]

    def test_count_already_in_force_sets_nothing(self, monkeypatch):
        """What keeps a child forked on one thread from ever changing its
        count, which would make OpenBLAS rebuild the pool it dropped."""
        fake = FakeBlas(1).install(monkeypatch)
        with blas.one_thread() as controllable:
            assert controllable is True
        assert fake.sets == []

    def test_uncontrollable_is_a_silent_noop(self, monkeypatch):
        monkeypatch.setattr(blas, "_lookup", lambda: None)
        with blas.one_thread() as controllable:
            assert controllable is False

    def test_lookup_miss_reports_uncontrollable(self, monkeypatch):
        """No mapped OpenBLAS (MKL, static build): lookup yields None."""
        monkeypatch.setattr(blas, "_mapped_openblas", lambda: [])
        assert blas._lookup.__wrapped__() is None

    @real_blas
    def test_real_library_round_trip(self):
        _, getter = blas._lookup()
        before = getter()
        with blas.one_thread() as controllable:
            assert controllable is True
            assert getter() == 1
        assert getter() == before

    @real_blas
    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_forked_child_inherits_budget_parent_restored(self):
        """A child forked under the rule starts on the real library's one
        thread, and its GEMMs never set a count (a set would rebuild the
        pool OpenBLAS dropped at the fork); the parent gets its count back."""
        setter, getter = blas._lookup()
        before = getter()
        ctx = mp.get_context("fork")
        seen = ctx.Queue()

        def probe():
            sets = []
            blas._lookup = lambda: (lambda n: (sets.append(n), setter(n)), getter)
            inherited = getter()
            a = np.ones((64, 64), np.float32)
            registry.matmul(a, a)
            seen.put((inherited, sets, getter()))

        with blas.one_thread():
            child = ctx.Process(target=probe)
            child.start()
            assert seen.get(timeout=30) == (1, [], 1)
            child.join(timeout=30)
        assert child.exitcode == 0
        assert getter() == before


def test_import_repro_resolves_no_library():
    """BLAS is looked up on first use, never while importing ``repro``."""
    code = (
        "import repro; from repro.backend import blas; "
        "assert blas._lookup.cache_info().currsize == 0"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=120)
