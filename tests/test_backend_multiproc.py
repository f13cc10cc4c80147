"""Multiprocess block-parallel executor: planning, determinism, handoff."""

from __future__ import annotations

import importlib.util
import itertools
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import FakeBlas
from repro.backend import multiproc
from repro.backend.multiproc import fork_available, plan_stages, run_block_parallel
from repro.errors import ConfigError
from repro.models.zoo import build_model

REPO = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "host_price_fit", REPO / "benchmarks/host_price_fit.py"
)
host_fit = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(host_fit)
FIT_ROWS = json.loads((REPO / "tests/data/host_price_fit.json").read_text())["rows"]

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable on this platform"
)


def _system(tiny_dataset, seed: int = 0):
    """The 6-block configuration: 1 MiB budget, 256 batch limit."""
    from repro.core.config import NeuroFluxConfig
    from repro.core.controller import NeuroFlux

    return NeuroFlux(
        build_model(
            "vgg11",
            num_classes=4,
            input_hw=(16, 16),
            width_multiplier=0.125,
            seed=3,
        ),
        tiny_dataset,
        memory_budget=1 << 20,
        config=NeuroFluxConfig(seed=seed),
    )


def _weights(system) -> list[np.ndarray]:
    out = [p.data.copy() for p in system.model.parameters()]
    for aux in system.aux_heads:
        out.extend(p.data.copy() for p in aux.parameters())
    return out


class TestPlanStages:
    def _planned(self, tiny_dataset, n_stages):
        system = _system(tiny_dataset)
        blocks, _ = system.plan()
        return blocks, plan_stages(
            blocks, system.specs, list(system.aux_heads), n_stages, 11
        )

    def test_contiguous_cover(self, tiny_dataset):
        blocks, stages = self._planned(tiny_dataset, 3)
        assert len(stages) == 3
        flat = [b.index for stage in stages for b in stage]
        assert flat == [b.index for b in blocks]

    def test_one_stage_takes_all(self, tiny_dataset):
        blocks, stages = self._planned(tiny_dataset, 1)
        assert len(stages) == 1
        assert len(stages[0]) == len(blocks)

    def test_more_stages_than_blocks_clamps(self, tiny_dataset):
        blocks, stages = self._planned(tiny_dataset, 99)
        assert len(stages) == len(blocks)
        assert all(len(stage) == 1 for stage in stages)

    def test_invalid_stage_count(self, tiny_dataset):
        system = _system(tiny_dataset)
        blocks, _ = system.plan()
        with pytest.raises(ConfigError, match="process count"):
            plan_stages(blocks, system.specs, list(system.aux_heads), 0, 11)

    @settings(max_examples=200, deadline=None)
    @given(
        loads=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=9),
        n_stages=st.integers(1, 10),
    )
    def test_slowest_stage_is_the_brute_force_minimum(self, loads, n_stages):
        """Over every contiguous cut, none has a lighter heaviest stage."""
        from repro.backend import multiproc

        blocks = [SimpleNamespace(index=i, layer_indices=[i]) for i in range(len(loads))]
        with pytest.MonkeyPatch.context() as patch:
            # Layer i's spec *is* its host price.
            patch.setattr(multiproc, "unit_host_step_seconds", lambda spec, aux, mb: spec)
            stages = plan_stages(blocks, loads, [None] * len(loads), n_stages, 1)
        assert [b for stage in stages for b in stage] == blocks
        assert len(stages) == min(n_stages, len(loads))
        assert _slowest([[b.index for b in stage] for stage in stages], loads) == min(
            _slowest(cut, loads) for cut in _contiguous_cuts(len(loads), len(stages))
        )


def _contiguous_cuts(n: int, parts: int):
    """Every split of ``range(n)`` into ``parts`` non-empty contiguous runs."""
    for inner in itertools.combinations(range(1, n), parts - 1):
        bounds = (0, *inner, n)
        yield [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]


def _slowest(cut, loads) -> float:
    return max(sum(loads[i] for i in stage) for stage in cut)


class TestHostPrice:
    """The host step price is fitted to measured blocks
    (``benchmarks/host_price_fit.py``, table in ``tests/data``), and it
    cuts every measured model where the measurements say to."""

    @pytest.fixture(scope="class")
    def systems(self):
        from repro.api.backends import build_system_from_spec

        return {
            model: build_system_from_spec(host_fit.job_spec(model))
            for model in host_fit.MODELS
        }

    def test_constants_are_the_tables_least_squares_fit(self):
        from repro.core import worker

        per_byte, dispatch_s = host_fit.fit(FIT_ROWS)
        assert worker.HOST_S_PER_BYTE == float(f"{per_byte:.3g}")
        assert worker.HOST_DISPATCH_S == float(f"{dispatch_s:.3g}")
        # The two terms explain the host better than FLOPs alone.
        fitted = host_fit.mean_abs_error(FIT_ROWS, per_byte, dispatch_s)
        assert fitted < 0.5 * host_fit.flops_only_error(FIT_ROWS)

    def test_table_rows_are_todays_blocks(self, systems):
        """Bytes and kernels come from the memory model and the kernel
        counter as they stand: a move in either makes the table stale."""
        for model, system in systems.items():
            blocks, _ = system.plan()
            rows = [r for r in FIT_ROWS if r["model"] == model]
            assert [r["block"] for r in rows] == [b.index for b in blocks]
            for row, block in zip(rows, blocks):
                terms = host_fit.block_terms(system, block)
                assert {k: row[k] for k in terms} == terms, (model, block.index)

    def test_unit_price_is_bytes_and_dispatches(self, systems):
        from repro.core.worker import (
            HOST_DISPATCH_S,
            HOST_S_PER_BYTE,
            unit_host_step_seconds,
            unit_kernel_count,
        )

        system = systems["vgg11"]
        spec, aux = system.specs[0], system.aux_heads[0]
        one, many = unit_host_step_seconds(spec, aux, 1), unit_host_step_seconds(spec, aux, 20)
        dispatch = unit_kernel_count(spec, aux) * HOST_DISPATCH_S
        assert many - dispatch == pytest.approx(20 * (one - dispatch))
        assert (one - dispatch) / HOST_S_PER_BYTE > 0

    @pytest.mark.parametrize("model", host_fit.MODELS)
    def test_planner_takes_the_measured_best_cut(self, systems, model):
        system = systems[model]
        blocks, _ = system.plan()
        mb = min(b.batch_size for b in blocks)
        measured = [r["host_s"] for r in FIT_ROWS if r["model"] == model]
        for n_stages in range(2, min(4, len(blocks)) + 1):
            stages = plan_stages(blocks, system.specs, list(system.aux_heads), n_stages, mb)
            cut = [[b.index for b in stage] for stage in stages]
            best = min(
                _slowest(c, measured) for c in _contiguous_cuts(len(blocks), n_stages)
            )
            assert _slowest(cut, measured) == best, (model, n_stages, cut)

    def test_train_mp_2proc_splits_after_the_first_block(self, systems):
        """The benchmark's vgg11: block 0 alone outweighs blocks 1-3 on
        the host, though it has the fewest FLOPs but one."""
        system = systems["vgg11"]
        blocks, _ = system.plan()
        stages = plan_stages(blocks, system.specs, list(system.aux_heads), 2, 20)
        assert [[b.index for b in stage] for stage in stages] == [[0], [1, 2, 3]]


@needs_fork
@needs_fork
def test_activation_ring_recycles_its_slots_in_order():
    """A ring holds DEFAULT_SLOTS micro-batches: every slot fills, then
    drains in arrival order, and a drained slot takes the next batch."""
    import multiprocessing as mp

    ring = multiproc._ActivationRing(mp.get_context("fork"), (4, 2, 3, 3), np.int64, 4)
    # A dead peer turns a wait that would block for good into a ConfigError.
    dead = [SimpleNamespace(exitcode=1, name="peer")]
    rng = np.random.default_rng(0)
    batches = [
        (rng.normal(size=(1 + i % 4, 2, 3, 3)).astype(np.float32), np.arange(1 + i % 4) + 10 * i)
        for i in range(multiproc.DEFAULT_SLOTS + 2)
    ]
    for x, y in batches[: multiproc.DEFAULT_SLOTS]:
        ring.put(x, y, dead)
    with pytest.raises(ConfigError, match="died"):
        ring.put(*batches[-1], dead)
    got = [ring.get(dead) for _ in range(2)]
    for x, y in batches[multiproc.DEFAULT_SLOTS :]:
        ring.put(x, y, dead)
    ring.put_done()
    while (item := ring.get(dead)) is not None:
        got.append(item)
    assert len(got) == len(batches)
    for (x, y), (gx, gy) in zip(batches, got):
        np.testing.assert_array_equal(gx, x)
        np.testing.assert_array_equal(gy, y)


class TestRunBlockParallel:
    def test_single_process_trains(self, tiny_dataset):
        system = _system(tiny_dataset)
        report = run_block_parallel(system, epochs=1, processes=1)
        extras = report.result.extras
        assert report.result.method == "neuroflux-mp"
        assert extras["processes"] == 1
        assert extras["stages"] == [[b.index for b in report.blocks]]
        assert extras["wall_clock_s"] > 0
        assert 0.0 <= report.exit_test_accuracy <= 1.0

    def test_run_to_run_bit_identical(self, tiny_dataset):
        a = _system(tiny_dataset)
        run_block_parallel(a, epochs=1, processes=2)
        b = _system(tiny_dataset)
        run_block_parallel(b, epochs=1, processes=2)
        for wa, wb in zip(_weights(a), _weights(b)):
            assert np.array_equal(wa, wb)

    def test_stage_grouping_invariant(self, tiny_dataset):
        """1-process and 2-process runs see the same micro-batch stream
        and per-block processing order, so weights must match exactly."""
        a = _system(tiny_dataset)
        run_block_parallel(a, epochs=1, processes=1)
        b = _system(tiny_dataset)
        report_b = run_block_parallel(b, epochs=1, processes=2)
        assert len(report_b.result.extras["stages"]) == 2
        for wa, wb in zip(_weights(a), _weights(b)):
            assert np.array_equal(wa, wb)

    def test_forked_stages_ship_batchnorm_statistics(self, tiny_dataset):
        """A layer trained in a child is evaluated in the parent with the
        running statistics it trained, not a fresh BatchNorm's 0 / 1:
        every process count scores every layer the same."""
        from repro.nn.normalization import BatchNorm2d

        def outcome(processes):
            system = _system(tiny_dataset)
            report = run_block_parallel(system, epochs=1, processes=processes)
            assert len(report.result.extras["stages"]) == processes
            stats = [
                (m.running_mean.copy(), m.running_var.copy())
                for unit in [*(s.module for s in system.specs), *system.aux_heads]
                for m in unit.modules()
                if isinstance(m, BatchNorm2d)
            ]
            return report, stats

        one, one_stats = outcome(1)
        assert one_stats
        for processes in (2, 3):
            many, many_stats = outcome(processes)
            assert many.layer_val_accuracies == one.layer_val_accuracies
            assert many.exit_layer == one.exit_layer
            assert len(many_stats) == len(one_stats)
            for (mean_a, var_a), (mean_b, var_b) in zip(one_stats, many_stats):
                assert np.array_equal(mean_a, mean_b)
                assert np.array_equal(var_a, var_b)

    def test_a_stage_holds_one_arena(self, tiny_dataset, monkeypatch):
        """Every block of a stage trains on one layer pool and one head
        pool; a layer never shares a workspace with its own head."""
        from repro.core.controller import NeuroFlux

        real = NeuroFlux._build_worker
        built = []

        def build_worker(system, block, sim, pools=None):
            worker = real(system, block, sim, pools)
            units = [
                ({id(m.workspace) for m in spec.module.modules()},
                 {id(m.workspace) for m in aux.modules()})
                for spec, aux in zip(worker.layer_specs, worker.aux_heads)
            ]
            built.append((pools, units))
            return worker

        monkeypatch.setattr(NeuroFlux, "_build_worker", build_worker)
        report = run_block_parallel(_system(tiny_dataset), epochs=1, processes=1)
        assert len(built) == len(report.blocks) > 1
        layer_pool, head_pool = built[0][0]
        assert all(pools[0] is layer_pool and pools[1] is head_pool for pools, _ in built)
        units = [unit for _, block_units in built for unit in block_units]
        assert set().union(*(layer for layer, _ in units)) == {id(w) for w in layer_pool.values()}
        assert set().union(*(head for _, head in units)) == {id(w) for w in head_pool.values()}
        assert not any(layer & head for layer, head in units)

    def test_invalid_epochs(self, tiny_dataset):
        with pytest.raises(ConfigError, match="epochs"):
            run_block_parallel(_system(tiny_dataset), epochs=0)

    def test_report_shape(self, tiny_dataset):
        system = _system(tiny_dataset)
        report = run_block_parallel(system, epochs=1, processes=2)
        extras = report.result.extras
        assert extras["schedule"] == "mp-pipelined"
        assert extras["cores"] >= 1
        assert sum(len(s) for s in extras["stages"]) == len(report.blocks)
        assert len(report.block_reports) == len(report.blocks)
        assert report.result.peak_memory_bytes > 0
        assert report.profiling_time_s > 0
        # The report must serialize.
        payload = report.to_json_dict()
        assert payload["kind"] == "neuroflux"

    def test_profiling_is_booked_like_the_other_schedules(self, tiny_dataset):
        """The same system books the same profiling seconds on every
        schedule (the multiprocess path used to drop the per-layer
        kernel-launch term), and it sits beside the makespan."""
        system = _system(tiny_dataset)
        report = run_block_parallel(system, epochs=1, processes=2)
        # (On a roomy device: this 1 MiB configuration's last block is a
        # few hundred bytes over its own budget at run()'s residency.)
        from repro.parallel import Cluster

        sequential = _system(tiny_dataset).train_parallel(
            Cluster.from_names(["agx-orin"]), epochs=1, schedule="sequential"
        )
        _, profiling_flops = system.plan()
        platform = system.platform
        assert report.profiling_time_s == sequential.profiling_time_s
        assert report.profiling_time_s == (
            profiling_flops / platform.effective_flops
            + len(system.specs) * platform.kernel_launch_overhead
        )
        ledger = report.result.ledger
        assert ledger.profiling == report.profiling_time_s
        assert ledger.compute == report.result.sim_time_s
        assert ledger.total == ledger.compute + ledger.profiling

    def test_train_multiprocess_entry_point(self, tiny_dataset):
        system = _system(tiny_dataset)
        report = system.train_multiprocess(1, processes=2)
        assert report.result.extras["processes"] == 2

    @pytest.mark.parametrize("cores, expected", [(2, 2), (64, 6)])
    def test_processes_default_to_one_per_core(
        self, tiny_dataset, monkeypatch, cores, expected
    ):
        """With no ``processes`` the fan-out is one process per usable
        core, capped at the block count (six here)."""
        from repro.backend import multiproc

        monkeypatch.setattr(multiproc, "usable_cores", lambda: cores)
        system = _system(tiny_dataset)
        assert len(system.plan()[0]) == 6
        report = system.train_multiprocess(1)
        assert report.result.extras["processes"] == expected
        assert len(report.result.extras["stages"]) == expected

    def test_spec_compute_section_sets_the_process_count(self):
        """A JobSpec's ``compute.processes`` reaches the fork through the
        ``multiprocess`` backend."""
        from repro.api import JobSpec, run

        spec = JobSpec.from_json_file(str(REPO / "examples/specs/compute.json"))
        spec.compute.processes = 3
        report = run(spec)
        assert report.result.extras["processes"] == 3


@needs_fork
class TestBlasThreadBudget:
    def test_single_process_runs_the_rule(self, tiny_dataset, monkeypatch):
        fake = FakeBlas(2).install(monkeypatch)
        report = run_block_parallel(_system(tiny_dataset), epochs=1, processes=1)
        # One thread around the stages and around every GEMM outside
        # them, the caller's two handed back each time.
        assert fake.sets and fake.sets == [1, 2] * (len(fake.sets) // 2)
        assert fake.count == 2
        extras = report.result.extras
        assert extras["blas_threads"] == 1
        assert extras["blas_controllable"] is True

    def test_rule_and_stage_clocks_in_extras(self, tiny_dataset):
        from repro.backend import blas

        report = run_block_parallel(_system(tiny_dataset), epochs=1, processes=2)
        extras = report.result.extras
        assert extras["cores"] == blas.usable_cores()
        assert extras["blas_controllable"] is (blas._lookup() is not None)
        assert extras["blas_threads"] == (1 if extras["blas_controllable"] else None)
        assert len(extras["stage_busy_s"]) == len(extras["stage_wait_s"]) == 2
        assert all(s > 0 for s in extras["stage_busy_s"])
        assert all(s >= 0 for s in extras["stage_wait_s"])
        # A stage cannot be busy or waiting for longer than the run took.
        for busy, wait in zip(extras["stage_busy_s"], extras["stage_wait_s"]):
            assert busy + wait <= extras["wall_clock_s"]
        assert report.to_json_dict()["extras"]["blas_threads"] == extras["blas_threads"]

    def test_uncontrollable_blas_still_trains(self, tiny_dataset, monkeypatch):
        from repro.backend import blas

        monkeypatch.setattr(blas, "_lookup", lambda: None)
        report = run_block_parallel(_system(tiny_dataset), epochs=1, processes=2)
        assert report.result.extras["blas_controllable"] is False
        assert report.result.extras["blas_threads"] is None
        assert report.result.extras["processes"] == 2

    def test_three_stages_match_single_process_under_budget(self, tiny_dataset):
        a = _system(tiny_dataset)
        run_block_parallel(a, epochs=1, processes=1)
        b = _system(tiny_dataset)
        report_b = run_block_parallel(b, epochs=1, processes=3)
        assert len(report_b.result.extras["stages"]) == 3
        for wa, wb in zip(_weights(a), _weights(b)):
            assert np.array_equal(wa, wb)

    def test_sigkilled_stage_worker_fails_cleanly(self, tiny_dataset, monkeypatch):
        """ROADMAP 4c, the mp half: a stage worker that dies mid-stream
        (SIGKILL, no traceback, no result) becomes a named error in
        bounded time, leaves no child behind, and the parent's BLAS
        thread count is back where it was."""
        import multiprocessing
        import os
        import signal
        import time

        from repro.backend import blas, multiproc

        parent = os.getpid()
        real_get = multiproc._ActivationRing.get
        gets = []

        def get_then_die(self, liveness=None):
            gets.append(1)
            if os.getpid() != parent and len(gets) == 3:
                time.sleep(0.05)  # let the free-slot token reach the pipe
                os.kill(os.getpid(), signal.SIGKILL)
            return real_get(self, liveness)

        monkeypatch.setattr(multiproc._ActivationRing, "get", get_then_die)
        lookup = blas._lookup()
        before = lookup[1]() if lookup else None
        t0 = time.perf_counter()
        with pytest.raises(ConfigError, match=r"repro-stage1 died with exit code -9"):
            run_block_parallel(_system(tiny_dataset), epochs=2, processes=2)
        assert time.perf_counter() - t0 < 30.0
        assert multiprocessing.active_children() == []
        if lookup:
            assert lookup[1]() == before


    def test_stage_that_cannot_ship_fails_cleanly(self, tiny_dataset, monkeypatch):
        """A stage that raises after training sends ``None`` down its
        result pipe: the parent names the stage, and no child is left."""
        import multiprocessing

        from repro.nn.module import Module

        def cannot_ship(module):
            raise RuntimeError("stage blew up")

        monkeypatch.setattr(Module, "state_dict", cannot_ship)
        with pytest.raises(ConfigError, match=r"multiprocess stage 1 failed"):
            run_block_parallel(_system(tiny_dataset), epochs=1, processes=2)
        assert multiprocessing.active_children() == []


class TestGateMp:
    """``bench --gate-mp``: slower-than-one-process fails on any host
    with two usable cores; the 1.5x claim needs four."""

    @pytest.mark.parametrize(
        "cores, speedup, claim_met, code",
        [
            (1, 0.90, None, 0),  # nothing to overlap on: recorded, not gated
            (2, 0.34, None, 1),  # the oversubscribed-BLAS regression
            (2, 1.20, None, 0),
            (4, 1.20, False, 1),
            (4, 1.60, True, 0),
        ],
    )
    def test_exit_code(self, monkeypatch, capsys, cores, speedup, claim_met, code):
        from repro.cli import main
        from repro.perf import bench

        row = {"cores": cores, "processes": min(cores, 2), "speedup": speedup,
               "claim_met": claim_met, "seed_ms": 100.0, "fast_ms": 100.0 / speedup}
        report = {
            "config": {"model": "vgg11", "batch": 8, "reps": 2, "quick": True},
            "backend": {"mp_block_parallel": row},
        }
        monkeypatch.setattr(bench, "run_suite", lambda **kwargs: report)
        argv = ["bench", "kernels", "--quick", "--suite", "backend", "--gate-mp"]
        assert main(argv) == code
        capsys.readouterr()
