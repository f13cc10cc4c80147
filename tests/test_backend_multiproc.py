"""Multiprocess block-parallel executor: planning, determinism, handoff."""

from __future__ import annotations

import numpy as np
import pytest

from helpers import FakeBlas
from repro.backend.multiproc import fork_available, plan_stages, run_block_parallel
from repro.errors import ConfigError
from repro.models.zoo import build_model

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="fork start method unavailable on this platform"
)


def _system(tiny_dataset, seed: int = 0, bf16: bool = False):
    """The 6-block configuration: 1 MiB budget, 256 batch limit."""
    from repro.backend import ComputeConfig
    from repro.core.config import NeuroFluxConfig
    from repro.core.controller import NeuroFlux

    return NeuroFlux(
        build_model(
            "vgg11",
            num_classes=4,
            input_hw=(16, 16),
            width_multiplier=0.125,
            seed=3,
            fused=True,
        ),
        tiny_dataset,
        memory_budget=1 << 20,
        config=NeuroFluxConfig(seed=seed),
        compute=ComputeConfig(bf16_weights=bf16),
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
            blocks, system.specs, list(system.aux_heads), n_stages, 2.0
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
            plan_stages(blocks, system.specs, list(system.aux_heads), 0, 2.0)

    def test_balanced_by_flops(self, tiny_dataset):
        """No stage may carry more than the single-heaviest-block excess."""
        from repro.core.worker import unit_train_flops

        system = _system(tiny_dataset)
        blocks, _ = system.plan()
        stages = plan_stages(blocks, system.specs, list(system.aux_heads), 3, 2.0)
        loads = [
            sum(
                unit_train_flops(system.specs[i], system.aux_heads[i], 2.0)
                for b in stage
                for i in b.layer_indices
            )
            for stage in stages
        ]
        heaviest_block = max(
            sum(
                unit_train_flops(system.specs[i], system.aux_heads[i], 2.0)
                for i in b.layer_indices
            )
            for b in blocks
        )
        assert max(loads) <= sum(loads) / 3 + heaviest_block


class TestBlockWorkerState:
    def test_state_dict_round_trip(self, tiny_dataset):
        from repro.hw.simulator import ExecutionSimulator

        system = _system(tiny_dataset)
        blocks, _ = system.plan()
        sim = ExecutionSimulator(system.platform)
        worker = system._build_worker(blocks[0], sim)
        rng = np.random.default_rng(0)
        x = rng.standard_normal(
            (4, system.specs[0].in_channels, *system.specs[0].in_hw)
        ).astype(np.float32)
        y = rng.integers(0, 4, 4)
        worker.train_batch(x, y)
        state = worker.state_dict()

        fresh = system._build_worker(blocks[0], ExecutionSimulator(system.platform))
        fresh.load_state_dict(state)
        for i, (spec, aux) in enumerate(zip(fresh.layer_specs, fresh.aux_heads)):
            for key, value in spec.module.state_dict().items():
                assert np.array_equal(value, state[f"layer{i}"][key])
            for key, value in aux.state_dict().items():
                assert np.array_equal(value, state[f"aux{i}"][key])

    def test_load_missing_key_raises(self, tiny_dataset):
        from repro.hw.simulator import ExecutionSimulator

        system = _system(tiny_dataset)
        blocks, _ = system.plan()
        worker = system._build_worker(blocks[0], ExecutionSimulator(system.platform))
        with pytest.raises(KeyError):
            worker.load_state_dict({})


@needs_fork
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

    def test_bf16_weights_ship_truncated(self, tiny_dataset):
        from repro.backend.bf16 import bf16_roundtrip, is_bf16

        system = _system(tiny_dataset, bf16=True)
        run_block_parallel(system, epochs=1, processes=2)
        for p in system.model.parameters():
            assert is_bf16(p)
            assert np.array_equal(p.data, bf16_roundtrip(p.data))

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

    def test_compute_config_supplies_process_default(self, tiny_dataset):
        from repro.backend import ComputeConfig
        from repro.core.config import NeuroFluxConfig
        from repro.core.controller import NeuroFlux

        system = NeuroFlux(
            build_model(
                "vgg11",
                num_classes=4,
                input_hw=(16, 16),
                width_multiplier=0.125,
                seed=3,
                fused=True,
            ),
            tiny_dataset,
            memory_budget=1 << 20,
            config=NeuroFluxConfig(seed=0),
            compute=ComputeConfig(processes=2),
        )
        report = system.train_multiprocess(1)
        assert report.result.extras["processes"] == 2


@needs_fork
class TestBlasThreadBudget:
    def test_single_process_never_touches_blas_control(self, tiny_dataset, monkeypatch):
        fake = FakeBlas(2).install(monkeypatch)
        report = run_block_parallel(_system(tiny_dataset), epochs=1, processes=1)
        assert fake.lookups == 0
        extras = report.result.extras
        assert extras["blas_threads"] is None
        assert extras["blas_controllable"] is False

    def test_budget_and_stage_clocks_in_extras(self, tiny_dataset):
        from repro.backend import blas

        report = run_block_parallel(_system(tiny_dataset), epochs=1, processes=2)
        extras = report.result.extras
        assert extras["cores"] == blas.usable_cores()
        assert extras["blas_controllable"] is (blas._lookup() is not None)
        assert extras["blas_threads"] == blas.threads_per_process(2)
        assert extras["blas_threads"] * 2 <= max(extras["cores"], 2)
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
