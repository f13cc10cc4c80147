"""The paper's residency claim, held against the host (ROADMAP item 1c).

NeuroFlux keeps only the active block resident and sizes its batch to the
budget; these tests hold the numpy substrate to the same story with
``tracemalloc``, read from a :class:`~repro.api.Callback` exactly as the
memory pass of ``benchmarks/e2e`` reads it: base at ``on_job_start``, peak
read and reset at every ``on_block_trained``.
"""

import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.api import Callback, run
from repro.backend.multiproc import fork_available
from repro.core import NeuroFlux, NeuroFluxConfig
from repro.core.worker import BlockWorker
from repro.data.registry import dataset_spec
from repro.errors import PartitionError
from repro.models import build_model

MIB = 2**20

#: ``benchmarks/e2e`` ``train_seq_cache`` at seed 0, shrunk to 100 training
#: samples and one epoch: the same four blocks at batch 20 / 32 / 54 / 186.
BENCH_SPEC = {
    "backend": "sequential",
    "platform": "agx_orin",
    "model": {"name": "vgg11", "num_classes": 10, "input_hw": [32, 32],
              "width_multiplier": 0.25, "seed": 1000},
    "data": {"dataset": "cifar10", "num_classes": 10, "image_hw": [32, 32],
             "scale": 100 / 50_000, "noise_std": 0.3, "seed": 2000},
    "neuroflux": {"seed": 3000},
    "budgets": {"memory_mb": 8, "epochs": 1},
}
#: Host bytes still live when a block hands over, above the job-start base
#: (measured 0.5 / 0.9 / 2.2 / 2.8 MiB: the finishing block's optimizer
#: state; the parent of this test held 20 / 39 / 62 / 72 MiB of pool).
LIVE_CEILING = 4 * MIB
#: Per-block host peak over the simulated peak (measured 2.97; parent 8.97
#: on this spec, 16.3 on the benchmark's 500 samples).
HOST_OVER_SIM_CEILING = 3.5
#: ``host peak <= K * simulated peak + C`` over the 18-cell grid the
#: hypothesis test samples.  ``C`` is a flat allowance for what does not
#: scale with the budget (the recorder's validation activations, report
#: objects); with it the measured worst case of ``(peak - C) / sim`` is
#: 5.97 -- vgg11 x0.25 at 4 MiB, one block of all eight layers, whose units
#: each keep their slots where the model counts the worst one (plain
#: ``peak / sim`` there: 6.22; smallest on the grid: 2.89).  ``K`` is that
#: times 1.24.
K, C = 7.4, 1 * MIB


def _attached_layers(system) -> set[int]:
    """Indices of the local units (layer + head) that hold a workspace."""
    return {
        spec.index
        for spec, aux in zip(system.specs, system.aux_heads)
        if any(m.workspace is not None for m in (*spec.module.modules(), *aux.modules()))
    }


class BlockMemory(Callback):
    """The e2e memory pass, plus who holds a workspace while a block trains."""

    def __init__(self) -> None:
        self.system = None
        self.base = 0
        self.peaks: list[int] = []
        self.live: list[int] = []
        self.attached: dict[int, set[int]] = {}

    def on_job_start(self, context) -> None:
        self.system = context.system
        self.base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()

    def on_batch(self, info) -> None:
        self.attached[info.block_index] = _attached_layers(self.system)

    def on_block_trained(self, block_report) -> None:
        live, peak = tracemalloc.get_traced_memory()
        self.live.append(live - self.base)
        self.peaks.append(peak - self.base)
        tracemalloc.reset_peak()


@pytest.fixture(scope="module")
def bench_run():
    memory = BlockMemory()
    tracemalloc.start()
    try:
        report = run(BENCH_SPEC, [memory])
    finally:
        tracemalloc.stop()
    assert [b.batch_size for b in report.block_reports] == [20, 32, 54, 186]
    return memory, report


class TestBenchmarkSpec:
    def test_nothing_accumulates_across_block_boundaries(self, bench_run):
        memory, _ = bench_run
        assert len(memory.live) == 4
        assert max(memory.live) <= LIVE_CEILING, [b / MIB for b in memory.live]

    def test_every_block_peak_is_within_reach_of_the_simulated_peak(self, bench_run):
        memory, report = bench_run
        sim_peak = report.result.peak_memory_bytes
        assert 0 < sim_peak <= 8 * MIB
        ratios = [peak / sim_peak for peak in memory.peaks]
        assert max(ratios) <= HOST_OVER_SIM_CEILING, ratios

    def test_only_the_training_block_holds_workspaces(self, bench_run):
        memory, report = bench_run
        assert memory.attached == {
            block.index: set(block.layer_indices) for block in report.blocks
        }
        assert _attached_layers(memory.system) == set()


@pytest.fixture(scope="module")
def small_data():
    spec = dataset_spec("cifar10", num_classes=4, image_hw=(16, 16), noise_std=0.4, seed=7)
    return replace(spec, n_train=64, n_val=16, n_test=16).materialize()


def _system(data, name="vgg11", width=0.125, budget=MIB):
    model = build_model(name, num_classes=4, input_hw=(16, 16), width_multiplier=width, seed=1)
    return NeuroFlux(
        model, data, memory_budget=budget, config=NeuroFluxConfig(batch_limit=64, seed=2)
    )


class TestEveryExitPathReleases:
    def test_time_budget_stop(self, small_data):
        system = _system(small_data)
        report = system.run(epochs=50, time_budget_s=1e-3)
        assert len(report.block_reports) < len(report.blocks)  # it did stop
        assert _attached_layers(system) == set()

    def test_a_step_that_raises(self, small_data, monkeypatch):
        system = _system(small_data)
        first_block = system.plan()[0][0]
        assert len(system.plan()[0]) > 1
        real, seen = BlockWorker.train_batch, []

        def train_batch(worker, x, y, input_mode="prefetch-raw"):
            if worker.layer_specs[0].index not in first_block.layer_indices:
                # Block 0 is done and released; block 1 dies on its first step.
                seen.append(_attached_layers(system))
                raise RuntimeError("loss blew up")
            return real(worker, x, y, input_mode)

        monkeypatch.setattr(BlockWorker, "train_batch", train_batch)
        with pytest.raises(RuntimeError, match="loss blew up"):
            system.run(epochs=1)
        assert len(seen) == 1 and seen[0].isdisjoint(first_block.layer_indices)
        assert seen[0]  # the dying block did hold its workspaces
        assert _attached_layers(system) == set()

    def test_pipelined_run(self, small_data):
        from repro.parallel import Cluster

        system = _system(small_data)
        during = BlockMemory()
        during.system = system
        system.train_parallel(
            Cluster.from_names(["nano", "agx-orin"], memory_budget=8 * MIB),
            epochs=1,
            schedule="pipelined",
            callbacks=[during],
        )
        # All blocks train at once, so all of them are resident ...
        assert set.union(*during.attached.values()) == {s.index for s in system.specs}
        assert _attached_layers(system) == set()  # ... and none after the run.

    @pytest.mark.skipif(not fork_available(), reason="needs the fork start method")
    def test_multiprocess_run(self, small_data):
        system = _system(small_data)
        report = system.train_multiprocess(epochs=1, processes=2)
        assert report.result.extras["processes"] == 2
        assert _attached_layers(system) == set()


@given(
    name=st.sampled_from(["vgg11", "resnet18", "mobilenet"]),
    width=st.sampled_from([0.125, 0.25]),
    budget_mb=st.sampled_from([2, 4, 8]),
)
@settings(max_examples=6, deadline=None)
def test_block_host_peak_is_bounded_by_the_simulated_peak(small_data, name, width, budget_mb):
    system = _system(small_data, name, width, budget_mb * MIB)
    memory = BlockMemory()
    tracemalloc.start()
    try:
        memory.on_job_start(SimpleNamespace(system=system))
        report = system.run(epochs=1, callbacks=[memory])
    except PartitionError:
        assume(False)  # resnet18 x0.25 does not fit 2 MiB at any batch
    finally:
        tracemalloc.stop()
    bound = K * report.result.peak_memory_bytes + C
    assert max(memory.peaks) <= bound, (max(memory.peaks) / MIB, bound / MIB)
