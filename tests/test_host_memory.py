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
#: Per-block host peak over the simulated peak (measured 1.58, block peaks
#: 12.6 / 12.0 / 11.4 / 7.2 MiB against 8.0 simulated, since a block's
#: units share one workspace per position; 2.84 when every unit kept its
#: own slots, 8.97 when a run-wide pool held every block's).
HOST_OVER_SIM_CEILING = 2.0
#: ``host peak <= K * simulated peak + C`` over the 18-cell grid the
#: hypothesis test samples.  ``C`` is a flat allowance for what does not
#: scale with the budget (the recorder's validation activations, report
#: objects); with it the measured worst case of ``(peak - C) / sim`` is
#: 2.45 -- vgg11 x0.25 at 4 MiB, one block of all eight layers (plain
#: ``peak / sim`` there: 2.70; smallest on the grid: 1.48; 5.80 there
#: when each unit kept its own slots).  ``K`` is that times 1.24.
K, C = 3.1, 1 * MIB


def _slot_bytes(module_roots) -> dict[tuple[int, int, str], int]:
    """Bytes per ``(root, position, slot)`` of the workspaces bound to
    ``module_roots``; a workspace shared by several roots shows once per
    root."""
    return {
        (r, pos, name): raw.nbytes
        for r, root in enumerate(module_roots)
        for pos, module in enumerate(root.modules())
        for name, (raw, *_) in module.workspace._slots.items()
    }


def _arena(system) -> dict:
    """The training block's workspaces, as numbers (holding the objects
    would keep their bytes alive past the block)."""
    units = [
        (spec.module, aux)
        for spec, aux in zip(system.specs, system.aux_heads)
        if spec.module.workspace is not None
    ]
    spaces = {
        id(m.workspace): m.workspace.nbytes
        for unit in units for root in unit for m in root.modules()
    }

    def ids(root):
        return {id(m.workspace) for m in root.modules()}

    return {
        "units": len(units),
        "own_head_shares": any(ids(layer) & ids(head) for layer, head in units),
        "distinct_bytes": sum(spaces.values()),
        "layer_slots": _slot_bytes([layer for layer, _ in units]),
        "head_slots": _slot_bytes([head for _, head in units]),
    }


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
        self.arena: dict[int, dict] = {}

    def on_job_start(self, context) -> None:
        self.system = context.system
        self.base, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()

    def on_batch(self, info) -> None:
        self.attached[info.block_index] = _attached_layers(self.system)
        self.arena[info.block_index] = _arena(self.system)

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


@pytest.fixture(scope="module")
def private_arena():
    """The bench spec again, every unit on its own workspaces."""
    real = NeuroFlux._build_worker

    def build_worker(system, block, sim):
        worker = real(system, block, sim)
        for unit in worker.units:
            unit.attach_workspace()
        return worker

    memory = BlockMemory()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(NeuroFlux, "_build_worker", build_worker)
        run(BENCH_SPEC, [memory])
    return memory.arena


def _worst_unit_per_slot(slots: dict[tuple[int, int, str], int]) -> int:
    """Sum over (position, slot) of the largest unit's bytes there."""
    worst: dict[tuple[int, str], int] = {}
    for (_, pos, name), nbytes in slots.items():
        worst[pos, name] = max(worst.get((pos, name), 0), nbytes)
    return sum(worst.values())


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

    def test_a_block_holds_each_slot_once_at_its_worst_unit(self, bench_run, private_arena):
        memory, _ = bench_run
        assert memory.arena.keys() == private_arena.keys()
        for block, arena in memory.arena.items():
            private = private_arena[block]
            assert arena["units"] == private["units"] >= 2
            # A layer's cols must outlive its own head's step.
            assert not arena["own_head_shares"]
            bound = _worst_unit_per_slot(private["layer_slots"]) + _worst_unit_per_slot(
                private["head_slots"]
            )
            assert arena["distinct_bytes"] <= bound, (block, arena["distinct_bytes"], bound)
            assert arena["distinct_bytes"] < private["distinct_bytes"], block


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
