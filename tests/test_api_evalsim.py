"""The evalsim backend: closed-form paper-scale cells behind repro.api.

Parity tests run one cell each against ``tests/data/figures_golden.json``
-- the full fig11 / rho-ablation grids (and every other figure's sweep)
are covered by ``tests/test_paper_figures.py``.
"""

import json
import math
from pathlib import Path

import pytest

from helpers import time_limit
from repro.api import JobSpec, run
from repro.errors import SpecError

MB = 2**20
GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "data/figures_golden.json").read_text()
)


def payload(**overrides):
    base = {
        "backend": "evalsim",
        "platform": "agx_orin",
        "model": {"name": "vgg16"},
        "data": {"dataset": "cifar10"},
        "budgets": {"memory_mb": 300, "epochs": 2},
    }
    base.update(overrides)
    return base


class TestSpecRules:
    def test_evalsim_forbids_hardware_sections(self):
        with pytest.raises(SpecError, match="cluster"):
            JobSpec.from_dict(payload(cluster={"devices": ["agx-orin"]}))

    def test_retarget_drops_forbidden_sections(self):
        spec = JobSpec.from_dict(
            payload(cluster={"devices": ["agx-orin"]}, backend="sequential"),
            backend="evalsim",
        )
        assert spec.backend == "evalsim"
        assert spec.cluster is None


class TestParity:
    PAPER_BUDGETS = {"memory_mb": 300, "epochs": 50}

    def test_matches_fig11_cell(self):
        (row,) = [
            r for r in GOLDEN["fig11"]["rows"] if r[:3] == ["vgg16", "cifar10", 300]
        ]
        report = run(JobSpec.from_dict(payload(budgets=self.PAPER_BUDGETS)))
        ev = report.to_json_dict()["evalsim"]
        assert abs(ev["bp_hours"] - row[3]) < 1e-6
        assert abs(ev["ll_hours"] - row[4]) < 1e-6
        assert abs(ev["nf_hours"] - row[5]) < 1e-6
        assert abs(ev["speedup_vs_bp"] - row[6]) < 1e-5

    def test_matches_rho_ablation_cell(self):
        (row,) = [r for r in GOLDEN["ablation-rho"]["rows"] if r[0] == 0.2]
        report = run(JobSpec.from_dict(
            payload(budgets=self.PAPER_BUDGETS, neuroflux={"rho": 0.2})
        ))
        ev = report.to_json_dict()["evalsim"]
        assert ev["n_blocks"] == row[1]
        assert abs(ev["nf_hours"] - row[2]) < 1e-6
        assert (ev["min_batch"], ev["max_batch"]) == (row[3], row[4])

    def test_infeasible_methods_are_data_not_errors(self):
        # 100 MB: BP and classic LL OOM (the paper's "no data point"),
        # NeuroFlux still trains.
        report = run(JobSpec.from_dict(payload(budgets={"memory_mb": 100,
                                                        "epochs": 2})))
        doc = report.to_json_dict()
        ev = doc["evalsim"]
        assert ev["bp"]["feasible"] is False and ev["bp_hours"] is None
        assert ev["ll"]["feasible"] is False
        assert ev["nf"]["feasible"] is True and ev["nf_hours"] > 0
        # Exact at the precision the document has: both are the same clock,
        # rounded to 1e-6 (seconds and hours respectively).
        assert ev["nf_hours"] == round(doc["wall_clock_s"] / 3600, 6)
        assert doc["wall_clock_s"] == round(report.nf.hours * 3600, 6)
        assert math.isnan(report.speedup_vs_bp)


class TestBatchLimit:
    """``neuroflux.batch_limit`` caps all three arms, not only NeuroFlux."""

    def test_default_is_every_arms_default(self):
        from repro.core.config import NeuroFluxConfig
        from repro.training.backprop import DEFAULT_BATCH_LIMIT

        assert DEFAULT_BATCH_LIMIT == NeuroFluxConfig().batch_limit == 256

    def test_limit_reaches_bp_and_classic_ll(self):
        roomy = {"memory_mb": 4096, "epochs": 2}
        default = run(JobSpec.from_dict(payload(budgets=roomy)))
        capped = run(JobSpec.from_dict(
            payload(budgets=roomy, neuroflux={"batch_limit": 8})
        ))
        assert (default.bp.batch_size, default.ll.batch_size) == (256, 256)
        assert (capped.bp.batch_size, capped.ll.batch_size) == (8, 8)
        assert capped.nf.batch_size == capped.max_batch == 8
        assert capped.bp.hours > default.bp.hours  # smaller steps, more of them
        assert capped.breakdown["batch"] == 8


class TestBreakdown:
    """The analytic section is what the estimator and profiler say."""

    @pytest.fixture(scope="class")
    def cell(self):
        from repro.api import get_backend

        spec = JobSpec.from_dict(payload(
            model={"name": "vgg11", "width_multiplier": 0.25},
            budgets={"memory_mb": 32, "epochs": 2},
            neuroflux={"batch_limit": 16, "sample_batches": [4, 8, 12]},
        ))
        context = get_backend("evalsim").prepare(spec)
        return context.system, run(spec).to_json_dict()["evalsim"]["breakdown"]

    def test_method_bytes(self, cell):
        from repro.memory.estimator import bp_training_memory, inference_memory

        model, breakdown = cell
        bp = bp_training_memory(model, 16)
        assert breakdown["bp"] == {
            "activations": bp.activations, "parameters": bp.parameters,
            "optimizer": bp.optimizer, "total": bp.total,
        }
        assert breakdown["inference"] == inference_memory(model, 16).total
        assert breakdown["inference"] < breakdown["aan_ll"] < breakdown["classic_ll"]

    def test_layers(self, cell):
        from repro.core.auxiliary import build_aux_heads
        from repro.core.profiler import measure_unit_memory

        model, breakdown = cell
        heads = build_aux_heads(model, rule="aan", seed=0)
        assert breakdown["sample_batches"] == [4, 8, 12]
        assert len(breakdown["layers"]) == model.num_local_layers
        for spec, head, layer in zip(model.local_layers(), heads, breakdown["layers"]):
            assert layer["layer"] == spec.index + 1
            assert layer["activation_elements"] == spec.output_elements_per_sample
            assert layer["measured_bytes"] == [
                measure_unit_memory(spec, head, b) for b in (4, 8, 12)
            ]
            assert layer["r_squared"] > 0.999
            # The fitted line's own feasible batch under the 32 MB budget.
            assert layer["slope"] * layer["max_batch"] + layer["intercept"] <= 32 * MB
            assert layer["slope"] * (layer["max_batch"] + 1) + layer["intercept"] > 32 * MB
        params = [layer["exit_params"] for layer in breakdown["layers"]]
        assert params == sorted(params) and params[-1] > breakdown["full_params"] / 2
        rates = [layer["exit_images_per_s"] for layer in breakdown["layers"]]
        assert rates == sorted(rates, reverse=True)
        assert rates[0] > breakdown["full_images_per_s"]

    def test_infeasible_cell_still_has_a_breakdown(self):
        report = run(JobSpec.from_dict(payload(
            model={"name": "vgg11", "width_multiplier": 0.25},
            budgets={"memory_mb": 0.25, "epochs": 2},
        )))
        assert report.nf.feasible is False
        layers = report.breakdown["layers"]
        assert min(layer["max_batch"] for layer in layers) == 0


class TestReportedBlocks:
    """``n_blocks`` / ``min_batch..max_batch`` describe the plan the
    NeuroFlux arm was simulated with; only an infeasible arm re-plans."""

    @staticmethod
    def small(memory_mb=32, **neuroflux):
        return JobSpec.from_dict(payload(
            model={"name": "vgg11", "width_multiplier": 0.25},
            budgets={"memory_mb": memory_mb, "epochs": 2},
            neuroflux=neuroflux,
        ))

    @pytest.fixture(scope="class")
    def adaptive(self):
        return run(self.small())

    def test_fixed_batch_arm_reports_the_batch_it_ran_with(self, adaptive):
        fixed = run(self.small(adaptive_batch=False))
        assert adaptive.min_batch < adaptive.max_batch == adaptive.nf.batch_size
        assert fixed.n_blocks == adaptive.n_blocks
        assert fixed.min_batch == fixed.max_batch == fixed.nf.batch_size
        assert fixed.nf.batch_size == adaptive.min_batch

    def test_feasible_arm_is_planned_once(self, monkeypatch):
        from repro.core.profiler import MemoryProfiler

        profiles = []
        profile = MemoryProfiler.profile
        monkeypatch.setattr(
            MemoryProfiler, "profile", lambda self: profiles.append(1) or profile(self)
        )
        assert run(self.small()).n_blocks >= 1
        assert len(profiles) == 1

    def test_residency_overshoot_reports_the_adaptive_plan(self, monkeypatch, adaptive):
        from repro.errors import MemoryBudgetExceeded
        from repro.evalsim import training_time

        def overshoot(*args, **kwargs):
            raise MemoryBudgetExceeded(2, 0, 1, "block residency")

        monkeypatch.setattr(training_time, "simulate_neuroflux", overshoot)
        report = run(self.small(adaptive_batch=False))
        assert report.nf.feasible is False and math.isnan(report.wall_clock_s)
        assert (report.n_blocks, report.min_batch, report.max_batch) == (
            adaptive.n_blocks, adaptive.min_batch, adaptive.max_batch,
        )

    def test_no_partition_reports_no_blocks(self):
        report = run(self.small(memory_mb=0.25))
        assert report.nf.feasible is False
        assert (report.n_blocks, report.min_batch, report.max_batch) == (None,) * 3
        assert report.to_json_dict()["evalsim"]["n_blocks"] is None


class TestOptimizerIsHonoured:
    """An evalsim cell plans and sizes every arm under the ``neuroflux``
    section's optimizer, as the run and the trainers do."""

    @pytest.mark.parametrize("memory_mb", [2, 4, 8])
    def test_adam_cell_plans_what_the_run_plans(self, tiny_dataset, memory_mb):
        from repro.core.controller import NeuroFlux
        from repro.errors import MemoryBudgetExceeded, PartitionError
        from repro.models.zoo import build_model
        from repro.training import BackpropTrainer

        spec = JobSpec.from_dict(payload(
            model={"name": "vgg11", "width_multiplier": 0.25},
            budgets={"memory_mb": memory_mb, "epochs": 2},
            neuroflux={"optimizer": "adam"},
        ))
        report = run(spec)
        model = build_model("vgg11", num_classes=10, width_multiplier=0.25)
        budget = memory_mb * MB
        system = NeuroFlux(model, tiny_dataset, budget, config=spec.neuroflux)
        try:
            blocks, _ = system.plan()
        except PartitionError:
            assert report.nf.feasible is False and report.n_blocks is None
        else:
            sizes = [b.batch_size for b in blocks]
            assert (report.n_blocks, report.min_batch, report.max_batch) == (
                len(blocks), min(sizes), max(sizes),
            )
            assert report.nf.feasible == all(
                system._block_residency_bytes(b) <= budget for b in blocks
            )
        trainer = BackpropTrainer(model, tiny_dataset, memory_budget=budget, optimizer="adam")
        try:
            batch = trainer.max_feasible_batch(spec.neuroflux.batch_limit)
        except MemoryBudgetExceeded:
            assert report.bp.feasible is False
        else:
            assert report.bp.batch_size == batch


class TestNeuroFluxSectionRejects:
    """Values the ``neuroflux`` section used to accept.  Run on an evalsim
    cell, each hung, raised a bare error at run time, or silently ran
    something else; now each fails at parse time, naming the section."""

    @pytest.mark.parametrize(
        "fields",
        [
            {"batch_limit": 2.5},  # hung
            {"batch_limit": True},  # reported batch_size true
            {"sample_batches": [8, 8]},  # RankWarning, then infeasible
            {"sample_batches": "816"},  # profiled at batches (1, 6, 8)
            {"sample_batches": [2.5, 8]},  # truncated to 2
            {"sample_batches": [0, 8]},  # profiled batch 0
            {"sample_batches": [-8, 16]},  # an allocator error at run time
            {"rho": float("nan")},
            {"backward_multiplier": float("nan")},  # a bare ValueError
            {"backward_multiplier": -1.0},
            {"aux_rule": "bogus"},
            {"aux_pool_to": 0},
            {"classic_filters": 0},
        ],
        ids=lambda fields: ",".join(f"{k}={v!r}" for k, v in fields.items()),
    )
    def test_rejected_at_parse_time(self, fields):
        small = payload(
            model={"name": "vgg11", "width_multiplier": 0.25},
            budgets={"memory_mb": 32, "epochs": 2},
            neuroflux=fields,
        )
        with time_limit(1.0):
            with pytest.raises(SpecError) as info:
                run(JobSpec.from_dict(small))
        assert info.value.section == "neuroflux"


class TestShapeOnlyParity:
    """The backend builds its cells shape-only; a drawn model gives the
    same report, byte for byte."""

    CELLS = {
        **{
            f"{name}-{label}": dict(
                model={"name": name, "width_multiplier": 0.5},
                budgets={"memory_mb": mb, "epochs": 2},
            )
            for name in ("vgg11", "resnet18", "mobilenet")
            for label, mb in (("feasible", 300), ("0.5MB", 0.5))
        },
        # The e2e sweep's half-width vgg16 cell: only classic LL is out.
        "vgg16-half-100MB": dict(
            model={"name": "vgg16", "width_multiplier": 0.5},
            budgets={"memory_mb": 100, "epochs": 2},
        ),
    }

    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_drawn_model_gives_the_same_report(self, cell):
        from repro.api import get_backend
        from repro.evalsim.report import run_evalsim
        from repro.hw.platforms import get_platform
        from repro.models import build_model

        spec = JobSpec.from_dict(payload(**self.CELLS[cell]))
        context = get_backend("evalsim").prepare(spec)
        data = context.extras["data_spec"]
        weights = [p for p in context.system.parameters() if p.name == "weight"]
        assert not any(w.data.flags.writeable or w.data.any() for w in weights)

        m = spec.model
        drawn = build_model(
            m.name, num_classes=data.num_classes, input_hw=data.image_hw,
            width_multiplier=m.width_multiplier, seed=m.seed,
        )
        assert all(w.data.any() for w in drawn.parameters() if w.name == "weight")
        expected = run_evalsim(
            drawn, data, get_platform(spec.platform), epochs=spec.budgets.epochs,
            memory_budget=spec.budgets.memory_bytes, config=spec.neuroflux,
        )
        report = run(spec)
        assert report.to_json_dict() == expected.to_json_dict()
        feasible = {arm: getattr(report, arm).feasible for arm in ("bp", "ll", "nf")}
        if cell.endswith("feasible"):
            assert all(feasible.values()), feasible
        elif cell.endswith("0.5MB"):
            assert not any(feasible.values()), feasible
        else:
            assert feasible == {"bp": True, "ll": False, "nf": True}


class TestReportProtocol:
    @pytest.fixture(scope="class")
    def report(self):
        return run(JobSpec.from_dict(payload()))

    def test_schema(self, report):
        from repro.api import REPORT_SCHEMA_KEYS

        doc = report.to_json_dict()
        assert REPORT_SCHEMA_KEYS <= set(doc)
        assert doc["kind"] == "evalsim"
        assert doc["ledger"]["total"] > 0
        assert doc["peak_memory_bytes"] > 0

    def test_metrics(self, report):
        snap = report.metrics_registry().snapshot()
        assert snap['evalsim_train_hours{method="neuroflux"}']["value"] > 0
        assert snap['evalsim_feasible{method="bp"}']["value"] == 1.0
        assert snap["evalsim_speedup_vs_bp"]["value"] > 1.0
        assert snap["evalsim_n_blocks"]["value"] >= 1

    def test_summary_text(self, report):
        text = report.summary()
        assert "vgg16" in text and "NeuroFlux" in text and "speedup" in text
