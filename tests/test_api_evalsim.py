"""The evalsim backend: closed-form paper-scale cells behind repro.api.

Parity tests run tiny subsets (reduced epochs, one budget) -- the full
fig11 / rho-ablation grids are covered at paper scale by
``benchmarks/bench_fig11_time_vs_budget.py`` and
``benchmarks/bench_ablation_rho.py`` against the committed sweep specs.
"""

import math

import pytest

from repro.api import JobSpec, run
from repro.errors import SpecError

MB = 2**20


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
    def test_matches_fig11_cell(self):
        from repro.experiments import fig11

        legacy = fig11.run(
            models=("vgg16",), datasets=("cifar10",), budgets_mb=(300,),
            epochs=2,
        )
        (row,) = legacy.rows
        report = run(JobSpec.from_dict(payload()))
        ev = report.to_json_dict()["evalsim"]
        assert abs(ev["bp_hours"] - row[3]) < 1e-6
        assert abs(ev["ll_hours"] - row[4]) < 1e-6
        assert abs(ev["nf_hours"] - row[5]) < 1e-6
        assert abs(ev["speedup_vs_bp"] - row[6]) < 1e-5

    def test_matches_rho_ablation_cell(self):
        from repro.experiments import ablations

        legacy = ablations.run_rho_sweep(rhos=(0.2,), epochs=2)
        (row,) = legacy.rows
        report = run(JobSpec.from_dict(payload(neuroflux={"rho": 0.2})))
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
