"""The ``baseline`` backend: the six comparison trainers behind repro.api.

The backend adds nothing to a trainer: ``repro.api.run`` on a
``baseline`` spec and the direct constructor + ``train`` call on the same
model and data produce the same weights, ledger and history bit for bit
(the trained paper figures in ``tests/test_paper_figures.py`` rest on
this).  The rest is the section's rules and the budgets it honours.
"""

import json
from pathlib import Path

import pytest
from helpers import baseline_golden_outcome
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Callback, JobSpec, available_backends, run
from repro.data.registry import dataset_spec
from repro.errors import MemoryBudgetExceeded, SpecError
from repro.flops import DEFAULT_BACKWARD_MULTIPLIER
from repro.hw.platforms import get_platform
from repro.models.zoo import build_model
from repro.training import BASELINE_TRAINERS

QUICK = Path(__file__).resolve().parent.parent / "examples/specs/quick.json"
MB = 2**20


def payload(method="bp", **overrides) -> dict:
    base = {
        "backend": "baseline",
        "platform": "nano",
        "model": {"name": "vgg11", "num_classes": 4, "input_hw": [16, 16],
                  "width_multiplier": 0.125, "seed": 3},
        "data": {"dataset": "cifar10", "num_classes": 4, "image_hw": [16, 16],
                 "scale": 0.002, "noise_std": 0.4, "seed": 7},
        "neuroflux": {"batch_limit": 24, "seed": 0},
        "budgets": {"memory_mb": 8, "epochs": 2},
        "baseline": {"method": method},
    }
    base.update(overrides)
    return base


class Grab(Callback):
    trainer = None

    def on_job_start(self, context) -> None:
        self.trainer = context.system


def run_direct(spec: dict):
    """The same run with no backend: constructor + ``train``, spelled out."""
    m, d, nf, budgets = spec["model"], spec["data"], spec["neuroflux"], spec["budgets"]
    model = build_model(
        m["name"], num_classes=m["num_classes"], input_hw=tuple(m["input_hw"]),
        width_multiplier=m["width_multiplier"], seed=m["seed"],
    )
    data = dataset_spec(
        d["dataset"], scale=d["scale"], image_hw=tuple(d["image_hw"]),
        num_classes=d["num_classes"], noise_std=d["noise_std"], seed=d["seed"],
    ).materialize()
    method = spec["baseline"]["method"]
    init = {
        "platform": get_platform(spec["platform"]),
        "memory_budget": int(budgets["memory_mb"] * MB),
        "seed": nf["seed"],
    }
    if method == "ll":
        # The section's defaults: NeuroFlux's adaptive heads.
        init.update(aux_rule=nf.get("aux_rule", "aan"), classic_filters=256)
    if method == "microbatch":
        trainer = BASELINE_TRAINERS[method](
            model, data, logical_batch=nf["batch_limit"], **init
        )
        return trainer, trainer.train(budgets["epochs"])
    trainer = BASELINE_TRAINERS[method](model, data, **init)
    return trainer, trainer.train(budgets["epochs"], batch_limit=nf["batch_limit"])


@settings(max_examples=10, deadline=None)
@given(
    method=st.sampled_from(sorted(BASELINE_TRAINERS)),
    model_name=st.sampled_from(["vgg11", "resnet18"]),
    width=st.sampled_from([0.125, 0.25]),
    memory_mb=st.sampled_from([4, 8, 32]),
    seed=st.integers(0, 3),
)
def test_backend_is_the_direct_trainer_call(method, model_name, width, memory_mb, seed):
    spec = payload(method)
    spec["model"].update(name=model_name, width_multiplier=width)
    spec["budgets"]["memory_mb"] = memory_mb
    spec["neuroflux"]["seed"] = seed
    try:
        want = baseline_golden_outcome(*run_direct(spec))
    except MemoryBudgetExceeded:
        # The paper's "no data point": the backend reports it the same way.
        with pytest.raises(MemoryBudgetExceeded):
            run(JobSpec.from_dict(spec))
        return
    grab = Grab()
    result = run(JobSpec.from_dict(spec), callbacks=grab)
    got = baseline_golden_outcome(grab.trainer, result)
    # weights sha256, ledger, peak_memory_bytes, batch_size, every
    # HistoryPoint -- floats by float.hex.
    for key in want:
        assert got[key] == want[key], key


class TestSpecRules:
    def test_unknown_method_names_the_six(self):
        with pytest.raises(SpecError) as err:
            JobSpec.from_dict(payload("backprop"))
        assert err.value.section == "baseline"
        for name in ("bp", "fa", "ll", "sp", "checkpoint", "microbatch"):
            assert name in str(err.value)
        assert sorted(BASELINE_TRAINERS) == sorted(
            ["bp", "fa", "ll", "sp", "checkpoint", "microbatch"]
        )

    def test_method_is_the_sections_only_field(self):
        with pytest.raises(SpecError, match="unknown key"):
            JobSpec.from_dict(payload(baseline={"method": "bp", "lr": 0.1}))
        assert JobSpec.from_dict(payload()).to_dict()["baseline"] == {"method": "bp"}

    def test_section_is_defaulted_in(self):
        spec = payload()
        del spec["baseline"]
        assert JobSpec.from_dict(spec).baseline.method == "bp"

    @pytest.mark.parametrize(
        "section, value",
        [
            ("cluster", {"devices": ["nano"]}),
            ("federated", {}),
            ("serving", {}),
            ("fleet", {}),
        ],
    )
    def test_baseline_forbids_the_other_workloads(self, section, value):
        with pytest.raises(SpecError) as err:
            JobSpec.from_dict(payload(**{section: value}))
        assert err.value.section == section

    def test_baseline_forbids_a_runtime(self):
        with pytest.raises(SpecError):
            JobSpec.from_dict(payload(cluster={"devices": ["nano"]}, runtime={}))

    def test_every_other_backend_rejects_a_baseline_section(self):
        quick = json.loads(QUICK.read_text())
        for name in available_backends():
            if name == "baseline":
                continue
            valid = JobSpec.from_dict(quick, backend=name).to_dict()
            with pytest.raises(SpecError) as err:
                JobSpec.from_dict({**valid, "baseline": {"method": "bp"}})
            assert err.value.section == "baseline", name
            # Re-targeting drops it instead.
            spec = JobSpec.from_dict({**quick, "baseline": {"method": "bp"}}, backend=name)
            assert spec.baseline is None

    def test_backend_flag_retargets_the_quick_spec(self):
        spec = JobSpec.from_json_file(str(QUICK), backend="baseline")
        assert spec.backend == "baseline" and spec.baseline.method == "bp"
        assert spec.cluster is None and spec.serving is None
        assert JobSpec.from_dict(spec.to_dict()).to_dict() == spec.to_dict()


class TestBudgets:
    def test_time_budget_stops_early_with_a_shorter_history(self):
        full = run(JobSpec.from_dict(payload(budgets={"memory_mb": 8, "epochs": 3})))
        assert len(full.history) == 3
        # Stop inside the second epoch.
        stop_at = (full.history[0].sim_time_s + full.history[1].sim_time_s) / 2
        timed = run(JobSpec.from_dict(payload(
            budgets={"memory_mb": 8, "epochs": 3, "time_budget_s": stop_at}
        )))
        assert len(timed.history) == 2
        assert stop_at <= timed.wall_clock_s < full.history[1].sim_time_s
        assert timed.history[0] == full.history[0]

    def test_microbatching_takes_the_limit_as_its_logical_batch(self):
        report = run(JobSpec.from_dict(payload("microbatch", budgets={"memory_mb": 3, "epochs": 1})))
        assert report.extras == {"logical_batch": 24}
        assert report.batch_size < 24  # the budget cut the micro-batch
        timed = run(JobSpec.from_dict(payload(
            "microbatch",
            budgets={"memory_mb": 3, "epochs": 3, "time_budget_s": report.wall_clock_s / 2},
        )))
        assert len(timed.history) == 1 and timed.wall_clock_s < report.wall_clock_s

    def test_signal_propagation_keeps_its_own_backward_multiplier(self):
        grab = Grab()
        run(JobSpec.from_dict(payload("sp")), grab)
        assert grab.trainer.backward_multiplier == 1.0
        assert BASELINE_TRAINERS["bp"].backward_multiplier == DEFAULT_BACKWARD_MULTIPLIER


class TestObservability:
    def test_report_protocol_and_json(self):
        from repro.api import REPORT_SCHEMA_KEYS, Report

        report = run(JobSpec.from_dict(payload("ll")))
        assert isinstance(report, Report)
        doc = json.loads(json.dumps(report.to_json_dict()))
        assert REPORT_SCHEMA_KEYS <= set(doc)
        assert doc["kind"] == "baseline" and doc["method"] == "classic-ll"
        assert [p["epoch"] for p in doc["history"]] == [1, 2]
        assert doc["ledger"]["total"] == pytest.approx(doc["wall_clock_s"])
        assert "classic-ll" in report.summary()

    def test_traced_run_and_epoch_callbacks(self, tmp_path):
        from repro.api import RecordingCallback

        rec = RecordingCallback()
        trace = tmp_path / "trace.json"
        report = run(
            JobSpec.from_dict(payload(observability={"trace_path": str(trace)})), rec
        )
        epochs = [c for c in rec.calls if c[0] == "on_epoch_end"]
        assert [(c[1], c[2]) for c in epochs] == [
            (int(p.epoch), p.sim_time_s) for p in report.history
        ]
        events = json.loads(trace.read_text())["traceEvents"]
        steps = [e for e in events if e.get("cat") == "train"]
        assert len(steps) == 2 * -(-100 // report.batch_size)  # one span per step
