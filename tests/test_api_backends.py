"""Backend registry + bit-identity regressions + unified protocols.

The acceptance-critical tests live here: ``repro.api.run(spec)`` must
produce bit-identical final weights to the legacy ``NeuroFlux.run()``
and ``train_parallel()`` entry points on fixed seeds, and every
backend's result must be a :class:`Report`.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import (
    Backend,
    Callback,
    JobSpec,
    RecordingCallback,
    Report,
    REPORT_SCHEMA_KEYS,
    available_backends,
    get_backend,
    register_backend,
    run,
)
from repro.api.backends import (
    build_cluster_from_spec,
    build_data_from_spec,
    build_model_from_spec,
)
from repro.core.controller import NeuroFlux
from repro.errors import ConfigError, MemoryBudgetExceeded, SpecError
from repro.hw.platforms import get_platform

QUICK = Path(__file__).resolve().parent.parent / "examples/specs/quick.json"


def tiny_payload(**overrides) -> dict:
    payload = {
        "backend": "sequential",
        "platform": "agx_orin",
        "model": {
            "name": "vgg11",
            "num_classes": 4,
            "input_hw": [16, 16],
            "width_multiplier": 0.125,
            "seed": 3,
        },
        "data": {
            "dataset": "cifar10",
            "num_classes": 4,
            "image_hw": [16, 16],
            "scale": 0.002,
            "noise_std": 0.4,
            "seed": 7,
        },
        "neuroflux": {"batch_limit": 32, "seed": 0},
        "budgets": {"memory_mb": 16, "epochs": 1},
    }
    payload.update(overrides)
    return payload


class GrabSystem(Callback):
    """Captures the materialized system from the job context."""

    def __init__(self):
        self.system = None

    def on_job_start(self, context) -> None:
        self.system = context.system


def assert_same_weights(system_a, system_b) -> None:
    a, b = system_a.model.state_dict(), system_b.model.state_dict()
    assert set(a) == set(b)
    for key in a:
        assert np.array_equal(a[key], b[key]), key
    for head_a, head_b in zip(system_a.aux_heads, system_b.aux_heads):
        da, db = head_a.state_dict(), head_b.state_dict()
        for key in da:
            assert np.array_equal(da[key], db[key]), key


class TestRegistry:
    def test_five_builtins_registered(self):
        assert set(available_backends()) >= {
            "sequential",
            "pipelined",
            "federated",
            "federated-async",
            "serving",
        }

    def test_get_backend_unknown(self):
        with pytest.raises(SpecError, match="unknown backend"):
            get_backend("warp-drive")

    def test_register_rejects_non_backend(self):
        with pytest.raises(ConfigError, match="Backend subclass"):
            register_backend("bogus")(object)

    def test_reregistration_conflict_rejected(self):
        class Impostor(Backend):
            def prepare(self, spec):  # pragma: no cover
                raise NotImplementedError

            def execute(self, context, callbacks):  # pragma: no cover
                raise NotImplementedError

        with pytest.raises(ConfigError, match="already registered"):
            register_backend("sequential")(Impostor)

    def test_nine_builtins_stay_registered(self):
        assert available_backends() == sorted(
            ["sequential", "pipelined", "multiprocess", "baseline", "evalsim",
             "federated", "federated-async", "serving", "cluster-serving"]
        )

    def test_section_rules_live_on_the_backend_class(self):
        """``needs_cluster`` / ``forbids`` / ``defaults`` are class
        attributes JobSpec reads through the registry; the values are the
        ones the old name-keyed table in ``api/spec.py`` held, plus the
        ``baseline`` section only its own backend takes."""
        rules = {
            name: (b.needs_cluster, set(b.forbids), set(b.defaults))
            for name in available_backends()
            for b in [get_backend(name)]
        }
        heavy = {"cluster", "runtime", "federated", "serving", "fleet"}
        assert rules.pop("baseline") == (False, heavy, {"baseline"})
        assert all("baseline" in forbids for _, forbids, _ in rules.values())
        assert {
            name: (needs, forbids - {"baseline"}, defaults)
            for name, (needs, forbids, defaults) in rules.items()
        } == {
            "sequential": (False, {"federated", "fleet"}, set()),
            "pipelined": (True, {"federated", "fleet"}, set()),
            "multiprocess": (False, heavy, set()),
            "evalsim": (False, heavy, set()),
            "federated": (False, heavy - {"federated"}, {"federated"}),
            "federated-async": (False, heavy - {"federated"}, {"federated"}),
            "serving": (False, heavy - {"serving"}, {"serving"}),
            "cluster-serving": (True, {"federated", "runtime"}, {"serving", "fleet"}),
        }
        assert {n for n in available_backends() if get_backend(n).rejects_time_budget} == {
            "multiprocess", "evalsim", "federated", "federated-async"
        }

    def test_spec_validation_follows_a_newly_registered_backend(self):
        """Registering a backend is all it takes for JobSpec to apply its
        section rules -- nothing to edit in ``api/spec.py``."""
        from repro.api import registry

        @register_backend("test-needs-cluster")
        class NeedsCluster(Backend):
            needs_cluster = True
            forbids = ("serving",)
            defaults = ("fleet",)

        try:
            with pytest.raises(SpecError) as err:
                JobSpec.from_dict(tiny_payload(backend="test-needs-cluster"))
            assert err.value.section == "cluster"
            payload = tiny_payload(
                backend="test-needs-cluster",
                cluster={"devices": ["nano"]},
                serving={"arrival_rate": 10.0},
            )
            with pytest.raises(SpecError) as err:
                JobSpec.from_dict(payload)
            assert err.value.section == "serving"
            spec = JobSpec.from_dict(payload, backend="test-needs-cluster")
            assert spec.serving is None and spec.fleet is not None
        finally:
            del registry._BACKENDS["test-needs-cluster"]

    def test_run_rejects_unknown_payload_type(self):
        with pytest.raises(ConfigError, match="JobSpec, a dict, or a spec-file"):
            run(42)


class TestBitIdentity:
    """api.run(spec) == the legacy entry points, weight for weight."""

    def test_sequential_matches_legacy_run(self):
        spec = JobSpec.from_dict(tiny_payload())
        grab = GrabSystem()
        api_report = run(spec, callbacks=grab)

        legacy = NeuroFlux(
            build_model_from_spec(spec),
            build_data_from_spec(spec),
            memory_budget=spec.budgets.memory_bytes,
            platform=get_platform(spec.platform),
            config=spec.neuroflux,
        )
        legacy_report = legacy.run(epochs=spec.budgets.epochs)

        assert_same_weights(grab.system, legacy)
        assert api_report.exit_layer == legacy_report.exit_layer
        assert api_report.exit_test_accuracy == legacy_report.exit_test_accuracy
        assert api_report.result.sim_time_s == legacy_report.result.sim_time_s

    def test_pipelined_matches_legacy_train_parallel(self):
        spec = JobSpec.from_dict(
            tiny_payload(
                backend="pipelined",
                cluster={"devices": ["nano", "agx-orin"]},
            )
        )
        grab = GrabSystem()
        api_report = run(spec, callbacks=grab)

        legacy = NeuroFlux(
            build_model_from_spec(spec),
            build_data_from_spec(spec),
            memory_budget=spec.budgets.memory_bytes,
            platform=get_platform(spec.platform),
            config=spec.neuroflux,
        )
        legacy_report = legacy.train_parallel(
            build_cluster_from_spec(spec),
            epochs=spec.budgets.epochs,
            schedule="pipelined",
        )

        assert_same_weights(grab.system, legacy)
        assert api_report.placement == legacy_report.placement
        assert api_report.makespan_s == legacy_report.makespan_s
        assert api_report.exit_test_accuracy == legacy_report.exit_test_accuracy

    def test_sequential_on_cluster_matches_single_device(self):
        """The cluster-sequential backend keeps single-device semantics."""
        single = JobSpec.from_dict(tiny_payload())
        clustered = JobSpec.from_dict(
            tiny_payload(cluster={"devices": ["agx-orin", "agx-orin"]})
        )
        grab_single, grab_clustered = GrabSystem(), GrabSystem()
        run(single, callbacks=grab_single)
        run(clustered, callbacks=grab_clustered)
        assert_same_weights(grab_single.system, grab_clustered.system)


def _report_classes(cls=Report):
    """Every subclass of ``cls`` defined under ``repro``, recursively."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("repro."):
            yield sub
        yield from _report_classes(sub)


class TestReportBase:
    @pytest.fixture(scope="class")
    def reports(self):
        spec = JobSpec.from_json_file(str(QUICK))
        reports = {
            name: run(spec.with_backend(name))
            for name in available_backends()
            if name != "baseline"
        }
        # The paper's point: BP cannot take a step in the 1 MB NeuroFlux
        # trains in, so the baseline gets a budget it fits.
        with pytest.raises(MemoryBudgetExceeded):
            run(spec.with_backend("baseline"))
        reports["baseline"] = run(
            spec.with_backend("baseline").overlay({"budgets.memory_mb": 8})
        )
        return reports

    def test_every_backend_returns_a_report(self, reports):
        assert sorted(reports) == available_backends()
        assert len(reports) == 9
        for name, report in reports.items():
            assert isinstance(report, Report), name
            assert report.wall_clock_s >= 0, name
            assert report.peak_memory_bytes >= 0, name
            assert isinstance(report.summary(), str), name

    def test_json_schema_keys_and_ledger(self, reports):
        for name, report in reports.items():
            payload = report.to_json_dict()
            missing = REPORT_SCHEMA_KEYS - set(payload)
            assert not missing, (name, missing)
            json.dumps(payload)  # JSON-pure end to end
            ledger = payload["ledger"]
            assert "total" in ledger, name
            for key, value in ledger.items():
                assert value is not None and value >= 0, (name, key, value)

    def test_kinds_are_distinct_and_stable(self, reports):
        kinds = {name: r.to_json_dict()["kind"] for name, r in reports.items()}
        # One serving loop: a single server reports as a fleet of one.
        assert kinds["serving"] == "fleet"
        assert kinds["federated"] == "federated"
        assert kinds["federated-async"] == "federated-async"
        assert kinds["sequential"] == kinds["pipelined"] == "parallel"
        assert kinds["baseline"] == "baseline"
        assert kinds["multiprocess"] == "neuroflux"
        assert kinds["evalsim"] == "evalsim"

    def test_every_report_class_has_its_own_kind(self, reports):
        import repro.obs.analyze  # noqa: F401 -- defines AnalysisReport
        import repro.sweep  # noqa: F401 -- defines SweepReport

        classes = list(_report_classes())
        assert {c.__name__ for c in classes} == {
            "TrainResult", "NeuroFluxReport", "ParallelReport", "FleetReport",
            "EvalSimReport", "SweepReport", "AnalysisReport", "FederatedResult",
            "AsyncFederatedResult",
        }
        kinds = [c.kind for c in classes]
        assert all(kinds), kinds
        assert len(set(kinds)) == len(kinds), kinds

    def test_training_reports_share_the_training_fields(self, reports):
        """BP, NeuroFlux on one device and NeuroFlux on a cluster are one
        comparison: each report carries the method, accuracy and history."""
        for name in ("baseline", "multiprocess", "sequential", "pipelined"):
            payload = reports[name].to_json_dict()
            assert {"method", "final_accuracy", "history"} <= set(payload), name
        cluster = reports["pipelined"].to_json_dict()
        assert cluster["method"] == "neuroflux-pipelined" and cluster["history"]

    def test_one_empty_ledger_rule(self):
        """A report with nothing charged has the ledger
        ``merge_ledger_summaries([])`` gives: a float total alone."""
        from repro.api.report import merge_ledger_summaries
        from repro.evalsim.report import EvalSimReport, MethodOutcome
        from repro.fleet.report import FleetReport
        from repro.obs.analyze.report import AnalysisReport
        from repro.sweep.query import SweepReport

        empty = merge_ledger_summaries([])
        assert empty == {"total": 0.0} and isinstance(empty["total"], float)
        infeasible = MethodOutcome("neuroflux", feasible=False)
        reports = [
            FleetReport("poisson", 1.0, 1.0, "cascade", 1, "round-robin", 1),
            EvalSimReport("vgg11", "cifar10", "nano", 1.0, 1, 0.4, *[infeasible] * 3),
            SweepReport("empty", 0, 0, 0, _run_scalars=[]),
            AnalysisReport("none", "report"),
        ]
        for report in reports:
            assert report.ledger_summary() == empty, report.kind
            assert report.to_json_dict()["ledger"] == {"total": 0.0}, report.kind

    def test_federated_tracks_peak_memory_and_ledgers(self, reports):
        fed = reports["federated"]
        assert fed.peak_memory_bytes > 0
        assert len(fed.device_ledgers) == 2
        assert fed.ledger_summary()["total"] > 0

    def test_federated_reports_are_per_run_not_cumulative(self):
        """A second run() on the same federation reports only its own
        work: ledgers are deltas against a per-run baseline."""
        grab = GrabSystem()
        spec = JobSpec.from_dict(tiny_payload()).with_backend("federated")
        first = run(spec, callbacks=grab)
        second = grab.system.run(
            rounds=spec.federated.rounds,
            local_epochs=spec.federated.local_epochs,
        )
        assert second.ledger_summary()["total"] == pytest.approx(
            first.ledger_summary()["total"], rel=0.2
        )
        assert second.peak_memory_bytes > 0


class TestCallbacks:
    def test_sequential_hook_choreography(self):
        rec = RecordingCallback()
        run(JobSpec.from_dict(tiny_payload()), callbacks=rec)
        names = rec.names()
        assert names[0] == "on_job_start"
        assert names[-1] == "on_job_end"
        assert "on_batch" in names
        assert "on_epoch_end" in names
        assert "on_block_trained" in names
        # epochs end before their block is reported trained
        assert names.index("on_epoch_end") < names.index("on_block_trained")

    def test_epoch_metrics_are_enriched_with_accuracy(self):
        rec = RecordingCallback()
        run(
            JobSpec.from_dict(
                tiny_payload(
                    backend="pipelined", cluster={"devices": ["agx-orin"]}
                )
            ),
            callbacks=rec,
        )
        epochs = [c for c in rec.calls if c[0] == "on_epoch_end"]
        assert epochs
        for _, epoch, time_s, metrics in epochs:
            assert "accuracy" in metrics and "loss" in metrics
            assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_federated_rounds_emit_epoch_end(self):
        rec = RecordingCallback()
        spec = JobSpec.from_dict(tiny_payload()).with_backend("federated")
        run(spec, callbacks=rec)
        epochs = [c for c in rec.calls if c[0] == "on_epoch_end"]
        assert len(epochs) == spec.federated.rounds
        assert all("accuracy" in c[3] for c in epochs)

    def test_runtime_events_surface_through_callbacks(self):
        rec = RecordingCallback()
        spec = JobSpec.from_dict(
            tiny_payload(
                backend="sequential",
                cluster={"devices": ["agx-orin", "agx-orin"]},
                runtime={
                    "events": {
                        "events": [
                            {
                                "type": "slowdown",
                                "time_s": 1e-4,
                                "device": 1,
                                "factor": 3.0,
                            }
                        ]
                    }
                },
            )
        )
        report = run(spec, callbacks=rec)
        events = [c for c in rec.calls if c[0] == "on_event"]
        assert len(events) == 1
        assert events[0][1].kind == "slowdown"
        assert report.runtime is not None
        assert len(report.runtime.events_applied) == 1

    def test_caller_callback_list_is_not_mutated_across_runs(self):
        """The engine must not leak a run's bound runtime into a
        caller-owned CallbackList reused for the next run."""
        from repro.api import CallbackList

        user = CallbackList([RecordingCallback()])
        payload = tiny_payload(
            cluster={"devices": ["agx-orin", "agx-orin"]},
            runtime={"adapt": True},
        )
        run(JobSpec.from_dict(payload), callbacks=user)
        assert len(user) == 1  # still just the user's callback
        run(JobSpec.from_dict(payload), callbacks=user)  # must not crash
        assert len(user) == 1

    def test_failure_migration_surfaces_through_callbacks(self):
        rec = RecordingCallback()
        spec = JobSpec.from_dict(
            tiny_payload(
                backend="sequential",
                cluster={"devices": ["agx-orin", "agx-orin"]},
                runtime={
                    "events": {
                        "events": [
                            {"type": "failure", "time_s": 1e-4, "device": 0}
                        ]
                    }
                },
            )
        )
        report = run(spec, callbacks=rec)
        migrations = [c for c in rec.calls if c[0] == "on_migration"]
        assert migrations, "device-0 failure must surface as on_migration"
        assert migrations[0][1].reason == "failure"
        assert report.runtime.failed_devices == [0]
