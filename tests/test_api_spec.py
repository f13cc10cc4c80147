"""JobSpec validation, defaulting, and round-trip tests."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import JobSpec, ServingSection
from repro.core.config import NeuroFluxConfig
from repro.errors import ConfigError, SpecError


def quick_payload(**overrides) -> dict:
    """A tiny, fully-populated training spec (cluster + serving)."""
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
        "cluster": {"devices": ["nano", "agx-orin"]},
        "serving": {"arrival_rate": 100.0, "duration_s": 0.2},
    }
    payload.update(overrides)
    return payload


class TestRoundTrip:
    def test_dict_round_trip_is_exact(self):
        spec = JobSpec.from_dict(quick_payload())
        once = spec.to_dict()
        twice = JobSpec.from_dict(once).to_dict()
        assert once == twice

    def test_round_trip_survives_json(self):
        spec = JobSpec.from_dict(quick_payload())
        payload = json.loads(json.dumps(spec.to_dict()))
        assert JobSpec.from_dict(payload).to_dict() == spec.to_dict()

    def test_defaults_fill_missing_sections(self):
        spec = JobSpec.from_dict({"backend": "sequential"})
        assert spec.model.name == "vgg11"
        assert spec.data.dataset == "cifar10"
        assert spec.budgets.epochs == 1
        assert spec.neuroflux.batch_limit == 256
        assert spec.cluster is None and spec.runtime is None

    def test_empty_spec_is_valid(self):
        spec = JobSpec()
        assert spec.backend == "sequential"

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps(quick_payload()))
        spec = JobSpec.from_json_file(str(path))
        assert spec.model.width_multiplier == 0.125
        assert spec.cluster is not None

    def test_device_shorthand_and_mapping_agree(self):
        by_name = JobSpec.from_dict(
            quick_payload(cluster={"devices": ["nano", "agx-orin"]})
        )
        by_map = JobSpec.from_dict(
            quick_payload(
                cluster={
                    "devices": [
                        {"platform": "nano"},
                        {"platform": "agx-orin", "memory_budget": None},
                    ]
                }
            )
        )
        assert by_name.to_dict()["cluster"] == by_map.to_dict()["cluster"]


class TestNeuroFluxConfigRoundTrip:
    def test_default_round_trip(self):
        cfg = NeuroFluxConfig()
        assert NeuroFluxConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown NeuroFluxConfig key"):
            NeuroFluxConfig.from_dict({"bat_limit": 64})

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigError, match="must be a dict"):
            NeuroFluxConfig.from_dict([1, 2])

    @settings(max_examples=30, deadline=None)
    @given(
        rho=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
        batch_limit=st.integers(min_value=1, max_value=1024),
        lr=st.floats(min_value=1e-4, max_value=1.0, allow_nan=False),
        sample_batches=st.lists(
            st.integers(min_value=1, max_value=256), min_size=2, max_size=6
        ).filter(lambda batches: len(set(batches)) >= 2),
        use_cache=st.booleans(),
        adaptive_batch=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_round_trip_property(
        self, rho, batch_limit, lr, sample_batches, use_cache, adaptive_batch, seed
    ):
        cfg = NeuroFluxConfig(
            rho=rho,
            batch_limit=batch_limit,
            lr=lr,
            sample_batches=tuple(sample_batches),
            use_cache=use_cache,
            adaptive_batch=adaptive_batch,
            seed=seed,
        )
        payload = json.loads(json.dumps(cfg.to_dict()))
        assert NeuroFluxConfig.from_dict(payload) == cfg


class TestValidationFailures:
    """Every cross-section conflict names the offending section."""

    @pytest.mark.parametrize(
        "mutation, section, needle",
        [
            # runtime requires cluster
            (
                {"cluster": None, "runtime": {"adapt": True}},
                "runtime",
                "requires a cluster",
            ),
            # pipelined requires cluster (hardware is never invented)
            (
                {"backend": "pipelined", "cluster": None},
                "cluster",
                "requires a cluster section",
            ),
            # training backends forbid a federated section
            (
                {"backend": "pipelined", "federated": {"n_clients": 2}},
                "federated",
                "conflicts with backend",
            ),
            (
                {"backend": "sequential", "federated": {"n_clients": 2}},
                "federated",
                "conflicts with backend",
            ),
            # federated backends forbid hardware sections
            (
                {"backend": "federated"},
                "cluster",
                "conflicts with backend",
            ),
            (
                {"backend": "federated-async"},
                "cluster",
                "conflicts with backend",
            ),
            # serving backend forbids cluster/runtime/federated
            (
                {"backend": "serving"},
                "cluster",
                "conflicts with backend",
            ),
            # unknown names
            ({"backend": "warp-drive"}, "jobspec", "unknown backend"),
            ({"model": {"name": "alexnet"}}, "model", "unknown model"),
            ({"data": {"dataset": "imagenet"}}, "data", "unknown dataset"),
            ({"platform": "tpu-v9"}, "jobspec", "unknown platform"),
            (
                {"cluster": {"devices": ["nano", "tpu-v9"]}},
                "cluster",
                "unknown platform",
            ),
            # section-level knob validation
            (
                {"serving": {"threshold": 1.5}},
                "serving",
                "threshold must be in",
            ),
            (
                {
                    "cluster": {"devices": ["nano"], "placement": "alphabetical"},
                },
                "cluster",
                "unknown placement",
            ),
            (
                {
                    "runtime": {"events": {"events": []}, "events_file": "x.json"},
                },
                "runtime",
                "mutually exclusive",
            ),
            ({"budgets": {"epochs": 0}}, "budgets", "epochs must be >= 1"),
            (
                {"federated": None, "backend": "federated", "cluster": None,
                 "serving": None, "neuroflux": {"batch_limit": 0}},
                "neuroflux",
                "batch_limit",
            ),
            # the deleted second conv path: an old spec must not train silently
            ({"model": {"name": "vgg11", "fused": True}}, "model", "unknown key(s): fused"),
        ],
    )
    def test_conflict_names_section(self, mutation, section, needle):
        payload = quick_payload()
        payload.update(mutation)
        payload = {k: v for k, v in payload.items() if v is not None or k in mutation}
        # Drop keys explicitly nulled by the mutation.
        payload = {k: v for k, v in payload.items() if v is not None}
        with pytest.raises(SpecError) as err:
            JobSpec.from_dict(payload)
        assert err.value.section == section
        assert needle in str(err.value)
        assert f"[{section}]" in str(err.value)

    @pytest.mark.parametrize(
        "field, value, needle",
        [
            ("pattern", "steady", "unknown arrival pattern"),
            ("arrival_rate", -1, "arrival_rate must be a positive number"),
            ("arrival_rate", 0, "arrival_rate must be a positive number"),
            ("arrival_rate", "fast", "arrival_rate must be a positive number"),
            ("duration_s", 0.0, "duration_s must be a positive number"),
            ("duration_s", float("nan"), "duration_s must be a positive number"),
            ("batch_cap", 0, "batch_cap must be an integer >= 1"),
            ("batch_cap", 2.5, "batch_cap must be an integer >= 1"),
            ("batch_cap", True, "batch_cap must be an integer >= 1"),
            ("queue_depth", 0, "queue_depth must be an integer >= 1"),
            ("queue_depth", "8", "queue_depth must be an integer >= 1"),
        ],
    )
    def test_serving_knobs_fail_at_parse_time(self, field, value, needle):
        """Every bad workload/server knob is a ``SpecError("serving", ...)``
        from ``from_dict``, not a section-less ConfigError (or a bare
        TypeError) out of ``Backend.prepare``."""
        payload = quick_payload()
        payload["serving"] = {**payload["serving"], field: value}
        with pytest.raises(SpecError) as err:
            JobSpec.from_dict(payload)
        assert err.value.section == "serving"
        assert needle in str(err.value)
        with pytest.raises(SpecError, match=needle):
            ServingSection(**{field: value})

    def test_wrong_typed_neuroflux_value_is_a_spec_error(self):
        """A wrong-typed knob must surface as SpecError (clean CLI exit 2),
        not a TypeError traceback."""
        with pytest.raises(SpecError) as err:
            JobSpec.from_dict(quick_payload(neuroflux={"batch_limit": "64"}))
        assert err.value.section == "neuroflux"

    def test_unknown_top_level_key(self):
        with pytest.raises(SpecError) as err:
            JobSpec.from_dict(quick_payload(scheduler={"policy": "fifo"}))
        assert err.value.section == "jobspec"
        assert "scheduler" in str(err.value)

    def test_unknown_section_key(self):
        with pytest.raises(SpecError) as err:
            JobSpec.from_dict(quick_payload(model={"name": "vgg11", "depth": 19}))
        assert err.value.section == "model"
        assert "depth" in str(err.value)

    def test_malformed_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"backend": "sequential",')
        with pytest.raises(SpecError) as err:
            JobSpec.from_json_file(str(path))
        assert err.value.section == "jobspec"
        assert "malformed JSON" in str(err.value)

    def test_missing_spec_file(self, tmp_path):
        with pytest.raises(SpecError, match="cannot read spec file"):
            JobSpec.from_json_file(str(tmp_path / "nope.json"))

    def test_spec_error_is_config_error(self):
        assert issubclass(SpecError, ConfigError)


class TestComputeSection:
    COMPUTE = {"bf16_weights": True, "processes": 3}

    def test_round_trip(self):
        spec = JobSpec.from_dict(quick_payload(compute=self.COMPUTE))
        again = JobSpec.from_dict(spec.to_dict())
        assert again.compute == spec.compute
        assert again.compute.bf16_weights is True
        assert again.compute.processes == 3

    def test_to_compute_config(self):
        from repro.api import ComputeSection
        from repro.backend import ComputeConfig

        cfg = ComputeSection(**self.COMPUTE).to_compute_config()
        assert cfg == ComputeConfig(bf16_weights=True, processes=3)

    def test_positive_processes_required(self):
        with pytest.raises(SpecError, match="processes must be >= 1"):
            JobSpec.from_dict(quick_payload(compute={"processes": 0}))

    def test_multiprocess_backend_forbids_cluster(self):
        payload = quick_payload(backend="multiprocess")
        del payload["serving"]
        with pytest.raises(SpecError) as err:
            JobSpec.from_dict(payload)
        assert err.value.section == "cluster"

    def test_retarget_drops_forbidden_sections_and_keeps_compute(self):
        spec = JobSpec.from_dict(quick_payload(compute=self.COMPUTE))
        mp = spec.with_backend("multiprocess")
        assert mp.backend == "multiprocess"
        assert mp.cluster is None
        assert mp.compute == spec.compute

    @pytest.mark.parametrize(
        "flag, value", [("--array-backend", "numpy"), ("--threads", "2")]
    )
    def test_removed_knobs_are_unknown(self, flag, value, tmp_path, capsys):
        """The GEMM-engine knobs are gone, as spec keys and as flags: numpy
        is the one array engine and :mod:`repro.backend.blas` decides
        threading, so a spec or command that still sets them fails loudly."""
        from repro.cli import main

        key = flag[2:].replace("-", "_")
        with pytest.raises(SpecError) as err:
            JobSpec.from_dict(quick_payload(compute={key: value}))
        assert err.value.section == "compute"
        assert "unknown key(s)" in str(err.value) and key in str(err.value)

        path = tmp_path / "job.json"
        path.write_text(json.dumps(quick_payload()))
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(path), flag, value])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


class TestTimeBudgetPerBackend:
    """A backend with nowhere to stop on a time budget says so at
    validation; the ones that honour it keep accepting it."""

    BUDGETS = {"memory_mb": 16, "epochs": 1, "time_budget_s": 0.5}

    @pytest.mark.parametrize(
        "backend", ["multiprocess", "evalsim", "federated", "federated-async"]
    )
    def test_backends_that_cannot_stop_reject_a_time_budget(self, backend):
        payload = quick_payload(
            backend=backend, budgets=self.BUDGETS, cluster=None, serving=None
        )
        with pytest.raises(SpecError, match="time_budget_s") as err:
            JobSpec.from_dict(payload)
        assert err.value.section == "budgets"
        # ... on re-targeting too: the budget is never silently dropped.
        sequential = JobSpec.from_dict(quick_payload(budgets=self.BUDGETS))
        with pytest.raises(SpecError, match="time_budget_s"):
            sequential.with_backend(backend)
        payload["budgets"] = {"memory_mb": 16, "epochs": 1}
        assert JobSpec.from_dict(payload).budgets.time_budget_s is None

    @pytest.mark.parametrize("backend", ["sequential", "pipelined", "baseline"])
    def test_schedules_that_honour_it_accept_it(self, backend):
        spec = JobSpec.from_dict(quick_payload(budgets=self.BUDGETS), backend=backend)
        assert spec.budgets.time_budget_s == 0.5


class TestWithBackend:
    def test_retarget_drops_forbidden_sections(self):
        spec = JobSpec.from_dict(quick_payload())
        fed = spec.with_backend("federated")
        assert fed.cluster is None and fed.runtime is None and fed.serving is None
        assert fed.federated is not None  # workload section defaulted in
        assert fed.federated.n_clients == 2

    def test_retarget_keeps_relevant_sections(self):
        spec = JobSpec.from_dict(quick_payload())
        pipe = spec.with_backend("pipelined")
        assert pipe.cluster is not None
        assert [d.platform for d in pipe.cluster.devices] == ["nano", "agx-orin"]
        serve = spec.with_backend("serving")
        assert serve.serving.arrival_rate == 100.0

    def test_retarget_never_invents_hardware(self):
        spec = JobSpec.from_dict(quick_payload(cluster=None))
        spec_dict = {k: v for k, v in spec.to_dict().items()}
        assert "cluster" not in spec_dict
        with pytest.raises(SpecError) as err:
            spec.with_backend("pipelined")
        assert err.value.section == "cluster"

    def test_retarget_round_trips_every_builtin(self):
        from repro.api import available_backends

        spec = JobSpec.from_dict(quick_payload())
        for name in available_backends():
            retargeted = spec.with_backend(name)
            assert retargeted.backend == name
            # A re-targeted spec is itself round-trippable.
            assert (
                JobSpec.from_dict(retargeted.to_dict()).to_dict()
                == retargeted.to_dict()
            )

    def test_bundled_quick_spec_retargets_everywhere(self):
        """The CI smoke contract: examples/specs/quick.json fits them all."""
        from pathlib import Path

        from repro.api import available_backends

        path = Path(__file__).resolve().parent.parent / "examples/specs/quick.json"
        spec = JobSpec.from_json_file(str(path))
        for name in available_backends():
            assert JobSpec.from_json_file(str(path), backend=name).backend == name
        assert spec.backend == "sequential"
