"""Parity golden for the five bench suites and their reference workload.

Recorded on the five self-contained harnesses (before ``repro.bench``
existed) and held across the move onto the shared core; only the argv of
the two quick runs and the builder calls of ``reference_copies`` changed:

* the three simulated suites regenerate the committed ``BENCH_*.json`` on
  every key but ``env`` (which names the recording interpreter);
* the ``--quick`` kernels and obs payloads keep their key sets (their
  values are host wall-clock);
* the reference workload builds the same data and weights, by sha256, as
  each of the five hand copies it replaced -- the pipeline, runtime, fleet
  and kernels harnesses and the deleted pytest-driven serving driver
  (``tests/data/bench_reference_digests.json``; ``PYTHONPATH=src python
  tests/test_bench_parity.py`` re-records it, which is only right when the
  workload is *meant* to change -- the BENCH files move with it).
"""

from __future__ import annotations

import hashlib
import importlib
import json
from pathlib import Path

import pytest

from helpers import weights_digest

REPO = Path(__file__).resolve().parents[1]
DIGESTS = Path(__file__).parent / "data" / "bench_reference_digests.json"

SIMULATED = {
    "pipeline": "repro.parallel.bench",
    "runtime": "repro.runtime.bench",
    "fleet": "repro.fleet.bench",
}
ENV_KEYS = {"python", "numpy", "machine"}


@pytest.mark.parametrize("suite", sorted(SIMULATED))
def test_simulated_suite_regenerates_the_committed_file(suite):
    report = importlib.import_module(SIMULATED[suite]).run_suite()
    report = json.loads(json.dumps(report))
    committed = json.loads((REPO / f"BENCH_{suite}.json").read_text())
    assert set(report.pop("env")) == set(committed.pop("env")) == ENV_KEYS
    assert report == committed


def _quick_payload(main, argv, capsys) -> dict:
    """Run a harness's door; the payload is the file its last argument names.

    The exit code follows the claims, and obs's are host wall-clock: on a
    busy host one may fail, which the door must then report.
    """
    code = main(argv)
    capsys.readouterr()
    report = json.loads(Path(argv[-1]).read_text())
    assert code == (0 if all(report.get("claims", {}).values()) else 1)
    return report


def test_quick_kernels_payload_shape(tmp_path, capsys):
    from repro.cli import main

    report = _quick_payload(
        main, ["bench", "kernels", "--quick", "--json", str(tmp_path / "k.json")],
        capsys,
    )
    assert set(report) == {"schema", "config", "env", "macro", "micro", "backend"}
    assert set(report["config"]) == {
        "suite", "quick", "batch", "reps", "model", "seed",
    }
    assert set(report["env"]) == ENV_KEYS | {"cores"}
    assert set(report["micro"]) == {
        "im2col", "col2im", "gemm_im2col", "conv_step", "maxpool_step",
    }


def test_quick_obs_payload_shape(tmp_path, capsys):
    from repro.cli import main

    report = _quick_payload(
        main, ["bench", "obs", "--quick", "--json", str(tmp_path / "o.json")],
        capsys,
    )
    assert set(report) == {
        "config", "env", "claims", "micro_add_training_step",
        "macro_sequential_run", "macro_fleet_run", "disabled_projection",
        "disabled_projection_fleet", "analysis_pass",
    }
    assert set(report["config"]) == {
        "quick", "micro_calls", "disabled_limit_pct",
        "enabled_macro_limit_pct", "pessimistic_guard_ns",
    }
    assert set(report["env"]) == ENV_KEYS
    assert set(report["claims"]) == {
        "disabled_is_free", "enabled_run_under_10_pct",
        "fleet_disabled_is_free", "fleet_enabled_under_10_pct",
    }


def system_digest(system) -> str:
    """sha256 of everything a reference-workload copy decides."""
    digest = hashlib.sha256()
    data = system.data
    for array in (data.x_train, data.y_train, data.x_val, data.y_val,
                  data.x_test, data.y_test):
        digest.update(f"{array.dtype}:{array.shape}".encode())
        digest.update(array.tobytes())
    digest.update(weights_digest(system).encode())
    digest.update(
        repr((system.platform.name, system.memory_budget,
              system.config.batch_limit, system.config.seed)).encode()
    )
    return digest.hexdigest()


def reference_copies() -> dict:
    """The system each hand copy of the reference workload built, at seed 0."""
    from repro.bench import MB, reference_data, reference_system
    from repro.hw.platforms import AGX_ORIN
    from repro.perf.bench import _tiny_system

    data = reference_data()
    trained = reference_system(data, 0.125, 16 * MB)
    trained.run(epochs=5)
    return {
        "pipeline": reference_system(data, 0.25, 3 * MB, platform=AGX_ORIN),
        "pipeline_quick": reference_system(
            reference_data(quick=True), 0.25, 3 * MB, platform=AGX_ORIN
        ),
        "runtime": reference_system(data, 0.25, 3 * MB),
        "fleet": trained,
        "kernels": _tiny_system(0),
        "serving": trained,
    }


def test_reference_workload_matches_the_recorded_hand_copies():
    recorded = json.loads(DIGESTS.read_text())
    measured = {name: system_digest(s) for name, s in reference_copies().items()}
    assert measured == recorded
    # One workload, five copies: the trained serving system is the one the
    # fleet suite trains.
    assert recorded["serving"] == recorded["fleet"]


if __name__ == "__main__":
    DIGESTS.write_text(
        json.dumps(
            {name: system_digest(s) for name, s in reference_copies().items()},
            indent=2, sort_keys=True,
        )
        + "\n"
    )
    print(f"wrote {DIGESTS}")
