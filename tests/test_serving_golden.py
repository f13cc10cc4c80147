"""The ``serving`` backend reproduces the single-server loop it replaced.

``tests/data/serving_golden.json`` was recorded from the old
single-server event loop at the commit before it was deleted (18
configurations over pattern, load, batcher/queue knobs, routing mode and
platform, up to 29 163 of 29 773 requests rejected).  The ``serving``
backend -- a one-replica, one-device fleet -- must give the same counts,
exit counts and accuracy exactly, and the same latency percentiles up to
float summation order.
"""

import json
from pathlib import Path

import pytest

from repro.api import JobSpec, run

REPO = Path(__file__).resolve().parent.parent
CASES = json.loads((REPO / "tests/data/serving_golden.json").read_text())["cases"]


def _case_id(case) -> str:
    s = case["serving"]
    return (
        f"{case['platform']}-{s['pattern']}-{s['arrival_rate']:g}-{s['mode']}"
        f"-cap{s['batch_cap']}-q{s['queue_depth']}"
    )


def _case_spec(base: JobSpec, case) -> JobSpec:
    overrides = {f"serving.{k}": v for k, v in case["serving"].items()}
    return base.overlay({"platform": case["platform"], **overrides})


@pytest.fixture(scope="module")
def base_spec():
    return JobSpec.from_json_file(
        str(REPO / "examples/specs/quick.json"), backend="serving"
    )


def test_golden_covers_the_advertised_grid():
    assert len(CASES) == 18
    sections = [c["serving"] for c in CASES]
    assert {s["pattern"] for s in sections} == {"poisson", "bursty"}
    assert {s["mode"] for s in sections} == {"cascade", "shallow-only", "deepest-only"}
    assert min(s["batch_cap"] for s in sections) == 1
    assert max(c["expected"]["n_rejected"] for c in CASES) > 20_000


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_serving_backend_matches_single_server_golden(base_spec, case):
    """End to end through ``repro.api.run``, training included."""
    report = run(_case_spec(base_spec, case))
    expected = case["expected"]
    assert report.to_json_dict()["kind"] == "fleet"
    assert len(report.replicas) == 1
    # Attributes, not the JSON: to_json_dict() rounds floats to 1e-6.
    for key in ("n_completed", "n_rejected", "exit_counts", "accuracy"):
        assert getattr(report, key) == expected[key], key
    for q in (50, 95, 99):
        assert report.latency_percentile(q) == pytest.approx(
            expected[f"p{q}_latency_s"], rel=1e-9
        )
    assert report.mean_latency_s == pytest.approx(
        expected["mean_latency_s"], rel=1e-9
    )
    assert report.n_unaccounted == 0
    assert report.n_shed == report.n_failed_over == 0
