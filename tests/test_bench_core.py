"""The one bench door: ``repro.cli bench <suite>`` over :mod:`repro.bench`.

The kernel suite's own flags and gates are covered where they always were
(``tests/test_cli.py::TestBench``, ``tests/test_backend_multiproc.py::
TestGateMp``); the quick kernels and obs runs, the full simulated runs and
the reference-workload digests are in ``tests/test_bench_parity.py``.
"""

from __future__ import annotations

import importlib
import json

import pytest

from repro.bench import SUITES
from repro.cli import main
from repro.errors import ConfigError, SpecError

CANNED = {"config": {"quick": True}, "env": {}, "claims": {"holds": True}}


def _stub_suite(monkeypatch, name: str, run_suite) -> None:
    """Replace a suite's body; its table becomes the report's JSON."""
    module = importlib.import_module(SUITES[name])
    monkeypatch.setattr(module, "run_suite", run_suite)
    monkeypatch.setattr(module, "format_report", json.dumps)


@pytest.mark.parametrize("argv", [["bench"], ["bench", "serving"], ["bench", "--quick"]])
def test_no_suite_or_an_unknown_one_lists_the_five(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "{kernels,pipeline,runtime,fleet,obs}" in captured.err


@pytest.mark.parametrize("suite", ["pipeline", "runtime", "fleet"])
def test_quick_run_of_a_simulated_suite(suite, tmp_path, monkeypatch, capsys):
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    path = tmp_path / "report.json"
    assert main(["bench", suite, "--quick", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"wrote {path}" in out
    report = json.loads(path.read_text())
    assert report["config"]["quick"] is True
    assert set(report["env"]) == {"python", "numpy", "machine"}
    assert report["claims"] and all(report["claims"].values())
    for claim in report["claims"]:
        assert f"claim {claim}: ok" in out
    assert list(cwd.iterdir()) == []


def test_fleet_reruns_identically_off_the_fixed_seed(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        assert main(["bench", "fleet", "--quick", "--seed", "1", "--json", str(path)]) == 0
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert json.loads(paths[0].read_text())["config"]["seed"] == 1


class TestExitCodesAndPaths:
    """The rules every suite gets from the core, on a stubbed suite body."""

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_default_path_only_when_not_quick(self, suite, tmp_path, monkeypatch, capsys):
        _stub_suite(monkeypatch, suite, lambda **kwargs: CANNED)
        monkeypatch.chdir(tmp_path)
        assert main(["bench", suite, "--quick"]) == 0
        assert list(tmp_path.iterdir()) == []
        assert main(["bench", suite]) == 0
        assert [p.name for p in tmp_path.iterdir()] == [f"BENCH_{suite}.json"]
        assert json.loads((tmp_path / f"BENCH_{suite}.json").read_text()) == CANNED
        capsys.readouterr()

    @pytest.mark.parametrize("suite", sorted(SUITES))
    def test_false_claim_exits_1_after_writing(self, suite, tmp_path, monkeypatch, capsys):
        report = {**CANNED, "claims": {"holds": True, "broken": False}}
        _stub_suite(monkeypatch, suite, lambda **kwargs: report)
        path = tmp_path / "report.json"
        assert main(["bench", suite, "--quick", "--json", str(path)]) == 1
        assert "broken" in capsys.readouterr().err
        assert json.loads(path.read_text()) == report

    @pytest.mark.parametrize(
        "error", [ConfigError("bad knob"), SpecError("serving", "bad rate")]
    )
    def test_config_and_spec_errors_exit_2(self, error, monkeypatch, capsys):
        def run_suite(**kwargs):
            raise error

        _stub_suite(monkeypatch, "obs", run_suite)
        assert main(["bench", "obs", "--quick"]) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == f"bench obs: {error}"
        assert captured.out == ""

    def test_unwritable_path_is_one_line_and_exit_2(self, tmp_path, monkeypatch, capsys):
        _stub_suite(monkeypatch, "runtime", lambda **kwargs: CANNED)
        path = tmp_path / "missing" / "report.json"
        assert main(["bench", "runtime", "--quick", "--json", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out.strip() == json.dumps(CANNED)  # the table came first
        assert captured.err.startswith(f"bench runtime: cannot write {path}: ")
        assert len(captured.err.strip().splitlines()) == 1

    def test_seed_is_a_flag_only_where_the_suite_takes_one(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "obs", "--quick", "--seed", "1"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
