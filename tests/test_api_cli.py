"""The ``repro run`` subcommand."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parent.parent
QUICK = REPO / "examples/specs/quick.json"


class TestRunSubcommand:
    def test_run_quick_spec(self, capsys):
        assert main(["run", str(QUICK)]) == 0
        out = capsys.readouterr().out
        assert "NeuroFlux run" in out or "Parallel NeuroFlux run" in out
        assert "exit layer" in out

    def test_run_backend_override_and_report_json(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        assert (
            main(
                [
                    "run",
                    str(QUICK),
                    "--backend",
                    "federated-async",
                    "--report-json",
                    str(report_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "asynchronous" in out
        report = json.loads(report_path.read_text())
        assert {"schema", "kind", "wall_clock_s", "peak_memory_bytes", "ledger"} <= set(
            report
        )
        assert report["kind"] == "federated-async"
        assert report["ledger"]["total"] >= 0

    def test_run_serving_backend_report(self, capsys, tmp_path):
        report_path = tmp_path / "serving.json"
        assert (
            main(
                [
                    "run",
                    str(QUICK),
                    "--backend",
                    "serving",
                    "--report-json",
                    str(report_path),
                ]
            )
            == 0
        )
        assert "p95 latency" in capsys.readouterr().out
        report = json.loads(report_path.read_text())
        # One server is a fleet of one replica on the spec's platform.
        assert report["kind"] == "fleet"
        assert report["peak_memory_bytes"] == 0
        assert [r["platforms"] for r in report["replicas"]] == [["Jetson AGX Orin"]]
        assert report["accounting"]["unaccounted"] == 0

    def test_malformed_json_exits_2_cleanly(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text('{"backend": "sequential",')
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "malformed JSON" in err
        assert "Traceback" not in err

    def test_missing_spec_file_exits_2(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "nope.json")]) == 2
        assert "cannot read spec file" in capsys.readouterr().err

    def test_invalid_spec_names_section(self, capsys, tmp_path):
        bad = tmp_path / "conflict.json"
        bad.write_text(
            json.dumps(
                {
                    "backend": "pipelined",
                    "cluster": {"devices": ["nano"]},
                    "federated": {"n_clients": 2},
                }
            )
        )
        assert main(["run", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "[federated]" in err
        assert "Traceback" not in err

    def test_malformed_json_subprocess_no_traceback(self, tmp_path):
        """The full process contract: exit code 2, no traceback on stderr."""
        bad = tmp_path / "broken.json"
        bad.write_text("{nope")
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", str(bad)],
            capture_output=True,
            text=True,
            timeout=120,
            env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 2, proc.stderr[-500:]
        assert "malformed JSON" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_run_named_in_the_usage_line(self, capsys):
        assert main([]) == 2
        assert "run" in capsys.readouterr().err


class TestRunFailsFast:
    """Bad inputs exit 2 with a one-line message before any training --
    what the removed ``serve`` / ``parallel`` subcommands promised, now
    promised once, at the one door."""

    def _spec_file(self, tmp_path, overrides):
        from repro.api import overlay_spec_dict

        payload = overlay_spec_dict(json.loads(QUICK.read_text()), overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        return str(path)

    @pytest.mark.parametrize(
        "backend, overrides, needle",
        [
            ("serving", {"platform": "tpu-v9"}, "unknown platform"),
            ("serving", {"serving.pattern": "steady"}, "unknown arrival pattern"),
            ("serving", {"serving.threshold": 1.5}, "[serving]"),
            ("serving", {"serving.batch_cap": 0}, "[serving]"),
            ("pipelined", {"cluster.devices": ["tpu-v9"]}, "unknown platform"),
            ("pipelined", {"budgets.epochs": 0}, "[budgets]"),
            ("pipelined", {"budgets.memory_mb": 0.01}, "cannot fit"),
            ("pipelined", {"runtime.events_file": "/nonexistent/events.json"},
             "event schedule"),
        ],
    )
    def test_bad_inputs_exit_2(self, capsys, tmp_path, backend, overrides, needle):
        spec = self._spec_file(tmp_path, overrides)
        assert main(["run", spec, "--backend", backend]) == 2
        err = capsys.readouterr().err
        assert needle in err
        assert "Traceback" not in err
