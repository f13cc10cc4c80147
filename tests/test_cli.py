"""Tests for the CLI's front door: run | bench | analyze | sweep."""

import pytest

from repro.cli import USAGE, main


class TestRemovedSubcommands:
    @pytest.mark.parametrize(
        "argv",
        [["serve"], ["parallel"], ["fig04"], ["list"], ["all"], ["fig99"],
         ["fig11", "--models", "vgg16"], []],
    )
    def test_anything_else_prints_the_usage_line(self, capsys, argv):
        """``repro run <spec.json>`` and ``repro sweep`` are the only ways
        in: the old spec-builder subcommands and the figure name-door
        (``fig04``, ``list``, ``all``) are gone, not aliased."""
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.strip() == USAGE
        assert captured.out == ""

    def test_cli_imports_no_figure_or_trainer_code(self):
        """Importing the CLI costs nothing a subcommand does not ask for."""
        import ast
        import inspect

        import repro.cli

        tree = ast.parse(inspect.getsource(repro.cli))
        top_level = {
            alias.name if isinstance(node, ast.Import) else node.module
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        assert top_level <= {"__future__", "argparse", "sys", "typing"}


class TestBench:
    def test_bench_quick_runs_and_writes_json(self, capsys, tmp_path):
        """The CI smoke command: quick suite, report table + JSON."""
        import json

        path = tmp_path / "bench.json"
        assert main(["bench", "kernels", "--quick", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        for needle in ("bp_step", "ll_step", "im2col", "speedup"):
            assert needle in out
        report = json.loads(path.read_text())
        assert report["schema"] == 1
        assert report["config"]["quick"] is True
        assert {"seed_ms", "fast_ms", "speedup"} <= set(
            report["macro"]["bp_step"]
        )

    def test_bench_quick_skips_default_json(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "kernels", "--quick", "--suite", "micro"]) == 0
        assert not (tmp_path / "BENCH_kernels.json").exists()

    def test_bench_seed_is_plumbed(self, capsys, tmp_path):
        """--seed reaches the synthetic data/model builders and the report."""
        import json

        path = tmp_path / "bench.json"
        assert (
            main(
                ["bench", "kernels", "--quick", "--suite", "macro", "--seed", "5",
                 "--json", str(path)]
            )
            == 0
        )
        capsys.readouterr()
        report = json.loads(path.read_text())
        assert report["config"]["seed"] == 5

    def test_bench_bad_inputs_fail_fast(self, capsys):
        """Invalid suite/model/batch must error out before any timing."""
        assert main(["bench", "kernels", "--suite", "nano"]) == 2
        assert "unknown suite" in capsys.readouterr().err
        assert main(["bench", "kernels", "--model", "alexnet"]) == 2
        assert "unknown model" in capsys.readouterr().err
        assert main(["bench", "kernels", "--quick", "--batch", "0"]) == 2
        assert "batch" in capsys.readouterr().err
        assert main(["bench", "kernels", "--quick", "--reps", "0"]) == 2
        assert "reps" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv", [["--array-backend", "numpy"], ["--threads", "2"], ["--gate-threaded"]]
    )
    def test_removed_engine_flags_are_unknown(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "kernels", "--quick", *argv])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv)}" in capsys.readouterr().err

    def test_gemm_row_is_one_blas_thread_vs_the_count_in_force(self):
        from repro.backend.blas import threads_in_force
        from repro.perf.bench import bench_gemm_im2col

        row = bench_gemm_im2col(1, 1)
        assert row["threads"] == threads_in_force()
        assert row["shape"] == [4096, 288, 64]
        assert row["seed_ms"] > 0 and row["fast_ms"] > 0

    def test_kernels_table_notes_only_the_backend_claim(self):
        from repro.perf.bench import format_report

        row = {"seed_ms": 3.0, "fast_ms": 2.0, "speedup": 1.5}
        report = {
            "config": {"model": "vgg11", "batch": 8, "reps": 2, "quick": True},
            "micro": {"col2im": {**row, "kernel": 3}},
            "backend": {
                "mp_block_parallel": {**row, "cores": 2, "claim_met": None},
                "idle": {"skipped": "one core"},
            },
        }
        lines = format_report(report).splitlines()
        assert lines[0] == "kernel benchmarks: model=vgg11 batch=8 reps=2 (quick)"
        assert [ln for ln in lines if ln.startswith("col2im ")] == [
            f"{'col2im':<22} {3.0:>10.3f} {2.0:>10.3f} {1.5:>7.2f}x"
        ]
        assert lines[-2].endswith("1.50x  cores=2 claim(>=1.5x)=n/a")
        assert lines[-1] == f"{'idle':<22} skipped: one core"


class TestSweep:
    BASE = {
        "backend": "sequential",
        "model": {"name": "vgg11", "num_classes": 4, "input_hw": [16, 16],
                  "width_multiplier": 0.125},
        "data": {"dataset": "cifar10", "num_classes": 4,
                 "image_hw": [16, 16], "scale": 0.002},
        "budgets": {"memory_mb": 1, "epochs": 1},
    }

    def _sweep_file(self, tmp_path, **axes):
        import json

        axes = axes or {"grid": {"budgets.memory_mb": [2.0, 4.0]}}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps({"name": "cli", "base": self.BASE, **axes}))
        return str(path)

    def test_sweep_run_results_and_summary(self, capsys, tmp_path):
        import json

        sweep_file = self._sweep_file(tmp_path)
        store = str(tmp_path / "cli.sweep")
        summary = str(tmp_path / "summary.json")
        assert main(["sweep", "run", sweep_file, "--store", store,
                     "--workers", "2", "--summary-json", summary]) == 0
        out = capsys.readouterr().out
        assert "2 executed" in out and "0 failed" in out

        assert main(["sweep", "results", store,
                     "--select", "run.index", "report.wall_clock_s",
                     "--where", "run.status==done"]) == 0
        out = capsys.readouterr().out
        assert "run.index" in out and "report.wall_clock_s" in out

        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["kind"] == "sweep"
        assert doc["sweep"]["runs_done"] == 2

        # Resume is a no-op with exit 0.
        assert main(["sweep", "run", sweep_file, "--store", store]) == 0
        assert "0 executed, 2 resumed" in capsys.readouterr().out

    def test_sweep_run_failed_cells_exit_1(self, capsys, tmp_path):
        sweep_file = self._sweep_file(
            tmp_path, grid={"budgets.memory_mb": [0.05, 2.0]}
        )
        store = str(tmp_path / "oom.sweep")
        assert main(["sweep", "run", sweep_file, "--store", store,
                     "--quiet"]) == 1
        assert "1 failed" in capsys.readouterr().out

    def test_sweep_expand(self, capsys, tmp_path):
        sweep_file = self._sweep_file(tmp_path)
        assert main(["sweep", "expand", sweep_file]) == 0
        out = capsys.readouterr().out
        assert "0000-" in out and "budgets.memory_mb" in out

    def test_sweep_bad_inputs_fail_fast(self, capsys, tmp_path):
        import json

        assert main(["sweep", "nope"]) == 2
        assert "unknown subcommand" in capsys.readouterr().err
        assert main(["sweep"]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"name": "x", "base": self.BASE,
                                   "grid": {"budgets.epochs": []}}))
        assert main(["sweep", "run", str(bad)]) == 2
        assert "non-empty list" in capsys.readouterr().err
        assert main(["sweep", "results", str(tmp_path / "missing")]) == 2
        assert "not a sweep results store" in capsys.readouterr().err
