#!/usr/bin/env python3
"""The unified job API: one spec shape drives every workload.

Loads three small JobSpec files -- sequential training, pipelined
cluster training, and early-exit serving -- and executes each through
the single :func:`repro.api.run` entry point.  Every result is a
:class:`repro.api.Report`, so the reporting loop below does not care
which subsystem ran.

    python examples/jobspec_run.py

Equivalent from the shell::

    python -m repro.cli run examples/specs/sequential.json
    python -m repro.cli run examples/specs/pipelined.json
    python -m repro.cli run examples/specs/serving.json

Re-targeting one spec at another backend (sections the backend does not
consume are dropped, workload sections it needs are defaulted in)::

    python -m repro.cli run examples/specs/quick.json --backend federated

The old entry points (``NeuroFlux.run``, ``NeuroFlux.train_parallel``,
the ``serve``/``parallel`` subcommands) remain supported and drive this
same engine; new code should describe jobs as specs.
"""

from __future__ import annotations

from pathlib import Path

from repro.api import Callback, JobSpec, run

SPECS = Path(__file__).resolve().parent / "specs"


class Progress(Callback):
    """A tiny observer on the unified callback protocol."""

    def on_job_start(self, context) -> None:
        print(f"  [{context.backend}] job started")

    def on_epoch_end(self, epoch: int, time_s: float, metrics: dict) -> None:
        acc = metrics.get("accuracy")
        shown = f"acc={acc:.3f}" if isinstance(acc, float) else ""
        print(f"  [epoch {epoch}] t={time_s:.2f}s {shown}")


def main() -> None:
    for name in ("sequential", "pipelined", "serving"):
        spec = JobSpec.from_json_file(str(SPECS / f"{name}.json"))
        print(f"=== {name} (backend={spec.backend!r}) ===")
        report = run(spec, callbacks=Progress())
        print(report.summary())
        ledger = report.ledger_summary()
        print(
            f"  unified protocol: wall={report.wall_clock_s:.2f}s  "
            f"peak={report.peak_memory_bytes / 2**20:.1f} MiB  "
            f"ledger total={ledger['total']:.2f}s"
        )
        print()


if __name__ == "__main__":
    main()
