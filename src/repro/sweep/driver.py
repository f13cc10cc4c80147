"""Process-pool sweep driver with crash-resume.

:func:`run_sweep` expands a :class:`~repro.sweep.spec.SweepSpec`, opens
(or creates) its :class:`~repro.sweep.store.ResultsStore`, skips every
run that already has a journal record, and executes the rest through the
unified :func:`repro.api.run` entry point -- inline for ``workers=1``,
in a forked process pool otherwise.

Determinism contract: the journal is flushed **in grid-index order**
regardless of which worker finishes first (out-of-order completions are
buffered until their predecessors are on disk).  Combined with
timestamp-free records and per-run seeds derived from the grid index,
this makes the store produced by ``--workers 8`` byte-identical to the
one produced by ``--workers 1`` -- and makes the journaled set at any
kill point a strict prefix, so a resumed sweep converges on the same
bytes as an uninterrupted one.

Pool workers are the host's parallelism: each runs its GEMMs on one
BLAS thread, so ``workers`` numpy cells use ``workers`` cores, never a
full OpenBLAS pool each.  The pool forks under
:func:`repro.backend.blas.one_thread`.

A run that raises is journaled as ``status="failed"`` with the error
string; the sweep keeps going (an OOM cell in a budget sweep is data,
not a reason to abandon the grid).
"""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from repro.backend.blas import one_thread
from repro.sweep.spec import SweepRun, SweepSpec
from repro.sweep.store import ResultsStore, make_record


@dataclass(frozen=True)
class SweepSummary:
    """What one :func:`run_sweep` invocation did."""

    name: str
    store_path: str
    total: int
    executed: int
    skipped: int
    failed: int

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "store_path": self.store_path,
            "total": self.total,
            "executed": self.executed,
            "skipped": self.skipped,
            "failed": self.failed,
        }


def _execute_run(payload: dict) -> dict:
    """Worker entry: run one expanded spec, return its journal record.

    Module-level so it pickles for the process pool.  Every exception
    becomes a ``failed`` record -- a worker never takes the pool down.
    """
    run = SweepRun(
        index=payload["index"],
        run_id=payload["run_id"],
        overrides=payload["overrides"],
        spec_dict=payload["spec"],
    )
    try:
        from repro.api import JobSpec
        from repro.api.registry import run as api_run

        spec = JobSpec.from_dict(run.spec_dict, backend=run.spec_dict.get("backend"))
        report = api_run(spec).to_json_dict()
        # Host-clock measurements vary with the host and the worker
        # count; the journal must not.
        report.pop("extras", None)
        return make_record(run, "done", report=report)
    except Exception as exc:  # noqa: BLE001 -- journaled, not swallowed
        return make_record(
            run, "failed", error=f"{type(exc).__name__}: {exc}"
        )


def _silent(_message: str) -> None:
    pass


def run_sweep(
    sweep: SweepSpec,
    store_path: str,
    workers: int = 1,
    fresh: bool = False,
    echo=_silent,
) -> SweepSummary:
    """Execute every not-yet-journaled run of ``sweep`` into ``store_path``."""
    if workers < 1:
        workers = 1
    if fresh:
        ResultsStore.wipe(store_path)
    runs = sweep.expand()
    store = ResultsStore.create(store_path, sweep, runs=runs)
    done_ids = store.completed_ids()
    pending = [run for run in runs if run.run_id not in done_ids]
    skipped = len(runs) - len(pending)
    if skipped:
        echo(f"resuming: {skipped}/{len(runs)} runs already in {store_path}")

    failed = 0
    if pending:
        if workers == 1:
            for run in pending:
                echo(f"run {run.index + 1}/{len(runs)}: {run.run_id}")
                record = _execute_run(run.to_json_dict())
                store.append(record)
                failed += record["status"] == "failed"
        else:
            failed = _run_pool(store, pending, len(runs), workers, echo)

    # Failures already journaled before this invocation still count
    # against the exit status -- a resumed sweep shouldn't go green just
    # because the failing cells ran last time.
    prior_failed = sum(
        1
        for record in store.records()
        if record["status"] == "failed" and record["run_id"] in done_ids
    )
    return SweepSummary(
        name=sweep.name,
        store_path=store_path,
        total=len(runs),
        executed=len(pending),
        skipped=skipped,
        failed=failed + prior_failed,
    )


def _run_pool(store, pending, total, workers, echo) -> int:
    """Fan pending runs across a process pool, journaling in index order."""
    try:
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover -- no fork on this platform
        context = multiprocessing.get_context()
    failed = 0
    workers = min(workers, len(pending))
    # The executor forks its workers as runs are submitted, so inside
    # the bracket.
    with one_thread(), ProcessPoolExecutor(
        max_workers=workers, mp_context=context
    ) as pool:
        futures = [pool.submit(_execute_run, run.to_json_dict()) for run in pending]
        # Await in submission (= grid index) order: a later run that
        # finishes early waits in its future until every earlier run is
        # journaled, so the journal is always an index-ordered prefix.
        for run, future in zip(pending, futures):
            record = future.result()
            store.append(record)
            failed += record["status"] == "failed"
            echo(f"run {run.index + 1}/{total}: {run.run_id} [{record['status']}]")
    return failed
