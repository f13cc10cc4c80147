"""One repetition of one workload, in a fresh interpreter.

``run.py`` starts this file once per repetition -- that is what
``repro run`` costs a user, and it makes ``setup_s`` and ``peak_rss_mb``
per-repetition samples.  Three modes:

``plain``   tracing off; the only source of end-to-end numbers.
``traced``  the wrappers of ``span_table.SPAN_TABLE`` installed for the
            whole repetition; yields the per-layer numbers and the table
            guard's verdict.
``memory``  ``tracemalloc`` on, peak read and reset at each
            ``on_block_trained``; timings of this child are discarded.

The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from span_table import LAYER_OF_SPAN, SPAN_TABLE, layer_values  # noqa: E402
from tracing import Installer, SpanRecorder, check_table  # noqa: E402
from workloads import MIB, WORKLOADS, check, digest  # noqa: E402

#: Thread-count variables the BLAS libraries read.  The harness sets
#: none of them -- thread policy is the program's job -- and records what
#: it inherited so incomparable runs can be told apart.
THREAD_ENV = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cpu_seconds() -> tuple[float, float]:
    """(this process, its waited-for descendants) user+system seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


class Phase:
    """The measured phase: host wall-clock and CPU between start and stop."""

    def __init__(self, spawned_at: float):
        self.spawned_at = spawned_at
        self.setup_s = self.wall_s = self.cpu_s = self.children_cpu_s = 0.0
        self.window = (0.0, 0.0)

    def start(self) -> None:
        self.setup_s = time.monotonic() - self.spawned_at
        self._cpu0 = _cpu_seconds()
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        t1 = time.perf_counter()
        own, kids = _cpu_seconds()
        self.wall_s = t1 - self._t0
        self.window = (self._t0, t1)
        self.children_cpu_s = kids - self._cpu0[1]
        self.cpu_s = (own - self._cpu0[0]) + self.children_cpu_s


def _block_memory_callback():
    """Host bytes allocated while each block trains (memory pass)."""
    import tracemalloc

    from repro.api import Callback

    class BlockMemory(Callback):
        def __init__(self) -> None:
            self.base = 0
            self.block_peaks: list[int] = []

        def on_job_start(self, context) -> None:
            self.base, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()

        def on_block_trained(self, block_report) -> None:
            _, peak = tracemalloc.get_traced_memory()
            self.block_peaks.append(peak)
            tracemalloc.reset_peak()

    return BlockMemory()


def _environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "nproc": os.cpu_count(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "traced", "memory"), default="plain")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() of the parent when it started this child")
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--trace-out", help="write the spans as Chrome trace JSON here")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    spec = workload.make_spec(args.seed, args.quick)
    phase = Phase(args.spawned_at)
    # The program's own temp files (activation cache, sweep store) land in
    # a directory of this child's, removed when it ends.
    scratch = tempfile.mkdtemp(prefix=f"e2e-{args.workload}-")
    tempfile.tempdir = scratch

    recorder = SpanRecorder(rep=args.rep) if args.mode == "traced" else None
    callbacks = []
    try:
        if args.mode == "memory":
            import tracemalloc

            tracemalloc.start()
            memory = _block_memory_callback()
            callbacks.append(memory)
        if recorder is None:
            outputs, work_units, traced, host = workload.run(spec, phase, callbacks)
        else:
            with Installer(recorder) as installer:
                installer.install(SPAN_TABLE)
                outputs, work_units, traced, host = workload.run(spec, phase, callbacks)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(scratch, ignore_errors=True)

    checks = workload.check(outputs, spec, args.quick)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {
        "workload": args.workload,
        "mode": args.mode,
        "rep": args.rep,
        "seed": args.seed,
        "setup_s": phase.setup_s,
        "wall_s": phase.wall_s,
        "work_units": work_units,
        "cpu_s": phase.cpu_s,
        "children_cpu_s": phase.children_cpu_s,
        # ru_maxrss is KiB on Linux: this process plus its largest
        # waited-for descendant (the forked stage on train_mp_2proc).
        "peak_rss_mb": (own + kids) / 1024,
        "host": host,
        "outputs": outputs,
        "digest": digest(outputs),
        "spec_hash": digest(spec),
        "environment": _environment(),
    }

    if recorder is not None:
        for problem in check_table(SPAN_TABLE, recorder.counters, args.workload):
            checks.append(check("span_table", False, problem))
        summary = recorder.summary()
        cells = recorder.durations_under("api.run", "sweep.run")
        traced = dict(traced)
        traced["sweep_cells"] = len(cells)
        traced["sweep_cell_s_p50"] = sorted(cells)[len(cells) // 2] if cells else 0.0
        traced["evalsim_sim_steps"] = len(recorder.durations_under("hw.train_step", "evalsim."))
        sim_run = summary.get("fleet.sim_run", {}).get("total_s", 0.0)
        traced["requests_per_host_s"] = traced.get("requests", 0) / sim_run if sim_run else 0.0
        result["layers"] = layer_values(summary, recorder.counters, traced)
        result["spans"] = {
            "n": len(recorder),
            "by_name": summary,
            "coverage": recorder.covered_s(phase.window) / phase.wall_s,
        }
        if args.trace_out:
            recorder.write_chrome_trace(args.trace_out, LAYER_OF_SPAN)

    if args.mode == "memory":
        host_peak = max(memory.block_peaks, default=memory.base) - memory.base
        sim_peak = outputs["sim_peak_mb"]
        result["memory"] = {
            "host_block_peak_mb": host_peak / MIB,
            "sim_peak_mb": sim_peak,
            "host_over_sim_peak": host_peak / MIB / sim_peak if sim_peak else 0.0,
            "block_peaks_mb": [(p - memory.base) / MIB for p in memory.block_peaks],
        }

    result["checks"] = checks
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
