#!/usr/bin/env python3
"""End-to-end host-clock benchmark: four workloads, one command.

    python3 benchmarks/e2e/run.py                       # all four, 25 s each
    python3 benchmarks/e2e/run.py --workload serve_fleet_churn --seed 1
    python3 benchmarks/e2e/run.py --workload train_seq_cache --seed 7 \\
        --seconds 25 --trace 0                          # what the driver runs

Each repetition is one fresh child interpreter (``child.py``), run
serially.  End-to-end numbers come only from untraced repetitions; with
``--trace 1`` (or no ``--trace``) one more repetition runs with the
wrappers of ``span_table.py`` installed and gives the per-layer table,
and ``train_seq_cache`` gets a separate ``tracemalloc`` child.

Untraced repetitions keep starting until ``--seconds`` (default
``RUN_SECONDS``, the ``run_seconds`` of ``BENCHMARK.json``) have passed
since the workload began; ``--quick`` runs one.  The traced repetition
and the memory pass come after the first untraced one, inside the same
time.
The last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; the exit code is non-zero when any
repetition crashed, timed out or failed an output check.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

from schema import E2E_METRICS, validate_results  # noqa: E402
from span_table import LAYER_METRICS, SEQ  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORK_DIR = os.path.join(ROOT, ".bench_e2e")
#: ``run_seconds`` of ``BENCHMARK.json``: what the driver passes as
#: ``--seconds``, and what a run without the flag uses.
RUN_SECONDS = 25.0
CHILD_TIMEOUT_S = 60.0


# --------------------------------------------------------------------- #
# children                                                              #
# --------------------------------------------------------------------- #
def run_child(workload: str, seed: int, mode: str, rep: int, quick: bool,
              scratch: str, trace_out: str | None = None) -> dict:
    """Run one repetition; a crash or timeout comes back as a failed
    record rather than an exception."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = scratch
    # A user's second ``repro run`` imports cached bytecode; a sandbox that
    # forbids writing it would put 139 compilations into every ``setup_s``.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    command = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode, "--rep", str(rep),
        "--spawned-at", repr(time.monotonic()),
    ]
    if quick:
        command.append("--quick")
    if trace_out:
        command += ["--trace-out", trace_out]
    # Own session, so a timeout can take the forked stage processes too.
    proc = subprocess.Popen(command, cwd=ROOT, env=env, text=True, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        return _failed(workload, mode, rep, f"timed out after {CHILD_TIMEOUT_S:.0f} s", err)
    if proc.returncode != 0:
        return _failed(workload, mode, rep, f"exit code {proc.returncode}", err)
    try:
        return json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return _failed(workload, mode, rep, "no JSON result on stdout", err)


def _failed(workload: str, mode: str, rep: int, why: str, stderr: str) -> dict:
    tail = "\n".join(stderr.strip().splitlines()[-12:])
    print(f"[{workload} {mode} rep{rep}] FAILED: {why}\n{tail}", file=sys.stderr)
    return {"workload": workload, "mode": mode, "rep": rep, "crashed": why,
            "checks": [{"name": "child_completed", "ok": False, "detail": why}]}


def rep_ok(rep: dict) -> bool:
    return "crashed" not in rep and all(c["ok"] for c in rep["checks"])


# --------------------------------------------------------------------- #
# one workload                                                          #
# --------------------------------------------------------------------- #
def spread(values: list[float]) -> dict:
    """Median with min / quartiles / max and the sample count."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": statistics.median(values), "min": min(values), "q1": q1, "q3": q3,
            "max": max(values), "n": len(values)}


def measure_workload(name: str, seed: int, *, seconds: float, trace: int | None, quick: bool,
                     scratch: str, out_dir: str | None) -> dict:
    """``trace`` is the ``--trace`` flag; anything but 0 adds the traced
    repetition (and the memory pass) to the untraced ones."""
    workload = WORKLOADS[name]
    began = time.monotonic()
    children: list[dict] = []

    def start(mode: str, trace_out: str | None = None) -> dict:
        children.append(run_child(name, seed, mode, len(children), quick, scratch, trace_out))
        return children[-1]

    plain_reps: list[dict] = []
    traced = memory = None
    while True:
        plain_reps.append(start("plain"))
        if not rep_ok(plain_reps[-1]):
            break  # the run has failed; more repetitions only cost time
        if trace != 0 and traced is None:
            # After the first untraced repetition rather than the last: a
            # run's first child is its slowest (cold pages) and its last
            # the fastest, and the traced one is compared with their median.
            traced = start("traced", os.path.join(out_dir, f"trace-{name}.json")
                           if out_dir else None)
            if name == SEQ:
                memory = start("memory")
        if quick or time.monotonic() - began >= seconds:
            break

    good = [r for r in plain_reps if rep_ok(r)]
    checks = [dict(c, rep=r["rep"], mode=r["mode"]) for r in children for c in r["checks"]]
    digests = {r["digest"] for r in children if "digest" in r}
    if len(digests) > 1:
        # Same seed, same code: every repetition -- traced and memory
        # included -- must produce the same weights, simulated times,
        # simulated p99 and journal bytes.
        checks.append({"name": "outputs_identical_across_reps", "ok": False,
                       "detail": f"digests {sorted(digests)}", "rep": -1, "mode": "all"})
    failed = min(len(children), sum(not rep_ok(r) for r in children) + (len(digests) > 1))

    result = {
        "why": workload.why,
        "unit": workload.unit,
        "seed": seed,
        "attempted": len(children),
        "failed": failed,
        "fail_ratio": failed / len(children),
        "checks": checks,
        "wall_s_of_run": time.monotonic() - began,
    }
    reference = next((r for r in children if "digest" in r), None)
    if reference is not None:
        result.update(
            work_units=reference["work_units"], outputs=reference["outputs"],
            digest=reference["digest"], spec_hash=reference["spec_hash"],
            environment=reference["environment"],
        )
    if good:
        result["end_to_end"] = {
            "setup_s": spread([r["setup_s"] for r in good]),
            "wall_s": spread([r["wall_s"] for r in good]),
            "work_per_s": spread([r["work_units"] / r["wall_s"] for r in good]),
            "peak_rss_mb": spread([r["peak_rss_mb"] for r in good]),
        }
    if traced is not None and "layers" in traced and good:
        result["per_layer"] = per_layer(traced, memory, good)
        result["spans"] = traced["spans"]
        if memory is not None and "memory" in memory:
            result["memory_pass"] = memory["memory"]
    return result


def per_layer(traced: dict, memory: dict | None, good: list[dict]) -> dict[str, float]:
    """Span-derived values from the traced child, plus the ones only the
    parent can know: rusage of the *untraced* repetitions, the memory
    pass, and the tracing overhead itself."""
    median = statistics.median
    from_parent = {
        "cpu_s": median(r["cpu_s"] for r in good),
        "cpu_per_wall": median(r["cpu_s"] / r["wall_s"] for r in good),
        "children_cpu_s": median(r["children_cpu_s"] for r in good),
        "mp_wall_s": median(r["host"].get("mp_wall_s", 0.0) for r in good),
        "mp_processes": good[0]["outputs"].get("processes") or 0,
        "trace_overhead_ratio": traced["wall_s"] / median(r["wall_s"] for r in good),
        **{k: 0.0 for k in ("host_block_peak_mb", "sim_peak_mb", "host_over_sim_peak")},
    }
    if memory is not None and "memory" in memory:
        from_parent.update({k: v for k, v in memory["memory"].items() if k in from_parent})
    values = dict(traced["layers"])
    for metric in LAYER_METRICS:
        if metric.source[0] == "parent":
            values[metric.name] = from_parent[metric.source[1]]
    return {m.name: values[m.name] for m in LAYER_METRICS}


# --------------------------------------------------------------------- #
# report                                                                #
# --------------------------------------------------------------------- #
def provenance(args, results: dict) -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                               capture_output=True, check=False)
        commit = probe.stdout.strip() or None
    environment = next((r["environment"] for r in results.values() if "environment" in r), {})
    return {
        "git_commit": commit,
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "spec_hashes": {n: r.get("spec_hash") for n, r in results.items()},
        **environment,
    }


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e6:
        return f"{value:.4g}"
    return f"{value:.0f}" if abs(value) >= 1000 else f"{value:.4g}"


def print_tables(results: dict) -> None:
    print(f"{'workload':<20}{'metric':<13}{'unit':<11}{'median':>10}{'min':>10}"
          f"{'q1':>10}{'q3':>10}{'max':>10}{'n':>4}")
    for name, result in results.items():
        for metric, unit, _ in E2E_METRICS:
            s = result.get("end_to_end", {}).get(metric)
            if s is None:
                continue
            shown = WORKLOADS[name].unit if metric == "work_per_s" else unit
            print(f"{name:<20}{metric:<13}{shown:<11}{_fmt(s['median']):>10}{_fmt(s['min']):>10}"
                  f"{_fmt(s['q1']):>10}{_fmt(s['q3']):>10}{_fmt(s['max']):>10}{s['n']:>4}")
        print(f"{name:<20}{'fail_ratio':<13}{'ratio':<11}{_fmt(result['fail_ratio']):>10}"
              f"{'':>40}{result['attempted']:>4}")
    traced = {n: r["per_layer"] for n, r in results.items() if "per_layer" in r}
    if traced:
        print()
        print(f"{'per-layer metric':<32}{'unit':<7}" + "".join(f"{n:>20}" for n in traced))
        for metric in LAYER_METRICS:
            print(f"{metric.name:<32}{metric.unit:<7}"
                  + "".join(f"{_fmt(v[metric.name]):>20}" for v in traced.values()))
        for name, result in results.items():
            if "spans" in result:
                print(f"{name}: {result['spans']['n']} spans, top-level spans cover "
                      f"{result['spans']['coverage']:.1%} of the traced measured phase")
    for name, result in results.items():
        for check in result["checks"]:
            if not check["ok"]:
                print(f"FAILED {name} [{check['mode']} rep{check['rep']}] "
                      f"{check['name']}: {check['detail']}")


def contract_line(results: dict, trace_flag: int | None) -> dict:
    """The driver's last line.  One workload: its end-to-end metrics
    (``--trace 0`` or none) or its per-layer metrics (``--trace 1``);
    several: the end-to-end metrics, prefixed with the workload."""
    metrics: dict[str, dict] = {}
    for name, result in results.items():
        prefix = f"{name}." if len(results) > 1 else ""
        if trace_flag == 1:
            for metric in LAYER_METRICS:
                if "per_layer" in result:
                    metrics[prefix + metric.name] = {
                        "value": result["per_layer"][metric.name], "unit": metric.unit}
        else:
            for metric, unit, _ in E2E_METRICS:
                if "end_to_end" in result:
                    metrics[prefix + metric] = {
                        "value": result["end_to_end"][metric]["median"], "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    expected = len(results) * (len(LAYER_METRICS) if trace_flag == 1 else len(E2E_METRICS))
    return {"correct": failed == 0 and len(metrics) == expected,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="run only this workload (repeatable; default: all four)")
    parser.add_argument("--seed", type=int, default=0,
                        help="reaches data, model, neuroflux.seed, request stream and churn")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="per workload, keep starting repetitions until this long after "
                             "it began (default %(default)s)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: untraced repetitions only; 1 or absent: also the traced "
                             "repetition (1 prints the per-layer metrics on the last line)")
    parser.add_argument("--quick", action="store_true",
                        help="1 repetition of shrunk sizes; output stamped comparable: false")
    parser.add_argument("--out", help="directory for results.json and the Chrome traces "
                                      "(default .bench_e2e/out when running all workloads)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: {ROOT}/src/repro is missing; run from a full checkout", file=sys.stderr)
        return 2
    names = args.workload or list(WORKLOADS)
    out_dir = args.out or (None if args.workload else os.path.join(WORK_DIR, "out"))

    os.makedirs(WORK_DIR, exist_ok=True)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORK_DIR)
    try:
        results = {
            name: measure_workload(
                name, args.seed, seconds=args.seconds, trace=args.trace, quick=args.quick,
                scratch=scratch, out_dir=out_dir,
            )
            for name in names
        }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    document = {
        "schema": 1,
        "comparable": not args.quick,
        "provenance": provenance(args, results),
        "workloads": results,
    }
    problems = validate_results(document)
    for problem in problems:
        print(f"FAILED schema: {problem}")
    print_tables(results)
    if out_dir:
        with open(os.path.join(out_dir, "results.json"), "w") as fh:
            json.dump(document, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {os.path.join(out_dir, 'results.json')}")
    line = contract_line(results, args.trace)
    line["correct"] = line["correct"] and not problems
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
