"""Command-line interface: four subcommands, one front door.

Usage::

    python -m repro.cli run job.json
    python -m repro.cli run job.json --backend pipelined --report-json out.json
    python -m repro.cli run job.json --backend multiprocess --processes 4
    python -m repro.cli run examples/specs/serving.json --trace-out trace.json
    python -m repro.cli analyze trace.json
    python -m repro.cli bench kernels --quick
    python -m repro.cli bench fleet --json /tmp/BENCH_fleet.json
    python -m repro.cli sweep run benchmarks/sweeps/fig11_time_vs_budget.json --workers 4
    python -m repro.cli sweep results fig11_time_vs_budget.sweep \
        --select spec.model.name spec.budgets.memory_mb report.evalsim.nf_hours

``run`` is the one way to train or serve from the shell: it executes a
declarative :class:`repro.api.JobSpec` JSON file on any registered
backend (``sequential`` / ``pipelined`` / ``multiprocess`` / ``baseline``
/ ``evalsim`` / ``federated`` / ``federated-async`` / ``serving`` /
``cluster-serving``; ``examples/specs/quick.json`` re-targets at any of
them with ``--backend``) and prints the unified report; the
``--processes`` flag overrides the spec's ``compute`` section.
``analyze`` turns a trace or report into a critical path, a request
breakdown, a diff or an SLO verdict (see :mod:`repro.obs.analyze`).  ``bench <suite>`` (``kernels | pipeline |
runtime | fleet | obs``) runs one benchmark suite, prints its table,
records it in ``BENCH_<suite>.json`` unless ``--quick``, and exits 1 when a
claim it asserts fails (see :mod:`repro.bench`).  ``sweep`` runs a declarative
experiment grid (one base JobSpec + axes over dotted section paths)
through a resumable process-pool driver and queries the resulting store
(see :mod:`repro.sweep`) -- every figure and table of the paper is a
committed spec under ``benchmarks/sweeps/``, and ``sweep results
--select`` prints its rows (the README maps figure to file to columns).
"""

from __future__ import annotations

import argparse
import sys

USAGE = (
    "usage: python -m repro.cli {run,bench <suite>,analyze,sweep} ... "
    "(each takes --help)"
)


# --------------------------------------------------------------------- #
# run: the unified JobSpec entry point                                  #
# --------------------------------------------------------------------- #
def build_run_parser() -> argparse.ArgumentParser:
    from repro.api import available_backends

    parser = argparse.ArgumentParser(
        prog="repro.cli run",
        description=(
            "Execute a declarative JobSpec JSON file on any registered "
            "backend (see repro.api)."
        ),
    )
    parser.add_argument("spec", help="path to a JobSpec JSON file")
    parser.add_argument(
        "--backend",
        default=None,
        choices=available_backends(),
        help=(
            "re-target the spec at another backend (sections the backend "
            "does not consume are dropped; workload sections it needs are "
            "defaulted in)"
        ),
    )
    parser.add_argument(
        "--report-json",
        default=None,
        metavar="PATH",
        help="write the unified report (to_json_dict) to PATH",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="write a Chrome trace-event JSON (Perfetto / chrome://tracing)",
    )
    parser.add_argument(
        "--trace-jsonl",
        default=None,
        metavar="PATH",
        help="write a compact one-JSON-object-per-span log",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="write the metrics-registry snapshot JSON",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print per-epoch/round progress lines on stderr",
    )
    parser.add_argument(
        "--csv-out",
        default=None,
        metavar="PATH",
        help="write one CSV row per epoch/round (loss, accuracy, wall-clock)",
    )
    parser.add_argument(
        "--processes",
        type=int,
        default=None,
        metavar="N",
        help="stage processes for the multiprocess backend",
    )
    return parser


def _run_main(argv: list[str]) -> int:
    from repro.errors import ReproError

    try:
        return _run_run(argv)
    except ReproError as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2


def _write_json(path: str, payload) -> None:
    from repro.bench import write_report

    write_report(payload, path)
    print(f"wrote {path}", file=sys.stderr)


def _run_run(argv: list[str]) -> int:
    from repro.api import JobSpec, ObservabilitySection
    from repro.api import run as run_job

    args = build_run_parser().parse_args(argv)
    spec = JobSpec.from_json_file(args.spec, backend=args.backend)
    # CLI observability flags override the spec's section field-by-field
    # (a flag left at its default leaves the spec's value alone).
    flags = {
        "trace_path": args.trace_out,
        "trace_jsonl_path": args.trace_jsonl,
        "metrics_path": args.metrics_out,
        "progress": args.progress or None,
        "csv_path": args.csv_out,
    }
    set_flags = {k: v for k, v in flags.items() if v is not None}
    if set_flags:
        section = spec.observability or ObservabilitySection()
        for key, value in set_flags.items():
            setattr(section, key, value)
        spec.observability = section
    # --processes is the compute section's one field: setting it
    # replaces the section.
    if args.processes is not None:
        from repro.api import ComputeSection

        spec.compute = ComputeSection(processes=args.processes)
    print(
        f"running {spec.model.name} job on backend {spec.backend!r}...",
        file=sys.stderr,
    )
    report = run_job(spec)
    print(report.summary())
    if args.report_json:
        _write_json(args.report_json, report.to_json_dict())
    return 0


# --------------------------------------------------------------------- #
# analyze: trace/report analytics, diffing and SLO gates                 #
# --------------------------------------------------------------------- #
def build_analyze_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli analyze",
        description=(
            "Analyze a trace (critical path, request breakdown) or a "
            "report/BENCH JSON (diffing, SLO gates).  Exits 1 on a named "
            "SLO violation, BENCH regression, or --fail-on-diff mismatch."
        ),
    )
    parser.add_argument(
        "target",
        help=(
            "a Chrome trace JSON / span JSONL (critical path), or a "
            "unified report / metrics / BENCH JSON (gating + diffing)"
        ),
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="diff the target against this run of the same spec",
    )
    parser.add_argument(
        "--slo",
        default=None,
        metavar="SPEC.json",
        help=(
            "declarative threshold spec ({\"slo\": [{\"metric\": ..., "
            "\"max\"|\"min\"|\"equals\": ...}]}); violations are named "
            "and fail the command"
        ),
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        dest="json_out",
        help="write the AnalysisReport (unified report schema) to PATH",
    )
    parser.add_argument(
        "--fail-on-diff",
        action="store_true",
        help="exit non-zero when the --baseline diff is not empty",
    )
    parser.add_argument(
        "--bench-baseline",
        default=None,
        metavar="PATH",
        help=(
            "treat target and PATH as BENCH payloads; fail if a headline "
            "ratio regressed below --bench-floor x its baseline value"
        ),
    )
    parser.add_argument(
        "--bench-floor",
        type=float,
        default=0.9,
        metavar="RATIO",
        help="minimum acceptable current/baseline headline ratio (default 0.9)",
    )
    parser.add_argument(
        "--max-steps",
        type=int,
        default=12,
        metavar="N",
        help="critical-path steps to print (the JSON always has all)",
    )
    return parser


def _load_json(path: str):
    import json

    from repro.errors import ConfigError

    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not JSON ({exc})") from None


def _sniff_target(path: str) -> str:
    """'trace' for span streams, 'report' for any other JSON document."""
    import json

    with open(path) as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        return "trace"  # multi-object stream: a span JSONL
    if isinstance(payload, dict) and "traceEvents" in payload:
        return "trace"
    if isinstance(payload, dict) and {"id", "kind"} <= set(payload):
        return "trace"  # a one-span JSONL parses as a single object
    return "report"


def _analyze_main(argv: list[str]) -> int:
    from repro.errors import ReproError

    try:
        return _analyze_run(argv)
    except ReproError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"analyze: {exc}", file=sys.stderr)
        return 2


def _analyze_run(argv: list[str]) -> int:
    from repro.obs.analyze import (
        SloSpec,
        analyze_report,
        analyze_trace,
        compare_bench_headlines,
        load_trace,
    )

    args = build_analyze_parser().parse_args(argv)
    slo = SloSpec.from_json_file(args.slo) if args.slo else None

    if args.bench_baseline is not None:
        current = _load_json(args.target)
        baseline = _load_json(args.bench_baseline)
        violations = compare_bench_headlines(
            baseline, current, floor=args.bench_floor, source=args.target
        )
        if violations:
            print(f"bench trajectory: {len(violations)} regression(s)")
            for v in violations:
                print(f"  [{v['name']}] {v['reason']}")
            return 1
        print(
            f"bench trajectory: ok (floor {args.bench_floor:g}x vs "
            f"{args.bench_baseline})"
        )
        return 0

    kind = _sniff_target(args.target)
    if kind == "trace":
        model = load_trace(args.target)
        baseline = load_trace(args.baseline) if args.baseline else None
        analysis = analyze_trace(model, baseline=baseline, slo=slo)
        print(analysis.summary())
    else:
        doc = _load_json(args.target)
        baseline = _load_json(args.baseline) if args.baseline else None
        analysis = analyze_report(
            doc,
            source=args.target,
            baseline=baseline,
            baseline_source=args.baseline or "baseline",
            slo=slo,
        )
        print(analysis.summary())
    if args.json_out:
        _write_json(args.json_out, analysis.to_json_dict())
    failed = not analysis.ok
    diff = analysis.trace_diff or analysis.report_diff
    if args.fail_on_diff and diff is not None and not diff.is_empty:
        print("analyze: diff is not empty (--fail-on-diff)", file=sys.stderr)
        failed = True
    if failed and analysis.slo is not None and not analysis.slo.ok:
        names = ", ".join(v["name"] for v in analysis.slo.violations)
        print(f"analyze: SLO violation(s): {names}", file=sys.stderr)
    return 1 if failed else 0


# --------------------------------------------------------------------- #
# sweep: declarative experiment grids over JobSpecs                      #
# --------------------------------------------------------------------- #
def build_sweep_run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli sweep run",
        description=(
            "Expand a sweep spec (base JobSpec + grid/zip/points axes) and "
            "execute every run into an append-only results store.  "
            "Re-running against the same store resumes: journaled runs are "
            "skipped, so a killed sweep picks up where it died."
        ),
    )
    parser.add_argument("sweep", help="sweep spec JSON file")
    parser.add_argument(
        "--store",
        default=None,
        help="results store directory (default: ./<sweep name>.sweep)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size; results are byte-identical for any value",
    )
    parser.add_argument(
        "--fresh",
        action="store_true",
        help="discard any existing store at --store instead of resuming",
    )
    parser.add_argument(
        "--summary-json",
        default=None,
        help="write the aggregated sweep report (unified Report JSON) here",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress per-run progress lines"
    )
    return parser


def build_sweep_results_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli sweep results",
        description=(
            "Query a sweep results store: flatten each journaled run into a "
            "row and project/filter by dotted paths (run.*, overrides.*, "
            "spec.*, report.* -- e.g. report.metrics.wall_clock_seconds.value)."
        ),
    )
    parser.add_argument("store", help="results store directory")
    parser.add_argument(
        "--select",
        nargs="*",
        default=None,
        metavar="PATH",
        help="columns as dotted paths (default: run.index run.run_id run.status)",
    )
    parser.add_argument(
        "--where",
        nargs="*",
        default=None,
        metavar="EXPR",
        help="filters like run.status==done or overrides.budgets.memory_mb>=2",
    )
    parser.add_argument("--json", default=None, help="write selected rows as JSON")
    parser.add_argument("--csv", default=None, help="write selected rows as CSV")
    parser.add_argument(
        "--summary-json",
        default=None,
        help="write the aggregated sweep report (unified Report JSON) here",
    )
    return parser


def _sweep_main(argv: list[str]) -> int:
    from repro.errors import ReproError

    if not argv or argv[0] in ("-h", "--help"):
        print(
            "usage: repro.cli sweep {run,results,expand} ...\n"
            "  run      execute a sweep spec into a results store (run --help)\n"
            "  results  query a results store (results --help)\n"
            "  expand   print a sweep's planned runs without executing",
            file=sys.stderr,
        )
        return 0 if argv else 2
    try:
        if argv[0] == "run":
            return _sweep_run(argv[1:])
        if argv[0] == "results":
            return _sweep_results(argv[1:])
        if argv[0] == "expand":
            return _sweep_expand(argv[1:])
    except ReproError as exc:
        print(f"sweep: {exc}", file=sys.stderr)
        return 2
    print(f"sweep: unknown subcommand {argv[0]!r}", file=sys.stderr)
    return 2


def _sweep_run(argv: list[str]) -> int:
    from repro.sweep import ResultsStore, SweepReport, SweepSpec, run_sweep

    args = build_sweep_run_parser().parse_args(argv)
    sweep = SweepSpec.from_json_file(args.sweep)
    store_path = args.store or f"{sweep.name}.sweep"
    echo = (lambda _msg: None) if args.quiet else (
        lambda msg: print(f"sweep: {msg}", file=sys.stderr)
    )
    summary = run_sweep(
        sweep, store_path, workers=args.workers, fresh=args.fresh, echo=echo
    )
    print(
        f"sweep {summary.name!r}: {summary.executed} executed, "
        f"{summary.skipped} resumed, {summary.failed} failed "
        f"({summary.total} total) -> {summary.store_path}"
    )
    if args.summary_json:
        report = SweepReport.from_store(ResultsStore.open(store_path))
        _write_json(args.summary_json, report.to_json_dict())
    return 1 if summary.failed else 0


def _sweep_results(argv: list[str]) -> int:
    from repro.sweep import (
        ResultsStore,
        SweepReport,
        parse_filters,
        render_table,
        select_rows,
        store_rows,
        to_csv,
    )

    args = build_sweep_results_parser().parse_args(argv)
    store = ResultsStore.open(args.store)
    rows = store_rows(store)
    flat = select_rows(
        rows, select=args.select, where=parse_filters(args.where or [])
    )
    print(render_table(flat))
    if args.json:
        _write_json(args.json, flat)
    if args.csv:
        to_csv(flat, args.csv)
        print(f"wrote {args.csv}", file=sys.stderr)
    if args.summary_json:
        _write_json(args.summary_json, SweepReport.from_store(store).to_json_dict())
    return 0


def _sweep_expand(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.cli sweep expand",
        description="Print a sweep's planned runs without executing anything.",
    )
    parser.add_argument("sweep", help="sweep spec JSON file")
    args = parser.parse_args(argv)
    from repro.sweep import SweepSpec

    sweep = SweepSpec.from_json_file(args.sweep)
    for run in sweep.expand():
        print(f"{run.run_id}  {run.overrides}")
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    command, rest = (argv[0], argv[1:]) if argv else (None, [])
    if command == "run":
        return _run_main(rest)
    if command == "bench":
        from repro.bench import main as bench_main

        return bench_main(rest)
    if command == "analyze":
        return _analyze_main(rest)
    if command == "sweep":
        return _sweep_main(rest)
    print(USAGE, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
