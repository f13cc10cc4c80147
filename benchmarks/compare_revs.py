#!/usr/bin/env python3
"""Paired parent/change comparison of two git revisions on the e2e benchmark.

    python3 benchmarks/compare_revs.py HEAD~1 HEAD --workload serve_fleet_churn
    python3 benchmarks/compare_revs.py <parent> <change> --workload W \\
        [--pairs 10] [--seconds S]

The house rule for a "faster"/"smaller" claim (ROADMAP, and
``benchmarks/e2e/README.md`` section Host noise) as code: check both
revisions out as git worktrees under ``.bench_e2e/``, run each
worktree's *own* ``benchmarks/e2e/run.py --workload W --trace 0 --seed
i`` for pair ``i`` -- alternating which side goes first, so drift of the
host hits both sides alike -- and print, per end-to-end metric, the
pairs, the change's wins, each side's median and quartiles, and the
verdict:

``resolved-better``  the change wins at least 9/10 of the pairs (a tie
                     is a win for neither), the medians differ by more
                     than the parent's interquartile range, and at least
                     ``MIN_PAIRS`` pairs were run;
``resolved-worse``   the same with the sides swapped;
``unresolved``       anything else.

The metrics of ``EXACT_METRICS`` (``peak_rss_mb``) repeat to a fraction of
a percent on this host, so they also resolve from ``EXACT_MIN_PAIRS``
pairs: when one side wins *every* pair and the medians differ by more
than ``EXACT_MIN_DELTA`` (2 %).

Exit code 1 when any repetition failed (crash, time-out, output check),
2 on a usage or git error, 3 when an exact metric resolved worse (a
memory regression is a finding, not noise).  Worktrees are removed on
the way out.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Below this many pairs nothing is resolved, whatever the wins.
MIN_PAIRS = 10
WIN_SHARE = 0.9
#: Exact to ~0.1 % run to run (``benchmarks/e2e/README.md``, Host noise):
#: a few unanimous pairs resolve them.  Time metrics never qualify.
EXACT_METRICS = frozenset({"peak_rss_mb"})
EXACT_MIN_PAIRS = 3
EXACT_MIN_DELTA = 0.02
#: Host seconds allowed on top of ``--seconds`` for one ``run.py`` call.
RUN_GRACE_S = 300.0


# --------------------------------------------------------------------- #
# the rule                                                              #
# --------------------------------------------------------------------- #
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single sample is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def count_wins(parent: list[float], change: list[float], better: str) -> tuple[int, int]:
    """(pairs the change wins, pairs the parent wins); ties count for neither."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    return wins, losses


def verdict(parent: list[float], change: list[float], better: str,
            exact: bool = False) -> str:
    """The house rule on paired samples of one metric.

    ``parent[i]`` and ``change[i]`` are the two sides of pair ``i``;
    ``better`` is ``"lower"`` or ``"higher"``; ``exact`` marks a metric
    of ``EXACT_METRICS``, which may also resolve from a few unanimous
    pairs.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same, non-zero number of samples per side")
    n = len(parent)
    wins, losses = count_wins(parent, change, better)
    q1, parent_median, q3 = quartiles(parent)
    delta = statistics.median(change) - parent_median
    improved = delta < 0 if better == "lower" else delta > 0
    if (exact and n >= EXACT_MIN_PAIRS and (wins if improved else losses) == n
            and abs(delta) > EXACT_MIN_DELTA * abs(parent_median)):
        return "resolved-better" if improved else "resolved-worse"
    if n < MIN_PAIRS or abs(delta) <= q3 - q1:
        return "unresolved"
    if improved and wins >= WIN_SHARE * n:
        return "resolved-better"
    if not improved and losses >= WIN_SHARE * n:
        return "resolved-worse"
    return "unresolved"


# --------------------------------------------------------------------- #
# running                                                               #
# --------------------------------------------------------------------- #
def _git(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(["git", *args], cwd=ROOT, text=True, capture_output=True)


def add_worktree(path: str, rev: str) -> None:
    done = _git("worktree", "add", "--detach", path, rev)
    if done.returncode != 0:
        raise RuntimeError(f"git worktree add {rev}: {done.stderr.strip()}")


def remove_worktrees(paths) -> None:
    for path in paths:
        _git("worktree", "remove", "--force", path)
    _git("worktree", "prune")


def run_once(tree: str, workload: str, seed: int, seconds: float | None) -> dict | None:
    """One ``run.py`` call in ``tree``; its metrics, or None if it failed."""
    command = [sys.executable, os.path.join(tree, "benchmarks", "e2e", "run.py"),
               "--workload", workload, "--trace", "0", "--seed", str(seed)]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    try:
        done = subprocess.run(command, cwd=tree, text=True, capture_output=True,
                              timeout=(seconds or 25.0) + RUN_GRACE_S)
        line = json.loads(done.stdout.strip().splitlines()[-1])
    except (subprocess.TimeoutExpired, IndexError, json.JSONDecodeError) as exc:
        print(f"  FAILED {tree} seed {seed}: {type(exc).__name__}", file=sys.stderr)
        return None
    if done.returncode != 0 or not line.get("correct") or line.get("failed"):
        print(f"  FAILED {tree} seed {seed}: exit {done.returncode}, "
              f"{line.get('failed')} of {line.get('attempted')} repetitions failed",
              file=sys.stderr)
        return None
    return {name: entry["value"] for name, entry in line["metrics"].items()}


def metric_directions() -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}


def exact_regressions(samples: dict[str, dict[str, list[float]]],
                      directions: dict[str, str]) -> list[str]:
    """The exact metrics that resolved worse: what exit code 3 reports."""
    return sorted(
        name for name in EXACT_METRICS & samples["parent"].keys() & directions.keys()
        if verdict(samples["parent"][name], samples["change"][name],
                   directions[name], exact=True) == "resolved-worse"
    )


def format_table(workload: str, samples: dict[str, dict[str, list[float]]],
                 directions: dict[str, str]) -> str:
    """The printed table; its last column is :func:`verdict` per metric."""
    head = (f"{'metric':<13}{'better':<8}{'pairs':>6}{'wins':>6}"
            f"{'parent med':>12}{'q1':>10}{'q3':>10}"
            f"{'change med':>12}{'q1':>10}{'q3':>10}{'chg/par':>9}  verdict")
    lines = [f"{workload}: change vs parent", head]
    for name, better in directions.items():
        parent, change = samples["parent"].get(name), samples["change"].get(name)
        if not parent or not change:
            continue
        wins, _ = count_wins(parent, change, better)
        p1, pm, p3 = quartiles(parent)
        c1, cm, c3 = quartiles(change)
        ratio = cm / pm if pm else float("nan")
        lines.append(
            f"{name:<13}{better:<8}{len(parent):>6}{wins:>6}"
            f"{pm:>12.4g}{p1:>10.4g}{p3:>10.4g}{cm:>12.4g}{c1:>10.4g}{c3:>10.4g}"
            f"{ratio:>9.3f}  {verdict(parent, change, better, name in EXACT_METRICS)}"
        )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_rev")
    parser.add_argument("change_rev")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS,
                        help="pair i runs both sides at --seed i (default %(default)s)")
    parser.add_argument("--seconds", type=float,
                        help="passed to run.py (default: run.py's own, 25 s)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")

    base = os.path.join(ROOT, ".bench_e2e", f"compare-{os.getpid()}")
    trees = {"parent": os.path.join(base, "parent"), "change": os.path.join(base, "change")}
    revs = {"parent": args.parent_rev, "change": args.change_rev}
    directions = metric_directions()
    samples: dict[str, dict[str, list[float]]] = {"parent": {}, "change": {}}
    failures = 0
    os.makedirs(base, exist_ok=True)
    try:
        for side, tree in trees.items():
            add_worktree(tree, revs[side])
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            got = {side: run_once(trees[side], args.workload, pair, args.seconds)
                   for side in order}
            if None in got.values():
                failures += sum(v is None for v in got.values())
                continue  # an unpaired sample would bias the medians
            for side, metrics in got.items():
                for name, value in metrics.items():
                    samples[side].setdefault(name, []).append(value)
            print(f"  pair {pair} ({order[0]} first): " + ", ".join(
                f"{name} {got['parent'][name]:.4g} -> {got['change'][name]:.4g}"
                for name in directions if name in got["parent"]), flush=True)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        remove_worktrees(trees.values())
        if os.path.isdir(base) and not os.listdir(base):
            os.rmdir(base)
    print(format_table(args.workload, samples, directions))
    if failures:
        print(f"{failures} failed repetition(s)", file=sys.stderr)
        return 1
    worse = exact_regressions(samples, directions)
    if worse:
        print(f"exact metric(s) resolved worse: {', '.join(worse)}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
