"""The bench core behind ``python -m repro.cli bench <suite>``.

Every number the reproduction publishes leaves through a committed
``BENCH_<suite>.json``.  A suite is one module with two functions:

* ``run_suite(quick=False, ...) -> dict`` -- a JSON-serializable report
  with a ``config`` block, an ``env`` block (:func:`env_block`) and, where
  the suite asserts anything, a ``claims`` dict of booleans;
* ``format_report(report) -> str`` -- the table printed to stdout;

and, only where it needs them, ``add_arguments(parser)`` for flags of its
own (forwarded to the ``run_suite`` parameters of the same name) and
``gate(report, args) -> int`` for exit-code checks that are not claims.
Everything else is here, once: the suite map, the CLI (``--quick``,
``--json``, ``--seed`` for suites that take a seed; exit 1 on a failed
claim, 2 on a :class:`~repro.errors.ConfigError` or an unwritable path),
the provenance block, the writer, the reference workload the suites train
and serve, and the interleaved best-of timer the wall-clock suites share.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import platform
import sys
import time
from dataclasses import replace

from repro.errors import ConfigError

MB = 2**20

#: Suite name -> the module that implements it.  Adding a suite is its own
#: file plus one line here.
SUITES = {
    "kernels": "repro.perf.bench",
    "pipeline": "repro.parallel.bench",
    "runtime": "repro.runtime.bench",
    "fleet": "repro.fleet.bench",
    "obs": "repro.obs.bench",
}

USAGE = (
    f"usage: python -m repro.cli bench {{{','.join(SUITES)}}} "
    "[--quick] [--json PATH] ... (each takes --help)"
)

#: The reference workload's model and NeuroFlux batch limit, as the
#: suites' ``config`` blocks report them.
MODEL = "vgg11"
BATCH_LIMIT = 64


# -- reference workload ------------------------------------------------------


def reference_data(seed: int = 0, quick: bool = False, scale: float | None = None):
    """The dataset every suite trains on: cifar10 cut to 4 classes of 16x16.

    240/60/60 train/val/test samples (120/40/40 under ``quick``), or the
    ``scale`` fraction of the preset's split sizes when one is given.
    """
    from repro.data.registry import dataset_spec

    spec = dataset_spec(
        "cifar10",
        scale=1.0 if scale is None else scale,
        image_hw=(16, 16),
        num_classes=4,
        noise_std=0.4,
        seed=7 + seed,
    )
    if scale is None:
        n_train, n_held_out = (120, 40) if quick else (240, 60)
        spec = replace(spec, n_train=n_train, n_val=n_held_out, n_test=n_held_out)
    return spec.materialize()


def reference_system(
    data,
    width: float,
    budget: int,
    seed: int = 0,
    batch_limit: int = BATCH_LIMIT,
    **system_kwargs,
):
    """An untrained NeuroFlux system over a width-scaled vgg11 on ``data``.

    ``system_kwargs`` (``platform``) go to :class:`NeuroFlux`.
    """
    from repro.core.config import NeuroFluxConfig
    from repro.core.controller import NeuroFlux
    from repro.models.zoo import build_model

    model = build_model(
        MODEL,
        num_classes=4,
        input_hw=(16, 16),
        width_multiplier=width,
        seed=3 + seed,
    )
    return NeuroFlux(
        model,
        data,
        memory_budget=budget,
        config=NeuroFluxConfig(batch_limit=batch_limit, seed=seed),
        **system_kwargs,
    )


# -- measurement and provenance ----------------------------------------------


def best_of(arms: dict, reps: int, warmup: int = 1) -> dict:
    """Best-of-``reps`` wall-clock seconds per arm, arms interleaved every rep.

    Timing the arms back-to-back lets scheduler noise land entirely on one
    side (a 1.4x phantom "speedup" between identical calls was observed on
    a busy host); alternating the samples makes every arm see the same
    noise, which is what a regression gate needs.
    """
    for fn in arms.values():
        for _ in range(warmup):
            fn()
    best = dict.fromkeys(arms, float("inf"))
    for _ in range(reps):
        for name, fn in arms.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def env_block() -> dict:
    """Where a report was recorded (the one key a rerun may differ on)."""
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
    }


def write_report(report: dict | list, path: str) -> None:
    """The one JSON layout every file the CLI writes uses (BENCH files,
    reports, sweep rows): indented, sorted keys, trailing newline."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- the CLI -----------------------------------------------------------------


def main(argv: list[str]) -> int:
    """``repro bench <suite> [flags]``: run, print, write, gate."""
    name, rest = (argv[0], argv[1:]) if argv else (None, [])
    if name not in SUITES:
        print(USAGE, file=sys.stderr)
        return 2
    suite = importlib.import_module(SUITES[name])
    accepted = inspect.signature(suite.run_suite).parameters

    parser = argparse.ArgumentParser(
        prog=f"repro.cli bench {name}",
        description=(suite.__doc__ or name).strip().splitlines()[0],
    )
    parser.add_argument(
        "--quick", action="store_true", help="shrunk workload / few reps (CI smoke)"
    )
    parser.add_argument(
        "--json",
        default=None,
        metavar="PATH",
        help=f"write the report to PATH (default: BENCH_{name}.json unless --quick)",
    )
    if "seed" in accepted:
        parser.add_argument(
            "--seed", type=int, default=0, help="data/model/workload seed"
        )
    if hasattr(suite, "add_arguments"):
        suite.add_arguments(parser)
    args = parser.parse_args(rest)

    try:
        report = suite.run_suite(
            **{key: value for key, value in vars(args).items() if key in accepted}
        )
    except ConfigError as exc:  # SpecError included
        print(f"bench {name}: {exc}", file=sys.stderr)
        return 2
    print(suite.format_report(report))
    path = args.json or (None if args.quick else f"BENCH_{name}.json")
    if path:
        try:
            write_report(report, path)
        except OSError as exc:
            print(f"bench {name}: cannot write {path}: {exc}", file=sys.stderr)
            return 2
        print(f"\nwrote {path}")
    failed = [claim for claim, holds in report.get("claims", {}).items() if not holds]
    if failed:
        print(f"bench {name}: claim(s) failed: {', '.join(failed)}", file=sys.stderr)
        return 1
    return suite.gate(report, args) if hasattr(suite, "gate") else 0
