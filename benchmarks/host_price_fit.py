"""Measure what each block's training step costs on this host, and fit
the host step price the multiprocess stage planner cuts by.

For vgg11, vgg16, resnet18 and mobilenet at width 0.25 under an 8 MiB
budget (the ``train_mp_2proc`` configuration: 500 CIFAR-10-shaped
samples, 2 epochs), the script plans the blocks, trains them all in one
process on one BLAS thread (every repro GEMM runs on one,
:mod:`repro.backend.blas`) at the stage micro-batch, and times every block's
``train_batch`` calls.  Each row of the table is one block:

* ``host_s``: median over ``--reps`` runs of its summed step seconds;
* ``samples`` / ``steps``: what it trained on in that time;
* ``bytes``: its units' step bytes per sample
  (:func:`repro.core.worker.unit_step_bytes_per_sample`, the
  batch-proportional part of the estimator's tensor lists);
* ``kernels``: its units' kernel dispatches per step;
* ``flops``: its per-sample training FLOPs (for the comparison only).

The price is ``host_s = samples * bytes * HOST_S_PER_BYTE + steps *
kernels * HOST_DISPATCH_S``, fitted by least squares on relative
residuals (every block weighs the same, as in a min-max cut);
:func:`fit` is the one fit, shared with the test that holds the
constants in :mod:`repro.core.worker` to the committed table.

    PYTHONPATH=src python benchmarks/host_price_fit.py --out tests/data/host_price_fit.json

Quiet host only: nothing else may run while it measures (~2 min).
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

import numpy as np

MODELS = ("vgg11", "vgg16", "resnet18", "mobilenet")
N_TRAIN = 500
EPOCHS = 2


def job_spec(model: str):
    """The ``train_mp_2proc`` job with ``model`` in place of vgg11."""
    from repro.api import JobSpec

    return JobSpec.from_dict(
        {
            "backend": "multiprocess",
            "platform": "agx_orin",
            "model": {
                "name": model,
                "num_classes": 10,
                "input_hw": [32, 32],
                "width_multiplier": 0.25,
                "seed": 1000,
            },
            "data": {
                "dataset": "cifar10",
                "num_classes": 10,
                "image_hw": [32, 32],
                "scale": N_TRAIN / 50_000,
                "noise_std": 0.3,
                "seed": 2000,
            },
            "neuroflux": {"seed": 3000},
            "budgets": {"memory_mb": 8, "epochs": EPOCHS},
            "compute": {"processes": 2},
        }
    )


def block_terms(system, block) -> dict:
    """A block's price inputs: bytes per sample, kernels, FLOPs per sample."""
    from repro.core.worker import (
        unit_kernel_count,
        unit_step_bytes_per_sample,
        unit_train_flops,
    )

    terms = {"bytes": 0, "kernels": 0, "flops": 0}
    for i in block.layer_indices:
        spec, aux = system.specs[i], system.aux_heads[i]
        terms["bytes"] += unit_step_bytes_per_sample(spec, aux)
        terms["kernels"] += unit_kernel_count(spec, aux)
        terms["flops"] += unit_train_flops(spec, aux)
    return terms


def _time_blocks(system, blocks, mb: int) -> tuple[list[float], list[int], list[int]]:
    """One run of every block as one stage: per-block step seconds,
    samples and steps."""
    from repro.data.loader import DataLoader
    from repro.hw.simulator import ExecutionSimulator
    from repro.utils.rng import spawn_rng

    sim = ExecutionSimulator(system.platform)
    pools = ({}, {})
    workers = [system._build_worker(block, sim, pools) for block in blocks]
    for worker in workers:
        for unit in worker.units:
            unit.train()
    seconds = [0.0] * len(blocks)
    samples = [0] * len(blocks)
    steps = [0] * len(blocks)
    try:
        for epoch in range(EPOCHS):
            loader = DataLoader(
                system.data.x_train, system.data.y_train, mb, shuffle=True,
                rng=spawn_rng(system.config.seed, f"mp/epoch{epoch}"),
            )
            for x, y in loader:
                for k, worker in enumerate(workers):
                    t0 = time.perf_counter()
                    x, _, _ = worker.train_batch(x, y)
                    seconds[k] += time.perf_counter() - t0
                    samples[k] += len(x)
                    steps[k] += 1
    finally:
        system._release_workspaces()
    return seconds, samples, steps


def measure(reps: int) -> list[dict]:
    """The fit table: one row per block of every model.  Each rep times
    every model once, so a drift in the host's speed spreads over all
    of them instead of scaling one model's blocks against another's."""
    from repro.api.backends import build_system_from_spec

    systems = {model: build_system_from_spec(job_spec(model)) for model in MODELS}
    plans = {model: system.plan()[0] for model, system in systems.items()}
    runs: dict[str, list] = {model: [] for model in MODELS}
    for _ in range(reps):
        for model, blocks in plans.items():
            mb = min(b.batch_size for b in blocks)
            runs[model].append(_time_blocks(systems[model], blocks, mb))
    rows = []
    for model, blocks in plans.items():
        seconds, samples, steps = zip(*runs[model])
        for k, block in enumerate(blocks):
            rows.append(
                {
                    "model": model,
                    "block": block.index,
                    "host_s": round(statistics.median(r[k] for r in seconds), 4),
                    "samples": samples[0][k],
                    "steps": steps[0][k],
                    **block_terms(systems[model], block),
                }
            )
    return rows


def fit(rows: list[dict]) -> tuple[float, float]:
    """``(HOST_S_PER_BYTE, HOST_DISPATCH_S)``: least squares on the
    relative residual of every row."""
    host = np.array([r["host_s"] for r in rows])
    design = np.array(
        [[r["samples"] * r["bytes"], r["steps"] * r["kernels"]] for r in rows], float
    )
    coef, *_ = np.linalg.lstsq(design / host[:, None], np.ones(len(rows)), rcond=None)
    return float(coef[0]), float(coef[1])


def mean_abs_error(rows: list[dict], per_byte: float, dispatch_s: float) -> float:
    """Mean relative error of the host price over ``rows``."""
    return statistics.fmean(
        abs(r["samples"] * r["bytes"] * per_byte + r["steps"] * r["kernels"] * dispatch_s
            - r["host_s"]) / r["host_s"]
        for r in rows
    )


def flops_only_error(rows: list[dict]) -> float:
    """The same error for the best single seconds-per-FLOP price."""
    host = np.array([r["host_s"] for r in rows])
    work = np.array([r["samples"] * r["flops"] for r in rows], float)
    per_flop = float(np.sum(work / host) / np.sum((work / host) ** 2))
    return float(np.mean(np.abs(work * per_flop - host) / host))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=3)
    parser.add_argument("--out", help="write the table here as JSON")
    args = parser.parse_args(argv)
    rows = measure(args.reps)
    per_byte, dispatch_s = fit(rows)
    for r in rows:
        print(
            f"{r['model']:>9} block {r['block']}: {r['host_s']:7.3f} s  "
            f"{r['bytes'] / 1e3:7.0f} KB/sample  {r['kernels']:3d} kernels  "
            f"{r['flops'] / 1e6:5.1f} MFLOP/sample"
        )
    print(f"HOST_S_PER_BYTE = {per_byte:.3g}  HOST_DISPATCH_S = {dispatch_s:.3g}")
    print(
        f"mean abs error: host price {mean_abs_error(rows, per_byte, dispatch_s):.0%}, "
        f"FLOPs alone {flops_only_error(rows):.0%}"
    )
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"epochs": EPOCHS, "n_train": N_TRAIN, "rows": rows}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
