"""The analytic and closed-form paper figures, recorded row by row.

``tests/data/figures_golden.json`` was recorded from the legacy
``repro.experiments`` modules at the commit *before* the figures moved
onto ``repro sweep`` specs over the ``evalsim`` backend: every row of
fig01, fig04, fig05, fig06, fig08, fig13, fig11, the rho ablation and
the mechanism ablation, plus the full-scale halves of Table 2 and
Table 3 evaluated at *every* exit layer (through their
``full_scale_exit_params`` / ``exit_layers=`` entry points), so whichever
exit a trained run selects has a recorded row.  NaN (the paper's "no
data point") is stored as ``null``.

Re-record with ``PYTHONPATH=src python tests/test_figures_golden.py``.
"""

import json
import math
from pathlib import Path

import pytest

GOLDEN_PATH = Path(__file__).resolve().parent / "data/figures_golden.json"

TABLE_MODELS = ("vgg16", "vgg19", "resnet18")


def _pure(value):
    if isinstance(value, float) and math.isnan(value):
        return None
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    return value


def _table(result) -> dict:
    return {
        "columns": list(result.columns),
        "rows": [[_pure(v) for v in row] for row in result.rows],
    }


def _n_layers(model_name: str) -> int:
    from repro.models.zoo import build_model

    return build_model(model_name, num_classes=10, input_hw=(32, 32)).num_local_layers


def figures() -> dict:
    from repro.experiments import (
        ablations, fig01, fig04, fig05_06, fig08, fig11, fig13, table2, table3_fig14,
    )

    golden = {
        "fig01": _table(fig01.run()),
        "fig04": _table(fig04.run()),
        "fig05": _table(fig05_06.run_fig05()),
        "fig06": _table(fig05_06.run_fig06()),
        "fig08": _table(fig08.run()),
        "fig11": _table(fig11.run()),
        "fig13": _table(fig13.run()),
        "fig13_total_aux_flops": {
            name: fig13.total_aux_flops(name) for name in ("vgg19", "resnet18")
        },
        "ablation-rho": _table(ablations.run_rho_sweep()),
        "ablation-mechanisms": _table(ablations.run_mechanism_ablation()),
    }
    rows2, rows3 = [], []
    for name in TABLE_MODELS:
        for layer in range(_n_layers(name)):
            full, exit_params = table2.full_scale_exit_params(name, layer, 10)
            rows2.append([name, layer + 1, full, exit_params])
            result = table3_fig14.run(model_names=(name,), exit_layers={name: layer})
            rows3.extend([_pure(v) for v in row] for row in result.rows)
    golden["table2"] = {
        "columns": ["model", "exit_layer", "full_params", "exit_params"],
        "rows": rows2,
    }
    golden["table3"] = {"columns": list(result.columns), "rows": rows3}
    return golden


def record() -> None:
    GOLDEN_PATH.write_text(json.dumps(figures(), indent=1, sort_keys=True) + "\n")


def _close(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, (int, float)):
        return abs(got - want) <= 1e-9 * max(1.0, abs(want))
    return got == want


@pytest.fixture(scope="module")
def current():
    return json.loads(json.dumps(figures()))


def test_legacy_modules_reproduce_the_golden(current):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(current) == sorted(golden)
    for figure, want in golden.items():
        got = current[figure]
        if "rows" not in want:
            assert got == want, figure
            continue
        assert got["columns"] == want["columns"], figure
        assert len(got["rows"]) == len(want["rows"]), figure
        for got_row, want_row in zip(got["rows"], want["rows"]):
            assert all(map(_close, got_row, want_row)), (figure, got_row, want_row)


if __name__ == "__main__":
    record()
