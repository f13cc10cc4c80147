"""The paper layer's imports of the packages above it, as a ratchet.

The paper layer -- the packages the reproduction of NeuroFlux itself
lives in -- should import nothing above it (the api, the schedules,
observability, serving).  Today some of its modules still do; this test
holds that list, read from the source with ``ast`` (nothing is
imported), so a new upward import fails it and so does a listed one
that has gone: the list can only shrink.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "repro"

PAPER_LAYER = frozenset(
    {
        "errors", "utils", "nn", "flops", "memory", "models", "hw", "data",
        "core", "training", "evalsim",
    }
)

#: (module under ``repro/``, imported ``repro`` module) pairs still
#: pointing upward.
ALLOWED_UPWARD = frozenset(
    {
        ("core/controller.py", "api.callbacks"),
        ("core/controller.py", "backend.multiproc"),
        ("core/controller.py", "obs.trace"),
        ("core/controller.py", "parallel.cluster"),
        ("core/controller.py", "parallel.schedules"),
        ("core/report.py", "api.report"),
        ("core/worker.py", "api.callbacks"),
        ("evalsim/report.py", "api.report"),
        ("evalsim/report.py", "obs.trace"),
        ("nn/conv.py", "backend.registry"),
        ("nn/linear.py", "backend.registry"),
        ("nn/module.py", "perf.workspace"),
        ("training/common.py", "api.report"),
        ("training/common.py", "obs.trace"),
        ("training/signal_prop.py", "backend.registry"),
    }
)


def _imported_modules(tree: ast.AST):
    """Every absolute ``repro.*`` module a file imports, at any depth
    (function-local imports included), without the ``repro.`` prefix."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            if node.module == "repro":
                names = [f"repro.{alias.name}" for alias in node.names]
            else:
                names = [node.module]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield ".".join(parts[1:])


def upward_imports() -> set[tuple[str, str]]:
    pairs = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE)
        if rel.parts[0].removesuffix(".py") not in PAPER_LAYER:
            continue
        for module in _imported_modules(ast.parse(path.read_text())):
            if module.split(".")[0] not in PAPER_LAYER:
                pairs.add((rel.as_posix(), module))
    return pairs


def test_no_new_upward_import():
    new = upward_imports() - ALLOWED_UPWARD
    assert not new, f"paper-layer modules import upward: {sorted(new)}"


def test_allowlist_only_shrinks():
    gone = ALLOWED_UPWARD - upward_imports()
    assert not gone, f"drop these pairs from ALLOWED_UPWARD: {sorted(gone)}"


def test_reads_function_local_imports():
    tree = ast.parse("def f():\n    from repro.api.report import Report\n")
    assert list(_imported_modules(tree)) == ["api.report"]
