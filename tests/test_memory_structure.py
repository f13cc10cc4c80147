"""One memory model: the byte constants and per-op byte rules live in
``repro.memory`` alone.

A second ``FLOAT_BYTES``, or a module outside ``repro.memory`` applying
``retained_bytes`` / ``op_workspace_bytes`` itself, is a second copy of
the model that the Profiler no longer measures.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
BYTE_RULES = {"retained_bytes", "op_workspace_bytes"}


def _trees():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def test_byte_constants_are_assigned_only_in_the_estimator():
    assigned = sorted(
        (target.id, path)
        for path, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Assign, ast.AnnAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id in ("FLOAT_BYTES", "LABEL_BYTES")
    )
    assert assigned == [
        ("FLOAT_BYTES", "memory/estimator.py"),
        ("LABEL_BYTES", "memory/estimator.py"),
    ]


def test_op_byte_rules_are_used_only_inside_repro_memory():
    users = sorted(
        path
        for path, tree in _trees()
        if not path.startswith("memory/")
        for node in ast.walk(tree)
        if (isinstance(node, ast.ImportFrom) and BYTE_RULES & {a.name for a in node.names})
        or (isinstance(node, ast.Attribute) and node.attr in BYTE_RULES)
    )
    assert users == []


def test_profiler_imports_no_byte_rule():
    tree = ast.parse((SRC / "core" / "profiler.py").read_text())
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("repro.memory")
        for alias in node.names
    }
    assert imported == {"local_unit_tensors_by_batch", "SimulatedGpu", "measure_peak"}
