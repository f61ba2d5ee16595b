"""Tooling checks.  The per-layer tracer in perfbench/layertrace.py
wraps package functions by name, and reports a renamed or deleted one
as absent instead of failing.  This keeps every hook it names resolvable,
so a refactor cannot silently drop a per-layer metric.  The package holds
no assert statement, so its invariants still raise under python -O."""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import tornheim

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


@pytest.fixture(scope="module")
def layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True      # leave the benchmark tree untouched
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


def test_every_layer_hook_resolves(layertrace):
    missing = []
    for span, (mod, fn) in layertrace.HOOKS.items():
        assert mod in layertrace.MODULES, span
        target = getattr(importlib.import_module(f"tornheim.{mod}"), fn, None)
        if not callable(target):
            missing.append(span)
    assert missing == []


def test_package_has_no_assert_statement():
    asserts = []
    for path in sorted(Path(tornheim.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                    if isinstance(node, ast.Assert)]
    assert asserts == []
