"""Examples still import: every ``repro`` name an example imports exists.

Ruff checks ``examples/`` but cannot see a name deleted from ``repro``,
and no test runs the examples, so each script is parsed with ``ast`` and
its ``repro`` imports are resolved.  Nothing is executed.
"""

import ast
import importlib
import os

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "examples")
EXAMPLES = sorted(name for name in os.listdir(EXAMPLES_DIR)
                  if name.endswith(".py"))


def _unresolved_imports(source):
    """``from repro... import name`` imports in ``source`` that do not
    resolve, as ``module.name`` strings."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.ImportFrom) and node.level == 0
                and node.module.split(".")[0] == "repro"):
            continue
        for alias in node.names:
            label = node.module + "." + alias.name
            try:
                module = importlib.import_module(node.module)
            except ImportError:
                missing.append(label)
                continue
            if hasattr(module, alias.name):
                continue
            try:
                importlib.import_module(label)  # a submodule
            except ImportError:
                missing.append(label)
    return missing


def test_examples_are_found():
    assert "baseline_comparison.py" in EXAMPLES
    assert "quickstart.py" in EXAMPLES


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_repro_imports_resolve(example):
    with open(os.path.join(EXAMPLES_DIR, example)) as handle:
        source = handle.read()
    assert _unresolved_imports(source) == []


def test_a_deleted_name_is_reported():
    source = ("from repro.baselines import compact_iteratively, "
              "no_such_baseline\n"
              "from repro.no_such_module import name\n"
              "from repro import core\n")
    assert _unresolved_imports(source) == [
        "repro.baselines.no_such_baseline", "repro.no_such_module.name"]
