"""Every name a module of the package imports is used in that module, and
loading a scenario imports none of the modules that run or report it."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "handoffsim"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read: not as a name
    (the root of an attribute chain included) and not in ``__all__``."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_finds_an_unused_import():
    source = "import json, math\nfrom os import path as p, sep\n__all__ = ['sep']\nmath.pi\n"
    assert unused_imports(source) == ["line 1: json", "line 2: p"]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_loading_a_scenario_imports_no_run_or_report_module():
    """A fresh process that only loads a scenario compiles every module it
    imports when bytecode is not cached, so the trace encoder, the engine,
    the metric fold and the CLI stay out of that import."""
    code = (
        "import sys, handoffsim.scenario\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('handoffsim'))))"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True,
        timeout=60,
    ).stdout.split()
    assert "handoffsim.scenario" in out
    for name in ("trace", "engine", "metrics", "cli"):
        assert f"handoffsim.{name}" not in out
