"""Every name a module of the package imports is used in that module, every
name it defines has a caller outside the tests, every field a named tuple
of it declares is read there or in the benchmark, loading a scenario imports
none of the modules that run or report it, nor ``dataclasses`` or a package
data reader, the metric fold imports no engine code, the CLI imports no
engine code until a run or sweep starts and no ``dataclasses`` or process
pool, even when a sweep forks its workers, only the scenario parser
decides what a valid scenario is, and only the taxonomy classifies a
handoff."""

import ast
import json
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


def imported_by(statement: str) -> set[str]:
    """The modules a fresh ``python -S`` has loaded after ``statement``.
    Without ``site``, whose own imports vary by machine, nothing but the
    interpreter's start-up and the package can load a module."""
    code = f"import sys\n{statement}\nprint(' '.join(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    return set(subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    ).stdout.split())


def test_loading_a_scenario_imports_no_run_or_report_module():
    """A fresh process that only loads a scenario compiles every module it
    imports when bytecode is not cached, so the handoff state machine, the
    trace encoder, the engine, the metric fold and the CLI stay out of that
    import."""
    modules = imported_by("import handoffsim.scenario")
    assert "handoffsim.scenario" in modules
    for name in ("controller", "trace", "engine", "metrics", "cli"):
        assert f"handoffsim.{name}" not in modules


def test_loading_the_cli_imports_no_engine_code():
    """``validate`` and ``enumerate-taxonomy`` step no handoff, so the CLI
    imports the engine, and the state machine with it, only where a run or
    sweep starts."""
    modules = imported_by("import handoffsim.cli")
    assert "handoffsim.cli" in modules
    for name in ("engine", "controller"):
        assert f"handoffsim.{name}" not in modules


def test_the_metric_fold_imports_no_engine_code():
    """The fold reads only the trace, so it shares no code with the engine
    whose records it checks: loading it imports the metric table, the
    errors and the trace, and no other module of the package."""
    modules = imported_by("import handoffsim.metrics")
    assert {m for m in modules if m.startswith("handoffsim.")} == {
        "handoffsim.metrics", "handoffsim.context", "handoffsim.errors", "handoffsim.trace",
    }


def test_loading_a_scenario_imports_no_dataclasses_or_package_data_reader():
    """Every value a scenario is made of is a named tuple: ``dataclasses``
    (which pulls in ``inspect``) would cost each import several ms.  The
    package ships no data files, so nothing it loads needs
    ``importlib.resources``."""
    modules = imported_by("import handoffsim.scenario")
    assert "handoffsim.scenario" in modules
    for name in ("dataclasses", "inspect", "importlib.resources"):
        assert name not in modules


def test_the_cli_imports_no_dataclasses():
    """The trace and the metric snapshot are no dataclasses either, so a
    ``run`` or ``sweep`` process never pays for ``dataclasses`` and the
    modules it pulls in."""
    modules = imported_by("import handoffsim.cli")
    assert "handoffsim.cli" in modules
    for name in ("dataclasses", "inspect", "ast", "dis", "tokenize"):
        assert name not in modules


def test_the_cli_imports_no_process_pool(tmp_path):
    """A sweep runs its workers in forked children, so neither the CLI nor a
    parallel sweep imports a process pool; ``pickle`` is imported only when
    a sweep forks, so ``run`` and ``validate`` do without it."""
    modules = imported_by("import handoffsim.cli")
    assert "handoffsim.cli" in modules
    for name in ("concurrent.futures", "multiprocessing", "pickle"):
        assert name not in modules
    doc = json.loads((PACKAGE.parent.parent / "scenarios" / "crossing.json").read_text())
    doc["terminals"].append({**doc["terminals"][0], "id": "mt2"})
    path = tmp_path / "two.json"
    path.write_text(json.dumps(doc))
    argv = ["sweep", str(path), "--grid", "delta=0,0.2", "--workers", "2"]
    modules = imported_by(
        "import contextlib, io\nfrom handoffsim import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    assert cli.main({argv!r}) == 0\n"
        "assert out.getvalue().count(chr(10)) == 3\n"
    )
    assert "pickle" in modules  # the sweep forked
    for name in ("concurrent.futures", "multiprocessing"):
        assert name not in modules


def validity_checks(source: str) -> list[str]:
    """Each place in ``source`` that judges a scenario, in line order: a
    call that builds a ``ScenarioError``, and a ``validate`` method of a
    top-level class."""
    tree = ast.parse(source)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if "ScenarioError" in (getattr(func, "id", None), getattr(func, "attr", None)):
                found.append((node.lineno, "ScenarioError"))
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "validate":
                    found.append((item.lineno, f"{node.name}.validate"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_the_check_finds_an_error_built_and_a_validate_method():
    source = ("from errors import ScenarioError\nclass T:\n    def validate(self):\n"
              "        raise errors.ScenarioError([])\ndef f():\n    return ScenarioError(['x'])\n")
    assert validity_checks(source) == [
        "line 3: T.validate", "line 4: ScenarioError", "line 6: ScenarioError",
    ]


@pytest.mark.parametrize("module", MODULES)
def test_only_the_parser_judges_a_scenario(module):
    """A value type that validates itself would decide validity a second
    way, and report a problem with no field path."""
    found = validity_checks((PACKAGE / module).read_text())
    if module == "scenario.py":
        assert found and all(f.endswith(": ScenarioError") for f in found)
    else:
        assert found == []


def classifications(source: str) -> list[str]:
    """Each call in ``source`` that builds an ``Attachment`` or calls
    ``classify``, in line order."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name in ("Attachment", "classify"):
                found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_the_check_finds_an_attachment_built_and_a_classification():
    source = ("from taxonomy import Attachment\na = Attachment('t', 'p')\n"
              "t = taxonomy.classify(a, a)\nclassify\n")
    assert classifications(source) == ["line 2: Attachment", "line 3: classify"]


@pytest.mark.parametrize("module", MODULES)
def test_only_the_taxonomy_classifies(module):
    """A handoff's type is the taxonomy's rule: every other module asks a
    ``StationTypes`` for it, so the rule is stated once."""
    found = classifications((PACKAGE / module).read_text())
    if module == "taxonomy.py":
        assert found
    else:
        assert found == []


# The names of the package with no caller in it or in the benchmark, and
# why each is kept.
UNCALLED: dict[str, str] = {}
CALLERS = [PACKAGE, PACKAGE.parent.parent / "perfbench"]


def definitions(tree: ast.Module):
    """(name, node) for each top-level def or class, and for each public
    method of a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield item.name, item


def mentions(tree: ast.Module):
    """(name, line) for each name the module mentions outside ``__all__``:
    as a name, an attribute, an imported name, or a str constant that is an
    identifier (a name looked up with ``getattr``)."""
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value, node.lineno


def uncalled(sources: dict) -> list[str]:
    """Each definition in ``sources`` (module name -> text) whose name no
    other place in them mentions; a mention inside the definition itself
    does not count.  Names are matched alone, so a method counts as called
    wherever any attribute of its name is read."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    seen: dict[str, list] = {}
    for module, tree in trees.items():
        for name, line in mentions(tree):
            seen.setdefault(name, []).append((module, line))
    out = []
    for module, tree in trees.items():
        for name, node in definitions(tree):
            others = [
                (m, line) for m, line in seen.get(name, ())
                if m != module or not node.lineno <= line <= node.end_lineno
            ]
            if not others:
                out.append(f"{module}: {name}")
    return out


def test_the_check_finds_a_name_only_its_definition_uses():
    sources = {
        "a": "__all__ = ['f', 'C']\ndef f(n):\n    return f(n - 1)\n"
             "class C:\n    def used(self):\n        return 1\n"
             "    def unused(self):\n        return C\n",
        "b": "from a import C\nC().used()\n",
    }
    assert uncalled(sources) == ["a: f", "a: unused"]


def caller_sources() -> dict:
    """Module path -> text of every module of the package and the benchmark."""
    return {
        str(path.relative_to(PACKAGE.parent.parent)): path.read_text()
        for root in CALLERS for path in sorted(root.glob("*.py"))
    }


def test_every_public_name_has_a_caller():
    sources = caller_sources()
    # An allowlisted name that gains a caller leaves the list.
    found = [entry for entry in uncalled(sources) if entry.startswith("src/")]
    assert sorted(entry.rpartition(": ")[2] for entry in found) == sorted(UNCALLED), found


# Named-tuple fields that no code reads by name, and why each is kept.
_WHOLE = "engine._record_payload writes the record whole through _asdict"
_CHECKED = "checked, but changes no run outcome (README)"
UNREAD_FIELDS: dict[str, str] = {
    "HandoffRecord.from_net": _WHOLE,
    "HandoffRecord.ho_type": _WHOLE,
    "HandoffRecord.uf_new": _WHOLE,
    "CriterionDef.source": _CHECKED,
    "CriterionDef.unit": _CHECKED,
    "BaseStation.channels": "ROADMAP item 23: deleted with the change to perfbench/",
}


def _called(node: ast.Call) -> str:
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def declared_fields(tree: ast.Module):
    """(type, field) for each field a named tuple declares literally: each
    annotated name in the body of a ``NamedTuple`` class, and each str of
    ``namedtuple(<str>, (<str>, ...))``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            (getattr(base, "id", None) or getattr(base, "attr", None)) == "NamedTuple"
            for base in node.bases
        ):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield node.name, item.target.id
        elif isinstance(node, ast.Call) and _called(node) == "namedtuple" and len(node.args) > 1:
            name, fields = node.args[:2]
            if isinstance(name, ast.Constant) and isinstance(fields, (ast.Tuple, ast.List)):
                for elt in fields.elts:
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                        yield name.value, elt.value


def reads(tree: ast.Module):
    """Each name read as an attribute, or through ``getattr`` with a
    constant name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call) and _called(node) == "getattr" and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def unread_fields(sources: dict) -> list[str]:
    """Each ``type.field`` declared in ``sources`` (module name -> text) that
    no place in them reads.  Names are matched alone, so a field counts as
    read wherever any attribute of its name is."""
    trees = [ast.parse(text) for text in sources.values()]
    read = {name for tree in trees for name in reads(tree)}
    return [f"{owner}.{field}" for tree in trees
            for owner, field in declared_fields(tree) if field not in read]


def test_the_check_finds_a_field_nothing_reads():
    source = ("from typing import NamedTuple\nfrom collections import namedtuple\n"
              "class P(NamedTuple):\n    x: int\n    y: int = 0\n"
              "Q = namedtuple('Q', ('a', 'b'))\nclass R(namedtuple('R', ['c'])):\n    pass\n"
              "def f(p, q, r):\n    q.b = 1\n    return p.x, getattr(q, 'a'), r._replace(c=2)\n")
    assert unread_fields({"m": source}) == ["P.y", "Q.b", "R.c"]


def test_every_named_tuple_field_is_read():
    # An allowlisted field that gains a reader leaves the list.
    assert sorted(unread_fields(caller_sources())) == sorted(UNREAD_FIELDS)
