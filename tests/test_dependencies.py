"""Static checks of the package source: it runs on the standard library
alone, reads every name it imports, holds no assert statement, and exports
exactly the names the README lists."""

import ast
import re
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_every_absolute_import_is_stdlib():
    modules = sorted((ROOT / "src" / "circorder").glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, \
                    f"{path.name}:{node.lineno} imports {name}"


def _read_names(tree) -> set:
    """Every name the module reads: loaded names, and the names inside
    annotations written as strings."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        notes = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            notes = [a and a.annotation for a in (*args.posonlyargs, *args.args,
                                                  *args.kwonlyargs, args.vararg, args.kwarg)]
            notes.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            notes = [node.annotation]
        for sub in (sub for note in notes if note for sub in ast.walk(note)):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                read |= _read_names(ast.parse(sub.value, mode="eval"))
    return read


def test_every_import_is_read():
    # __init__ re-exports what it imports; every other module must read
    # each name it imports (pyflakes' "imported but unused")
    modules = sorted((ROOT / "src" / "circorder").glob("*.py"))
    assert len(modules) > 1
    for path in modules:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = _read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    assert name in read, f"{path.name}:{node.lineno} imports {name} unread"


def test_no_module_asserts():
    # `python -O` strips assert statements, so every check in the package
    # raises instead (CheckFailed by `errors.require`); the `-O` tests run
    # only the paths they reach, and this covers every module
    for path in sorted((ROOT / "src" / "circorder").glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name}: assert at lines {lines}"


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []


def test_every_export_is_listed_in_the_readme():
    # README's "Public names" section says, for each export, which CLI path,
    # roadmap item, benchmark or library use reads it; a name it does not
    # list has no stated reader.  The names are the head of each list item,
    # before its colon, so code spans in the text after it are not names.
    import circorder
    exports = {name for name, value in vars(circorder).items()
               if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    readme = (ROOT / "README.md").read_text()
    assert "\n## Public names\n" in readme
    section = readme.split("\n## Public names\n", 1)[1].split("\n## ", 1)[0]
    items = re.findall(r"^- (.*?)(?=\n- |\n\n|\Z)", section, re.M | re.S)
    listed = []
    for item in items:
        head = item.split(":", 1)[0]
        assert re.fullmatch(r"`\w+`(,\s+`\w+`)*", head), f"not a list of names: {head!r}"
        listed += re.findall(r"`(\w+)`", head)
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == exports
    assert f"exports {len(exports)} names" in section
