"""The package runs on the standard library alone."""

import ast
import sys
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


def test_pyproject_declares_no_runtime_dependencies():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["dependencies"] == []
