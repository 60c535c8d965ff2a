"""The package runs on the standard library alone: `dependencies = []`."""

import ast
import sys

import pytest

from reference import ROOT


def _imported(path) -> set:
    """The top-level module of every absolute import in the file, lazy
    imports inside functions included."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.split(".")[0])
    return modules


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "elas").glob("*.py")),
                         ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    outside = _imported(path) - set(sys.stdlib_module_names) - {"elas"}
    assert not outside, f"{path.name} imports {sorted(outside)}"


def test_declares_no_dependencies():
    if sys.version_info < (3, 11):
        pytest.skip("tomllib needs Python 3.11")
    import tomllib
    with open(ROOT / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == []
