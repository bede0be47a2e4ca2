"""Every module the code imports is in the standard library or declared.

``pyproject.toml`` is the one list of what an install pulls in.  An
import of anything else works where that module happens to be installed
and fails everywhere else, also inside a function no other test reaches,
so these tests read every import statement of the package and the suite.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # in the standard library from Python 3.11

ROOT = Path(__file__).resolve().parent.parent
PROJECT = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def _names(requirements: list[str]) -> set[str]:
    """The distribution names of requirement strings such as ``numpy>=2.0``."""
    return {re.match(r"[\w.-]+", r)[0].lower().replace("-", "_") for r in requirements}


def _imports(source: str):
    """The top-level module of every absolute import in ``source``, at any depth."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


RUNTIME = set(sys.stdlib_module_names) | _names(PROJECT["dependencies"])
# the suite may also import the test extra, the package and its own modules
TESTING = (
    RUNTIME
    | _names(PROJECT["optional-dependencies"]["test"])
    | {PROJECT["name"]}
    | {path.stem for path in (ROOT / "tests").glob("*.py")}
)


def test_imports_inside_functions_are_read():
    source = "from . import phy\nimport os.path\ndef f():\n    from numpy.linalg import inv\n"
    assert list(_imports(source)) == ["os", "numpy"]


@pytest.mark.parametrize("tree,allowed", [("src", RUNTIME), ("tests", TESTING)])
def test_every_import_is_declared(tree, allowed):
    undeclared = sorted(
        f"{path.relative_to(ROOT)}: {name}"
        for path in (ROOT / tree).rglob("*.py")
        for name in _imports(path.read_text())
        if name not in allowed
    )
    assert not undeclared, f"imports missing from pyproject.toml: {undeclared}"
