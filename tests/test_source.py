"""Static checks on the package's source.

`python -O` strips exactly two things from a module: its assert statements
and the code under `if __debug__:` (it also makes `__debug__` read False).
Docstrings stay; only -OO strips those.  So while no module holds an
assert or reads `__debug__`, -O cannot change what the package does on any
input, and no guard can be written as an assert.

The package's export list is pinned the same way: `brext/__init__.py`
exports exactly the names it imports, so a name cannot leave one of the two
lists and stay in the other.

The Python floor, 3.10 in pyproject.toml, is checked by parsing: every
source file of the package, the tests and the benchmark parses with the
3.10 grammar, which refuses later syntax such as `except*`.
"""

import ast
from pathlib import Path

import brext

MODULES = sorted(Path(brext.__file__).parent.glob("*.py"))
ROOT = Path(__file__).resolve().parent.parent


def _stripped_by_python_O(node) -> bool:
    return (
        isinstance(node, ast.Assert)
        or isinstance(node, ast.Name) and node.id == "__debug__"
        or isinstance(node, ast.Attribute) and node.attr == "__debug__"
    )


def test_python_O_has_nothing_to_strip():
    assert "cli.py" in {path.name for path in MODULES}
    found = [
        f"{path.name}:{node.lineno}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if _stripped_by_python_O(node)
    ]
    assert found == []


def test_the_export_list_is_exactly_the_imported_names():
    init = Path(brext.__file__)
    imported = [
        alias.asname or alias.name
        for node in ast.parse(init.read_text(), filename=str(init)).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert sorted(brext.__all__) == sorted(imported + ["__version__"])


def test_every_source_file_parses_with_the_python_3_10_grammar():
    paths = [p for d in ("src/brext", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
    assert {"cli.py", "test_source.py", "run.py"} <= {p.name for p in paths}
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
