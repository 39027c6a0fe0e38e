"""Static checks on the package's source.

`python -O` strips exactly two things from a module: its assert statements
and the code under `if __debug__:` (it also makes `__debug__` read False).
Docstrings stay; only -OO strips those.  So while no module holds an
assert or reads `__debug__`, -O cannot change what the package does on any
input, and no guard can be written as an assert.

The package's export list is pinned the same way: `brext/__init__.py`
exports exactly the names it imports, so a name cannot leave one of the two
lists and stay in the other.
"""

import ast
from pathlib import Path

import brext

MODULES = sorted(Path(brext.__file__).parent.glob("*.py"))


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
