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

Every public top-level name a package module defines has a caller: a read
of it in its own module outside its definition, in another package module
(`__init__.py` only re-exports, so it does not count) or in the benchmark.
So a name that only tests use lives in the tests, not in the package.
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


def _reads(nodes) -> set[str]:
    """Every name the nodes read: each loaded name and each attribute."""
    return {n.id if isinstance(n, ast.Name) else n.attr for node in nodes for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) or isinstance(n, ast.Attribute)}


def _defines(stmt) -> list[str]:
    """The names a top-level statement binds by def, class or assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def test_every_public_name_of_the_package_has_a_caller():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES if p.name != "__init__.py"}
    bench = _reads(ast.parse(p.read_text(), filename=str(p)) for p in sorted((ROOT / "bench").glob("*.py")))
    assert {"verify.py", "groups.py"} <= set(trees) and "suite_associativity" in bench
    uncalled = []
    for module, tree in trees.items():
        elsewhere = bench.union(*(_reads([t]) for other, t in trees.items() if other != module))
        for stmt in tree.body:
            own = _reads(s for s in tree.body if s is not stmt)
            uncalled += [f"{module}:{name}" for name in _defines(stmt)
                         if not name.startswith("_") and name not in own and name not in elsewhere]
    assert uncalled == []
