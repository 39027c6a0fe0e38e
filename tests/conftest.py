import json
import sys
from pathlib import Path

import pytest

from brext.bruck_reilly import decode, encode, parse_elem
from brext.config import data_path, load_system

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(scope="session")
def trivial():
    return load_system(data_path("trivial"))


@pytest.fixture(scope="session")
def c2c2():
    return load_system(data_path("c2c2"))


@pytest.fixture(scope="session")
def s3c2():
    """S3 over C2 by the sign map, with a zero: the non-abelian system, so
    a product read with its factors swapped gives a different answer."""
    return load_system(FIXTURES / "s3c2.json")


@pytest.fixture(scope="session")
def c4c2c2():
    """C4 x C2 x C2 with theta of tail 2 and cycle 3 on its one level: the
    long-orbit system, 16 group parts per box."""
    return load_system(FIXTURES / "c4c2c2.json")


@pytest.fixture(scope="session")
def c2c2_obj():
    return json.loads(data_path("c2c2").read_text())


def plant(monkeypatch, target, fault, B=None):
    """Install fault(original) for monkeypatch to undo: a target
    "compiled.<field>" replaces that field of B's compiled form of T, a
    "Class.attr" that attribute of the brext class, and a name what it names
    in every brext module that binds it, found where it is defined."""
    if target.startswith("compiled."):
        field, compiled = target.removeprefix("compiled."), B.sys.compiled
        monkeypatch.setitem(vars(B.sys), "compiled", compiled._replace(**{field: fault(getattr(compiled, field))}))
        return
    name, _, attr = target.partition(".")
    modules = [m for key, m in sys.modules.items() if key.partition(".")[0] == "brext"]
    original = next(obj for m in modules if getattr(obj := vars(m).get(name), "__module__", None) == m.__name__)
    if attr:
        monkeypatch.setattr(original, attr, fault(getattr(original, attr)))
        return
    mutant = fault(original)
    for module, binding in [(m, binding) for m in modules for binding, obj in vars(m).items() if obj is original]:
        monkeypatch.setattr(module, binding, mutant)


def corrupt(pair, change):
    """A fault for brmul_ids: its rows with the one product pair[0] * pair[1]
    replaced by change(B, product), wherever it appears."""
    x0, y0 = map(parse_elem, pair)

    def fault(brmul_ids):
        def rows(B, xs, ys, n):
            for x, row in zip(xs, brmul_ids(B, xs, ys, n)):
                yield [encode(B, change(B, decode(B, p, n)), n) if (x, y) == (x0, y0) else p for y, p in zip(ys, row)]
        return rows
    return fault


def fault_files():
    """All fault-injected configs with their expected violation fragment."""
    manifest = json.loads((FIXTURES / "faults" / "manifest.json").read_text())
    return [(FIXTURES / "faults" / name, frag) for name, frag in manifest.items()]


# Verdict lines recorded by the acceptance module; printed after the run so
# they survive output capture.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
