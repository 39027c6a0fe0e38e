import json
from pathlib import Path

import pytest

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
