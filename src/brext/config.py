"""Loading systems from JSON configs.

Schema (format_version "1"):

    {
      "format_version": "1",
      "name": "c2c2",
      "with_zero": true,
      "chain": 2,
      "groups": [{"order": 2, "table": [[0,1],[1,0]], "identity": 0,
                  "labels": ["e","g"]}, ...],
      "bonds": {"0->1": [0, 1]},
      "theta": [[0, 1], [0, 1]]
    }

Inverse arrays are always derived from the tables at load time; an
"inverse" key in a group object is ignored.  "labels" is optional, and when
present a list of strings, one per element.  Structural damage (unreadable
JSON, missing keys, ragged tables, out-of-range map entries) raises
ParseError; a well-formed config that fails the algebraic axioms raises
ValidationFailed carrying every violation validate_system lists.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .bruck_reilly import BRSystem
from .clifford import CliffordSystem, validate_system
from .errors import MalformedMap, MalformedTable, OrderTooLarge, ParseError, ValidationFailed
from .groups import GroupHom, GroupTable, is_int

FORMAT_VERSION = "1"

_BOND_KEY = re.compile(r"(0|[1-9][0-9]*)->(0|[1-9][0-9]*)")

DATA_DIR = Path(__file__).parent / "data"


def data_path(name: str) -> Path:
    """Path of a shipped example config by bare name."""
    return DATA_DIR / f"{name}.json"


def group_from_obj(obj) -> GroupTable:
    if not isinstance(obj, dict):
        raise ParseError(f"group must be an object, got {type(obj).__name__}")
    for key in ("order", "table", "identity"):
        if key not in obj:
            raise ParseError(f"group object lacks {key!r}")
    labels = obj.get("labels", [])
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise ParseError(f"labels must be a list of strings, got {labels!r}")
    try:
        g = GroupTable(obj["table"], obj["identity"], obj.get("labels"))
    except (MalformedTable, OrderTooLarge, TypeError) as exc:
        raise ParseError(f"bad group table: {exc}") from exc
    if not is_int(obj["order"]) or g.order != obj["order"]:
        raise ParseError(f"declared order {obj['order']} but table has {g.order} rows")
    return g


def system_from_obj(obj, name: str = "") -> BRSystem:
    """Build and validate a system from a parsed config object."""
    if not isinstance(obj, dict):
        raise ParseError("config must be a JSON object")
    if obj.get("format_version") != FORMAT_VERSION:
        raise ParseError(
            f"format_version must be {FORMAT_VERSION!r}, got {obj.get('format_version')!r}"
        )
    for key in ("chain", "groups", "bonds", "theta"):
        if key not in obj:
            raise ParseError(f"config lacks {key!r}")
    k = obj["chain"]
    if not is_int(k) or k < 1:
        raise ParseError(f"chain must be a positive integer, got {k!r}")
    if not isinstance(obj["groups"], list):
        raise ParseError("groups must be a list of group objects")
    name = obj.get("name", name)
    if not isinstance(name, str):
        raise ParseError(f"name must be a string, got {type(name).__name__}")
    with_zero = obj.get("with_zero", False)
    if not isinstance(with_zero, bool):
        raise ParseError(f"with_zero must be true or false, got {with_zero!r}")
    groups = tuple(group_from_obj(g) for g in obj["groups"])
    if len(groups) != k:
        raise ParseError(f"{len(groups)} groups for chain of size {k}")

    bonds: dict[tuple[int, int], GroupHom] = {}
    if not isinstance(obj["bonds"], dict):
        raise ParseError("bonds must be an object keyed 'a->b'")
    for key, mapping in obj["bonds"].items():
        m = _BOND_KEY.fullmatch(key)
        if not m:
            raise ParseError(f"bond key {key!r} is not of the form 'a->b'")
        a, b = int(m.group(1)), int(m.group(2))
        if not (0 <= a < k and 0 <= b < k):
            raise ParseError(f"bond {key!r} outside chain of size {k}")
        if a > b:
            raise ParseError(f"bond {key!r} goes up the chain")
        try:
            bonds[(a, b)] = GroupHom(groups[a], groups[b], mapping)
        except (MalformedMap, TypeError) as exc:
            raise ParseError(f"bond {key!r}: {exc}") from exc

    if not isinstance(obj["theta"], list) or len(obj["theta"]) != k:
        raise ParseError(f"theta must list one map per level, got {obj['theta']!r}")
    theta = []
    for level, mapping in enumerate(obj["theta"]):
        try:
            theta.append(GroupHom(groups[level], groups[0], mapping))
        except (MalformedMap, TypeError) as exc:
            raise ParseError(f"theta[{level}]: {exc}") from exc

    sys = CliffordSystem(groups=groups, bonds=bonds, theta=tuple(theta))
    violations = validate_system(sys)
    if violations:
        raise ValidationFailed(violations, name)
    return BRSystem(
        sys=sys,
        with_zero=with_zero,
        name=name,
    )


def load_system(path) -> BRSystem:
    path = Path(path)
    try:  # ValueError: bytes that are not UTF-8
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:  # ValueError: bad JSON, or an integer over CPython's digit limit
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from exc
    return system_from_obj(obj, name=path.stem)
