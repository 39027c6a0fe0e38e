"""Finite groups as explicit Cayley tables, plus homomorphisms between them.

Elements are indices 0..order-1.  The inverse array is always derived from
the table when a group is built; it is never taken from external input.
Validation is exhaustive, which is why the order is capped.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import IndexOutOfRange, MalformedMap, MalformedTable, OrderTooLarge

MAX_ORDER = 512


def is_int(v) -> bool:
    """An int that is not a bool, so JSON true/false never pass as 1/0."""
    return isinstance(v, int) and not isinstance(v, bool)


@dataclass
class ValidationReport:
    """Accumulates human-readable violation strings; empty means valid."""

    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, msg: str) -> None:
        self.violations.append(msg)

    def merge(self, other: "ValidationReport", prefix: str = "") -> None:
        for v in other.violations:
            self.violations.append(prefix + v if prefix else v)


@dataclass(frozen=True)
class GroupTable:
    """A finite group: n x n Cayley table of element indices."""

    order: int
    table: tuple[tuple[int, ...], ...]
    identity: int
    inverse: tuple[int | None, ...]
    labels: tuple[str, ...] | None = None

    @classmethod
    def from_rows(
        cls,
        rows,
        identity: int,
        labels=None,
    ) -> "GroupTable":
        """Build a table, deriving the inverse array by scanning rows.

        Elements with no two-sided inverse get None there; validate_group
        reports them.  Raises on structural damage rather than reporting it,
        since nothing else can be checked on a ragged table.
        """
        n = len(rows)
        if n == 0:
            raise MalformedTable("empty table")
        if n > MAX_ORDER:
            raise OrderTooLarge(f"order {n} exceeds cap {MAX_ORDER}")
        tbl = tuple(tuple(row) for row in rows)
        for a, row in enumerate(tbl):
            if len(row) != n:
                raise MalformedTable(f"row {a} has length {len(row)}, expected {n}")
            for b, v in enumerate(row):
                if not is_int(v) or not 0 <= v < n:
                    raise MalformedTable(f"entry ({a},{b}) = {v!r} outside 0..{n - 1}")
        if not is_int(identity) or not 0 <= identity < n:
            raise MalformedTable(f"identity {identity!r} outside 0..{n - 1}")
        inv = []
        for a in range(n):
            found = None
            for b in range(n):
                if tbl[a][b] == identity and tbl[b][a] == identity:
                    found = b
                    break
            inv.append(found)
        lab = tuple(str(x) for x in labels) if labels is not None else None
        if lab is not None and len(lab) != n:
            raise MalformedTable(f"{len(lab)} labels for {n} elements")
        return cls(order=n, table=tbl, identity=identity, inverse=tuple(inv), labels=lab)


def cyclic_group(n: int) -> GroupTable:
    """Z_n with addition mod n; element i is the residue i."""
    rows = [[(a + b) % n for b in range(n)] for a in range(n)]
    return GroupTable.from_rows(rows, identity=0, labels=[str(i) for i in range(n)])


def trivial_group() -> GroupTable:
    return cyclic_group(1)


def gmul(t: GroupTable, a: int, b: int) -> int:
    if not (0 <= a < t.order and 0 <= b < t.order):
        raise IndexOutOfRange(f"({a},{b}) outside group of order {t.order}")
    return t.table[a][b]


def ginv(t: GroupTable, a: int) -> int:
    if not 0 <= a < t.order:
        raise IndexOutOfRange(f"{a} outside group of order {t.order}")
    inv = t.inverse[a]
    if inv is None:
        raise MalformedTable(f"element {a} has no two-sided inverse")
    return inv


def validate_group(t: GroupTable) -> ValidationReport:
    """Check every group axiom exhaustively and list each violation."""
    if t.order > MAX_ORDER:
        raise OrderTooLarge(f"order {t.order} exceeds cap {MAX_ORDER}")
    n = t.order
    if len(t.table) != n or any(len(row) != n for row in t.table):
        raise MalformedTable("table dimensions disagree with order")
    rep = ValidationReport()
    for a in range(n):
        for b in range(n):
            if not 0 <= t.table[a][b] < n:
                rep.add(f"closure violated at ({a},{b})")
    if rep.violations:
        return rep  # arithmetic below would index out of the carrier
    e = t.identity
    for a in range(n):
        if t.table[e][a] != a or t.table[a][e] != a:
            rep.add(f"identity axiom violated for element {a}")
    for a in range(n):
        inv = t.inverse[a]
        if inv is None or t.table[a][inv] != e or t.table[inv][a] != e:
            rep.add(f"inverse axiom violated for element {a}")
    for a in range(n):
        for b in range(n):
            for c in range(n):
                if t.table[t.table[a][b]][c] != t.table[a][t.table[b][c]]:
                    rep.add(f"associativity violated at ({a},{b},{c})")
    return rep


@dataclass(frozen=True)
class GroupHom:
    """A map between groups given by its value on every domain element."""

    domain: GroupTable
    codomain: GroupTable
    map: tuple[int, ...]

    def __call__(self, a: int) -> int:
        if not 0 <= a < self.domain.order:
            raise IndexOutOfRange(f"{a} outside domain of order {self.domain.order}")
        return self.map[a]


def hom(domain: GroupTable, codomain: GroupTable, mapping) -> GroupHom:
    m = tuple(mapping)
    if len(m) != domain.order:
        raise MalformedMap(f"map has {len(m)} entries for domain of order {domain.order}")
    for a, v in enumerate(m):
        if not is_int(v) or not 0 <= v < codomain.order:
            raise MalformedMap(f"map[{a}] = {v!r} outside codomain of order {codomain.order}")
    return GroupHom(domain=domain, codomain=codomain, map=m)


def identity_hom(g: GroupTable) -> GroupHom:
    return hom(g, g, range(g.order))


def constant_hom(domain: GroupTable, codomain: GroupTable) -> GroupHom:
    """The annihilating map sending everything to the codomain identity."""
    return hom(domain, codomain, [codomain.identity] * domain.order)


def compose_homs(first: GroupHom, second: GroupHom) -> GroupHom:
    """first then second; domains must line up."""
    if first.codomain is not second.domain and first.codomain != second.domain:
        raise MalformedMap("composition domains disagree")
    return hom(first.domain, second.codomain, [second.map[v] for v in first.map])


def validate_hom(h: GroupHom) -> ValidationReport:
    """Exhaustive pair check of the homomorphism law."""
    if len(h.map) != h.domain.order:
        raise MalformedMap(
            f"map has {len(h.map)} entries for domain of order {h.domain.order}"
        )
    for a, v in enumerate(h.map):
        if not 0 <= v < h.codomain.order:
            raise MalformedMap(f"map[{a}] = {v!r} outside codomain")
    rep = ValidationReport()
    for a in range(h.domain.order):
        for b in range(h.domain.order):
            lhs = h.map[gmul(h.domain, a, b)]
            rhs = gmul(h.codomain, h.map[a], h.map[b])
            if lhs != rhs:
                rep.add(f"not a homomorphism at ({a},{b})")
    return rep
