"""Finite groups as explicit Cayley tables, plus homomorphisms between them.

Elements are indices 0..order-1.  Shape is checked once, where a table or a
map is built: a GroupTable holds a square table of in-range entries and
derives its order and inverse array from it, never from input, and a
GroupHom, the one way a map is built, holds one in-range value per domain
element.  The validators check only the laws, comparing whole rows:
associativity by Light's test on a greedy generating set, the hom law one
domain row at a time.  The row and pair scans run only on a table or map
that fails those, to list the violations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter

from .errors import IndexOutOfRange, MalformedMap, MalformedTable, OrderTooLarge

MAX_ORDER = 512


def is_int(v) -> bool:
    """An int that is not a bool, so JSON true/false never pass as 1/0."""
    return isinstance(v, int) and not isinstance(v, bool)


def row_reader(idx):
    """A function reading a sequence at every index of idx, as a tuple;
    itemgetter alone returns a bare item for a single index."""
    get = itemgetter(*idx)
    return get if len(idx) > 1 else lambda seq: (get(seq),)


@dataclass(frozen=True)
class GroupTable:
    """A finite group: n x n Cayley table of element indices, with order and
    inverse derived from it.  Elements with no two-sided inverse get None
    there; validate_group reports them.  A table that is not square and in
    range raises, since nothing else can be checked on it."""

    table: tuple[tuple[int, ...], ...]
    identity: int
    labels: tuple[str, ...] | None = None
    order: int = field(init=False)
    inverse: tuple[int | None, ...] = field(init=False)

    def __post_init__(self):
        n = len(self.table)
        if n == 0:
            raise MalformedTable("empty table")
        if n > MAX_ORDER:
            raise OrderTooLarge(f"order {n} exceeds cap {MAX_ORDER}")
        tbl = tuple(tuple(row) for row in self.table)
        for a, row in enumerate(tbl):
            if len(row) != n:
                raise MalformedTable(f"row {a} has length {len(row)}, expected {n}")
            if set(map(type, row)) == {int} and 0 <= min(row) and max(row) < n:
                continue
            for b, v in enumerate(row):
                if not is_int(v) or not 0 <= v < n:
                    raise MalformedTable(f"entry ({a},{b}) = {v!r} outside 0..{n - 1}")
        e = self.identity
        if not is_int(e) or not 0 <= e < n:
            raise MalformedTable(f"identity {e!r} outside 0..{n - 1}")
        inv = tuple(_two_sided_inverse(tbl, a, e) for a in range(n))
        lab = tuple(str(x) for x in self.labels) if self.labels is not None else None
        if lab is not None and len(lab) != n:
            raise MalformedTable(f"{len(lab)} labels for {n} elements")
        for name, value in (("table", tbl), ("labels", lab), ("order", n), ("inverse", inv)):
            object.__setattr__(self, name, value)


def _two_sided_inverse(tbl, a: int, e: int) -> int | None:
    """The least b with a*b = b*a = e, or None."""
    row, b = tbl[a], -1
    while True:
        try:
            b = row.index(e, b + 1)
        except ValueError:
            return None
        if tbl[b][a] == e:
            return b


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


def _generators(tbl) -> list[int]:
    """A generating set of a closed table, picked greedily: each generator is
    the least element that is not yet a left-normed product of the earlier
    ones.  The products are found by a search that multiplies on the right."""
    reached = [False] * len(tbl)
    words: list[int] = []
    gens: list[int] = []
    for s in range(len(tbl)):
        if reached[s]:
            continue
        gens.append(s)
        reached[s] = True
        new = [s]
        for x in words:
            y = tbl[x][s]
            if not reached[y]:
                reached[y] = True
                new.append(y)
        for x in new:  # grows while it is walked: a breadth-first search
            row = tbl[x]
            for g in gens:
                y = row[g]
                if not reached[y]:
                    reached[y] = True
                    new.append(y)
        words += new
    return gens


def _light_associative(tbl) -> bool:
    """Light's test: (x*g)*y = x*(g*y) for every generator g and all x, y.

    The g that pass are closed under the product, so a pass on a generating
    set proves the table associative; no group axiom is assumed."""
    for g in _generators(tbl):
        read_gy = row_reader(tbl[g])
        for row in tbl:
            if tbl[row[g]] != read_gy(row):
                return False
    return True


def validate_group(t: GroupTable) -> list[str]:
    """List each violation of the identity, inverse and associativity laws.
    Associativity is Light's test; only when it fails are the rows (a*b)*c
    and a*(b*c) over all c compared for every pair (a, b), and just the
    rows that differ walked entry by entry."""
    rep = []
    n, tbl, e = t.order, t.table, t.identity
    for a in range(n):
        if tbl[e][a] != a or tbl[a][e] != a:
            rep.append(f"identity axiom violated for element {a}")
    for a, inv in enumerate(t.inverse):  # built only where both products give e
        if inv is None:
            rep.append(f"inverse axiom violated for element {a}")
    if _light_associative(tbl):
        return rep
    readers = [row_reader(row) for row in tbl]
    for a, row in enumerate(tbl):
        for b, read_b in enumerate(readers):
            lhs, rhs = tbl[row[b]], read_b(row)
            if lhs != rhs:
                for c in range(n):
                    if lhs[c] != rhs[c]:
                        rep.append(f"associativity violated at ({a},{b},{c})")
    return rep


@dataclass(frozen=True)
class GroupHom:
    """A map between groups given by its value on every domain element,
    checked here to have one in-range entry per domain element."""

    domain: GroupTable
    codomain: GroupTable
    map: tuple[int, ...]

    def __post_init__(self):
        m, n = tuple(self.map), self.codomain.order
        if len(m) != self.domain.order:
            raise MalformedMap(f"map has {len(m)} entries for domain of order {self.domain.order}")
        for a, v in enumerate(m):
            if not is_int(v) or not 0 <= v < n:
                raise MalformedMap(f"map[{a}] = {v!r} outside codomain of order {n}")
        object.__setattr__(self, "map", m)

    def __call__(self, a: int) -> int:
        if not 0 <= a < self.domain.order:
            raise IndexOutOfRange(f"{a} outside domain of order {self.domain.order}")
        return self.map[a]


def validate_hom(h: GroupHom) -> list[str]:
    """The homomorphism law a domain row at a time: h(a*b) over all b against
    h(a)*h(b), listing each violation.  Only a differing row is walked."""
    rep = []
    m, dom, cod = h.map, h.domain.table, h.codomain.table
    read_m = row_reader(m)
    for a in range(h.domain.order):
        if row_reader(dom[a])(m) == read_m(cod[m[a]]):
            continue
        for b in range(h.domain.order):
            lhs = h.map[gmul(h.domain, a, b)]
            rhs = gmul(h.codomain, h.map[a], h.map[b])
            if lhs != rhs:
                rep.append(f"not a homomorphism at ({a},{b})")
    return rep
