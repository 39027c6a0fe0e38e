"""Finite chains of groups glued by bonding homomorphisms.

Levels are indexed 0..size-1 with level 0 the greatest element of the chain;
the semilattice meet of two levels is therefore max of their indices.  An
element is a (level, elem) pair and the product of two elements lands in the
group at the meet level after pushing both factors down along the bonds.
Every idempotent is a level identity, so the idempotents form a chain and
commute with everything, which makes these exactly the inverse monoids whose
idempotent chain is finite.

The structure also carries a family theta of homomorphisms into the top
group, one per level, which together must form a monoid endomorphism of the
whole semigroup into its unit group.  theta_pow iterates it; iterates beyond
the first all happen inside the top group.

A system's shape is checked when it is built; validate_system checks only
the laws.  On first use a system is compiled into the one form of T every
runtime layer reads, on ids 0..|T|-1 of shared element objects: products,
the first theta step, idempotents and inverses.  theta_pow is the one fast
route for theta^n and the only reader of the first step; it applies the
top map sys.theta[0], a bounds-checked GroupHom, for the n - 1 others: the
compiled step is about 11 times faster, but bench/run.py keeps every
query, so its peak RSS would outgrow its bound over more batteries.
cmul_oracle (bonds and Cayley tables) and theta_pow_oracle (the plain
loop) serve validate_system's failure path and verify's structure suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple

from .errors import IndexOutOfRange, MalformedMap, MissingBond, NotAGroup
from .groups import GroupHom, GroupTable, ginv, gmul, row_reader, validate_group, validate_hom


class CliffordElement(NamedTuple):
    level: int
    elem: int


class CompiledSystem(NamedTuple):
    """A chain of groups flattened for lookup, on integer ids.

    elements numbers T level by level from the top, so a top element's id
    is its group coordinate, and ids maps each element back to its id; the
    keys of ids are exactly the elements of T.  products[a][b] is the id of
    a * b, theta[a] that of theta(a), inverse[a] that of a^-1 and
    idempotents[l] that of level l's identity, for ids a, b and levels l.
    """

    elements: tuple[CliffordElement, ...]
    ids: dict
    products: list[list[int]]
    theta: list[int]
    inverse: list[int]
    idempotents: tuple[int, ...]


@dataclass(frozen=True)
class CliffordSystem:
    """Groups on the chain of len(groups) levels plus bonds and the theta
    family into the top group, refused here unless shaped as that data."""

    groups: tuple[GroupTable, ...]
    bonds: dict = field(compare=False)  # (upper, lower) -> GroupHom, upper <= lower
    theta: tuple[GroupHom, ...]

    def __post_init__(self):
        k, groups = len(self.groups), self.groups
        if not k:
            raise ValueError("chain needs at least one level")
        for (upper, lower), b in self.bonds.items():
            if not 0 <= upper <= lower < k:
                raise MalformedMap(f"bond ({upper},{lower}) outside 0 <= upper <= lower < {k}")
            if b.domain != groups[upper] or b.codomain != groups[lower]:
                raise MalformedMap(f"bond ({upper},{lower}) endpoints disagree with chain groups")
        if len(self.theta) != k:
            raise MalformedMap(f"{len(self.theta)} theta maps for chain of size {k}")
        for level, th in enumerate(self.theta):
            if th.domain != groups[level] or th.codomain != groups[0]:
                raise MalformedMap(f"theta[{level}] endpoints must be group {level} -> group 0")

    def group(self, level: int) -> GroupTable:
        if not 0 <= level < len(self.groups):
            raise ValueError(f"level {level} outside chain of size {len(self.groups)}")
        return self.groups[level]

    def bond(self, upper: int, lower: int) -> GroupHom:
        """The bonding map from the group at `upper` down to `lower`."""
        if upper == lower:
            self.group(upper)  # raises for a level outside the chain
            return self._identity_homs[upper]
        if lower < upper:
            raise MissingBond(f"no bond upward from level {upper} to {lower}")
        try:
            return self.bonds[(upper, lower)]
        except KeyError:
            raise MissingBond(f"missing bonding map for levels ({upper},{lower})") from None

    def unit(self) -> CliffordElement:
        """The top identity, the compiled form's shared element: its id is its group coordinate."""
        return self.compiled.elements[self.groups[0].identity]

    def elements(self) -> Iterator[CliffordElement]:
        for level, g in enumerate(self.groups):
            for x in range(g.order):
                yield CliffordElement(level, x)

    def order(self) -> int:
        return sum(g.order for g in self.groups)

    @cached_property
    def _identity_homs(self) -> tuple[GroupHom, ...]:
        return tuple(GroupHom(g, g, range(g.order)) for g in self.groups)

    @cached_property
    def compiled(self) -> CompiledSystem:
        """T on ids with its product, theta and inverse tables and its
        idempotents, built on first use.

        Each level pair fills its block of the table from the bond maps and
        the Cayley table at the meet level, and theta is read off its maps,
        which construction guarantees run into the top group, whose ids are
        its group coordinates.  a^-1 is the first b from a's level on with
        a * b a's level identity (a lower factor gives a lower product).  A
        non-identity idempotent or an element with no inverse raises
        NotAGroup, here, once.
        """
        elements = tuple(self.elements())
        ids = {e: n for n, e in enumerate(elements)}
        products = []
        for la, ga in enumerate(self.groups):
            rows = [[] for _ in range(ga.order)]
            for lb, gb in enumerate(self.groups):
                lvl = max(la, lb)
                down_a, down_b = self.bond(la, lvl).map, self.bond(lb, lvl).map
                table, base = self.groups[lvl].table, ids[CliffordElement(lvl, 0)]
                for x, row in enumerate(rows):
                    ta = table[down_a[x]]
                    row += [base + ta[down_b[y]] for y in range(gb.order)]
            products += rows
        idem = tuple(e for e, row in enumerate(products) if row[e] == e)
        for e in idem:
            if elements[e].elem != self.groups[elements[e].level].identity:
                raise NotAGroup(f"non-identity idempotent {elements[e]} in a group")
        units, inverse = {elements[e].level: e for e in idem}, []
        for a, row in zip(elements, products):
            try:
                inverse.append(row.index(units[a.level], ids[CliffordElement(a.level, 0)]))
            except (KeyError, ValueError):
                raise NotAGroup(f"element {tuple(a)} has no inverse in its group") from None
        return CompiledSystem(elements, ids, products, [v for th in self.theta for v in th.map], inverse, idem)


def cmul(sys: CliffordSystem, a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Product, looked up in the compiled table."""
    compiled = sys.compiled
    try:
        return compiled.elements[compiled.products[compiled.ids[a]][compiled.ids[b]]]
    except KeyError:
        return cmul_oracle(sys, a, b)  # raises the oracle's error for operands outside T


def cmul_oracle(sys: CliffordSystem, a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Oracle product: push both factors to the meet level, multiply there."""
    k = len(sys.groups)
    if not (0 <= a.level < k and 0 <= b.level < k):
        raise ValueError(f"levels ({a.level},{b.level}) outside chain of size {k}")
    lvl = max(a.level, b.level)
    x = sys.bond(a.level, lvl)(a.elem)
    y = sys.bond(b.level, lvl)(b.elem)
    return CliffordElement(lvl, gmul(sys.group(lvl), x, y))


def cinv(sys: CliffordSystem, a: CliffordElement) -> CliffordElement:
    """Inverse, looked up in the compiled form; it stays on a's level."""
    compiled = sys.compiled
    try:
        return compiled.elements[compiled.inverse[compiled.ids[a]]]
    except KeyError:  # raises ginv's error for operands outside T
        return CliffordElement(a.level, ginv(sys.group(a.level), a.elem))


def theta_pow(sys: CliffordSystem, a: CliffordElement, n: int) -> CliffordElement:
    """Apply theta n times: the first step is a lookup in the compiled theta
    table, the other n - 1 apply the top map one by one.  The result for
    n >= 1 is a shared top-level element object."""
    if n < 0:
        raise ValueError("negative theta power")
    compiled = sys.compiled
    try:
        v = compiled.theta[compiled.ids[a]]
    except KeyError:
        return theta_pow_oracle(sys, a, n)  # raises the oracle's error for operands outside T
    if n == 0:
        return a
    for _ in range(n - 1):
        v = sys.theta[0](v)
    return compiled.elements[v]  # a top element's id is its group coordinate


def theta_pow_oracle(sys: CliffordSystem, a: CliffordElement, n: int) -> CliffordElement:
    """Oracle: apply the theta maps n times; one application already lands in
    the top group."""
    if n < 0:
        raise ValueError("negative theta power")
    if not 0 <= a.level < len(sys.theta):
        raise IndexOutOfRange(f"level {a.level} outside chain of size {len(sys.theta)}")
    v = sys.theta[a.level](a.elem)  # refuses an element outside its group, also for n = 0
    if n == 0:
        return a
    for _ in range(n - 1):
        v = sys.theta[0](v)
    return CliffordElement(0, v)


def idempotents(sys: CliffordSystem) -> list[CliffordElement]:
    """Level identities, top level first; the compiled form verified that
    nothing else is idempotent."""
    compiled = sys.compiled
    return [compiled.elements[e] for e in compiled.idempotents]


def _coherent_by_steps(sys: CliffordSystem) -> bool:
    """bond(a, c) = bond(a, a+1) then bond(a+1, c) for all a + 1 < c.

    By induction on b - a this gives bond(a, b) then bond(b, c) = bond(a, c)
    for every a < b < c.  Every bond must be present and validated."""
    k, bonds = len(sys.groups), sys.bonds
    for a in range(k - 2):
        read_step = row_reader(bonds[(a, a + 1)].map)
        for c in range(a + 2, k):
            if read_step(bonds[(a + 1, c)].map) != bonds[(a, c)].map:
                return False
    return True


def _theta_compatible(sys: CliffordSystem) -> bool:
    """theta[b] after bond(a, b) is theta[a] for every level pair a < b.

    With each group valid and each theta[a] a homomorphism into the top
    group, this is the theta law across levels: the law gives it at
    b = the identity of the lower level, and it gives the law back by
    pushing both factors down to their meet."""
    maps = [th.map for th in sys.theta]
    return all(
        row_reader(sys.bonds[(a, b)].map)(maps[b]) == maps[a]
        for a in range(len(maps))
        for b in range(a + 1, len(maps))
    )


def validate_system(sys: CliffordSystem) -> list[str]:
    """List what breaks the laws: groups, bond presence, the (a,a) identity
    rule, the hom law of bonds and theta maps, bond coherence and the theta law.
    Coherence and the theta law are read off consecutive bonds and level
    pairs; scans over bonded triples and element pairs run only on failure."""
    rep = []
    k, bonds = len(sys.groups), sys.bonds
    for level, g in enumerate(sys.groups):
        rep += [f"group {level}: {v}" for v in validate_group(g)]

    # the identity convention on (a,a), then bond presence and the hom law
    missing = False
    for upper, g in enumerate(sys.groups):
        explicit = bonds.get((upper, upper))
        if explicit is not None and explicit.map != tuple(range(g.order)):
            rep.append(f"bond ({upper},{upper}) must be the identity map")
        for lower in range(upper + 1, k):
            try:
                b = sys.bond(upper, lower)
            except MissingBond as exc:
                rep.append(str(exc))
                missing = True
            else:
                rep += [f"bond ({upper},{lower}): {v}" for v in validate_hom(b)]

    # coherence over the triples whose bonds exist, in (a, b, c, x) order
    if missing or not _coherent_by_steps(sys):
        for (a, b), ab in sorted(bonds.items()):
            for c in range(b + 1, k) if a < b else ():
                if (b, c) in bonds and (a, c) in bonds:
                    comp = row_reader(ab.map)(bonds[(b, c)].map)
                    for x, v in enumerate(bonds[(a, c)].map):
                        if comp[x] != v:
                            rep.append(f"bond composition violated for levels ({a},{b},{c}) at element {x}")

    for level, th in enumerate(sys.theta):
        rep += [f"theta[{level}]: {v}" for v in validate_hom(th)]
    if rep:
        return rep

    # theta must be a single homomorphism of the whole monoid, so the law
    # has to hold across levels, not just inside each group
    if _theta_compatible(sys):
        return rep
    top = sys.groups[0]
    for a in sys.elements():
        for b in sys.elements():
            lhs = theta_pow_oracle(sys, cmul_oracle(sys, a, b), 1)
            rhs = gmul(top, sys.theta[a.level](a.elem), sys.theta[b.level](b.elem))
            if lhs.elem != rhs:
                rep.append(f"theta law violated for a={tuple(a)}, b={tuple(b)}")
    return rep
