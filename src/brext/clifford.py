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
the laws.  A system is compiled on first use into one form of T on integer
ids 0..|T|-1: the product table, the first step of theta, the idempotents
and T's natural order as below-sets.  cmul, idempotents and bruck_reilly
read only that form, and take and return the shared element objects it
numbers.  theta_pow reads its first step there but applies the top map
sys.theta[0], a bounds-checked GroupHom, for the n - 1 others: the
compiled step is about 11 times faster, but bench/run.py keeps every
query, so its peak RSS would outgrow its bound as it completes more
batteries.  The bond-and-Cayley product stays as cmul_oracle and the plain
loop over the theta maps as theta_pow_oracle; validate_system's failure
path uses only those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple

from .errors import IndexOutOfRange, MalformedMap, MissingBond, NotAGroup
from .groups import GroupHom, GroupTable, ValidationReport, compose_homs, ginv, gmul, identity_hom, row_reader, validate_group, validate_hom


class CliffordElement(NamedTuple):
    level: int
    elem: int


class CompiledSystem(NamedTuple):
    """A chain of groups flattened for lookup, on integer ids.

    elements numbers T level by level from the top, so a top element's id
    is its group coordinate, and ids maps each element back to its id; the
    keys of ids are exactly the elements of T.  products[a][b] is the id of
    a * b and theta[a] that of theta(a), for ids a and b.  idempotents holds
    the ids of the level identities, top level first.  below[t] is T's
    natural order as sets: the ids of t * E(T), the products t * e over the
    idempotents e, which are exactly the elements below t.
    """

    elements: tuple[CliffordElement, ...]
    ids: dict
    products: list[list[int]]
    theta: list[int]
    below: list[frozenset[int]]
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
        return CliffordElement(0, self.groups[0].identity)

    def elements(self) -> Iterator[CliffordElement]:
        for level, g in enumerate(self.groups):
            for x in range(g.order):
                yield CliffordElement(level, x)

    def order(self) -> int:
        return sum(g.order for g in self.groups)

    @cached_property
    def _identity_homs(self) -> tuple[GroupHom, ...]:
        return tuple(identity_hom(g) for g in self.groups)

    @cached_property
    def compiled(self) -> CompiledSystem:
        """T on ids with its product and theta tables, idempotents and
        below-sets, built on first use.

        Each level pair fills its block of the table from the bond maps and
        the Cayley table at the meet level, and theta is read off its maps,
        which construction guarantees run into the top group, whose ids are
        its group coordinates.  Only level identities may be idempotent;
        that is checked here, once, and any other idempotent raises
        NotAGroup.
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
        return CompiledSystem(
            elements,
            ids,
            products,
            [v for th in self.theta for v in th.map],
            [frozenset(row[e] for e in idem) for row in products],
            idem,
        )


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
    """Inverse stays on the same level."""
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
    if n > 1:
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


def validate_system(sys: CliffordSystem) -> ValidationReport:
    """Check the laws: groups, bond presence, the (a,a) identity rule, the
    hom law of bonds and theta maps, bond coherence and the theta law.
    Coherence and the theta law are read off consecutive bonds and level
    pairs; the triple and element-pair scans run only when those fail."""
    rep = ValidationReport()
    k = len(sys.groups)
    for level, g in enumerate(sys.groups):
        rep.merge(validate_group(g), prefix=f"group {level}: ")

    # bond presence, hom law, and the identity convention on (a,a)
    bonds_present = True
    for upper in range(k):
        for lower in range(upper, k):
            if upper == lower:
                explicit = sys.bonds.get((upper, lower))
                if explicit is not None and explicit.map != tuple(range(sys.groups[upper].order)):
                    rep.add(f"bond ({upper},{lower}) must be the identity map")
                continue
            try:
                b = sys.bond(upper, lower)
            except MissingBond as exc:
                rep.add(str(exc))
                bonds_present = False
                continue
            rep.merge(validate_hom(b), prefix=f"bond ({upper},{lower}): ")

    # composition coherence along every descending triple
    if not (bonds_present and _coherent_by_steps(sys)):
        for a in range(k):
            for b in range(a + 1, k):
                for c in range(b + 1, k):
                    try:
                        ab, bc, ac = sys.bond(a, b), sys.bond(b, c), sys.bond(a, c)
                    except MissingBond:
                        continue  # already reported above
                    comp = compose_homs(ab, bc)
                    if comp.map != ac.map:
                        for x in range(sys.groups[a].order):
                            if comp.map[x] != ac.map[x]:
                                rep.add(
                                    f"bond composition violated for levels ({a},{b},{c}) at element {x}"
                                )

    for level, th in enumerate(sys.theta):
        rep.merge(validate_hom(th), prefix=f"theta[{level}]: ")
    if not rep.ok:
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
                rep.add(f"theta law violated for a={tuple(a)}, b={tuple(b)}")
    return rep
