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

A system is compiled on first use into a product table and a table of theta
over shared element objects, plus its list of idempotents, so cmul and the
first step of theta_pow are lookups.  The bond-and-Cayley product stays as
cmul_oracle and the plain loop over the theta maps as theta_pow_oracle;
validate_system uses only those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, NamedTuple

from .errors import MissingBond
from .groups import GroupHom, GroupTable, ValidationReport, compose_homs, ginv, gmul, identity_hom, validate_group, validate_hom


class CliffordElement(NamedTuple):
    level: int
    elem: int


@dataclass(frozen=True)
class ChainSemilattice:
    """The chain 0 > 1 > ... > size-1 under the dominance order."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("chain needs at least one level")

    def meet(self, a: int, b: int) -> int:
        if not (0 <= a < self.size and 0 <= b < self.size):
            raise ValueError(f"levels ({a},{b}) outside chain of size {self.size}")
        return max(a, b)

    def below(self, a: int, b: int) -> bool:
        """True iff level a is dominated by level b (a lower or equal)."""
        return a >= b


class CompiledSystem(NamedTuple):
    """A chain of groups flattened for lookup.

    products[a][b] is a * b, one of the shared element objects; the keys of
    products are exactly the elements of T.  theta[a] is theta(a), again a
    shared object, and top[x] is the shared top-level element with group
    coordinate x.  idempotents holds the level identities, top level first.
    """

    products: dict
    theta: dict
    top: tuple[CliffordElement, ...]
    idempotents: tuple[CliffordElement, ...]


@dataclass(frozen=True)
class CliffordSystem:
    """Groups on a chain plus bonds and the theta family into the top group."""

    chain: ChainSemilattice
    groups: tuple[GroupTable, ...]
    bonds: dict = field(compare=False)  # (upper, lower) -> GroupHom, upper < lower
    theta: tuple[GroupHom, ...] = ()

    def group(self, level: int) -> GroupTable:
        if not 0 <= level < self.chain.size:
            raise ValueError(f"level {level} outside chain of size {self.chain.size}")
        return self.groups[level]

    def bond(self, upper: int, lower: int) -> GroupHom:
        """The bonding map from the group at `upper` down to `lower`."""
        if upper == lower:
            self.group(upper)  # raises for a level outside the chain
            return self._identity_homs[upper]
        if not self.chain.below(lower, upper):
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
        """The product and theta tables and idempotents, built on first use.

        Each level pair fills its block of the table from the bond maps and
        the Cayley table at the meet level.  theta is tabled only when every
        map runs from its level into the top group, as validate_system
        demands; otherwise theta_pow leaves it to the oracle.  Only level
        identities may be idempotent; that is checked here, once.
        """
        elems = [
            tuple(CliffordElement(level, x) for x in range(g.order))
            for level, g in enumerate(self.groups)
        ]
        products = {e: {} for level in elems for e in level}
        for la, row_elems in enumerate(elems):
            for lb, col_elems in enumerate(elems):
                lvl = self.chain.meet(la, lb)
                down_a, down_b = self.bond(la, lvl).map, self.bond(lb, lvl).map
                table, out = self.groups[lvl].table, elems[lvl]
                for a in row_elems:
                    row, ta = products[a], table[down_a[a.elem]]
                    for b in col_elems:
                        row[b] = out[ta[down_b[b.elem]]]
        top, theta = elems[0], {}
        if len(self.theta) == len(self.groups) and all(
            th.domain == g and th.codomain == self.groups[0] for th, g in zip(self.theta, self.groups)
        ):
            for th, level in zip(self.theta, elems):
                for a in level:
                    theta[a] = top[th.map[a.elem]]
        idem = tuple(e for e, row in products.items() if row[e] == e)
        for e in idem:
            assert e.elem == self.groups[e.level].identity, f"non-identity idempotent {e} in a group"
        return CompiledSystem(products, theta, top, idem)


def cmul(sys: CliffordSystem, a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Product, looked up in the compiled table."""
    try:
        return sys.compiled.products[a][b]
    except KeyError:
        return cmul_oracle(sys, a, b)  # raises the oracle's error for operands outside T


def cmul_oracle(sys: CliffordSystem, a: CliffordElement, b: CliffordElement) -> CliffordElement:
    """Oracle product: push both factors to the meet level, multiply there."""
    lvl = sys.chain.meet(a.level, b.level)
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
    if n == 0:
        return a
    compiled = sys.compiled
    try:
        v = compiled.theta[a]
    except KeyError:
        return theta_pow_oracle(sys, a, n)  # raises the oracle's error for operands outside T
    if n == 1:
        return v
    e = v.elem
    for _ in range(n - 1):
        e = sys.theta[0](e)
    return compiled.top[e]


def theta_pow_oracle(sys: CliffordSystem, a: CliffordElement, n: int) -> CliffordElement:
    """Oracle: apply the theta maps n times; one application already lands in
    the top group."""
    if n < 0:
        raise ValueError("negative theta power")
    if n == 0:
        return a
    v = sys.theta[a.level](a.elem)
    for _ in range(n - 1):
        v = sys.theta[0](v)
    return CliffordElement(0, v)


def idempotents(sys: CliffordSystem) -> list[CliffordElement]:
    """Level identities, top level first; the compiled form verified that
    nothing else is idempotent."""
    return list(sys.compiled.idempotents)


def validate_system(sys: CliffordSystem) -> ValidationReport:
    """Check groups, bonds, bond coherence and the theta law exhaustively."""
    rep = ValidationReport()
    k = sys.chain.size
    if len(sys.groups) != k:
        rep.add(f"{len(sys.groups)} groups for chain of size {k}")
        return rep
    for level, g in enumerate(sys.groups):
        rep.merge(validate_group(g), prefix=f"group {level}: ")

    # bond presence, endpoints, hom law, and the identity convention on (a,a)
    for upper in range(k):
        for lower in range(upper, k):
            if upper == lower:
                explicit = sys.bonds.get((upper, lower))
                if explicit is not None and tuple(explicit.map) != tuple(range(sys.groups[upper].order)):
                    rep.add(f"bond ({upper},{lower}) must be the identity map")
                continue
            try:
                b = sys.bond(upper, lower)
            except MissingBond as exc:
                rep.add(str(exc))
                continue
            if b.domain != sys.groups[upper] or b.codomain != sys.groups[lower]:
                rep.add(f"bond ({upper},{lower}) endpoints disagree with chain groups")
                continue
            sub = validate_hom(b)
            rep.merge(sub, prefix=f"bond ({upper},{lower}): ")

    # composition coherence along every descending triple
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

    if len(sys.theta) != k:
        rep.add(f"{len(sys.theta)} theta maps for chain of size {k}")
        return rep
    for level, th in enumerate(sys.theta):
        if th.domain != sys.groups[level] or th.codomain != sys.groups[0]:
            rep.add(f"theta[{level}] endpoints must be group {level} -> group 0")
            continue
        rep.merge(validate_hom(th), prefix=f"theta[{level}]: ")
    if not rep.ok:
        return rep

    # theta must be a single homomorphism of the whole monoid, so the law
    # has to hold across levels, not just inside each group
    top = sys.groups[0]
    for a in sys.elements():
        for b in sys.elements():
            lhs = theta_pow_oracle(sys, cmul_oracle(sys, a, b), 1)
            rhs = gmul(top, sys.theta[a.level](a.elem), sys.theta[b.level](b.elem))
            if lhs.elem != rhs:
                rep.add(f"theta law violated for a={tuple(a)}, b={tuple(b)}")
    return rep
