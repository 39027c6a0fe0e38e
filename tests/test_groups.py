import random

import pytest

from brext.errors import IndexOutOfRange, MalformedMap, MalformedTable, OrderTooLarge
from brext.groups import (
    GroupTable,
    compose_homs,
    cyclic_group,
    ginv,
    gmul,
    hom,
    identity_hom,
    validate_group,
    validate_hom,
)


def trivial_group() -> GroupTable:
    return cyclic_group(1)


def constant_hom(domain: GroupTable, codomain: GroupTable):
    """The annihilating map sending everything to the codomain identity."""
    return hom(domain, codomain, [codomain.identity] * domain.order)


def test_z2_is_a_group():
    g = GroupTable.from_rows([[0, 1], [1, 0]], identity=0)
    assert validate_group(g).ok
    assert g.inverse == (0, 1)


def test_trivial_group_is_a_group():
    assert validate_group(trivial_group()).ok


def test_broken_inverse_reported():
    g = GroupTable.from_rows([[0, 1], [1, 1]], identity=0)
    rep = validate_group(g)
    assert not rep.ok
    assert any("inverse axiom violated for element 1" in v for v in rep.violations)


def test_broken_identity_reported():
    # identity claimed at 1 but the table is Z2 with identity 0
    g = GroupTable.from_rows([[0, 1], [1, 0]], identity=1)
    rep = validate_group(g)
    assert any("identity axiom violated" in v for v in rep.violations)


def test_broken_associativity_reported():
    g = GroupTable.from_rows([[0, 1, 2], [1, 2, 0], [2, 0, 0]], identity=0)
    rep = validate_group(g)
    assert any("associativity violated at (1,2,2)" in v for v in rep.violations)


def test_corrupting_any_entry_is_caught():
    rng = random.Random(7)
    base = cyclic_group(5)
    for _ in range(25):
        rows = [list(r) for r in base.table]
        a, b = rng.randrange(5), rng.randrange(5)
        rows[a][b] = (rows[a][b] + rng.randrange(1, 5)) % 5
        g = GroupTable.from_rows(rows, identity=0)
        assert not validate_group(g).ok


def test_gmul_ginv_z4():
    g = cyclic_group(4)
    assert gmul(g, 3, 2) == 1
    assert ginv(g, 3) == 1
    assert ginv(g, 0) == 0
    with pytest.raises(IndexOutOfRange):
        gmul(g, 4, 0)
    with pytest.raises(IndexOutOfRange):
        ginv(g, -1)


def test_order_cap_enforced():
    with pytest.raises(OrderTooLarge):
        cyclic_group(513)
    assert validate_group(cyclic_group(16)).ok


def test_malformed_tables_rejected():
    with pytest.raises(MalformedTable):
        GroupTable.from_rows([[0, 1], [1]], identity=0)
    with pytest.raises(MalformedTable):
        GroupTable.from_rows([[0, 2], [2, 0]], identity=0)
    with pytest.raises(MalformedTable):
        GroupTable.from_rows([[0]], identity=3)
    with pytest.raises(MalformedTable):
        GroupTable.from_rows([], identity=0)


def test_mod2_is_a_hom():
    h = hom(cyclic_group(4), cyclic_group(2), [0, 1, 0, 1])
    assert validate_hom(h).ok


def test_swap_is_not_a_hom():
    h = hom(cyclic_group(2), cyclic_group(2), [1, 0])
    rep = validate_hom(h)
    assert any("not a homomorphism at (0,0)" in v for v in rep.violations)


def test_malformed_maps_rejected():
    with pytest.raises(MalformedMap):
        hom(cyclic_group(2), cyclic_group(2), [0])
    with pytest.raises(MalformedMap):
        hom(cyclic_group(2), cyclic_group(2), [0, 5])


def test_homs_preserve_identity_and_inverses():
    z6, z3 = cyclic_group(6), cyclic_group(3)
    h = hom(z6, z3, [x % 3 for x in range(6)])
    assert validate_hom(h).ok
    assert h(z6.identity) == z3.identity
    for a in range(6):
        assert h(ginv(z6, a)) == ginv(z3, h(a))


def test_hom_composition_and_constant():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    mod2 = hom(z4, z2, [0, 1, 0, 1])
    collapse = constant_hom(z2, z2)
    comp = compose_homs(mod2, collapse)
    assert comp.map == (0, 0, 0, 0)
    assert validate_hom(comp).ok
    assert identity_hom(z4).map == (0, 1, 2, 3)
