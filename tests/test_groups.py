import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from brext.errors import IndexOutOfRange, MalformedMap, MalformedTable, OrderTooLarge
from brext.groups import (
    MAX_ORDER,
    GroupHom,
    GroupTable,
    ginv,
    gmul,
    validate_group,
    validate_hom,
)
from conftest import cyclic_group


def trivial_group() -> GroupTable:
    return cyclic_group(1)


def constant_hom(domain: GroupTable, codomain: GroupTable):
    """The annihilating map sending everything to the codomain identity."""
    return GroupHom(domain, codomain, [codomain.identity] * domain.order)


def test_z2_is_a_group():
    g = GroupTable([[0, 1], [1, 0]], identity=0)
    assert validate_group(g) == []
    assert g.inverse == (0, 1)


def test_trivial_group_is_a_group():
    assert validate_group(trivial_group()) == []


def test_broken_inverse_reported():
    g = GroupTable([[0, 1], [1, 1]], identity=0)
    rep = validate_group(g)
    assert rep
    assert any("inverse axiom violated for element 1" in v for v in rep)


def test_broken_identity_reported():
    # identity claimed at 1 but the table is Z2 with identity 0
    g = GroupTable([[0, 1], [1, 0]], identity=1)
    rep = validate_group(g)
    assert any("identity axiom violated" in v for v in rep)


def test_broken_associativity_reported():
    g = GroupTable([[0, 1, 2], [1, 2, 0], [2, 0, 0]], identity=0)
    rep = validate_group(g)
    assert any("associativity violated at (1,2,2)" in v for v in rep)


def test_corrupting_any_entry_is_caught():
    rng = random.Random(7)
    base = cyclic_group(5)
    for _ in range(25):
        rows = [list(r) for r in base.table]
        a, b = rng.randrange(5), rng.randrange(5)
        rows[a][b] = (rows[a][b] + rng.randrange(1, 5)) % 5
        g = GroupTable(rows, identity=0)
        assert validate_group(g)


def test_gmul_ginv_z4():
    g = cyclic_group(4)
    assert gmul(g, 3, 2) == 1
    assert ginv(g, 3) == 1
    assert ginv(g, 0) == 0
    with pytest.raises(IndexOutOfRange):
        gmul(g, 4, 0)
    with pytest.raises(IndexOutOfRange):
        ginv(g, -1)
    with pytest.raises(MalformedTable, match="^element 1 has no two-sided inverse$"):
        ginv(GroupTable([[0, 1], [1, 1]], identity=0), 1)  # a monoid, 1 * 1 = 1


def test_order_cap_enforced():
    with pytest.raises(OrderTooLarge):
        cyclic_group(513)
    assert validate_group(cyclic_group(16)) == []


def test_malformed_tables_rejected():
    with pytest.raises(MalformedTable):
        GroupTable([[0, 1], [1]], identity=0)
    with pytest.raises(MalformedTable):
        GroupTable([[0, 2], [2, 0]], identity=0)
    with pytest.raises(MalformedTable):
        GroupTable([[0]], identity=3)
    with pytest.raises(MalformedTable):
        GroupTable([], identity=0)


def test_mod2_is_a_hom():
    h = GroupHom(cyclic_group(4), cyclic_group(2), [0, 1, 0, 1])
    assert validate_hom(h) == []


def test_swap_is_not_a_hom():
    h = GroupHom(cyclic_group(2), cyclic_group(2), [1, 0])
    rep = validate_hom(h)
    assert any("not a homomorphism at (0,0)" in v for v in rep)


def test_malformed_maps_rejected():
    with pytest.raises(MalformedMap):
        GroupHom(cyclic_group(2), cyclic_group(2), [0])
    with pytest.raises(MalformedMap):
        GroupHom(cyclic_group(2), cyclic_group(2), [0, 5])


def test_homs_preserve_identity_and_inverses():
    z6, z3 = cyclic_group(6), cyclic_group(3)
    h = GroupHom(z6, z3, [x % 3 for x in range(6)])
    assert validate_hom(h) == []
    assert h(z6.identity) == z3.identity
    for a in range(6):
        assert h(ginv(z6, a)) == ginv(z3, h(a))


def test_hom_composition_and_constant():
    # a map given as a range is stored as its tuple, and the annihilating map is a hom
    z4, z2 = cyclic_group(4), cyclic_group(2)
    assert GroupHom(z4, z4, range(4)).map == (0, 1, 2, 3)
    assert validate_hom(constant_hom(z4, z2)) == []


def reference_inverse(tbl, e):
    return tuple(next((b for b in range(len(tbl)) if tbl[a][b] == e and tbl[b][a] == e), None) for a in range(len(tbl)))


def reference_group_violations(g: GroupTable) -> list[str]:
    """validate_group by definition, on a closed table: every triple."""
    n, tbl, e = g.order, g.table, g.identity
    inv = reference_inverse(tbl, e)
    return (
        [f"identity axiom violated for element {a}" for a in range(n) if tbl[e][a] != a or tbl[a][e] != a]
        + [f"inverse axiom violated for element {a}" for a in range(n) if inv[a] is None]
        + [
            f"associativity violated at ({a},{b},{c})"
            for a, b, c in itertools.product(range(n), repeat=3)
            if tbl[tbl[a][b]][c] != tbl[a][tbl[b][c]]
        ]
    )


def reference_hom_violations(h) -> list[str]:
    dom, cod, m = h.domain.table, h.codomain.table, h.map
    return [
        f"not a homomorphism at ({a},{b})"
        for a, b in itertools.product(range(h.domain.order), repeat=2)
        if m[dom[a][b]] != cod[m[a]][m[b]]
    ]


@st.composite
def loops(draw):
    """Tables with identity 0 whose rows are permutations; most of them are
    not associative, and some are not groups."""
    n = draw(st.integers(1, 7))
    rows = [list(range(n))]
    for a in range(1, n):
        rows.append([a, *draw(st.permutations([v for v in range(n) if v != a]))])
    return GroupTable(rows, identity=0)


@st.composite
def relabelled_groups(draw):
    """Z_p x Z_q with its elements renamed, the identity kept at 0."""
    p, q = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = p * q
    name = [0, *draw(st.permutations(range(1, n)))]
    rows = [[0] * n for _ in range(n)]
    for a, b in itertools.product(range(n), repeat=2):
        rows[name[a]][name[b]] = name[(a // q + b // q) % p * q + (a + b) % q]
    return GroupTable(rows, identity=0)


@st.composite
def magmas(draw):
    """Any closed table with any identity claim."""
    n = draw(st.integers(1, 4))
    cell = st.integers(0, n - 1)
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    return GroupTable(rows, identity=draw(cell))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(g=st.one_of(loops(), relabelled_groups()))
def test_light_test_agrees_with_every_triple_on_loops(g):
    assert validate_group(g) == reference_group_violations(g)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(g=magmas())
def test_magmas_validate_and_invert_as_by_definition(g):
    assert g.inverse == reference_inverse(g.table, g.identity)
    assert validate_group(g) == reference_group_violations(g)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    g=st.one_of(st.integers(1, 6).map(cyclic_group), loops()),
    n=st.integers(1, 6),
    data=st.data(),
)
def test_hom_rows_agree_with_every_pair(g, n, data):
    h = GroupHom(g, cyclic_group(n), data.draw(st.lists(st.integers(0, n - 1), min_size=g.order, max_size=g.order)))
    assert validate_hom(h) == reference_hom_violations(h)


def test_table_messages_name_the_first_bad_entry():
    class Small(int):
        pass

    assert GroupTable([[0, Small(1)], [1, 0]], identity=0).inverse == (0, 1)
    for bad, msg in (
        ([[0, 1], [1, True]], "entry (1,1) = True outside 0..1"),
        ([[0, 1.0], [1, 0]], "entry (0,1) = 1.0 outside 0..1"),
        ([[0, 1], [-1, 2]], "entry (1,0) = -1 outside 0..1"),
        ([[0, "1"], [1, 0]], "entry (0,1) = '1' outside 0..1"),
    ):
        with pytest.raises(MalformedTable) as exc:
            GroupTable(bad, identity=0)
        assert str(exc.value) == msg



def test_group_tables_are_refused_at_construction():
    z2 = [[0, 1], [1, 0]]
    for args, exc, msg in (
        (([], 0), MalformedTable, "empty table"),
        (([[0]] * (MAX_ORDER + 1), 0), OrderTooLarge, f"order {MAX_ORDER + 1} exceeds cap {MAX_ORDER}"),
        (([[0, 1], [1]], 0), MalformedTable, "row 1 has length 1, expected 2"),
        (([[0, 1], [1, 2]], 0), MalformedTable, "entry (1,1) = 2 outside 0..1"),
        (([[0, False], [1, 0]], 0), MalformedTable, "entry (0,1) = False outside 0..1"),
        ((z2, 2), MalformedTable, "identity 2 outside 0..1"),
        ((z2, True), MalformedTable, "identity True outside 0..1"),
        ((z2, 0, ["e"]), MalformedTable, "1 labels for 2 elements"),
    ):
        with pytest.raises(exc) as info:
            GroupTable(*args)
        assert str(info.value) == msg, args
    g = GroupTable([[0, 1], [1, 0]], 0, ["e", "g"])
    assert (g.order, g.table, g.inverse, g.labels) == (2, ((0, 1), (1, 0)), (0, 1), ("e", "g"))
    assert g == GroupTable(z2, 0, "eg")
    with pytest.raises(TypeError):
        GroupTable(z2, 0, order=2)
    with pytest.raises(TypeError):
        GroupTable(z2, 0, inverse=(0, 1))


def test_group_homs_are_refused_at_construction():
    z2, z4 = cyclic_group(2), cyclic_group(4)
    for mapping, msg in (
        ([0, 1, 0], "map has 3 entries for domain of order 2"),
        ([0, 2], "map[1] = 2 outside codomain of order 2"),
        ([0, -1], "map[1] = -1 outside codomain of order 2"),
        ([True, 0], "map[0] = True outside codomain of order 2"),
    ):
        with pytest.raises(MalformedMap) as info:
            GroupHom(z2, z2, mapping)
        assert str(info.value) == msg
    h = GroupHom(z4, z2, [0, 1, 0, 1])
    assert h.map == (0, 1, 0, 1) and h == GroupHom(z4, z2, iter([0, 1, 0, 1]))
