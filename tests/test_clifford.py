import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from brext import groups
from brext.bruck_reilly import BRElem, BRSystem, nat_order
from brext.clifford import (
    CliffordElement,
    CliffordSystem,
    cinv,
    cmul,
    cmul_oracle,
    idempotents,
    theta_pow,
    theta_pow_oracle,
    validate_system,
)
from brext.config import load_system
from brext.errors import IndexOutOfRange, MalformedMap, MissingBond, NotAGroup
from brext.groups import cyclic_group, hom, identity_hom
from brext.verify import SUITES, run_all
from conftest import FIXTURES, plant
from test_groups import constant_hom


def nat_order_idem(sys: CliffordSystem, e: CliffordElement, f: CliffordElement) -> bool:
    """e below f in the idempotent order: both products collapse to e."""
    for x in (e, f):
        if cmul(sys, x, x) != x:
            raise ValueError(f"{x} is not idempotent")
    return cmul(sys, e, f) == e and cmul(sys, f, e) == e


def make_t2():
    """Two Z2 levels, bonded by the isomorphism, theta the same maps."""
    z2a, z2b = cyclic_group(2), cyclic_group(2)
    return CliffordSystem(
        groups=(z2a, z2b),
        bonds={(0, 1): hom(z2a, z2b, [0, 1])},
        theta=(identity_hom(z2a), hom(z2b, z2a, [0, 1])),
    )


def make_z4z2():
    """Z4 over Z2 via mod 2, with a doubling theta."""
    z4, z2 = cyclic_group(4), cyclic_group(2)
    return CliffordSystem(
        groups=(z4, z2),
        bonds={(0, 1): hom(z4, z2, [0, 1, 0, 1])},
        theta=(hom(z4, z4, [0, 2, 0, 2]), hom(z2, z4, [0, 2])),
    )


def make_z4():
    z4 = cyclic_group(4)
    return CliffordSystem(groups=(z4,), bonds={}, theta=(identity_hom(z4),))


def make_c12_c6_c3():
    """C12 > C6 > C3 with reduction bonds and theta x -> 8x into C12."""
    c12, c6, c3 = cyclic_group(12), cyclic_group(6), cyclic_group(3)
    return CliffordSystem(
        groups=(c12, c6, c3),
        bonds={
            (0, 1): hom(c12, c6, [x % 6 for x in range(12)]),
            (0, 2): hom(c12, c3, [x % 3 for x in range(12)]),
            (1, 2): hom(c6, c3, [x % 3 for x in range(6)]),
        },
        theta=tuple(hom(g, c12, [8 * x % 12 for x in range(g.order)]) for g in (c12, c6, c3)),
    )


def make_c4_twisted():
    """C4 over C4 via x -> 3x, theta the identity on top; then theta on the
    lower level is x -> 3x, so the per-level maps differ as index maps."""
    top, low = cyclic_group(4), cyclic_group(4)
    return CliffordSystem(
        groups=(top, low),
        bonds={(0, 1): hom(top, low, [0, 3, 2, 1])},
        theta=(identity_hom(top), hom(low, top, [0, 3, 2, 1])),
    )


def table_systems(c2c2, trivial):
    return [make_t2(), make_z4z2(), make_z4(), c2c2.sys, trivial.sys, make_c12_c6_c3(), make_c4_twisted()]


def test_levels_outside_the_chain_and_upward_bonds_are_refused():
    # the meet of two levels is their max, and only levels 0..k-1 exist
    sys = make_c12_c6_c3()
    assert cmul(sys, CliffordElement(1, 5), CliffordElement(2, 1)) == CliffordElement(2, 0)
    one = sys.unit()
    for level in (-1, 3):
        for route in (cmul, cmul_oracle):
            with pytest.raises(ValueError) as exc:
                route(sys, CliffordElement(level, 0), one)
            assert str(exc.value) == f"levels ({level},0) outside chain of size 3"
            with pytest.raises(ValueError) as exc:
                route(sys, one, CliffordElement(level, 0))
            assert str(exc.value) == f"levels (0,{level}) outside chain of size 3"
        with pytest.raises(ValueError) as exc:
            sys.group(level)
        assert str(exc.value) == f"level {level} outside chain of size 3"
    with pytest.raises(ValueError) as exc:
        CliffordSystem(groups=(), bonds={}, theta=())
    assert str(exc.value) == "chain needs at least one level"
    with pytest.raises(MissingBond) as exc:
        sys.bond(2, 1)
    assert str(exc.value) == "no bond upward from level 2 to 1"


def test_t2_validates():
    assert validate_system(make_t2()) == []
    assert validate_system(make_z4z2()) == []


def test_single_level_validates():
    assert validate_system(make_z4()) == []


def test_swapped_bond_is_not_a_hom():
    z2 = cyclic_group(2)
    sys = CliffordSystem(
        groups=(z2, cyclic_group(2)),
        bonds={(0, 1): hom(z2, cyclic_group(2), [1, 0])},
        theta=(identity_hom(z2), hom(cyclic_group(2), z2, [0, 1])),
    )
    rep = validate_system(sys)
    assert any("bond (0,1): not a homomorphism" in v for v in rep)


def test_mixed_theta_breaks_the_cross_level_law():
    # theta[0] identity but theta[1] annihilating: each map is a hom on its
    # own level, yet theta fails to be a homomorphism of the whole monoid
    t2 = make_t2()
    sys = CliffordSystem(
        groups=t2.groups,
        bonds=t2.bonds,
        theta=(identity_hom(t2.groups[0]), constant_hom(t2.groups[1], t2.groups[0])),
    )
    rep = validate_system(sys)
    assert any("theta law violated" in v for v in rep)


def test_fully_annihilating_theta_is_fine():
    t2 = make_t2()
    sys = CliffordSystem(
        groups=t2.groups,
        bonds=t2.bonds,
        theta=(
            constant_hom(t2.groups[0], t2.groups[0]),
            constant_hom(t2.groups[1], t2.groups[0]),
        ),
    )
    assert validate_system(sys) == []


def test_missing_bond_reported_and_raised():
    z2 = cyclic_group(2)
    groups = (z2, cyclic_group(2), cyclic_group(2))
    sys = CliffordSystem(
        groups=groups,
        bonds={(0, 1): hom(groups[0], groups[1], [0, 1]), (1, 2): hom(groups[1], groups[2], [0, 1])},
        theta=(identity_hom(z2), hom(groups[1], z2, [0, 1]), hom(groups[2], z2, [0, 1])),
    )
    rep = validate_system(sys)
    assert any("missing bonding map for levels (0,2)" in v for v in rep)
    with pytest.raises(MissingBond):
        sys.bond(0, 2)
    with pytest.raises(MissingBond):
        sys.bond(1, 0)  # bonds never go up the chain


def test_incoherent_bond_composition_reported():
    z2 = cyclic_group(2)
    groups = (z2, cyclic_group(2), cyclic_group(2))
    sys = CliffordSystem(
        groups=groups,
        bonds={
            (0, 1): hom(groups[0], groups[1], [0, 1]),
            (1, 2): hom(groups[1], groups[2], [0, 1]),
            (0, 2): constant_hom(groups[0], groups[2]),
        },
        theta=(identity_hom(z2), hom(groups[1], z2, [0, 1]), hom(groups[2], z2, [0, 1])),
    )
    rep = validate_system(sys)
    assert any(
        "bond composition violated for levels (0,1,2) at element 1" in v
        for v in rep
    )


def test_product_worked_examples():
    sys = make_t2()
    g = CliffordElement(0, 1)
    h = CliffordElement(1, 1)
    one_b = CliffordElement(1, 0)
    # g pushed down meets the lower identity: the image of g
    assert cmul(sys, g, one_b) == h
    assert cmul(sys, one_b, g) == h
    assert cmul(sys, h, h) == one_b
    assert cmul(sys, g, g) == CliffordElement(0, 0)
    # the top identity is a unit for everything
    for x in sys.elements():
        assert cmul(sys, sys.unit(), x) == x
        assert cmul(sys, x, sys.unit()) == x


def test_product_is_associative_everywhere():
    for sys in (make_t2(), make_z4z2()):
        elems = list(sys.elements())
        for a, b, c in itertools.product(elems, repeat=3):
            assert cmul(sys, cmul(sys, a, b), c) == cmul(sys, a, cmul(sys, b, c))


def test_idempotents_are_central():
    for sys in (make_t2(), make_z4z2()):
        for e in idempotents(sys):
            for x in sys.elements():
                assert cmul(sys, e, x) == cmul(sys, x, e)


def test_inverse_on_each_level():
    z4sys = make_z4z2()
    a = CliffordElement(0, 3)
    assert cinv(z4sys, a) == CliffordElement(0, 1)
    for x in z4sys.elements():
        assert cmul(z4sys, cmul(z4sys, x, cinv(z4sys, x)), x) == x


def test_idempotent_chain_order():
    sys = make_t2()
    es = idempotents(sys)
    assert es == [CliffordElement(0, 0), CliffordElement(1, 0)]
    assert nat_order_idem(sys, es[1], es[0])
    assert not nat_order_idem(sys, es[0], es[1])
    assert nat_order_idem(sys, es[0], es[0])
    with pytest.raises(ValueError, match="not idempotent"):
        nat_order_idem(sys, CliffordElement(0, 1), es[0])


def test_theta_pow():
    sys = make_t2()
    h = CliffordElement(1, 1)
    assert theta_pow(sys, h, 0) == h
    assert theta_pow(sys, h, 1) == CliffordElement(0, 1)
    assert theta_pow(sys, h, 2) == CliffordElement(0, 1)
    with pytest.raises(ValueError):
        theta_pow(sys, h, -1)


def test_theta_orbit_stabilizes():
    # iterating theta walks into the top group and must cycle there within
    # its order, whatever the starting element
    for sys in (make_t2(), make_z4z2()):
        bound = sys.groups[0].order
        for a in sys.elements():
            orbit = [theta_pow(sys, a, n) for n in range(bound + 2)]
            seen = {}
            cycle_found = False
            for n, v in enumerate(orbit):
                if v in seen:
                    assert seen[v] <= bound
                    cycle_found = True
                    break
                seen[v] = n
            assert cycle_found


def test_table_product_matches_oracle(c2c2, trivial, s3c2):
    for sys in [*table_systems(c2c2, trivial), s3c2.sys]:
        assert validate_system(sys) == []
        elems = list(sys.elements())
        for a, b in itertools.product(elems, repeat=2):
            assert cmul(sys, a, b) == cmul_oracle(sys, a, b)


def test_idempotents_match_oracle(c2c2, trivial):
    for sys in table_systems(c2c2, trivial):
        expected = [e for e in sys.elements() if cmul_oracle(sys, e, e) == e]
        assert idempotents(sys) == expected
        assert idempotents(sys) is not idempotents(sys)


def test_natural_order_below_t_is_t_times_the_idempotents(c2c2, trivial, s3c2):
    # s <= t in T iff s lies in t * E(T); nat_order reads that off T's
    # compiled table, at shift 1 against theta(t)
    verdicts = set()
    for B in (c2c2, trivial, s3c2, load_system(FIXTURES / "c4c2c2.json")):
        sys = B.sys
        es = [e for e in sys.elements() if cmul_oracle(sys, e, e) == e]
        for s, t in itertools.product(sys.elements(), repeat=2):
            for shift, u in ((0, t), (1, theta_pow_oracle(sys, t, 1))):
                below = s in {cmul_oracle(sys, u, e) for e in es}
                assert nat_order(B, BRElem(shift, s, shift), BRElem(0, t, 0)) == below, (B.name, s, t, shift)
                verdicts.add((below, s == u))
    assert verdicts == {(True, True), (True, False), (False, False)}


def test_invalid_operands_raise_as_the_oracle_does():
    sys = make_z4z2()
    one = CliffordElement(0, 0)
    with pytest.raises(IndexOutOfRange):
        cmul(sys, CliffordElement(0, 7), one)
    with pytest.raises(IndexOutOfRange):
        cmul(sys, one, CliffordElement(0, 7))
    with pytest.raises(ValueError):
        cmul(sys, CliffordElement(5, 0), one)
    with pytest.raises(IndexError):
        theta_pow(sys, CliffordElement(5, 0), 1)


def test_theta_pow_matches_oracle(c2c2, trivial):
    for sys in table_systems(c2c2, trivial):
        shared = {id(t) for t in sys.compiled.elements}
        powers = [*range(3 * sys.groups[0].order + 3), 1000, 10001]
        for a in sys.elements():
            for n in powers:
                v = theta_pow(sys, a, n)
                assert v == theta_pow_oracle(sys, a, n), (a, n)
                assert n == 0 or id(v) in shared, (a, n)  # an element object of the compiled form


def test_theta_pow_errors_match_the_oracle():
    sys = make_z4z2()
    # a negative level is refused, not read by Python's negative indexing
    for a in [CliffordElement(*p) for p in ((-1, 0), (-1, 1), (2, 0), (5, 0), (0, 7))]:
        for n in (1, 2, 3, 1000):
            raised = []
            for route in (theta_pow, theta_pow_oracle):
                with pytest.raises(Exception) as info:
                    route(sys, a, n)
                raised.append((type(info.value), str(info.value)))
            assert raised[0] == raised[1] and raised[0][0] is IndexOutOfRange, (a, n)
            if a.level != 0:
                assert raised[0][1] == f"level {a.level} outside chain of size 2", (a, n)
    fresh = make_z4z2()
    for route in (theta_pow, theta_pow_oracle):
        with pytest.raises(ValueError, match="^negative theta power$"):
            route(fresh, CliffordElement(0, 1), -1)
    assert "compiled" not in vars(fresh)


def test_theta_pow_at_zero_refuses_operands_outside_t(c2c2):
    # n = 0 applies no theta step, but still refuses what n = 1 refuses
    for a in (CliffordElement(-1, 0), CliffordElement(7, 9), CliffordElement(0, 9)):
        for route in (theta_pow, theta_pow_oracle):
            raised = []
            for n in (0, 1):
                with pytest.raises(IndexOutOfRange) as info:
                    route(c2c2.sys, a, n)
                raised.append(str(info.value))
            assert raised[0] == raised[1], (a, route)


def test_theta_outside_the_top_group_is_refused_at_construction():
    # theta is one map per level into group 0 or no system is built, so
    # compiled always tables it
    c2, c4 = cyclic_group(2), cyclic_group(4)
    groups, bonds = (c2, c4), {(0, 1): hom(c2, c4, [0, 2])}
    for theta, msg in (
        ((), "0 theta maps for chain of size 2"),
        ((identity_hom(c2),), "1 theta maps for chain of size 2"),
        ((identity_hom(c2), identity_hom(c4)), "theta[1] endpoints must be group 1 -> group 0"),
        ((hom(c2, c4, [0, 2]), hom(c4, c2, [0, 1, 0, 1])), "theta[0] endpoints must be group 0 -> group 0"),
    ):
        with pytest.raises(MalformedMap) as exc:
            CliffordSystem(groups=groups, bonds=bonds, theta=theta)
        assert str(exc.value) == msg
    sys = CliffordSystem(groups=groups, bonds=bonds, theta=(identity_hom(c2), hom(c4, c2, [0, 1, 0, 1])))
    c = sys.compiled
    assert [c.elements[v] for v in c.theta] == [theta_pow_oracle(sys, a, 1) for a in sys.elements()]


def test_misplaced_bonds_and_empty_chains_are_refused_at_construction():
    c2, c4 = cyclic_group(2), cyclic_group(4)
    groups = (c2, c2, c2)
    theta = tuple(hom(g, c2, [0, 1]) for g in groups)
    good = {(0, 1): identity_hom(c2), (0, 2): identity_hom(c2), (1, 2): identity_hom(c2)}
    for bonds, msg in (
        # a bond into C4 on a chain of C2s: validation used to crash on it
        ({**good, (0, 1): hom(c2, c4, [0, 2])}, "bond (0,1) endpoints disagree with chain groups"),
        ({**good, (1, 2): hom(c4, c2, [0, 1, 0, 1])}, "bond (1,2) endpoints disagree with chain groups"),
        ({**good, (1, 0): identity_hom(c2)}, "bond (1,0) outside 0 <= upper <= lower < 3"),
        ({**good, (0, 3): identity_hom(c2)}, "bond (0,3) outside 0 <= upper <= lower < 3"),
    ):
        with pytest.raises(MalformedMap) as exc:
            CliffordSystem(groups=groups, bonds=bonds, theta=theta)
        assert str(exc.value) == msg
    assert validate_system(CliffordSystem(groups=groups, bonds=good, theta=theta)) == []
    with pytest.raises(ValueError, match="chain needs at least one level"):
        CliffordSystem(groups=(), bonds={}, theta=())


def test_same_level_bond_is_one_shared_identity():
    sys = make_c12_c6_c3()
    assert sys.bond(1, 1) is sys.bond(1, 1)
    assert sys.bond(1, 1).map == tuple(range(6))
    with pytest.raises(ValueError):
        sys.bond(3, 3)


def test_non_identity_idempotent_is_refused():
    # a one-level system on the magma [[0,1],[1,1]], where 1 * 1 = 1 but the
    # identity is 0
    m = groups.GroupTable([[0, 1], [1, 1]], identity=0)
    with pytest.raises(NotAGroup) as exc:
        idempotents(CliffordSystem(groups=(m,), bonds={}, theta=(identity_hom(m),)))
    assert str(exc.value) == "non-identity idempotent CliffordElement(level=0, elem=1) in a group"


def test_compiled_numbers_T_level_by_level(c2c2, trivial):
    for system in table_systems(c2c2, trivial):
        c = system.compiled
        assert c.elements == tuple(system.elements())
        assert c.ids == {a: n for n, a in enumerate(c.elements)}
        assert all(c.elements[n] == CliffordElement(0, n) for n in range(system.groups[0].order))
        for a in c.elements:
            assert c.elements[c.theta[c.ids[a]]] == theta_pow_oracle(system, a, 1)
            assert c.elements[c.inverse[c.ids[a]]] == (a.level, groups.ginv(system.groups[a.level], a.elem))
            for b in c.elements:
                assert c.elements[c.products[c.ids[a]][c.ids[b]]] == cmul_oracle(system, a, b)
        assert [c.elements[e] for e in c.idempotents] == idempotents(system)


def test_an_element_without_an_inverse_is_refused_at_compile():
    # a non-associative table whose only idempotent is its identity 0, where
    # the row of 1 never reaches 0; validate_group lists what breaks
    m = groups.GroupTable([[0, 1, 2], [1, 2, 2], [2, 1, 0]], identity=0)
    assert groups.validate_group(m) == ["inverse axiom violated for element 1"] + [
        f"associativity violated at {triple}"
        for triple in ("(1,1,1)", "(1,1,2)", "(1,2,1)", "(1,2,2)", "(2,1,1)", "(2,1,2)")
    ]
    sys = CliffordSystem(groups=(m,), bonds={}, theta=(identity_hom(m),))
    one = CliffordElement(0, 1)
    for compile_it in (lambda: sys.compiled, lambda: cmul(sys, one, one), lambda: cinv(sys, one)):
        with pytest.raises(NotAGroup) as exc:
            compile_it()
        assert str(exc.value) == "element (0, 1) has no inverse in its group"


def test_cinv_refuses_operands_outside_t_with_ginvs_errors():
    sys = make_z4z2()
    for a, error, msg in (
        ((0, 7), IndexOutOfRange, "7 outside group of order 4"),
        ((0, -1), IndexOutOfRange, "-1 outside group of order 4"),
        ((1, 2), IndexOutOfRange, "2 outside group of order 2"),
        ((5, 0), ValueError, "level 5 outside chain of size 2"),
        ((-1, 0), ValueError, "level -1 outside chain of size 2"),
    ):
        with pytest.raises(Exception) as exc:
            cinv(sys, CliffordElement(*a))
        assert (type(exc.value), str(exc.value)) == (error, msg), a


def test_compiled_once_and_never_by_validation():
    sys = make_c12_c6_c3()
    assert validate_system(sys) == []
    assert "compiled" not in vars(sys)
    assert sys.compiled is sys.compiled


def reference_system_violations(sys: CliffordSystem) -> list[str]:
    """The missing bonds in (upper, lower) order, then coherence over every
    descending triple whose three bonds exist, then, if nothing fired, the
    theta law over every element pair, on systems whose groups, bonds and
    theta maps are valid."""
    k, g = len(sys.groups), sys.groups

    def phi(a, b):
        return range(g[a].order) if a == b else sys.bonds[(a, b)].map

    out = [
        f"missing bonding map for levels ({a},{b})"
        for a, b in itertools.combinations(range(k), 2)
        if (a, b) not in sys.bonds
    ]
    out += [
        f"bond composition violated for levels ({a},{b},{c}) at element {x}"
        for a, b, c in itertools.combinations(range(k), 3)
        if {(a, b), (b, c), (a, c)} <= sys.bonds.keys()
        for x in range(g[a].order)
        if phi(b, c)[phi(a, b)[x]] != phi(a, c)[x]
    ]
    if out:
        return out
    th, top = [t.map for t in sys.theta], g[0].table
    elems = [(level, x) for level in range(k) for x in range(g[level].order)]
    for (la, x), (lb, y) in itertools.product(elems, repeat=2):
        m = max(la, lb)
        xy = g[m].table[phi(la, m)[x]][phi(lb, m)[y]]
        if th[m][xy] != top[th[la][x]][th[lb][y]]:
            out.append(f"theta law violated for a={(la, x)}, b={(lb, y)}")
    return out


def cyclic_chain(orders, mults, theta_mults) -> CliffordSystem:
    """Cyclic levels, bond (a,b) x -> mults[a,b]*x, theta[a] x -> theta_mults[a]*x."""
    gs = tuple(cyclic_group(n) for n in orders)
    return CliffordSystem(
        groups=gs,
        bonds={(a, b): hom(gs[a], gs[b], [c * x % orders[b] for x in range(orders[a])]) for (a, b), c in mults.items()},
        theta=tuple(hom(g, gs[0], [t * x % orders[0] for x in range(g.order)]) for g, t in zip(gs, theta_mults)),
    )


@st.composite
def cyclic_chains(draw):
    """2-4 cyclic levels, each order dividing the one above, so every
    x -> c*x is a bond.  About half the chains leave out bonds, each bond
    between distinct levels with probability 1/4.  A bond that spans two
    or more steps is the composite through the level below its top or drawn
    freely; each theta[a] is drawn among all homomorphisms into the top
    group, or derived from the level below so that the law can hold."""
    orders = [draw(st.sampled_from([1, 2, 3, 4, 6, 8, 12]))]
    for _ in range(draw(st.integers(1, 3))):
        orders.append(draw(st.sampled_from([d for d in range(1, orders[-1] + 1) if orders[-1] % d == 0])))
    k = len(orders)
    drops = draw(st.booleans())
    mults = {
        (a, b): draw(st.integers(0, orders[b] - 1))
        for a, b in itertools.combinations(range(k), 2)
        if not (drops and draw(st.integers(0, 3)) == 0)
    }
    for gap in range(2, k):  # shorter spans first, so bond (a+1, c) is final
        for a in range(k - gap):
            c = a + gap
            if {(a, a + 1), (a + 1, c), (a, c)} <= mults.keys() and draw(st.booleans()):
                mults[(a, c)] = mults[(a, a + 1)] * mults[(a + 1, c)] % orders[c]
    theta = [0] * k
    for a in reversed(range(k)):
        if (a, a + 1) in mults and draw(st.booleans()):
            theta[a] = theta[a + 1] * mults[(a, a + 1)] % orders[0]
        else:  # the homomorphisms Z_n -> Z_top are x -> j*(top/n)*x
            theta[a] = draw(st.integers(0, orders[a] - 1)) * (orders[0] // orders[a])
    return cyclic_chain(orders, mults, theta)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sys=cyclic_chains())
def test_fast_routes_agree_with_the_exhaustive_scans(sys):
    assert validate_system(sys) == reference_system_violations(sys)


@settings(max_examples=16, deadline=None, derandomize=True)
@given(sys=cyclic_chains())
def test_every_suite_passes_on_a_drawn_system(sys):
    # with and without zero, each suite checking what its closed form predicts
    assume(not validate_system(sys))
    for with_zero in (False, True):
        B = BRSystem(sys=sys, with_zero=with_zero, name="drawn")
        assert [(r.suite, r.violations, r.checked) for r in run_all(B, window=2, seed=0)] == [
            (s.name, [], s.checked(B, 2)) for s in SUITES if s.applies(B)]


def test_coherence_of_a_long_chain_reports_every_triple():
    k = 6
    mults = {(a, b): 1 for a, b in itertools.combinations(range(k), 2)}
    mults[(1, 4)] = 0
    sys = cyclic_chain([2] * k, mults, [1] * k)
    rep = validate_system(sys)
    assert rep == reference_system_violations(sys)
    assert len(rep) == 4  # (1,2,4), (1,3,4), (1,4,5) and (0,1,4)


def test_a_chain_without_bonds_lists_each_missing_bond_once(monkeypatch):
    # the coherence listing walks the bonds the chain holds: none here, so
    # bond is asked once per level pair and no level triple is visited
    k, calls, bond = 60, [], CliffordSystem.bond

    def counted(self, upper, lower):
        calls.append((upper, lower))
        return bond(self, upper, lower)

    monkeypatch.setattr(CliffordSystem, "bond", counted)
    rep = validate_system(cyclic_chain([1] * k, {}, [0] * k))
    pairs = list(itertools.combinations(range(k), 2))
    assert rep == [f"missing bonding map for levels ({a},{b})" for a, b in pairs]
    assert len(pairs) == 1770 and len(calls) <= 1770


def test_valid_systems_never_reach_the_oracles(c2c2, trivial, monkeypatch):
    def oracle(*args):
        raise AssertionError("validation of a valid system reached an oracle")

    for name in ("cmul_oracle", "theta_pow_oracle", "gmul"):
        plant(monkeypatch, name, lambda f: oracle)
    for sys in [*table_systems(c2c2, trivial), cyclic_chain([12, 6, 3], {(0, 1): 5, (0, 2): 2, (1, 2): 1}, [8, 4, 4])]:
        assert validate_system(sys) == []
