import itertools

import pytest

from brext.clifford import (
    ChainSemilattice,
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
from brext.errors import IndexOutOfRange, MissingBond, NotIdempotent
from brext.groups import cyclic_group, hom, identity_hom
from test_groups import constant_hom


def nat_order_idem(sys: CliffordSystem, e: CliffordElement, f: CliffordElement) -> bool:
    """e below f in the idempotent order: both products collapse to e."""
    for x in (e, f):
        if cmul(sys, x, x) != x:
            raise NotIdempotent(f"{x} is not idempotent")
    return cmul(sys, e, f) == e and cmul(sys, f, e) == e


def make_t2():
    """Two Z2 levels, bonded by the isomorphism, theta the same maps."""
    z2a, z2b = cyclic_group(2), cyclic_group(2)
    return CliffordSystem(
        chain=ChainSemilattice(2),
        groups=(z2a, z2b),
        bonds={(0, 1): hom(z2a, z2b, [0, 1])},
        theta=(identity_hom(z2a), hom(z2b, z2a, [0, 1])),
    )


def make_z4z2():
    """Z4 over Z2 via mod 2, with a doubling theta."""
    z4, z2 = cyclic_group(4), cyclic_group(2)
    return CliffordSystem(
        chain=ChainSemilattice(2),
        groups=(z4, z2),
        bonds={(0, 1): hom(z4, z2, [0, 1, 0, 1])},
        theta=(hom(z4, z4, [0, 2, 0, 2]), hom(z2, z4, [0, 2])),
    )


def make_z4():
    z4 = cyclic_group(4)
    return CliffordSystem(chain=ChainSemilattice(1), groups=(z4,), bonds={}, theta=(identity_hom(z4),))


def make_c12_c6_c3():
    """C12 > C6 > C3 with reduction bonds and theta x -> 8x into C12."""
    c12, c6, c3 = cyclic_group(12), cyclic_group(6), cyclic_group(3)
    return CliffordSystem(
        chain=ChainSemilattice(3),
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
        chain=ChainSemilattice(2),
        groups=(top, low),
        bonds={(0, 1): hom(top, low, [0, 3, 2, 1])},
        theta=(identity_hom(top), hom(low, top, [0, 3, 2, 1])),
    )


def table_systems(c2c2, trivial):
    return [make_t2(), make_z4z2(), make_z4(), c2c2.sys, trivial.sys, make_c12_c6_c3(), make_c4_twisted()]


def test_chain_meet_is_max():
    ch = ChainSemilattice(4)
    assert ch.meet(1, 3) == 3
    assert ch.meet(2, 2) == 2
    assert ch.below(3, 1) and not ch.below(1, 3)
    with pytest.raises(ValueError):
        ChainSemilattice(0)
    with pytest.raises(ValueError):
        ch.meet(0, 4)


def test_t2_validates():
    assert validate_system(make_t2()).ok
    assert validate_system(make_z4z2()).ok


def test_single_level_validates():
    assert validate_system(make_z4()).ok


def test_swapped_bond_is_not_a_hom():
    z2 = cyclic_group(2)
    sys = CliffordSystem(
        chain=ChainSemilattice(2),
        groups=(z2, cyclic_group(2)),
        bonds={(0, 1): hom(z2, cyclic_group(2), [1, 0])},
        theta=(identity_hom(z2), hom(cyclic_group(2), z2, [0, 1])),
    )
    rep = validate_system(sys)
    assert any("bond (0,1): not a homomorphism" in v for v in rep.violations)


def test_mixed_theta_breaks_the_cross_level_law():
    # theta[0] identity but theta[1] annihilating: each map is a hom on its
    # own level, yet theta fails to be a homomorphism of the whole monoid
    t2 = make_t2()
    sys = CliffordSystem(
        chain=t2.chain,
        groups=t2.groups,
        bonds=t2.bonds,
        theta=(identity_hom(t2.groups[0]), constant_hom(t2.groups[1], t2.groups[0])),
    )
    rep = validate_system(sys)
    assert any("theta law violated" in v for v in rep.violations)


def test_fully_annihilating_theta_is_fine():
    t2 = make_t2()
    sys = CliffordSystem(
        chain=t2.chain,
        groups=t2.groups,
        bonds=t2.bonds,
        theta=(
            constant_hom(t2.groups[0], t2.groups[0]),
            constant_hom(t2.groups[1], t2.groups[0]),
        ),
    )
    assert validate_system(sys).ok


def test_missing_bond_reported_and_raised():
    z2 = cyclic_group(2)
    groups = (z2, cyclic_group(2), cyclic_group(2))
    sys = CliffordSystem(
        chain=ChainSemilattice(3),
        groups=groups,
        bonds={(0, 1): hom(groups[0], groups[1], [0, 1]), (1, 2): hom(groups[1], groups[2], [0, 1])},
        theta=(identity_hom(z2), hom(groups[1], z2, [0, 1]), hom(groups[2], z2, [0, 1])),
    )
    rep = validate_system(sys)
    assert any("missing bonding map for levels (0,2)" in v for v in rep.violations)
    with pytest.raises(MissingBond):
        sys.bond(0, 2)
    with pytest.raises(MissingBond):
        sys.bond(1, 0)  # bonds never go up the chain


def test_incoherent_bond_composition_reported():
    z2 = cyclic_group(2)
    groups = (z2, cyclic_group(2), cyclic_group(2))
    sys = CliffordSystem(
        chain=ChainSemilattice(3),
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
        for v in rep.violations
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
    with pytest.raises(NotIdempotent):
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


def test_table_product_matches_oracle(c2c2, trivial):
    for sys in table_systems(c2c2, trivial):
        assert validate_system(sys).ok
        elems = list(sys.elements())
        for a, b in itertools.product(elems, repeat=2):
            assert cmul(sys, a, b) == cmul_oracle(sys, a, b)


def test_idempotents_match_oracle(c2c2, trivial):
    for sys in table_systems(c2c2, trivial):
        expected = [e for e in sys.elements() if cmul_oracle(sys, e, e) == e]
        assert idempotents(sys) == expected
        assert idempotents(sys) is not idempotents(sys)


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
        shared = {id(key) for key in sys.compiled.products}
        powers = [*range(3 * sys.groups[0].order + 3), 1000, 10001]
        for a in sys.elements():
            for n in powers:
                v = theta_pow(sys, a, n)
                assert v == theta_pow_oracle(sys, a, n), (a, n)
                assert n == 0 or id(v) in shared, (a, n)  # a key object of the table


def test_theta_pow_errors_match_the_oracle():
    sys = make_z4z2()
    for a, exc in ((CliffordElement(5, 0), IndexError), (CliffordElement(0, 7), IndexOutOfRange)):
        for n in (1, 2, 1000):
            raised = []
            for route in (theta_pow, theta_pow_oracle):
                with pytest.raises(Exception) as info:
                    route(sys, a, n)
                raised.append((type(info.value), str(info.value)))
            assert raised[0] == raised[1] and raised[0][0] is exc, (a, n)
    fresh = make_z4z2()
    with pytest.raises(ValueError):
        theta_pow(fresh, CliffordElement(0, 1), -1)
    assert "compiled" not in vars(fresh)


def test_theta_outside_the_top_group_is_left_to_the_oracle():
    # systems validate_system rejects still compile their product table;
    # theta_pow then answers, or raises, exactly as the oracle does
    c2, c4 = cyclic_group(2), cyclic_group(4)
    chain, bonds = ChainSemilattice(2), {(0, 1): hom(c2, c4, [0, 2])}
    no_theta = CliffordSystem(chain=chain, groups=(c2, c4), bonds=bonds)
    wrong_codomain = CliffordSystem(
        chain=chain, groups=(c2, c4), bonds=bonds, theta=(identity_hom(c2), identity_hom(c4))
    )
    for sys in (no_theta, wrong_codomain):
        assert not validate_system(sys).ok
        assert cmul(sys, CliffordElement(0, 1), CliffordElement(1, 1)) == CliffordElement(1, 3)
        assert sys.compiled.theta == {}
    with pytest.raises(IndexError):
        theta_pow(no_theta, CliffordElement(0, 1), 1)
    for a in wrong_codomain.elements():
        assert theta_pow(wrong_codomain, a, 1) == theta_pow_oracle(wrong_codomain, a, 1)


def test_same_level_bond_is_one_shared_identity():
    sys = make_c12_c6_c3()
    assert sys.bond(1, 1) is sys.bond(1, 1)
    assert sys.bond(1, 1).map == tuple(range(6))
    with pytest.raises(ValueError):
        sys.bond(3, 3)


def test_compiled_once_and_never_by_validation():
    sys = make_c12_c6_c3()
    assert validate_system(sys).ok
    assert "compiled" not in vars(sys)
    assert sys.compiled is sys.compiled
