import random

import pytest

from brext import bruck_reilly
from brext.bicyclic import BicyclicElem, bmul
from brext.bicyclic import is_zero as b_is_zero
from brext.bruck_reilly import (
    ZERO,
    ZERO_ID,
    Box,
    BRElem,
    BRSystem,
    box,
    brinv,
    brmul,
    brmul_ids,
    decode,
    encode,
    eta,
    format_elem,
    hclass,
    idempotents_window,
    is_zero,
    nat_order,
    nat_order_oracle,
    parse_elem,
    simplicity_witness,
    window_elements,
    zero_divisor_scan,
)
from brext.clifford import CliffordElement as CE
from brext.clifford import cmul_oracle, idempotents, theta_pow_oracle
from brext.errors import WindowTooLarge, WitnessVerificationFailed, ZeroNotAdjoined
from test_clifford import make_c12_c6_c3


def eta_congruent(x, y) -> bool:
    """Same fiber of eta, i.e. the same box."""
    if x is ZERO or y is ZERO:
        raise ValueError("congruence classes of nonzero elements only")
    return x.i == y.i and x.j == y.j


def test_worked_product_cross_level(c2c2):
    # (0, g, 1) * (2, h, 0): the right index wins, g is shifted once through
    # theta and lands on h's level via the bond, where g h = identity
    x = BRElem(0, CE(0, 1), 1)
    y = BRElem(2, CE(1, 1), 0)
    assert brmul(c2c2, x, y) == BRElem(1, CE(1, 0), 0)


def test_worked_products_all_three_index_cases(c2c2):
    g, h = CE(0, 1), CE(1, 1)
    # j = k: plain product in T
    assert brmul(c2c2, BRElem(1, g, 2), BRElem(2, h, 0)) == BRElem(1, CE(1, 0), 0)
    # j > k: the left element shifts the right one twice
    assert brmul(c2c2, BRElem(0, g, 3), BRElem(1, h, 0)) == BRElem(0, CE(0, 0), 2)


def test_unit_fiber_identities_act_as_local_units(c2c2):
    for x in window_elements(c2c2, 2):
        e = BRElem(x.i, c2c2.sys.unit(), x.i)
        assert brmul(c2c2, e, x) == x
        f = BRElem(x.j, c2c2.sys.unit(), x.j)
        assert brmul(c2c2, x, f) == x


def test_zero_absorbs_when_adjoined(c2c2):
    x = BRElem(1, CE(0, 1), 2)
    assert is_zero(brmul(c2c2, ZERO, x))
    assert is_zero(brmul(c2c2, x, ZERO))
    assert is_zero(brinv(c2c2, ZERO))


def test_zero_rejected_when_not_adjoined(c2c2):
    bare = BRSystem(sys=c2c2.sys, with_zero=False, name="bare")
    x = BRElem(0, CE(0, 0), 0)
    with pytest.raises(ZeroNotAdjoined):
        brmul(bare, ZERO, x)
    with pytest.raises(ZeroNotAdjoined):
        zero_divisor_scan(bare, 2)


# Operands brmul must refuse, with the exception _check raises for each.
BAD_OPERANDS = {
    "zero": (ZERO, ZeroNotAdjoined, "system was built without an adjoined zero"),
    "negative-i": (BRElem(-1, CE(0, 1), 0), ValueError, "not an extension element: (-1,0:1,0)"),
    "negative-j": (BRElem(0, CE(1, 0), -2), ValueError, "not an extension element: (0,1:0,-2)"),
    "negative-i-plain-pair": (BRElem(-1, (0, 1), 0), ValueError, "not an extension element: (-1,0:1,0)"),
    "element-outside-T": (BRElem(0, CE(0, 7), 0), ValueError, "group coordinate (0, 7) is not an element of T"),
    "level-outside-T": (BRElem(3, CE(2, 0), 1), ValueError, "group coordinate (2, 0) is not an element of T"),
    "negative-i-outside-T": (BRElem(-1, CE(0, 7), 0), ValueError, "group coordinate (0, 7) is not an element of T"),
    "plain-tuple": ((0, CE(0, 0), 0), ValueError,
                    "not an extension element: (0, CliffordElement(level=0, elem=0), 0)"),
    "none": (None, ValueError, "not an extension element: None"),
}


@pytest.mark.parametrize("case", BAD_OPERANDS)
def test_brmul_refuses_bad_operands_x_first(c2c2, case):
    bare = BRSystem(sys=c2c2.sys, with_zero=False, name="bare")
    good = BRElem(1, CE(0, 1), 2)
    bad, exc, message = BAD_OPERANDS[case]

    def rows(B, x, y):
        # every operand of both lists is checked before any product
        return next(brmul_ids(B, [good, x], [y, good]))

    # as x, as y, and as x next to every bad y, where x's error wins; the
    # row and order routes check their operands exactly as brmul does
    pairs = [(bad, good), (good, bad)] + [(bad, other) for other, _, _ in BAD_OPERANDS.values()]
    for f in (brmul, rows, nat_order, nat_order_oracle):
        for x, y in pairs:
            with pytest.raises(Exception) as info:
                f(bare, x, y)
            assert type(info.value) is exc and str(info.value) == message, (f.__name__, x, y)


def _brmul_by_definition(B, x, y):
    d = min(x.j, y.i)
    s = theta_pow_oracle(B.sys, x.s, y.i - d)
    t = theta_pow_oracle(B.sys, y.s, x.j - d)
    return BRElem(x.i + y.i - d, cmul_oracle(B.sys, s, t), x.j + y.j - d)


def test_brmul_matches_the_defining_formula(c2c2, trivial):
    chain3 = BRSystem(sys=make_c12_c6_c3(), name="chain3")
    rng = random.Random(5)
    for B in (c2c2, trivial, chain3):
        elems = window_elements(B, 3)
        for x in elems:
            for y in elems:
                assert brmul(B, x, y) == _brmul_by_definition(B, x, y), (x, y)
        T = list(B.sys.elements())
        for _ in range(500):
            x, y = (BRElem(rng.randrange(41), rng.choice(T), rng.randrange(41)) for _ in "xy")
            assert brmul(B, x, y) == _brmul_by_definition(B, x, y), (x, y)


def test_brmul_ids_matches_brmul_and_the_defining_formula(c2c2, trivial):
    chain3 = BRSystem(sys=make_c12_c6_c3(), with_zero=True, name="chain3")
    rng = random.Random(7)
    for B in (c2c2, trivial, chain3):
        for n in range(1, 5):
            elems = window_elements(B, n)
            rows = brmul_ids(B, elems, elems)
            for x, row in zip(elems, rows):
                assert len(row) == len(elems)
                for y, p in zip(elems, row):
                    assert type(p) is int
                    assert decode(B, p) == brmul(B, x, y) == _brmul_by_definition(B, x, y), (x, y)
                    assert p == encode(B, brmul(B, x, y))
        T = list(B.sys.elements())
        # unsorted, repeated and far apart indices, ZERO in both lists
        xs = [BRElem(rng.randrange(41), rng.choice(T), rng.randrange(41)) for _ in range(40)]
        ys = [BRElem(rng.randrange(41), rng.choice(T), rng.randrange(41)) for _ in range(40)]
        xs[3:3], ys[5:5], ys[20:20] = [ZERO], [ZERO], [ZERO, ZERO]
        got = list(brmul_ids(B, xs, ys))
        assert len(got) == len(xs)
        for x, row in zip(xs, got):
            assert [decode(B, p) for p in row] == [brmul(B, x, y) for y in ys], x
            for y, p in zip(ys, row):
                if x is ZERO or y is ZERO:
                    assert p == ZERO_ID and decode(B, p) is ZERO
                else:
                    assert decode(B, p) == _brmul_by_definition(B, x, y), (x, y)
    assert list(brmul_ids(chain3, [], elems)) == []
    assert list(brmul_ids(chain3, elems[:2], [])) == [[], []]


def test_encode_is_injective_and_decode_undoes_it(c2c2):
    rng = random.Random(11)
    T = list(c2c2.sys.elements())
    xs = {BRElem(i, s, j) for i in range(20) for j in range(20) for s in T}
    xs |= {BRElem(rng.randrange(10**30), rng.choice(T), rng.randrange(10**30)) for _ in range(200)}
    edge = len(bruck_reilly._SPREAD)  # indices on both sides of the spread table's edge
    xs |= {BRElem(i, s, j) for i in (edge - 1, edge) for j in (0, edge - 1, edge, edge + 1) for s in T}
    codes = {encode(c2c2, x): x for x in xs}
    assert len(codes) == len(xs)
    assert all(decode(c2c2, c) == x for c, x in codes.items())
    assert encode(c2c2, ZERO) == ZERO_ID and decode(c2c2, ZERO_ID) is ZERO


def test_spread_reads_binary_digits_in_base_4_on_both_sides_of_its_table():
    edge = len(bruck_reilly._SPREAD)
    for v in [*range(edge + 3), 2**40 - 1, 2**40, 2**40 + 1]:
        assert bruck_reilly._spread(v) == int(f"{v:b}", 4), v


def test_window_holds_every_product_of_two_window_elements(c2c2, trivial):
    chain3 = BRSystem(sys=make_c12_c6_c3(), name="chain3")
    for B in (c2c2, trivial, chain3):
        for n in (1, 2, 3):
            w = B.window(n)
            assert B.window(n) is w
            assert w.elems == window_elements(B, n) == w.prods[: len(w.elems)]
            assert w.codes == [encode(B, p) for p in w.prods]
            assert len(set(w.codes)) == len(w.codes)
            for x, xe in enumerate(w.elems):
                assert w.elems[w.inv[x]] == brinv(B, xe)
                for y, ye in enumerate(w.elems):
                    assert w.prods[w.table[x][y]] == brmul(B, xe, ye)
            for p, pe in enumerate(w.prods):
                assert [decode(B, c) for c in w.right[p]] == [brmul(B, pe, z) for z in w.elems]


def test_inverse_swaps_indices(c2c2):
    x = BRElem(2, CE(0, 1), 5)
    assert brinv(c2c2, x) == BRElem(5, CE(0, 1), 2)
    for y in window_elements(c2c2, 3):
        yi = brinv(c2c2, y)
        assert brmul(c2c2, brmul(c2c2, y, yi), y) == y
        assert brinv(c2c2, yi) == y


def test_eta_and_congruence(c2c2):
    x = BRElem(3, CE(1, 0), 4)
    assert eta(x) == BicyclicElem(3, 4)
    assert b_is_zero(eta(ZERO))
    assert eta_congruent(x, BRElem(3, CE(0, 1), 4))
    assert not eta_congruent(x, BRElem(4, CE(1, 0), 4))
    with pytest.raises(ValueError):
        eta_congruent(x, ZERO)
    for a in window_elements(c2c2, 3):
        for b in window_elements(c2c2, 3):
            assert eta(brmul(c2c2, a, b)) == bmul(eta(a), eta(b))


def test_idempotent_window_exact_list(c2c2):
    assert idempotents_window(c2c2, 2) == [
        BRElem(0, CE(0, 0), 0),
        BRElem(0, CE(1, 0), 0),
        BRElem(1, CE(0, 0), 1),
        BRElem(1, CE(1, 0), 1),
    ]
    assert len(idempotents_window(c2c2, 8)) == 16


def test_natural_order_examples(c2c2):
    g, h = CE(0, 1), CE(1, 1)
    assert nat_order(c2c2, BRElem(1, h, 1), BRElem(0, g, 0))
    assert not nat_order(c2c2, BRElem(0, g, 0), BRElem(1, h, 1))
    assert not nat_order(c2c2, BRElem(1, h, 1), BRElem(0, CE(0, 0), 0))
    # index gaps must agree
    assert not nat_order(c2c2, BRElem(0, g, 1), BRElem(0, g, 2))
    for x in window_elements(c2c2, 2):
        assert nat_order(c2c2, x, x)
    assert nat_order(c2c2, ZERO, BRElem(0, g, 0))
    assert not nat_order(c2c2, BRElem(0, g, 0), ZERO)


def test_natural_order_witness_index_can_exceed_left_index(c2c2):
    # x = (2, h, 5) <= y = (0, g, 3): the only multiplying idempotents have
    # first index 5, above x.i, so a search bounded by x.i would miss the
    # canonical witness x^-1 x = (5, h^-1 h, 5) that the oracle multiplies by
    g, h = CE(0, 1), CE(1, 1)
    x, y = BRElem(2, h, 5), BRElem(0, g, 3)
    assert nat_order(c2c2, x, y)
    assert nat_order_oracle(c2c2, x, y)
    assert not any(
        brmul(c2c2, y, BRElem(k, e, k)) == x
        for k in range(x.i + 1)
        for e in (CE(0, 0), CE(1, 0))
    )


def _nat_order_by_search(B, x, y):
    """x below y iff x = y * (k, f, k) for some idempotent f of T and some
    k <= max(i, j) of x: a reference search, slow but independent of the
    canonical witness."""
    if x is ZERO or y is ZERO:
        return x is ZERO
    return any(
        brmul(B, y, BRElem(k, f, k)) == x
        for k in range(max(x.i, x.j) + 1)
        for f in idempotents(B.sys)
    )


def test_natural_order_routes_agree_on_window(c2c2, trivial):
    chain3 = BRSystem(sys=make_c12_c6_c3(), name="chain3")
    rng = random.Random(9)
    for B, window in ((c2c2, 3), (trivial, 3), (chain3, 2)):
        elems = window_elements(B, window)
        pairs = [(x, y) for x in elems for y in elems]
        T = list(B.sys.elements())
        for n in range(500):
            m, k = rng.randrange(41), rng.randrange(41)
            y = BRElem(m, rng.choice(T), k)
            if n % 2:  # every other pair shares its index gap, so some compare true
                d = rng.randrange(41 - max(m, k))
                x = BRElem(m + d, rng.choice(T), k + d)
            else:
                x = BRElem(rng.randrange(41), rng.choice(T), rng.randrange(41))
            pairs.append((x, y))
        if B.with_zero:
            pairs += [(ZERO, ZERO)] + [p for x in elems[:8] for p in ((ZERO, x), (x, ZERO))]
        verdicts = set()
        for x, y in pairs:
            fast = nat_order(B, x, y)
            assert fast == nat_order_oracle(B, x, y) == _nat_order_by_search(B, x, y), (x, y)
            verdicts.add(fast)
        assert verdicts == {True, False}


def test_natural_order_on_chain3_matches_the_witness_past_theta_s_period():
    B = BRSystem(sys=make_c12_c6_c3(), with_zero=True, name="chain3")
    step = B.sys.theta[0].map
    tail = cycle = 0
    for x in range(len(step)):
        orbit = []
        while x not in orbit:
            orbit.append(x)
            x = step[x]
        tail, cycle = max(tail, orbit.index(x)), max(cycle, len(orbit) - orbit.index(x))
    assert (tail, cycle) == (1, 2)  # x -> 8x on C12: 1 -> 8 -> 4 -> 8
    elems = window_elements(B, 3)
    for x in elems:
        for y in elems:
            assert nat_order(B, x, y) == nat_order_oracle(B, x, y), (x, y)
    T = list(B.sys.elements())
    for d in range(tail + cycle + 3):
        verdicts = set()
        for m, n in ((0, 0), (0, 2), (3, 1)):
            for t in B.sys.compiled.elements[: B.sys.groups[0].order]:
                y = BRElem(m, t, n)
                for s in T:
                    x = BRElem(m + d, s, n + d)
                    fast = nat_order(B, x, y)
                    assert fast == nat_order_oracle(B, x, y), (x, y)
                    verdicts.add(fast)
        assert verdicts == {True, False}, d
    for x in [ZERO, *elems]:
        assert nat_order(B, ZERO, x) and nat_order_oracle(B, ZERO, x)
        assert nat_order(B, x, ZERO) == nat_order_oracle(B, x, ZERO) == (x is ZERO)


def test_natural_order_oracle_is_two_products(c2c2, monkeypatch):
    # one brinv and two brmul, whatever the indices: a witness search would
    # multiply y by (k, f, k) for every k up to 10**6
    calls = {"brmul": 0, "brinv": 0}
    for name in calls:
        original = getattr(bruck_reilly, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            if calls[_name] > 10:
                raise AssertionError(f"more than 10 {_name} calls")
            return _original(*args)

        monkeypatch.setattr(f"brext.bruck_reilly.{name}", counted)
    x, y = BRElem(10**6, CE(1, 1), 10**6), BRElem(0, CE(0, 1), 0)
    assert bruck_reilly.nat_order_oracle(c2c2, x, y) is nat_order(c2c2, x, y) is True
    assert calls == {"brmul": 2, "brinv": 1}


def test_hclass_is_the_group_fiber(c2c2):
    h = CE(1, 1)
    assert hclass(c2c2, BRElem(2, h, 0)) == [
        BRElem(2, CE(1, 0), 0),
        BRElem(2, CE(1, 1), 0),
    ]
    assert hclass(c2c2, ZERO) == [ZERO]
    for x in window_elements(c2c2, 2):
        members = hclass(c2c2, x)
        assert len(members) == c2c2.sys.group(x.s.level).order
        assert x in members


def test_simplicity_witness_worked_example(c2c2):
    a = BRElem(0, CE(0, 1), 1)
    b = BRElem(3, CE(1, 1), 2)
    x, y = simplicity_witness(c2c2, a, b)
    assert x == BRElem(3, CE(1, 0), 1)
    assert y == BRElem(2, CE(0, 0), 2)
    assert brmul(c2c2, brmul(c2c2, x, a), y) == b


def test_simplicity_witness_randomized(c2c2, trivial):
    rng = random.Random(11)
    for B in (c2c2, trivial):
        levels = len(B.sys.groups)
        for _ in range(200):
            def rand():
                lv = rng.randrange(levels)
                return BRElem(
                    rng.randrange(30),
                    CE(lv, rng.randrange(B.sys.group(lv).order)),
                    rng.randrange(30),
                )

            a, b = rand(), rand()
            x, y = simplicity_witness(B, a, b)
            assert brmul(B, brmul(B, x, a), y) == b


def test_simplicity_witness_identity_pair(c2c2):
    a = BRElem(2, CE(1, 1), 7)
    x, y = simplicity_witness(c2c2, a, a)
    assert brmul(c2c2, brmul(c2c2, x, a), y) == a


def test_witness_rejects_zero(c2c2):
    with pytest.raises(ValueError):
        simplicity_witness(c2c2, ZERO, BRElem(0, CE(0, 0), 0))


def test_witness_failure_is_written_in_the_element_grammar(c2c2, monkeypatch):
    # every product lands in row 9, so x*a*y misses b in its first index
    real = bruck_reilly.brmul
    monkeypatch.setattr(bruck_reilly, "brmul", lambda B, x, y: real(B, x, y)._replace(i=9))
    with pytest.raises(WitnessVerificationFailed) as info:
        simplicity_witness(c2c2, BRElem(0, CE(0, 1), 1), BRElem(3, CE(1, 1), 2))
    assert str(info.value) == "x*a*y = (9,1:1,2), expected (3,1:1,2)"


def test_zero_divisor_scan_clean(c2c2, trivial):
    for B in (c2c2, trivial):
        rep = zero_divisor_scan(B, 3)
        assert rep.ok
        assert rep.checked == len(window_elements(B, 3)) ** 2


def test_zero_divisor_scan_catches_corruption(c2c2, monkeypatch):
    culprit = BRElem(0, CE(0, 1), 1)
    original = brmul_ids

    def corrupted(B, xs, ys):
        for x, row in zip(xs, original(B, xs, ys)):
            yield [ZERO_ID if (x, y) == (culprit, culprit) else p for y, p in zip(ys, row)]

    monkeypatch.setattr("brext.bruck_reilly.brmul_ids", corrupted)
    rep = zero_divisor_scan(c2c2, 2)
    assert not rep.ok
    assert (culprit, culprit) in rep.counterexamples


def test_window_cap(c2c2):
    with pytest.raises(WindowTooLarge):
        window_elements(c2c2, 17)
    with pytest.raises(WindowTooLarge):
        idempotents_window(c2c2, 17)
    with pytest.raises(WindowTooLarge):
        zero_divisor_scan(c2c2, 17)


def test_trivial_fiber_tracks_bicyclic(trivial):
    one = trivial.sys.unit()
    rng = random.Random(3)
    for _ in range(100):
        i, j, k, l = (rng.randrange(20) for _ in range(4))
        got = brmul(trivial, BRElem(i, one, j), BRElem(k, one, l))
        want = bmul(BicyclicElem(i, j), BicyclicElem(k, l))
        assert (got.i, got.j) == (want.k, want.l)


def test_parse_and_format(c2c2):
    x = parse_elem("(0,0:1,1)")
    assert x == BRElem(0, CE(0, 1), 1)
    assert format_elem(x) == "(0,0:1,1)"
    assert is_zero(parse_elem("0"))
    assert format_elem(ZERO) == "0"
    assert parse_elem(" ( 2 , 1 : 0 , 3 ) ") == BRElem(2, CE(1, 0), 3)
    for text in ("(1,2)", "(1,2:3)", "(a,0:0,1)", ""):
        with pytest.raises(ValueError):
            parse_elem(text)


def test_box_helpers(c2c2):
    x = BRElem(4, CE(0, 0), 1)
    assert box(x) == Box(4, 1)
    with pytest.raises(ValueError):
        box(ZERO)
