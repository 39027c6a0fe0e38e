import random

import pytest
from hypothesis import given, strategies as st

from brext import topology
from brext.bicyclic import (
    TROP_E,
    TROP_P,
    TROP_Q,
    ZERO,
    _check,
    BicyclicElem,
    bmul,
    bmul_codes,
    binv,
    format_elem,
    is_zero,
    parse_elem,
    rho_table,
    tmul,
)
from brext.errors import WitnessVerificationFailed

small = st.integers(min_value=0, max_value=40)
huge = st.integers(min_value=0, max_value=10**18)
IDENTITY = BicyclicElem(0, 0)


def oracle_mul(x, y, pad: int = 4):
    """Recompute bmul by composing the partial injections of omega.

    q^k p^l acts as the shift t -> t - l + k defined on t >= l.  The product
    corresponds to applying the right factor first.  Both maps are laid out
    as explicit finite dictionaries on a window of omega large enough to
    expose the composite's domain threshold, the pair is read back off the
    composite, and the composite is checked to be a uniform shift on the
    window.  No index formula from bmul is reused here.
    """
    _check(x)
    _check(y)
    if x is ZERO or y is ZERO:
        return ZERO
    hi = x.k + x.l + y.k + y.l + pad
    f = {t: t - x.l + x.k for t in range(x.l, hi)}
    g = {t: t - y.l + y.k for t in range(y.l, hi)}
    comp = {t: f[g[t]] for t in g if g[t] in f}
    if not comp:
        raise ValueError(f"window too small for composite (pad={pad})")
    lo = min(comp)
    k, l = comp[lo], lo
    if any(v - t != k - l for t, v in comp.items()):
        raise WitnessVerificationFailed(
            f"composite of {format_elem(x)} and {format_elem(y)} is not a uniform shift"
        )
    return BicyclicElem(k, l)


def is_idempotent(x) -> bool:
    return x is not ZERO and x.k == x.l


def test_worked_products():
    assert bmul(BicyclicElem(2, 3), BicyclicElem(1, 4)) == BicyclicElem(2, 6)
    assert bmul(BicyclicElem(1, 1), BicyclicElem(1, 1)) == BicyclicElem(1, 1)
    assert bmul(IDENTITY, BicyclicElem(5, 7)) == BicyclicElem(5, 7)
    assert bmul(BicyclicElem(5, 7), IDENTITY) == BicyclicElem(5, 7)


def test_x_times_its_inverse_is_idempotent():
    for k in range(4):
        for l in range(4):
            x = BicyclicElem(k, l)
            assert bmul(x, binv(x)) == BicyclicElem(k, k)
            assert bmul(binv(x), x) == BicyclicElem(l, l)


def test_zero_absorbs():
    assert is_zero(bmul(ZERO, BicyclicElem(3, 1)))
    assert is_zero(bmul(BicyclicElem(3, 1), ZERO))
    assert is_zero(bmul(ZERO, ZERO))
    assert is_zero(binv(ZERO))


def test_zero_is_not_a_pair():
    assert not isinstance(ZERO, tuple)
    assert ZERO != BicyclicElem(0, 0)


def test_oracle_agrees_exhaustively_small():
    # all three routes: bmul, partial-shift composition, the max-plus image
    rho = rho_table(16)
    for k in range(9):
        for l in range(9):
            x = BicyclicElem(k, l)
            for m in range(9):
                for n in range(9):
                    y = BicyclicElem(m, n)
                    z = bmul(x, y)
                    assert z == oracle_mul(x, y)
                    assert rho[_code(z, 17)] == tmul(rho[_code(x, 17)], rho[_code(y, 17)]), (x, y)


@given(small, small, small, small)
def test_oracle_agrees_randomized(k, l, m, n):
    x, y = BicyclicElem(k, l), BicyclicElem(m, n)
    assert bmul(x, y) == oracle_mul(x, y)


def _code(z, n):
    """bmul_codes' code of z at width n."""
    return -1 if z is ZERO else z.k * n + z.l


def test_bmul_codes_matches_bmul_with_zeros_and_empty_lists():
    r = range(6)
    elems = [BicyclicElem(k, l) for k in r for l in r]
    # zero rows and columns, shuffled and repeated operands
    xs = [ZERO] + elems[::-1] + [ZERO, BicyclicElem(40, 3)]
    ys = elems[5:] + [ZERO] + elems[:5] + [BicyclicElem(2, 40), ZERO] + elems[::7]
    random.Random(0).shuffle(ys)
    n = 5 + 40 + 1
    got = list(bmul_codes(xs, ys, n))
    assert got == [[_code(bmul(x, y), n) for y in ys] for x in xs]
    for x, row in zip(xs, got):
        for y, c in zip(ys, row):
            assert c == (-1 if x is ZERO or y is ZERO else _code(oracle_mul(x, y), n)), (x, y)
    assert list(bmul_codes([], ys, n)) == []
    assert list(bmul_codes(xs[:3], [], n)) == [[], [], []]


@pytest.mark.parametrize("arrange", [
    pytest.param(lambda ys: sorted(ys, key=lambda y: y.k), id="sorted-by-first-index"),  # rows yielded as built
    pytest.param(lambda ys: ys[::-1], id="reversed"),
    pytest.param(lambda ys: random.Random(1).sample(ys, len(ys)), id="shuffled"),
    pytest.param(lambda ys: sorted(ys, key=lambda y: (y.k, -y.l)), id="sorted-ties-reversed"),
])
def test_bmul_codes_matches_bmul_without_zeros(arrange):
    r = range(5)
    elems = [BicyclicElem(k, l) for k in r for l in r]
    xs, ys, n = elems + [ZERO], arrange(elems + elems[::6]), 9
    assert ZERO not in ys
    assert list(bmul_codes(xs, ys, n)) == [[_code(bmul(x, y), n) for y in ys] for x in xs]


bad_operands = st.sampled_from(
    [BicyclicElem(-1, 0), BicyclicElem(2, -3), (1, 2), None, "(1,2)"]
)
operands = st.lists(st.builds(BicyclicElem, small, small) | st.just(ZERO), max_size=4)


def test_bmul_codes_refuses_a_width_that_would_merge_codes():
    x, y = BicyclicElem(0, 3), BicyclicElem(0, 2)
    # (0,3)*(0,2) = (0,5): at width 5 its code 5 would be that of (1,0)
    with pytest.raises(ValueError, match="code width 5 is too small for second indices summing to 5"):
        next(bmul_codes([x], [y], 5))
    assert list(bmul_codes([x], [y], 6)) == [[5]]
    assert list(bmul_codes([x, ZERO], [ZERO], 1)) == [[-1], [-1]]


def _error(f, *args):
    with pytest.raises(Exception) as info:
        f(*args)
    return type(info.value), str(info.value)


@given(operands, operands, bad_operands, bad_operands, st.data())
def test_bmul_codes_refuses_bad_operands_like_bmul(xs, ys, bad_x, bad_y, data):
    # good operands, in any order, give bmul's products
    assert list(bmul_codes(xs, ys, 81)) == [[_code(bmul(x, y), 81) for y in ys] for x in xs]
    xs = xs + [bad_x]
    ys = ys + [bad_y]
    data.draw(st.randoms()).shuffle(xs)
    good = BicyclicElem(1, 1)
    # a width of 0 is checked only after the operands
    rows = bmul_codes(xs, ys, 0)
    # xs are checked before ys, and both before any row is yielded
    assert _error(next, rows) == _error(bmul, bad_x, good) == _error(bmul, bad_x, bad_y)
    assert _error(next, bmul_codes(ys[:-1], ys, 81)) == _error(bmul, good, bad_y)
    assert list(rows) == []


def test_oracle_refuses_a_window_too_small():
    with pytest.raises(ValueError) as exc:
        oracle_mul(BicyclicElem(2, 3), BicyclicElem(1, 4), pad=-20)
    assert str(exc.value) == "window too small for composite (pad=-20)"


def test_generator_images_satisfy_the_bicyclic_relation():
    assert tmul(TROP_P, TROP_Q) == TROP_E
    for m in (TROP_P, TROP_Q):
        assert tmul(TROP_E, m) == m == tmul(m, TROP_E)
    assert tmul(TROP_E, TROP_E) == TROP_E
    assert tmul(TROP_Q, TROP_P) != TROP_E


def test_rho_built_by_products_is_the_closed_form_and_injective():
    rho = rho_table(24)
    assert len(rho) == 25 * 25
    for k in range(25):
        for l in range(25):
            m = rho[_code(BicyclicElem(k, l), 25)]
            assert m == (2 * (k - l), 2 * k + l - 2, l - k) == topology._rho(k, l), (k, l)
    assert len(set(rho)) == len(rho)


@given(huge, huge, huge, huge, huge, huge)
def test_associative_at_arbitrary_precision(k, l, m, n, r, s):
    x, y, z = BicyclicElem(k, l), BicyclicElem(m, n), BicyclicElem(r, s)
    assert bmul(bmul(x, y), z) == bmul(x, bmul(y, z))


@given(huge, huge)
def test_inverse_axioms_at_arbitrary_precision(k, l):
    x = BicyclicElem(k, l)
    assert bmul(bmul(x, binv(x)), x) == x
    assert bmul(bmul(binv(x), x), binv(x)) == binv(x)


def test_idempotents_are_the_diagonal():
    for k in range(7):
        for l in range(7):
            assert is_idempotent(BicyclicElem(k, l)) == (k == l)
            assert (bmul(BicyclicElem(k, l), BicyclicElem(k, l)) == BicyclicElem(k, l)) == (k == l)


def test_idempotent_order_reverses_omega():
    for k in range(7):
        for m in range(7):
            e, f = BicyclicElem(k, k), BicyclicElem(m, m)
            below = bmul(e, f) == e and bmul(f, e) == e
            assert below == (k >= m)


def test_inverses_are_unique_on_window():
    elems = [BicyclicElem(k, l) for k in range(7) for l in range(7)]
    for x in elems:
        mates = [y for y in elems if bmul(bmul(x, y), x) == x and bmul(bmul(y, x), y) == y]
        assert mates == [binv(x)]


def test_parse_and_format():
    assert parse_elem("(2,3)") == BicyclicElem(2, 3)
    assert parse_elem(" ( 10 , 0 ) ") == BicyclicElem(10, 0)
    assert is_zero(parse_elem("0"))
    assert format_elem(BicyclicElem(2, 3)) == "(2,3)"
    assert format_elem(ZERO) == "0"
    for text in ("(1,2", "(-1,2)", "(1;2)", "q2p3", ""):
        with pytest.raises(ValueError):
            parse_elem(text)


def test_negative_indices_rejected():
    with pytest.raises(ValueError):
        bmul(BicyclicElem(-1, 0), IDENTITY)
