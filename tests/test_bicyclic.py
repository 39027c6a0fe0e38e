import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from brext.bicyclic import (
    IDENTITY,
    TROP_E,
    TROP_P,
    TROP_Q,
    ZERO,
    BicyclicElem,
    bmul,
    binv,
    format_elem,
    idempotent,
    is_zero,
    oracle_mul,
    parse_elem,
    rho_table,
    tmul,
)

small = st.integers(min_value=0, max_value=40)
huge = st.integers(min_value=0, max_value=10**18)


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
            assert bmul(x, binv(x)) == idempotent(k)
            assert bmul(binv(x), x) == idempotent(l)


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
                    assert rho[z] == tmul(rho[x], rho[y]), (x, y)


@given(small, small, small, small)
def test_oracle_agrees_randomized(k, l, m, n):
    x, y = BicyclicElem(k, l), BicyclicElem(m, n)
    assert bmul(x, y) == oracle_mul(x, y)


def test_oracle_refuses_a_window_too_small_under_python_O():
    # the guard must not be an assert, which -O strips
    code = (
        "from brext.bicyclic import BicyclicElem, oracle_mul\n"
        "print(__debug__)\n"
        "try:\n"
        "    oracle_mul(BicyclicElem(2, 3), BicyclicElem(1, 4), pad=-20)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\nwindow too small for composite (pad=-20)\n"


def test_generator_images_satisfy_the_bicyclic_relation():
    assert tmul(TROP_P, TROP_Q) == TROP_E
    for m in (TROP_P, TROP_Q):
        assert tmul(TROP_E, m) == m == tmul(m, TROP_E)
    assert tmul(TROP_E, TROP_E) == TROP_E
    assert tmul(TROP_Q, TROP_P) != TROP_E


def test_rho_built_by_products_is_the_closed_form_and_injective():
    rho = rho_table(24)
    assert set(rho) == {BicyclicElem(k, l) for k in range(25) for l in range(25)}
    for x, m in rho.items():
        assert m == (2 * (x.k - x.l), 2 * x.k + x.l - 2, x.l - x.k), x
    assert len(set(rho.values())) == len(rho)


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
            e, f = idempotent(k), idempotent(m)
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
