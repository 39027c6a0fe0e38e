"""The bicyclic monoid, optionally with an adjoined zero.

Elements are normal forms q^k p^l stored as index pairs (k, l) with
arbitrary-precision non-negative integers.  The adjoined zero is a separate
sentinel, never a reserved pair; Bruck-Reilly extensions adjoin the same
one.  Two routes compute a product: bmul is the closed-form index
arithmetic, and bmul_rows streams whole rows of products by the same
formula for the exhaustive scans; rho_table maps each pair to a 2x2
upper-triangular max-plus matrix, a faithful image in which a product is
one tmul, built from the generator images by products alone.  The
verification suites check the row kernel against the max-plus image, and
the tests also against the partial shifts of omega.  Every literal of the
package, element or box, is built from the one index pattern _INDEX, and
the element literals are read by read_literal.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple, Sequence, Union


class BicyclicElem(NamedTuple):
    k: int  # power of q
    l: int  # power of p


class _AdjoinedZero:
    __slots__ = ()

    def __repr__(self):
        return "0"


ZERO = _AdjoinedZero()

Element = Union[BicyclicElem, _AdjoinedZero]

IDENTITY = BicyclicElem(0, 0)


def is_zero(x: Element) -> bool:
    return x is ZERO


def _check(x: Element) -> None:
    if x is ZERO:
        return
    if not isinstance(x, BicyclicElem) or x.k < 0 or x.l < 0:
        raise ValueError(f"not a bicyclic element: {x!r}")


def bmul(x: Element, y: Element) -> Element:
    """q^k p^l . q^m p^n = q^(k+m-min(l,m)) p^(l+n-min(l,m)); zero absorbs."""
    _check(x)
    _check(y)
    if x is ZERO or y is ZERO:
        return ZERO
    d = min(x.l, y.k)
    return BicyclicElem(x.k + y.k - d, x.l + y.l - d)


def bmul_rows(xs: Sequence[Element], ys: Sequence[Element]) -> Iterator[list[Element]]:
    """Yield the row [x*y for y in ys] for each x in xs, by bmul's formula.

    Every operand is checked as bmul checks it, xs first, before any row.
    Against x = (k, l), a nonzero y = (m, n) gives (k, l - m + n) when
    m <= l and (k - l + m, n) otherwise; a zero on either side gives zero.
    Rows are streamed, never kept.
    """
    for x in xs:
        _check(x)
    for y in ys:
        _check(y)
    new = tuple.__new__
    pairs = [(None, y) if y is ZERO else (y.k, y.l) for y in ys]
    for x in xs:
        if x is ZERO:
            yield [ZERO] * len(pairs)
            continue
        k, l = x
        yield [n if m is None else new(BicyclicElem, (k, l - m + n) if m <= l else (k - l + m, n))
               for m, n in pairs]


def binv(x: Element) -> Element:
    """Swap the indices; zero is its own inverse once adjoined."""
    _check(x)
    if x is ZERO:
        return ZERO
    return BicyclicElem(x.l, x.k)


# Upper-triangular 2x2 max-plus matrices [[a, b], [-inf, c]] are stored as
# (a, b, c): the lower-left entry stays -inf under products, so the
# arithmetic is exact on integers.  P and Q are the images of p and q, and
# E, the image of 1, is a two-sided identity for both with P (x) Q = E.
TROP_E = (0, -2, 0)
TROP_P = (-2, -1, 1)
TROP_Q = (2, 0, -1)


def tmul(a: tuple, b: tuple) -> tuple:
    """Max-plus product of two upper-triangular 2x2 matrices."""
    a1, a2, a3 = a
    b1, b2, b3 = b
    return (a1 + b1, max(a1 + b2, a2 + b3), a3 + b3)


def rho_table(n: int) -> dict:
    """rho(q^k p^l) = E (x) Q^k (x) P^l for all k, l <= n, by products.

    Each row starts from the previous row's start times Q and walks right
    by P, so no index formula is used.  The image is
    [[2(k-l), 2k+l-2], [-inf, l-k]], which is injective on the whole
    monoid, so rho(z) == rho(x) (x) rho(y) proves z = xy.
    """
    table = {}
    start = TROP_E
    for k in range(n + 1):
        m = start
        for l in range(n + 1):
            table[BicyclicElem(k, l)] = m
            m = tmul(m, TROP_P)
        start = tmul(start, TROP_Q)
    return table


# ASCII digits: int() also takes signs, '_' and other scripts' digits.  At
# most 4,299 of them: a product index has at most one digit more than its
# operands, so every result prints under CPython's 4,300-digit str limit.
_INDEX = r"\s*([0-9]{1,4299})\s*"


def read_literal(pattern: re.Pattern, text: str, what: str, build):
    """ZERO for '0', else build(*indices) when pattern matches all of text
    stripped; anything else raises ValueError('cannot parse {what} ...')."""
    s = text.strip()
    if s == "0":
        return ZERO
    m = pattern.fullmatch(s)
    if m is None:
        raise ValueError(f"cannot parse {what} {text!r}")
    return build(*map(int, m.groups()))


_PAIR = re.compile(rf"\({_INDEX},{_INDEX}\)")


def parse_elem(text: str) -> Element:
    """Accepts '(k,l)' or '0'."""
    return read_literal(_PAIR, text, "bicyclic element", BicyclicElem)


def format_elem(x: Element) -> str:
    _check(x)
    if x is ZERO:
        return "0"
    return f"({x.k},{x.l})"
