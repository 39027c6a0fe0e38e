"""The bicyclic monoid, optionally with an adjoined zero.

Elements are normal forms q^k p^l stored as index pairs (k, l) with
arbitrary-precision non-negative integers.  The adjoined zero is a separate
sentinel, never a reserved pair; Bruck-Reilly extensions adjoin the same
one.  Two routes compute a product: bmul is the closed-form index
arithmetic, and bmul_codes streams rows of products, as integer codes
k * n + l at a width n (a Bruck-Reilly code is its box's times |T| plus an
id in T), for the exhaustive scans; rho_table lists in code order the 2x2
upper-triangular max-plus matrix of each pair, a faithful image in which a
product is one tmul, built from the generator images by products alone.  The
verification suites check the row kernel against the max-plus image, and
the tests also against the partial shifts of omega.  Every literal of the
package, element or box, is built from the one index pattern _INDEX, and
the element literals are read by read_literal.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import accumulate, chain, repeat
from operator import add
from typing import Collection, Iterator, NamedTuple, Sequence, Union


class BicyclicElem(NamedTuple):
    k: int  # power of q
    l: int  # power of p


class _AdjoinedZero:
    __slots__ = ()

    def __repr__(self):
        return "0"


ZERO = _AdjoinedZero()
ZERO_ID = -1  # ZERO's code at every width

Element = Union[BicyclicElem, _AdjoinedZero]


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


def check_width(n: int, *seconds: Collection[int]) -> None:
    """Refuse a code width n not above the sum of each collection's largest
    second index, which bounds a product's; an empty one means no product."""
    if all(seconds) and (top := sum(map(max, seconds))) >= n:
        raise ValueError(f"code width {n} is too small for second indices summing to {top}")


def bmul_codes(xs: Sequence[Element], ys: Sequence[Element], n: int) -> Iterator[list[int]]:
    """Yield the row [code(x*y) for y in ys] for each x in xs: (k, l) has
    code k * n + l and zero ZERO_ID.  Operands are checked as bmul checks
    them, xs first, before any row; then check_width refuses an n not above
    x.l + y.l.  Against x = (k, l), a y = (m, q) gives
    k * n + l + (q - m) if m <= l and (k - l) * n + code(y) otherwise, so
    with the ys sorted by m once a row is two shifted slices and a bisect,
    put back in the order of the ys only when sorting moved them."""
    for x in chain(xs, ys):
        _check(x)
    check_width(n, {x.l for x in xs if x is not ZERO}, {y.l for y in ys if y is not ZERO})
    order = sorted((j for j, y in enumerate(ys) if y is not ZERO), key=lambda j: ys[j].k)
    ms = [ys[j].k for j in order]
    shifts = [ys[j].l - ys[j].k for j in order]
    codes = [ys[j].k * n + ys[j].l for j in order]
    at = dict(zip(order, range(len(order))))  # a zero y reads the ZERO_ID put after a row of sorted ys
    at = None if order == list(range(len(ys))) else [at.get(j, -1) for j in range(len(ys))]
    for x in xs:
        if x is ZERO:
            yield [ZERO_ID] * len(ys)
            continue
        k, l = x
        s = bisect_right(ms, l)
        row = list(map(add, repeat(k * n + l), shifts[:s]))
        row += map(add, repeat((k - l) * n), codes[s:])
        yield row if at is None else list(map([*row, ZERO_ID].__getitem__, at))


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


def rho_table(n: int) -> list:
    """rho(q^k p^l) = E (x) Q^k (x) P^l for all k, l <= n, by products,
    listed by the code k * (n + 1) + l.

    Each row starts from the previous row's start times Q and walks right
    by P, so no index formula is used.  The image is
    [[2(k-l), 2k+l-2], [-inf, l-k]], which is injective on the whole
    monoid, so rho(z) == rho(x) (x) rho(y) proves z = xy.
    """
    starts = accumulate(repeat(TROP_Q, n), tmul, initial=TROP_E)
    return [m for start in starts for m in accumulate(repeat(TROP_P, n), tmul, initial=start)]


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
