"""The bicyclic monoid, optionally with an adjoined zero.

Elements are normal forms q^k p^l stored as index pairs (k, l) with
arbitrary-precision non-negative integers.  The adjoined zero is a separate
sentinel, never a reserved pair.  Three routes compute a product:
bmul is the closed-form index arithmetic; rho_table maps each pair to a
2x2 upper-triangular max-plus matrix, a faithful image in which a product
is one tmul, built from the generator images by products alone; and
oracle_mul composes the partial shifts of omega that the generators act
by.  The verification suites check bmul against the max-plus image, and
the test suite compares all three.
"""

from __future__ import annotations

import re
from typing import NamedTuple, Union

from .errors import WitnessVerificationFailed


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


def binv(x: Element) -> Element:
    """Swap the indices; zero is its own inverse once adjoined."""
    _check(x)
    if x is ZERO:
        return ZERO
    return BicyclicElem(x.l, x.k)


def idempotent(k: int) -> BicyclicElem:
    return BicyclicElem(k, k)


def oracle_mul(x: Element, y: Element, pad: int = 4) -> Element:
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


_PAIR_RE = re.compile(r"^\(\s*([0-9]+)\s*,\s*([0-9]+)\s*\)$")


def parse_elem(text: str) -> Element:
    """Accepts '(k,l)' or '0'."""
    s = text.strip()
    if s == "0":
        return ZERO
    m = _PAIR_RE.match(s)
    if not m:
        raise ValueError(f"cannot parse bicyclic element {text!r}")
    return BicyclicElem(int(m.group(1)), int(m.group(2)))


def format_elem(x: Element) -> str:
    _check(x)
    if x is ZERO:
        return "0"
    return f"({x.k},{x.l})"
