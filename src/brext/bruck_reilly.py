"""Bruck-Reilly extensions of a finite chain of groups.

A nonzero element is a triple (i, s, j) with i, j in omega and s an element
of the underlying chain-of-groups monoid T.  The product shifts the inner
factors with theta before multiplying in T:

    (i, s, j) . (k, t, l) with d = min(j, k)
        = (i + k - d,  theta^(k-d)(s) * theta^(j-d)(t),  j + l - d)

which collapses to the bicyclic index arithmetic on the outer coordinates.
brmul computes one product; brmul_rows streams whole rows of products by
the same formula for the window scans, reading one row of T's product
table per shift instead of shifting per pair.  Systems may adjoin a zero;
products of nonzero elements are never zero, and zero_divisor_scan
certifies that on a window.  Exhaustive window operations are capped at
window 16.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import groupby, repeat
from typing import Iterator, NamedTuple, Sequence, Union

from . import bicyclic
from .clifford import CliffordElement, CliffordSystem, cinv, cmul, idempotents, theta_pow
from .errors import WindowTooLarge, WitnessVerificationFailed, ZeroNotAdjoined

MAX_WINDOW = 16


class Box(NamedTuple):
    """An index pair (i, j); the fiber over it is a copy of T."""

    i: int
    j: int


class BRElem(NamedTuple):
    i: int
    s: CliffordElement
    j: int


class _AdjoinedZero:
    __slots__ = ()

    def __repr__(self):
        return "0"


ZERO = _AdjoinedZero()

Element = Union[BRElem, _AdjoinedZero]


def is_zero(x: Element) -> bool:
    return x is ZERO


@dataclass(frozen=True)
class BRSystem:
    """A chain-of-groups monoid together with the zero-adjunction flag."""

    sys: CliffordSystem
    with_zero: bool = False
    name: str = ""


def _check(B: BRSystem, x: Element) -> None:
    if x is ZERO:
        if not B.with_zero:
            raise ZeroNotAdjoined("system was built without an adjoined zero")
        return
    if not isinstance(x, BRElem) or x.i < 0 or x.j < 0:
        raise ValueError(f"not an extension element: {x!r}")
    if x.s not in B.sys.compiled.products:
        raise ValueError(f"group coordinate {tuple(x.s)} is not an element of T")


def brmul(B: BRSystem, x: Element, y: Element) -> Element:
    """The product in one pass: plain BRElem operands are validated once
    against the product table, x first (anything else goes through _check),
    theta runs only on the factor that is shifted, and T's product is read
    from the table."""
    products = B.sys.compiled.products
    if type(x) is not BRElem or type(y) is not BRElem:
        _check(B, x)
        _check(B, y)
        if x is ZERO or y is ZERO:
            return ZERO
    i, s, j = x
    k, t, l = y
    if i < 0 or j < 0 or s not in products:
        _check(B, x)  # raises
    if k < 0 or l < 0 or t not in products:
        _check(B, y)  # raises
    if j < k:
        return BRElem(i + k - j, products[theta_pow(B.sys, s, k - j)][t], l)
    if k < j:
        return BRElem(i, products[s][theta_pow(B.sys, t, j - k)], j + l - k)
    return BRElem(i, products[s][t], l)


def brmul_rows(B: BRSystem, xs: Sequence[Element], ys: Sequence[Element]) -> Iterator[list[Element]]:
    """Yield the row [x*y for y in ys] for each x in xs, by brmul's formula.

    Every operand is checked as brmul checks it, xs first, before any
    product.  The ys are cut into maximal runs with one left index k (or
    of zeros).  Against x = (i, s, j), a run with k > j reads the one table
    row products[theta^(k-j)(s)], and a run with k <= j reads x's own row
    at theta^(j-k) of each group part, taken from a table built once per
    call one theta step at a time.  So each product is one table read and
    one BRElem; rows are streamed, never kept.
    """
    for x in xs:
        _check(B, x)
    for y in ys:
        _check(B, y)
    sys = B.sys
    products = sys.compiled.products
    new = tuple.__new__
    js = {x.j for x in xs if x is not ZERO}
    runs = []
    for k, run in groupby(ys, key=lambda y: None if y is ZERO else y.i):
        run = list(run)
        if k is None:
            runs.append((k, run, None))
            continue
        ts, ls = [y.s for y in run], [y.j for y in run]
        # shifted[d]: theta^d of the group parts, and the right indices + d
        shifted, keys, d = {0: (ts, ls)}, ts, 0
        for target in sorted(j - k for j in js if j > k):
            while d < target:
                keys = [theta_pow(sys, t, 1) for t in keys]
                d += 1
            shifted[d] = keys, [l + d for l in ls]
        runs.append((k, run, shifted))
    for x in xs:
        if x is ZERO:
            yield [ZERO] * len(ys)
            continue
        i, s, j = x
        own = products[s].__getitem__
        row = []
        for k, run, shifted in runs:
            if k is None:
                row += run
                continue
            if k > j:
                ts, ls = shifted[0]
                cells = zip(repeat(i + k - j), map(products[theta_pow(sys, s, k - j)].__getitem__, ts), ls)
            else:
                keys, ls = shifted[j - k]
                cells = zip(repeat(i), map(own, keys), ls)
            row += map(new, repeat(BRElem), cells)
        yield row


def brinv(B: BRSystem, x: Element) -> Element:
    _check(B, x)
    if x is ZERO:
        return ZERO
    return BRElem(x.j, cinv(B.sys, x.s), x.i)


def box(x: Element) -> Box:
    if x is ZERO:
        raise ValueError("zero lies in no box")
    return Box(x.i, x.j)


def eta(x: Element) -> bicyclic.Element:
    """Forget the group coordinate; zero goes to the bicyclic zero."""
    if x is ZERO:
        return bicyclic.ZERO
    return bicyclic.BicyclicElem(x.i, x.j)


def window_elements(B: BRSystem, n: int) -> list[BRElem]:
    """All nonzero elements with both indices below n, in a fixed order."""
    if n > MAX_WINDOW:
        raise WindowTooLarge(f"window {n} exceeds cap {MAX_WINDOW}")
    return [
        BRElem(i, s, j)
        for i in range(n)
        for j in range(n)
        for s in B.sys.elements()
    ]


def idempotents_window(B: BRSystem, n: int) -> list[BRElem]:
    """Idempotents (i, e, i) with i < n, strictly descending.

    Descending means index i ascending and, within one i, chain level
    ascending (lower levels sit lower in the order).  The chain property is
    re-verified pairwise from products before returning; a failure raises
    WitnessVerificationFailed.
    """
    if n > MAX_WINDOW:
        raise WindowTooLarge(f"window {n} exceeds cap {MAX_WINDOW}")
    out = [BRElem(i, e, i) for i in range(n) for e in idempotents(B.sys)]
    for a in range(len(out)):
        if brmul(B, out[a], out[a]) != out[a]:
            raise WitnessVerificationFailed(f"{format_elem(out[a])} is not idempotent")
        for b in range(a + 1, len(out)):
            lo, hi = out[b], out[a]
            if brmul(B, hi, lo) != lo or brmul(B, lo, hi) != lo:
                raise WitnessVerificationFailed(
                    f"idempotents {format_elem(hi)} and {format_elem(lo)} out of order"
                )
    return out


def nat_order(B: BRSystem, x: Element, y: Element) -> bool:
    """x below y in the natural partial order, by the closed form.

    Writing x = (i, s, j) and y = (m, t, n): both index gaps must agree and
    be non-negative, d = i - m = j - n >= 0, and s must equal t (d = 0) or
    theta^d(t) (d > 0) multiplied by some idempotent of T.  The product
    route nat_order_oracle checks x = y * x^-1 x in the extension instead.
    """
    _check(B, x)
    _check(B, y)
    if x is ZERO or y is ZERO:
        # zero is the least element once adjoined
        return x is ZERO
    d = x.i - y.i
    if d != x.j - y.j or d < 0:
        return False
    base = y.s if d == 0 else theta_pow(B.sys, y.s, d)
    return any(x.s == cmul(B.sys, base, e) for e in idempotents(B.sys))


def nat_order_oracle(B: BRSystem, x: Element, y: Element) -> bool:
    """x below y iff x = y * x^-1 x, the canonical idempotent witness of an
    inverse semigroup, decided by products alone; zero needs no case of
    its own.  brinv checks x before brmul checks y."""
    return brmul(B, y, brmul(B, brinv(B, x), x)) == x


def hclass(B: BRSystem, x: Element) -> list[Element]:
    """The maximal subgroup copy through x: its box's fiber at x's level.

    Zero sits alone.  Membership is re-checked on the way out via the
    idempotent pair (x x^-1, x^-1 x), raising WitnessVerificationFailed on
    a mismatch; the converse inclusion is a window scan left to the
    verification suites.
    """
    _check(B, x)
    if x is ZERO:
        return [ZERO]
    g = B.sys.group(x.s.level)
    out = [BRElem(x.i, CliffordElement(x.s.level, u), x.j) for u in range(g.order)]
    left = brmul(B, x, brinv(B, x))
    right = brmul(B, brinv(B, x), x)
    for y in out:
        if brmul(B, y, brinv(B, y)) != left or brmul(B, brinv(B, y), y) != right:
            raise WitnessVerificationFailed(f"{format_elem(y)} is not H-related to {format_elem(x)}")
    return out


def simplicity_witness(B: BRSystem, a: Element, b: Element) -> tuple[BRElem, BRElem]:
    """Return (x, y) with x * a * y = b, witnessing simplicity.

    a * (j_a + 1, 1, j_b) lifts a's left index by one and replaces its group
    part with theta(s), so the left factor only has to cancel that and
    install b's data.  The product is re-verified before returning.
    """
    _check(B, a)
    _check(B, b)
    if a is ZERO or b is ZERO:
        raise ValueError("witnesses connect nonzero elements only")
    y = BRElem(a.j + 1, B.sys.unit(), b.j)
    mid = cmul(B.sys, b.s, cinv(B.sys, theta_pow(B.sys, a.s, 1)))
    x = BRElem(b.i, mid, a.i + 1)
    got = brmul(B, brmul(B, x, a), y)
    if got != b:
        raise WitnessVerificationFailed(f"x*a*y = {got}, expected {b}")
    return x, y


@dataclass
class ZeroDivisorReport:
    window: int
    checked: int
    counterexamples: list

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def zero_divisor_scan(B: BRSystem, n: int) -> ZeroDivisorReport:
    """Certify no two nonzero window elements multiply to zero."""
    if not B.with_zero:
        raise ZeroNotAdjoined("zero divisor scan needs the adjoined zero")
    elems = window_elements(B, n)
    bad = []
    for x, row in zip(elems, brmul_rows(B, elems, elems)):
        if ZERO in row:
            bad.extend((x, y) for y, p in zip(elems, row) if p is ZERO)
    return ZeroDivisorReport(window=n, checked=len(elems) ** 2, counterexamples=bad)


_TRIPLE_RE = re.compile(r"^\(\s*([0-9]+)\s*,\s*([0-9]+)\s*:\s*([0-9]+)\s*,\s*([0-9]+)\s*\)$")


def parse_elem(text: str) -> Element:
    """Accepts '(i, level:elem, j)' or '0'."""
    s = text.strip()
    if s == "0":
        return ZERO
    m = _TRIPLE_RE.match(s)
    if not m:
        raise ValueError(f"cannot parse extension element {text!r}")
    i, level, elem, j = (int(g) for g in m.groups())
    return BRElem(i, CliffordElement(level, elem), j)


def format_elem(x: Element) -> str:
    if x is ZERO:
        return "0"
    return f"({x.i},{x.s.level}:{x.s.elem},{x.j})"
