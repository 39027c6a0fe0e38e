"""Bruck-Reilly extensions of a finite chain of groups.

A nonzero element is a triple (i, s, j) with i, j in omega and s an element
of the underlying chain-of-groups monoid T.  The product shifts the inner
factors with theta before multiplying in T:

    (i, s, j) . (k, t, l) with d = min(j, k)
        = (i + k - d,  theta^(k-d)(s) * theta^(j-d)(t),  j + l - d)

which collapses to the bicyclic index arithmetic on the outer coordinates.
brmul computes one product; brmul_ids streams whole rows of products by
the same formula, as ints that pack a box and an id in T (see encode).  A
system compiles each window once from those rows (BRSystem.window) for the
verification suites.  Systems may adjoin a zero; products of nonzero
elements are never zero, and zero_divisor_scan certifies that on a window.
Exhaustive window operations are capped at window 16.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import groupby
from operator import add
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

    _windows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def window(self, n: int) -> "Window":
        """The window of size n, compiled on first use and kept per size and
        row kernel: a kernel bound later (a tracer, an injected fault) gets a
        window of its own."""
        key = n, brmul_ids
        if key not in self._windows:
            self._windows[key] = compile_window(self, n)
        return self._windows[key]


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


ZERO_ID = -1  # encode(ZERO)


# a product of two elements of a capped window has indices below 2 * MAX_WINDOW
_SPREAD = tuple(int(f"{v:b}", 4) for v in range(2 * MAX_WINDOW))


def _spread(v: int) -> int:
    """v's bits moved to the even positions: its binary digits read in base 4.
    Values below len(_SPREAD) are read from a table and larger ones are
    computed, so packed ids stay unbounded."""
    return _SPREAD[v] if v < len(_SPREAD) else int(f"{v:b}", 4)


def encode(B: BRSystem, x: Element) -> int:
    """x as one int, t + |T| * (spread(i) + 2 * spread(j)) with t the id of
    x.s in T: the bits of i and j interleave, so every box packs; zero is
    ZERO_ID."""
    _check(B, x)
    if x is ZERO:
        return ZERO_ID
    ids = B.sys.compiled.ids
    return ids[x.s] + len(ids) * (_spread(x.i) + 2 * _spread(x.j))


def decode(B: BRSystem, code: int) -> Element:
    """The element that encode packed into code."""
    if code == ZERO_ID:
        return ZERO
    compiled = B.sys.compiled
    z, t = divmod(code, len(compiled.ids))
    bits = f"{z:b}"[::-1]  # least significant first: i's bits, then j's, alternating
    return BRElem(int(bits[::2][::-1], 2), compiled.elements[t], int(bits[1::2][::-1] or "0", 2))


def brmul_ids(B: BRSystem, xs: Sequence[Element], ys: Sequence[Element]) -> Iterator[list[int]]:
    """Yield the row [encode(x*y) for y in ys] for each x in xs, by brmul's
    formula.

    Every operand is checked as brmul checks it, xs first, before any
    product.  The ys are cut into maximal runs with one left index k (or
    of zeros).  Against x = (i, s, j), a run with k > j reads T's product
    row at theta^(k-j)(s), and a run with k <= j reads x's own row at
    theta^(j-k) of each group part, shifted once per call.  Product rows
    carry the packed left index of the result and runs their packed right
    indices, so each product is one table read and one addition.
    """
    for x in xs:
        _check(B, x)
    for y in ys:
        _check(B, y)
    compiled = B.sys.compiled
    ids, table, step = compiled.ids, compiled.id_products, compiled.id_theta
    n = len(table)
    js = {x.j for x in xs if x is not ZERO}
    runs = []
    for k, run in groupby(ys, key=lambda y: None if y is ZERO else y.i):
        run = list(run)
        if k is None:
            runs.append((k, [ZERO_ID] * len(run)))
            continue
        # shifted[d]: theta^d of the group ids, and the packed right indices + d
        ts, shifted, d = [ids[y.s] for y in run], {}, 0
        for target in sorted({0} | {j - k for j in js if j > k}):
            for _ in range(target - d):
                ts = [step[t] for t in ts]
            d = target
            shifted[d] = ts, [2 * n * _spread(y.j + d) for y in run]
        runs.append((k, shifted))
    rows = {}  # (id of s, d, i): T's product row at theta^d(s), plus i packed

    def row_at(s: int, d: int, i: int) -> list[int]:
        if (s, d, i) not in rows:
            t = s
            for _ in range(d):
                t = step[t]
            rows[s, d, i] = [n * _spread(i) + p for p in table[t]]
        return rows[s, d, i]

    for x in xs:
        if x is ZERO:
            yield [ZERO_ID] * len(ys)
            continue
        i, s, j = x
        s, row = ids[s], []
        for k, shifted in runs:
            if k is None:
                row += shifted
                continue
            ts, ls = shifted[max(j - k, 0)]
            up = max(k - j, 0)
            row += map(add, map(row_at(s, up, i + up).__getitem__, ts), ls)
        yield row


class Window(NamedTuple):
    """Every product of two window elements, numbered by id, the window's
    elements first: prods[p] has id p and encode codes[p]; table[x][y] is
    the id of x*y, inv[x] that of x^-1, and right[p] the tuple of encoded
    prods[p]*z over the window's z."""

    elems: list[BRElem]
    prods: list[BRElem]
    codes: list[int]
    inv: list[int]
    table: list[list[int]]
    right: list[tuple[int, ...]]


def compile_window(B: BRSystem, n: int) -> Window:
    """Both products through brmul_ids, inverses from brinv; the products
    are decoded once, as operands of the second pass."""
    elems = window_elements(B, n)
    ids = {encode(B, x): p for p, x in enumerate(elems)}
    table = [[ids.setdefault(c, len(ids)) for c in row] for row in brmul_ids(B, elems, elems)]
    codes = list(ids)
    prods = elems + [decode(B, c) for c in codes[len(elems):]]
    right = [tuple(row) for row in brmul_ids(B, prods, elems)]
    return Window(elems, prods, codes, [ids[encode(B, brinv(B, x))] for x in elems], table, right)


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
    be non-negative, d = i - m = j - n >= 0, and s must lie in the compiled
    below-set of u = t (d = 0) or u = theta^d(t) (d > 0), that is
    s = u * e for an idempotent e of T: x <= y iff x lies in y * E(S).
    Plain BRElem operands are validated once against the product table,
    x first, as brmul validates them.  The product route nat_order_oracle
    checks x = y * x^-1 x in the extension instead.
    """
    compiled = B.sys.compiled
    # brmul's prologue, inline in both: as a shared call it slows this suite
    # and brmul by about a fifth; test_brmul_refuses_bad_operands_x_first
    # holds the two to the same errors
    if type(x) is not BRElem or type(y) is not BRElem:
        _check(B, x)
        _check(B, y)
        if x is ZERO or y is ZERO:
            # zero is the least element once adjoined
            return x is ZERO
    i, s, j = x
    m, t, n = y
    if i < 0 or j < 0 or s not in compiled.products:
        _check(B, x)  # raises
    if m < 0 or n < 0 or t not in compiled.products:
        _check(B, y)  # raises
    d = i - m
    if d != j - n or d < 0:
        return False
    return s in compiled.below[t if d == 0 else theta_pow(B.sys, t, d)]


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
    xi = brinv(B, x)
    left, right = brmul(B, x, xi), brmul(B, xi, x)
    for y in out:
        yi = brinv(B, y)
        if brmul(B, y, yi) != left or brmul(B, yi, y) != right:
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
    for x, row in zip(elems, brmul_ids(B, elems, elems)):
        if ZERO_ID in row:
            bad.extend((x, y) for y, p in zip(elems, row) if p == ZERO_ID)
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
