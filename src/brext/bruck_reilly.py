"""Bruck-Reilly extensions of a finite chain of groups.

A nonzero element is a triple (i, s, j) with i, j in omega and s an element
of the underlying chain-of-groups monoid T.  The product shifts the inner
factors with theta before multiplying in T:

    (i, s, j) . (k, t, l) with d = min(j, k)
        = (i + k - d,  theta^(k-d)(s) * theta^(j-d)(t),  j + l - d)

which collapses to the bicyclic index arithmetic on the outer coordinates:
eta(i, s, j) = (i, j) onto the bicyclic monoid names each box, the fiber
{i} x T x {j}, by its pair (a Box is a BicyclicElem).  brmul computes one
product; brmul_ids yields whole rows of products by the same formula, as
integer codes (see encode): a box's bicyclic code times |T| plus an id in
T, so eta on codes is // |T|.  It gathers each row from code rows built
once per call, so its rows share their int objects.  A system compiles
each window once from those rows (BRSystem.window) for the verification
suites.  Systems may adjoin a zero; products of nonzero elements are never
zero, and zero_divisor_scan certifies that on a window.  Exhaustive window
operations are capped at window 16.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from typing import Iterator, NamedTuple, Sequence, Union

from . import bicyclic
from .bicyclic import _INDEX, ZERO, ZERO_ID, _AdjoinedZero, check_width, is_zero  # noqa: F401  (re-exported)
from .clifford import CliffordElement, CliffordSystem, cinv, cmul, idempotents, theta_pow
from .errors import WindowTooLarge, WitnessVerificationFailed, ZeroNotAdjoined
from .groups import row_reader

MAX_WINDOW = 16


Box = bicyclic.BicyclicElem  # box (k, l): the copy {k} x T x {l} of T that eta sends to (k, l)


class BRElem(NamedTuple):
    i: int
    s: CliffordElement
    j: int


Element = Union[BRElem, _AdjoinedZero]  # ZERO is the bicyclic monoid's own


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
    if not isinstance(x, BRElem):
        raise ValueError(f"not an extension element: {x!r}")
    if x.s not in B.sys.compiled.ids:
        raise ValueError(f"group coordinate {tuple(x.s)} is not an element of T")
    if x.i < 0 or x.j < 0:  # x.s is in T, so it is a pair level:elem
        raise ValueError(f"not an extension element: {format_elem(BRElem(x.i, CliffordElement(*x.s), x.j))}")


def brmul(B: BRSystem, x: Element, y: Element) -> Element:
    """The product in one pass: plain BRElem operands are validated once
    against T's ids, x first (anything else goes through _check), theta runs
    only on the factor that is shifted, and T's product is read from the
    table; a theta result is a top element, so its id is its .elem."""
    compiled = B.sys.compiled
    ids, products = compiled.ids, compiled.products
    if type(x) is not BRElem or type(y) is not BRElem:
        _check(B, x)
        _check(B, y)
        if x is ZERO or y is ZERO:
            return ZERO
    i, s, j = x
    k, t, l = y
    if i < 0 or j < 0 or (a := ids.get(s)) is None:
        _check(B, x)  # raises
    if k < 0 or l < 0 or (b := ids.get(t)) is None:
        _check(B, y)  # raises
    if j < k:
        return BRElem(i + k - j, compiled.elements[products[theta_pow(B.sys, s, k - j).elem][b]], l)
    if k < j:
        return BRElem(i, compiled.elements[products[a][theta_pow(B.sys, t, j - k).elem]], j + l - k)
    return BRElem(i, compiled.elements[products[a][b]], l)


def encode(B: BRSystem, x: Element, n: int) -> int:
    """x's code at width n, id(x.s) + |T| * (x.i * n + x.j); a second index
    of n or more is refused, since it would read as a box one row down."""
    _check(B, x)
    if x is ZERO:
        return ZERO_ID
    check_width(n, [x.j])
    ids = B.sys.compiled.ids
    return ids[x.s] + len(ids) * (x.i * n + x.j)


def decode(B: BRSystem, code: int, n: int) -> Element:
    """The element whose code at width n is code."""
    if code == ZERO_ID:
        return ZERO
    box, t = divmod(code, len(B.sys.compiled.ids))
    return BRElem(box // n, B.sys.compiled.elements[t], box % n)


def brmul_ids(B: BRSystem, xs: Sequence[Element], ys: Sequence[Element], n: int) -> Iterator[list[int]]:
    """Yield the row [encode(x*y, n) for y in ys] for each x in xs, by
    brmul's formula (not bmul_codes, which the eta suite checks it against).

    Every operand is checked as brmul checks it, xs first, before any
    product; then check_width refuses an n not above x.j + y.j.  theta is
    read from theta_pow alone, once per element of T and shift: powers[d]
    holds the ids of theta^d over T for every shift d = |x.j - y.i| the
    nonzero operands make.  For x = (i, s, j) and y = (k, t, l), x*y is
    (i', s' * t', L), where (s', i') = (theta^(k-j)(s), i + k - j) and
    (t', L) = (t, l) when k > j, and (s', i') = (s, i) and
    (t', L) = (theta^(j-k)(t), l + j - k) otherwise.  The nonzero ys, sorted
    by k once, make one run per k, and only the distinct columns (t', L)
    they use are numbered.  Each (s', i') gets one code row, built on first
    use, with the code of (i', s' * t', L) in every column.  x's row is one
    gather per run from its code row, at the run's columns for x's shift (a
    list slice where they are consecutive and ascending, as for an unshifted
    run of a window's ys), put back in the order of the ys (a zero reads
    ZERO_ID) when sorting moved them.  So the rows share their int objects
    (a slice copies references), and a product costs no arithmetic of its own.
    """
    for x in xs:
        _check(B, x)
    for y in ys:
        _check(B, y)
    js = {x.j for x in xs if x is not ZERO}
    check_width(n, js, {y.j for y in ys if y is not ZERO})
    compiled = B.sys.compiled
    ids, table, size = compiled.ids, compiled.products, len(compiled.products)
    ks = {y.i for y in ys if y is not ZERO}
    powers = {d: [theta_pow(B.sys, e, d).elem for e in compiled.elements]
              for d in {abs(j - k) for j in js for k in ks} - {0}}
    powers[0] = list(range(size))
    order = sorted((p for p, y in enumerate(ys) if y is not ZERO), key=lambda p: ys[p].i)
    cols, runs = {}, []  # cols: (t', L) -> column number; runs: (k, {shift: reader of the run's columns})
    reader = lambda c: itemgetter(slice(c[0], c[-1] + 1)) if c == [*range(c[0], c[0] + len(c))] else row_reader(c)
    for k, run in groupby(order, key=lambda p: ys[p].i):
        tls = [(ids[ys[p].s], ys[p].j) for p in run]
        runs.append((k, {d: reader([cols.setdefault((powers[d][t], l + d), len(cols)) for t, l in tls])
                         for d in {0} | {j - k for j in js if j > k}}))
    cols = [(t, size * l) for t, l in cols]
    code_rows = {}  # (s', i') -> the code of (i', s' * t', L) in each column (t', L)

    def code_row(s: int, i: int) -> list[int]:
        if (s, i) not in code_rows:
            base, products = size * n * i, table[s]
            code_rows[s, i] = [base + l + products[t] for t, l in cols]
        return code_rows[s, i]

    at = None  # where each y's product sits in a row of sorted ys, the last ZERO_ID for a zero
    if order != list(range(len(ys))):
        at = dict(zip(order, range(len(order))))
        at = [at.get(p, -1) for p in range(len(ys))]
    for x in xs:
        if x is ZERO:
            yield [ZERO_ID] * len(ys)
            continue
        i, s, j = x
        s, row = ids[s], []
        for k, readers in runs:
            up = max(k - j, 0)
            row += readers[max(j - k, 0)](code_row(powers[up][s], i + up))
        if at is not None:
            row.append(ZERO_ID)
            row = list(map(row.__getitem__, at))
        yield row


class Window(NamedTuple):
    """Every product of two window elements, numbered by id, the window's
    elements first: prods[p] has id p and code codes[p]; table[x][y] is
    the id of x*y, inv[x] that of x^-1, and right[p] the tuple of the codes
    of prods[p]*z over the window's z, all at width 3n for window n, above
    every second index of right, (2n - 2) + (n - 1) at most."""

    elems: list[BRElem]
    prods: list[BRElem]
    codes: list[int]
    inv: list[int]
    table: list[list[int]]
    right: list[tuple[int, ...]]
    width: int


def compile_window(B: BRSystem, n: int) -> Window:
    """Both products through brmul_ids, inverses from brinv looked up among the
    elements; the products are decoded once, as operands of the second pass."""
    elems, width = window_elements(B, n), 3 * n
    ids = {encode(B, x, width): p for p, x in enumerate(elems)}
    table = [[ids.setdefault(c, len(ids)) for c in row] for row in brmul_ids(B, elems, elems, width)]
    codes = list(ids)
    prods = elems + [decode(B, c, width) for c in codes[len(elems):]]
    right = [tuple(row) for row in brmul_ids(B, prods, elems, width)]
    where = {x: p for p, x in enumerate(elems)}
    if None in (inv := [where.get(brinv(B, x)) for x in elems]):
        raise WitnessVerificationFailed(f"the inverse of {format_elem(elems[inv.index(None)])} lies outside the window")
    return Window(elems, prods, codes, inv, table, right, width)


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
    """Forget the group coordinate: x's box; zero, the bicyclic monoid's, stays."""
    return x if x is ZERO else box(x)


def window_elements(B: BRSystem, n: int) -> list[BRElem]:
    """All nonzero elements with both indices below n, in a fixed order."""
    if n > MAX_WINDOW:
        raise WindowTooLarge(f"window {n} exceeds cap {MAX_WINDOW}")
    return [
        BRElem(i, s, j)
        for i in range(n)
        for j in range(n)
        for s in B.sys.compiled.elements
    ]


def idempotents_window(B: BRSystem, n: int) -> list[BRElem]:
    """Idempotents (i, e, i) with i < n, strictly descending.

    Descending means index i ascending and, within one i, chain level
    ascending (lower levels sit lower in the order).  One brmul_ids pass at
    width 2n certifies it: each element is idempotent and strictly below
    each earlier one, or WitnessVerificationFailed names the first failure.
    """
    if n > MAX_WINDOW:
        raise WindowTooLarge(f"window {n} exceeds cap {MAX_WINDOW}")
    out = [BRElem(i, e, i) for i in range(n) for e in idempotents(B.sys)]
    codes = [encode(B, e, 2 * n) for e in out]
    rows = list(brmul_ids(B, out, out, 2 * n))
    for a, hi in enumerate(codes):
        if rows[a][a] != hi:
            raise WitnessVerificationFailed(f"{format_elem(out[a])} is not idempotent")
        for b, lo in enumerate(codes[a + 1:], a + 1):
            if rows[a][b] != lo or rows[b][a] != lo or lo == hi:
                raise WitnessVerificationFailed(f"{format_elem(out[b])} not strictly below {format_elem(out[a])}")
    return out


def nat_order(B: BRSystem, x: Element, y: Element) -> bool:
    """x below y in the natural partial order, by the closed form.

    Writing x = (i, s, j) and y = (m, t, n): both index gaps must agree and
    be non-negative, d = i - m = j - n >= 0, and s = u * s^-1 s for u = t
    (d = 0) or u = theta^d(t) (d > 0), where s^-1 s is the identity of s's
    level: one read of T's compiled table.  So x <= y iff x lies in y * E(S).
    Plain BRElem operands are validated once against T's ids, x first, as
    brmul validates them.  The product route nat_order_oracle checks
    x = y * x^-1 x in the extension instead.
    """
    compiled = B.sys.compiled
    ids = compiled.ids
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
    if i < 0 or j < 0 or (a := ids.get(s)) is None:
        _check(B, x)  # raises
    if m < 0 or n < 0 or (b := ids.get(t)) is None:
        _check(B, y)  # raises
    d = i - m
    if d != j - n or d < 0:
        return False
    return compiled.products[b if d == 0 else theta_pow(B.sys, t, d).elem][compiled.idempotents[compiled.elements[a].level]] == a


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
    level = B.sys.compiled.elements[B.sys.compiled.ids[x.s]].level  # x.s may be a plain (level, elem) pair
    out = [BRElem(x.i, s, x.j) for s in B.sys.compiled.elements if s.level == level]
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
        raise WitnessVerificationFailed(f"x*a*y = {format_elem(got)}, expected {format_elem(b)}")
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
    for x, row in zip(elems, brmul_ids(B, elems, elems, 2 * n)):
        if ZERO_ID in row:
            bad.extend((x, y) for y, p in zip(elems, row) if p == ZERO_ID)
    return ZeroDivisorReport(window=n, checked=len(elems) ** 2, counterexamples=bad)


_TRIPLE = re.compile(rf"\({_INDEX},{_INDEX}:{_INDEX},{_INDEX}\)")


def parse_elem(text: str) -> Element:
    """Accepts '(i, level:elem, j)' or '0'."""
    return bicyclic.read_literal(_TRIPLE, text, "extension element",
                                 lambda i, level, elem, j: BRElem(i, CliffordElement(level, elem), j))


def format_elem(x: Element) -> str:
    if x is ZERO:
        return "0"
    return "({},{}:{},{})".format(x.i, *x.s, x.j)
