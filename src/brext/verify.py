"""Property suites over a loaded system.

Each suite runs a finite, deterministic battery of checks and returns a
SuiteResult whose record serializes to one NDJSON line; `listed` is how it,
like a failed config's record, lists violations.  SUITES is the one lineup
of `verify --all`: per suite, in record order, the arguments run_all gives
it, the systems it applies to and its checked count in closed form.  Seeded
randomness only ever comes from random.Random(seed).  structure checks T's
compiled form against cmul_oracle, theta_pow_oracle and ginv, then every
branch of brmul and brmul_ids against that form.  The window suites read
the system's compiled window (BRSystem.window) and check it against a
second route each: for associativity one more brmul_ids pass, transposed
into columns over x and compared one block per middle factor; bmul_codes
for eta (a code // |T| is its box's bicyclic code), the closed form for
nat_order, the group fibers for hclass.  The bicyclic row scans
(bicyclic_axioms, the packed max-plus bicyclic_oracle, box_solver) take
their products as rows of integer codes from bmul_codes; continuity
certifies a sample's multipliers in one continuity_certs call,
solving and residuating once per box; a multiplier's own products with the
found boxes decide its certificate, and only a failure is walked element
by element.  run_all runs the three suites that read only the system's name
(FORKED: bicyclic_axioms, bicyclic_oracle, box_solver) in one forked child
where os.fork exists and the process may run on two CPUs, the others here,
then shares continuity's samples; the records are the same either way.
"""

from __future__ import annotations

import io
import os
import pickle
import random
import signal
from bisect import bisect_left
from dataclasses import dataclass, replace
from itertools import compress, repeat
from math import comb
from operator import add
from typing import Callable, NamedTuple

from . import bicyclic
from .bicyclic import BicyclicElem, bmul, bmul_codes, binv, rho_table, tmul
from .bruck_reilly import (
    BRElem,
    BRSystem,
    ZERO,
    box,
    brinv,
    brmul,
    brmul_ids,
    decode,
    eta,
    format_elem,
    hclass,
    idempotents_window,
    nat_order,
    simplicity_witness,
    window_elements,
    zero_divisor_scan,
)
from .clifford import CliffordElement, cmul_oracle, idempotents, theta_pow_oracle, validate_system
from .errors import BrextError, MalformedDescriptor, WitnessVerificationFailed
from .groups import ginv
from .topology import (
    BasicZeroNbhd,
    EXCLUDED_BOXES_BASE,
    ISOLATED_ZERO,
    PROBE_BOUND,
    box_solve,
    classify_descriptor,
    compactness_remainder,
    continuity_certs,
    column_exceptions_finite,
    descriptor_from_obj,
    meets_almost_all_boxes,
    pushforward_descriptor,
    row_exceptions_finite,
)

MAX_REPORTED = 12


def listed(violations: list) -> list[str]:
    """How every record lists violations: the first MAX_REPORTED, then '... N more'."""
    extra = len(violations) - MAX_REPORTED
    return [str(v) for v in violations[:MAX_REPORTED]] + ([f"... {extra} more"] if extra > 0 else [])


@dataclass
class SuiteResult:
    suite: str
    system: str
    params: dict
    checked: int
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def record(self) -> dict:
        return {
            "op": "verify",
            "suite": self.suite,
            "system": self.system,
            "params": self.params,
            "checked": self.checked,
            "ok": self.ok,
            "violations": listed(self.violations),
        }


def suite_structure(B: BRSystem) -> SuiteResult:
    """validate_system, then, once the laws hold, T's compiled products,
    theta and inverses against cmul_oracle, theta_pow_oracle and ginv; once
    those agree, every branch of both product kernels against that form:
    over T x T, (0,a,j)*(k,b,0) = (k, theta^k(a)*theta^j(b), j) for (j, k) =
    (0,1), (0,0) and (1,0), by brmul and by one brmul_ids pass at width 2."""
    bad = validate_system(B.sys)
    if not bad:
        T, elems = B.sys.compiled, B.sys.compiled.elements
        bad = [f"compiled product differs from cmul_oracle at a={tuple(a)}, b={tuple(b)}" for a, row in
               zip(elems, T.products) for b, p in zip(elems, row) if elems[p] != cmul_oracle(B.sys, a, b)]
        bad += [f"compiled theta differs from theta_pow_oracle at a={tuple(a)}"
                for a, v in zip(elems, T.theta) if elems[v] != theta_pow_oracle(B.sys, a, 1)]
        bad += [f"compiled inverse differs from ginv at a={tuple(a)}"
                for a, v in zip(elems, T.inverse) if elems[v] != (a.level, ginv(B.sys.group(a.level), a.elem))]
        powers = range(len(elems)), T.theta  # theta^0 and theta^1 on ids
        for j, k in [] if bad else [(0, 1), (0, 0), (1, 0)]:
            xs, ys = [BRElem(0, a, j) for a in elems], [BRElem(k, b, 0) for b in elems]
            want = [[(k, elems[p], j) for p in map(T.products[powers[k][a]].__getitem__, powers[j])] for a in powers[0]]
            for route, rows in (("brmul", ([brmul(B, x, y) for y in ys] for x in xs)),
                                ("brmul_ids", ([decode(B, c, 2) for c in row] for row in brmul_ids(B, xs, ys, 2)))):
                bad += [f"{route} gives {format_elem(x)}*{format_elem(y)} = {format_elem(p)}, not {format_elem(BRElem(*q))}"
                        for x, got, row in zip(xs, rows, want) for y, p, q in zip(ys, got, row) if p != q]
    return SuiteResult("structure", B.name, {}, 1, bad)


def suite_associativity(B: BRSystem, window: int) -> SuiteResult:
    """(x*y)*z against x*(y*z) for every window triple.

    One brmul_ids pass over the window's x and distinct products p,
    transposed, gives cols[p], the codes of x*p over x.  Per middle factor y
    both sides are then columns over x: x*(y*z) is cols[id(y*z)], and
    (x*y)*z is column z of the rows right[id(x*y)], so a y costs one list
    comparison.  Only the ys whose blocks differ are walked, x first, then
    y, then z, element by element."""
    w = B.window(window)
    elems, table, right = w.elems, w.table, w.right
    cols = list(zip(*brmul_ids(B, elems, w.prods, w.width)))
    failing = [y for y, (yz_ids, xy_ids) in enumerate(zip(table, zip(*table)))
               if list(zip(*map(right.__getitem__, xy_ids))) != list(map(cols.__getitem__, yz_ids))]
    bad = [f"({format_elem(elems[x])}*{format_elem(elems[y])})*{format_elem(z)} "
           f"!= {format_elem(elems[x])}*({format_elem(elems[y])}*{format_elem(z)})"
           for x, xy_ids in enumerate(table) for y in failing
           for z, u, x_col in zip(elems, right[xy_ids[y]], map(cols.__getitem__, table[y])) if u != x_col[x]]
    return SuiteResult("associativity", B.name, {"window": window}, len(elems) ** 3, bad)


def suite_inverse_axioms(B: BRSystem, window: int) -> SuiteResult:
    """x x' x = x and x' x x' = x' for x' = brinv(x), and no other y of the
    window satisfies both; (x y) x is read as right[id(x*y)] at x."""
    w = B.window(window)
    elems, codes, inv, table, right = w.elems, w.codes, w.inv, w.table, w.right
    bad = []
    for x, xi in enumerate(inv):
        if right[table[x][xi]][x] != codes[x] or right[table[xi][x]][xi] != codes[xi]:
            bad.append(f"inverse axioms fail for {format_elem(elems[x])}")
        if inv[xi] != x:
            bad.append(f"inverse is not an involution at {format_elem(elems[x])}")
    # uniqueness: the only generalized inverse of x is brinv(x)
    for x, xy_ids in enumerate(table):
        for y, xy in enumerate(xy_ids):
            if right[xy][x] == codes[x] and right[table[y][x]][y] == codes[y] and y != inv[x]:
                bad.append(f"second inverse {format_elem(elems[y])} for {format_elem(elems[x])}")
    return SuiteResult(
        "inverse_axioms", B.name, {"window": window}, len(elems) ** 2 + len(elems), bad
    )


def suite_eta_homomorphism(B: BRSystem, window: int) -> SuiteResult:
    """Each window row of products, its codes divided by |T| (eta on codes),
    against bmul_codes on the two boxes at the window's width; only a row
    that differs is walked pair by pair."""
    w, size = B.window(window), B.sys.order()
    box_codes = [c // size for c in w.codes]
    images = [eta(x) for x in w.elems]
    bad = []
    for x, xy_ids, row in zip(w.elems, w.table, bmul_codes(images, images, w.width)):
        if (want := list(map(box_codes.__getitem__, xy_ids))) != row:
            bad += [f"eta breaks at {format_elem(x)}, {format_elem(y)}" for y, u, v in zip(w.elems, want, row) if u != v]
    return SuiteResult("eta_homomorphism", B.name, {"window": window}, len(w.elems) ** 2, bad)


def suite_eta_congruence(B: BRSystem, window: int) -> SuiteResult:
    """Same input boxes must force the same product box, whatever the
    group parts are; that is exactly saying the eta fibers form a
    congruence."""
    w = B.window(window)
    boxes = [eta(p) for p in w.prods]  # a zero product is a box of its own
    fibers = {}
    for x, e in enumerate(w.elems):
        fibers.setdefault(box(e), []).append(x)
    bad = []
    checked = 0
    for b1, f1 in fibers.items():
        for b2, f2 in fibers.items():
            prods = {boxes[w.table[x][y]] for x in f1 for y in f2}
            checked += len(f1) * len(f2)
            if len(prods) != 1:
                shown = [p if p is ZERO else tuple(p) for p in sorted(prods, key=lambda p: (p is not ZERO, p))]
                bad.append(f"product box of {tuple(b1)}*{tuple(b2)} not constant: {shown}")
    return SuiteResult("eta_congruence", B.name, {"window": window}, checked, bad)


def suite_idempotent_chain(B: BRSystem, max_window: int) -> SuiteResult:
    """idempotents_window gives a strict chain of the promised length for
    every window up to max_window, matching an initial segment of the
    naturals under the reversed order.

    idempotents_window certifies each window's chain itself, and a window
    it refuses is reported with its first broken pair; a window it lists
    must have n * |E(T)| elements and be a prefix of the longest one listed,
    or its pairs do not count as checked."""
    ne = len(idempotents(B.sys))
    windows = {}
    for n in range(1, max_window + 1):
        try:
            windows[n] = idempotents_window(B, n)
        except WitnessVerificationFailed as exc:
            windows[n] = exc
    longest = max((n for n, lst in windows.items() if isinstance(lst, list)), default=0)
    bad = []
    checked = 0
    for n, lst in windows.items():
        if isinstance(lst, WitnessVerificationFailed):
            bad.append(f"window {n}: {lst}")
        elif len(lst) != n * ne:
            bad.append(f"window {n}: {len(lst)} idempotents, expected {n * ne}")
            continue
        elif lst != windows[longest][: len(lst)]:
            bad.append(f"window {n}: not a prefix of window {longest}")
            continue
        checked += comb(n * ne, 2)
    return SuiteResult("idempotent_chain", B.name, {"max_window": max_window}, checked, bad)


def suite_nat_order(B: BRSystem, window: int) -> SuiteResult:
    """Closed form against the canonical witness x = y * x^-1 x, all pairs,
    the witness read from the window's product ids."""
    w = B.window(window)
    elems, table = w.elems, w.table
    bad = []
    for x, (xe, xi) in enumerate(zip(elems, w.inv)):
        e = table[xi][x]  # x^-1 x
        if e >= len(elems):
            bad.append(f"{format_elem(xe)}^-1*{format_elem(xe)} lies outside the window")
            continue
        for y, ye in enumerate(elems):
            fast = nat_order(B, xe, ye)
            if fast != (table[y][e] == x):
                bad.append(
                    f"closed form says {fast} for {format_elem(xe)} <= {format_elem(ye)}"
                )
            if fast and nat_order(B, ye, xe) and x != y:
                bad.append(f"antisymmetry fails at {format_elem(xe)}, {format_elem(ye)}")
    if B.with_zero:
        probe = elems[: min(4, len(elems))]
        for x in probe:
            if not nat_order(B, ZERO, x) or nat_order(B, x, ZERO):
                bad.append(f"zero is not strictly least under {format_elem(x)}")
    return SuiteResult("nat_order", B.name, {"window": window}, len(elems) ** 2, bad)


def suite_hclass(B: BRSystem, window: int) -> SuiteResult:
    """The group fiber answer against the idempotent-pair criterion, which
    is scanned over the whole window."""
    w = B.window(window)
    ends = [(w.table[y][yi], w.table[yi][y]) for y, yi in enumerate(w.inv)]
    classes = {}
    for y, key in zip(w.elems, ends):
        classes.setdefault(key, set()).add(y)
    bad = []
    for x, key in zip(w.elems, ends):
        try:
            claimed = set(hclass(B, x))
        except (BrextError, ValueError) as exc:  # a fault of hclass, reported, not refused
            bad.append(f"H-class of {format_elem(x)}: {exc}")
            continue
        if claimed != classes[key]:
            bad.append(f"H-class mismatch at {format_elem(x)}")
        if len(claimed) != B.sys.group(x.s.level).order:
            bad.append(f"H-class size off at {format_elem(x)}")
    return SuiteResult("hclass", B.name, {"window": window}, len(w.elems), bad)


def suite_simplicity(B: BRSystem, seed: int) -> SuiteResult:
    """simplicity_witness self-verifies; here we just exercise it widely,
    on 1000 pairs with indices up to 50, including the a = b corner.  Each
    element takes four draws, in order: level, group element, i and j."""
    randrange, pairs, max_index = random.Random(seed).randrange, 1000, 50
    levels = [[CliffordElement(level, e) for e in range(g.order)] for level, g in enumerate(B.sys.groups)]

    def draws():
        while True:
            parts = levels[randrange(len(levels))]
            s = parts[randrange(len(parts))]
            yield BRElem(randrange(max_index + 1), s, randrange(max_index + 1))

    elems, bad = draws(), []
    for n in range(pairs):
        a = next(elems)
        b = a if n % 100 == 0 else next(elems)
        try:
            simplicity_witness(B, a, b)
        except WitnessVerificationFailed as exc:
            bad.append(f"witness for {format_elem(a)} -> {format_elem(b)}: {exc}")
    return SuiteResult("simplicity", B.name, {"seed": seed, "pairs": pairs, "max_index": max_index}, pairs, bad)


def suite_zero_divisors(B: BRSystem, window: int) -> SuiteResult:
    rep = zero_divisor_scan(B, window)
    bad = [f"{format_elem(x)} * {format_elem(y)} = 0" for x, y in rep.counterexamples]
    return SuiteResult("zero_divisors", B.name, {"window": window}, rep.checked, bad)


def suite_bicyclic_axioms(system_name: str) -> SuiteResult:
    """Idempotent shape and order, inverse axioms and inverse uniqueness on
    the bicyclic pairs up to max_index, read as suite_inverse_axioms reads
    them: x*y from one bmul_codes pass at width 3 * max_index + 1, and (x*y)*z
    from a second over the distinct products, of which one whose code is no
    pair's, or zero, times z equals no z; back[x][y] says (x*y)*x == x."""
    max_index = 6
    n, r = 3 * max_index + 1, range(max_index + 1)
    elems = [BicyclicElem(k, l) for k in r for l in r]
    codes = [k * n + l for k, l in elems]
    inv = [l * len(r) + k for k, l in elems]  # the position of binv(x)
    table = list(bmul_codes(elems, elems, n))
    prods = list({c for row in table for c in row if c >= 0})
    right = dict(zip(prods, bmul_codes([BicyclicElem(*divmod(c, n)) for c in prods], elems, n))).get
    nothing = [None] * len(elems)
    back = [[right(c, nothing)[x] == cx for c in row] for x, (cx, row) in enumerate(zip(codes, table))]
    bad = []
    for x, (cx, xi) in enumerate(zip(codes, inv)):
        if (table[x][x] == cx) != (x == xi):
            bad.append(f"idempotency miscounts at {bicyclic.format_elem(elems[x])}")
        if not back[x][xi] or not back[xi][x]:
            bad.append(f"inverse axioms fail at {bicyclic.format_elem(elems[x])}")
    diagonal = [k * len(r) + k for k in r]
    for k, e in enumerate(diagonal):
        for m, f in enumerate(diagonal):
            if (table[e][f] == codes[e] and table[f][e] == codes[e]) != (k >= m):
                bad.append(f"idempotent order wrong at ({k},{k}) vs ({m},{m})")
    for x, (row, col, xi) in enumerate(zip(back, zip(*back), inv)):
        bad += [f"second inverse {bicyclic.format_elem(elems[y])} for {bicyclic.format_elem(elems[x])}"
                for y, (u, v) in enumerate(zip(row, col)) if u and v and y != xi]
    return SuiteResult("bicyclic_axioms", system_name, {"max_index": max_index}, len(elems) ** 2, bad)


def pack_images(images: list, n: int) -> list[int]:
    """Each max-plus image (a11, a12, a22) as one additive integer in base
    8n, injective on rho_table(n - 1), where each entry spans under 8n values."""
    b = 8 * n
    return [(a11 * b + a12) * b + a22 for a11, a12, a22 in images]


def suite_bicyclic_oracle(system_name: str, max_index: int) -> SuiteResult:
    """Closed-form index arithmetic against the faithful max-plus image.

    rho, built by products of the generator images up to index 2 * max_index
    (every product of two operands), is read as one packed integer per code
    of bmul_codes; a code outside the table is a disagreement.  The corner
    max(a11 + y12, a12 + y22) of rho(x) (x) rho(y) takes its first term
    exactly where y12 - y22 >= a12 - a11, so with the ys sorted by that key
    a row's packed products are x's packed terms added to two column lists,
    split at one bisect.  Only a row that differs is walked pair by pair."""
    n = 2 * max_index + 1
    images = rho_table(n - 1)
    keys = pack_images(images, n)
    r = range(max_index + 1)
    elems = [BicyclicElem(k, l) for k in r for l in r]
    codes = [k * n + l for k, l in elems]
    order = sorted(range(len(elems)), key=lambda j: images[codes[j]][1] - images[codes[j]][2])
    ys = [images[codes[j]] for j in order]
    splits = [y12 - y22 for _, y12, y22 in ys]
    # the corner's first term packs as (a11, a11, a22) + y, its second as x + (y11, y22, y22)
    x_first = pack_images([(a11, a11, a22) for a11, _, a22 in images], n)
    y_first, y_second = [keys[codes[j]] for j in order], pack_images([(y11, y22, y22) for y11, _, y22 in ys], n)
    bad = []
    for x, c, row in zip(elems, codes, bmul_codes(elems, [elems[j] for j in order], n)):
        a11, a12, a22 = a = images[c]
        s = bisect_left(splits, a12 - a11)
        if (0 <= min(row) and max(row) < len(keys)
                and list(map(keys.__getitem__, row)) == [*map(add, repeat(keys[c]), y_second[:s]),
                                                         *map(add, repeat(x_first[c]), y_first[s:])]):
            continue
        wrong = sorted(j for j, p, y in zip(order, row, ys) if not 0 <= p < len(keys) or images[p] != tmul(a, y))
        bad += [f"{bicyclic.format_elem(x)}*{bicyclic.format_elem(elems[j])} disagrees" for j in wrong]
    return SuiteResult("bicyclic_oracle", system_name, {"max_index": max_index}, (max_index + 1) ** 4, bad)


def suite_box_solver(system_name: str, max_index: int) -> SuiteResult:
    """Closed-form box equation solutions against a full scan, both sides.

    Multipliers and targets are the boxes with indices up to max_index.
    A left solution (t1 - a1 + a2, t2) has a first index up to
    2 * max_index, so the scan multiplies every box up to the brute bound
    max(20, 2 * max_index).  The products come from bmul_codes as rows of
    codes, wide enough for every product: a * x over the boxes x for the
    left side, and x * a transposed for the right, so each multiplier gets
    one row per side, of which only the codes of targets are kept.  A
    multiplier's solution sets are compared as one list, and only a list
    that differs is walked target by target.
    """
    brute_bound = max(20, 2 * max_index)
    n = brute_bound + max_index + 1
    r, m = range(brute_bound + 1), range(max_index + 1)
    grid = [BicyclicElem(i, j) for i in r for j in r]
    small = [BicyclicElem(i, j) for i in m for j in m]  # multipliers and targets
    ids = {i * n + j: t for t, (i, j) in enumerate(small)}
    bad = []
    for side, rows in ("left", bmul_codes(small, grid, n)), ("right", zip(*bmul_codes(grid, small, n))):
        for a, row in zip(small, rows):
            sols = [set() for _ in small]
            for c, b in compress(zip(row, grid), map(ids.__contains__, row)):
                sols[ids[c]].add(b)
            if (got := [box_solve(a, t, side) for t in small]) != sols:
                bad.extend(f"{side} solutions differ for a={tuple(a)}, target={tuple(t)}"
                           for t, g, s in zip(small, got, sols) if g != s)
    return SuiteResult("box_solver", system_name, {"max_index": max_index, "brute_bound": brute_bound},
                       2 * len(small) ** 2, bad)


def continuity_samples(B: BRSystem, seed: int, a_window: int) -> tuple[SuiteResult, list[BRElem], list]:
    """continuity's record without violations, its multipliers (indices below
    a_window) and its 100 seeded (target, side) samples, in draw order."""
    rng, samples, multipliers = random.Random(seed), 100, window_elements(B, a_window)
    drawn = [(BasicZeroNbhd.excluding((rng.randrange(11), rng.randrange(11)) for _ in range(rng.randint(0, 3))),
              "left" if rng.random() < 0.5 else "right") for _ in range(samples)]
    return (SuiteResult("continuity", B.name, {"seed": seed, "samples": samples, "a_window": a_window},
                        samples * len(multipliers), []), multipliers, drawn)


def continuity_violations(B: BRSystem, multipliers: list[BRElem], target: BasicZeroNbhd, side: str) -> list[str]:
    """One sample's violations, all its multipliers in one continuity_certs call."""
    return [f"certificate for a={format_elem(c.a)}, side={side}: {c.violations[0]}"
            for c in continuity_certs(B, multipliers, target, side) if not c.ok]


def suite_continuity(B: BRSystem, seed: int, a_window: int = 3) -> SuiteResult:
    """continuity_violations of every sample of continuity_samples, in draw order."""
    result, multipliers, samples = continuity_samples(B, seed, a_window)
    result.violations = [v for target, side in samples for v in continuity_violations(B, multipliers, target, side)]
    return result


def suite_zero_nbhd_checks(B: BRSystem) -> SuiteResult:
    """Bounded finiteness checkers on honest basics and on degenerate
    families built to fail them."""
    bad = []
    basic = BasicZeroNbhd.excluding([(2, 5), (2, 7), (9, 0)])
    if not meets_almost_all_boxes(basic):
        bad.append("cofinite basic flagged as missing too many boxes")
    if not meets_almost_all_boxes(BasicZeroNbhd(frozenset())):
        bad.append("whole space flagged as missing too many boxes")
    single_row = lambda i, j: i == 0
    if meets_almost_all_boxes(single_row):
        bad.append("single-row family not refuted")
    if not row_exceptions_finite(basic, 2):
        bad.append("two exceptions in row 2 flagged as infinite")
    if not row_exceptions_finite(basic, 3):
        bad.append("empty exception set in row 3 flagged as infinite")
    row_gone = lambda i, j: i != 4
    if row_exceptions_finite(row_gone, 4):
        bad.append("fully removed row not refuted")
    if not row_exceptions_finite(row_gone, 0):
        bad.append("untouched row flagged as infinite")
    if column_exceptions_finite(lambda i, j: j != 1, 1):
        bad.append("fully removed column not refuted")
    return SuiteResult("zero_nbhd_checks", B.name, {"probe_bound": PROBE_BOUND}, 8, bad)


def suite_descriptor_classification(B: BRSystem) -> SuiteResult:
    bad = []
    if classify_descriptor(ISOLATED_ZERO).verdict != "isolated_zero":
        bad.append("isolated descriptor misclassified")
    if classify_descriptor(EXCLUDED_BOXES_BASE).verdict != "compact":
        bad.append("box-complement descriptor misclassified")
    try:
        descriptor_from_obj({"kind": "mystery"})
        bad.append("unknown descriptor accepted")
    except MalformedDescriptor:
        pass
    u = BasicZeroNbhd.excluding([(0, 0), (3, 1)])
    rem = compactness_remainder(B, u)
    if len(rem) != 2 * B.sys.order():
        bad.append(f"remainder size {len(rem)}, expected {2 * B.sys.order()}")
    if any(u.contains(x) for x in rem):
        bad.append("remainder overlaps the neighborhood")
    return SuiteResult("descriptor_classification", B.name, {}, 4, bad)


def suite_pushforward_roundtrip(B: BRSystem, seed: int) -> SuiteResult:
    rng, samples = random.Random(seed), 100
    bad = []
    if pushforward_descriptor(EXCLUDED_BOXES_BASE) != "cofinite":
        bad.append("box-complement base must push to the cofinite base")
    if pushforward_descriptor(ISOLATED_ZERO) != "discrete":
        bad.append("isolated zero must push to the discrete structure")
    for _ in range(samples):
        u = BasicZeroNbhd.excluding(
            (rng.randrange(12), rng.randrange(12)) for _ in range(rng.randint(0, 4))
        )
        if BasicZeroNbhd.excluding(u.excluded) != u:  # the image's points, u's pairs, pulled back
            bad.append(f"round trip moved {sorted(map(tuple, u.excluded))}")
    return SuiteResult(
        "pushforward_roundtrip", B.name, {"seed": seed, "samples": samples}, samples + 2, bad
    )


def suite_bicyclic_isomorphism(B: BRSystem, window: int) -> SuiteResult:
    """Over the one-element monoid the index map is injective on the window
    and matches the bicyclic product, so the extension is a copy of the
    bicyclic monoid there."""
    if B.sys.order() != 1:
        raise ValueError("isomorphism suite applies to the trivial fiber only")
    elems = window_elements(B, window)
    bad = []
    if len({eta(x) for x in elems}) != len(elems):
        bad.append("index map not injective on the window")
    for x in elems:
        for y in elems:
            if eta(brmul(B, x, y)) != bmul(eta(x), eta(y)):
                bad.append(f"products disagree at {format_elem(x)}, {format_elem(y)}")
        if eta(brinv(B, x)) != binv(eta(x)):
            bad.append(f"inverses disagree at {format_elem(x)}")
    return SuiteResult(
        "bicyclic_isomorphism", B.name, {"window": window}, len(elems) ** 2, bad
    )


def _w(B: BRSystem, n: int) -> int:
    """|W_n| = n^2 |T|, the elements with both indices below n."""
    return n * n * B.sys.order()


class Suite(NamedTuple):
    """One suite of `verify --all`.  run(B, window, seed) calls it by its
    module-level name, so a rebound suite_* is the one run; checked(B, window)
    is its checked count in closed form; applies(B) says whether run_all runs
    it on B; continuity's run(B, window, seed, part) calls part in its place."""

    name: str
    run: Callable[[BRSystem, int, int], SuiteResult]
    checked: Callable[[BRSystem, int], int]
    applies: Callable[[BRSystem], bool] = lambda B: True


SUITES = (
    Suite("structure", lambda B, w, seed: suite_structure(B), lambda B, w: 1),
    Suite("associativity", lambda B, w, seed: suite_associativity(B, w), lambda B, w: _w(B, w) ** 3),
    Suite("inverse_axioms", lambda B, w, seed: suite_inverse_axioms(B, w),
          lambda B, w: _w(B, w) ** 2 + _w(B, w)),
    Suite("eta_homomorphism", lambda B, w, seed: suite_eta_homomorphism(B, w), lambda B, w: _w(B, w) ** 2),
    Suite("eta_congruence", lambda B, w, seed: suite_eta_congruence(B, w), lambda B, w: _w(B, w) ** 2),
    Suite("idempotent_chain", lambda B, w, seed: suite_idempotent_chain(B, 8),
          lambda B, w: sum(comb(n * len(idempotents(B.sys)), 2) for n in range(1, 9))),
    Suite("nat_order", lambda B, w, seed: suite_nat_order(B, w), lambda B, w: _w(B, w) ** 2),
    Suite("hclass", lambda B, w, seed: suite_hclass(B, w), lambda B, w: _w(B, w)),
    Suite("simplicity", lambda B, w, seed: suite_simplicity(B, seed), lambda B, w: 1000),
    Suite("zero_divisors", lambda B, w, seed: suite_zero_divisors(B, 4), lambda B, w: _w(B, 4) ** 2,
          lambda B: B.with_zero),
    Suite("bicyclic_axioms", lambda B, w, seed: suite_bicyclic_axioms(B.name), lambda B, w: 7 ** 4),
    Suite("bicyclic_oracle", lambda B, w, seed: suite_bicyclic_oracle(B.name, 4 * w),
          lambda B, w: (4 * w + 1) ** 4),
    Suite("box_solver", lambda B, w, seed: suite_box_solver(B.name, 2 * w), lambda B, w: 2 * (2 * w + 1) ** 4),
    Suite("continuity", lambda B, w, seed, part=None: (part or suite_continuity)(B, seed, min(w, 3)),
          lambda B, w: 100 * _w(B, min(w, 3))),
    Suite("zero_nbhd_checks", lambda B, w, seed: suite_zero_nbhd_checks(B), lambda B, w: 8),
    Suite("descriptor_classification", lambda B, w, seed: suite_descriptor_classification(B), lambda B, w: 4),
    Suite("pushforward_roundtrip", lambda B, w, seed: suite_pushforward_roundtrip(B, seed), lambda B, w: 102),
    Suite("bicyclic_isomorphism", lambda B, w, seed: suite_bicyclic_isomorphism(B, w),
          lambda B, w: _w(B, w) ** 2, lambda B: B.sys.order() == 1),
)


FORKED = ("bicyclic_axioms", "bicyclic_oracle", "box_solver")  # they read only the system's name


def _finished(s: Suite, B: BRSystem, run: Callable[[], SuiteResult]) -> SuiteResult:
    """run(), or, when it raises, the suite's one violation naming the exception."""
    try:
        return run()
    except Exception as exc:  # a fault of the program, not a refused input
        return SuiteResult(s.name, B.name, {}, 0, [f"{s.name} could not finish: {type(exc).__name__}: {exc}"])


def run_all(B: BRSystem, window: int, seed: int) -> list[SuiteResult]:
    """Every suite of SUITES that applies to the given system, in order; a failed
    re-verification, or an exception out of a suite, is a violation, so all run.

    Where os.fork exists and the process may run on two CPUs, a forked child
    runs the FORKED suites while this process runs the rest; then both claim
    continuity's samples one at a time, and the child pipes its pickled
    results back.  Elsewhere, or when os.pipe or os.fork fails, all run here,
    with the same results.  A result that never arrives (the child died, or it
    could not be pickled) reads `<suite> could not finish: ChildProcessError:
    ...`, and the first sample that raised, in sample order, reads as in-process."""
    suites = [s for s in SUITES if s.applies(B)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    forked = [s for s in suites if s.name in FORKED] if hasattr(os, "fork") and cpus >= 2 else []
    run = lambda s: _finished(s, B, lambda: s.run(B, window, seed))
    if not forked:
        return list(map(run, suites))
    shared, fds = next(s for s in suites if s.name == "continuity"), []
    try:  # a draw that raises, or EAGAIN, EMFILE, ENOMEM from os.pipe or os.fork: every suite runs here
        result, multipliers, samples = shared.run(B, window, seed, continuity_samples)
        fds += os.pipe()
        os.write(fds[1], bytes(range(len(samples))))  # one token per sample: its index
        os.close(fds.pop())
        fds += os.pipe()
        pid = os.fork()
    except Exception:
        for fd in fds:
            os.close(fd)
        return list(map(run, suites))
    tokens, r, w = fds
    claim = lambda: {k: _finished(shared, B, lambda: continuity_violations(B, multipliers, *samples[k]))
                     for (k,) in iter(lambda: os.read(tokens, 1), b"")}  # until no token is left
    if pid == 0:
        try:
            os.close(r)
            with open(w, "wb") as pipe:
                for s in forked:  # each result is sent as soon as it is ready
                    pipe.write(pickle.dumps(run(s)))
                    pipe.flush()
                pipe.write(pickle.dumps(claim()))
            os._exit(0)
        finally:
            os._exit(1)  # a result could not be sent
    os.close(w)
    with open(r, "rb") as pipe:
        try:
            results, mine = {s.name: run(s) for s in suites if s not in forked and s is not shared}, claim()
            sent = io.BytesIO(pipe.read())
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            os.close(tokens)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    lost = ChildProcessError(f"suite process exited with code {status}")

    def received():
        try:
            return pickle.load(sent)
        except Exception:
            raise lost from None

    results.update((s.name, _finished(s, B, received)) for s in forked)
    theirs = _finished(shared, B, received)  # the child's samples, or the record of their loss
    done = {**theirs, **mine} if isinstance(theirs, dict) else mine
    outcomes = [done.get(k, theirs) for k in range(len(samples))]  # violations, or a record that could not finish
    failed = [o for o in outcomes if isinstance(o, SuiteResult)]
    results[shared.name] = failed[0] if failed else replace(result, violations=[v for vs in outcomes for v in vs])
    return [results[s.name] for s in suites]
