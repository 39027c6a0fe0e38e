"""Property suites over a loaded system.

Each suite runs a finite, deterministic battery of checks and returns a
SuiteResult whose record serializes to one NDJSON line.  SUITES is the one
lineup of `verify --all`: per suite, in record order, the arguments run_all
gives it, the systems it applies to and its checked count in closed form.
Seeded randomness only ever comes from random.Random(seed).
The window suites read the system's compiled window (BRSystem.window) and
check it against a second route each: bmul_rows for eta, the closed form
for nat_order, the group fibers for hclass.  The bicyclic scans take their
products a row at a time from bmul_rows; each continuity certificate solves
its own failing boxes by max-plus residuation, with no state between them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import repeat
from math import comb
from typing import Callable, NamedTuple

from . import bicyclic
from .bicyclic import BicyclicElem, bmul, bmul_rows, binv, rho_table, tmul
from .bruck_reilly import (
    Box,
    BRElem,
    BRSystem,
    ZERO,
    box,
    brinv,
    brmul,
    brmul_ids,
    encode,
    eta,
    format_elem,
    hclass,
    idempotents_window,
    nat_order,
    simplicity_witness,
    window_elements,
    zero_divisor_scan,
)
from .clifford import CliffordElement, idempotents, validate_system
from .errors import MalformedDescriptor, WitnessVerificationFailed
from .groups import row_reader
from .topology import (
    BasicZeroNbhd,
    BoxFamily,
    EXCLUDED_BOXES_BASE,
    ISOLATED_ZERO,
    box_solve,
    classify_descriptor,
    compactness_remainder,
    continuity_cert_zero,
    column_exceptions_finite,
    meets_almost_all_boxes,
    pullback_points,
    pushforward_basic,
    pushforward_descriptor,
    row_exceptions_finite,
)

MAX_REPORTED = 12


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
        shown = [str(v) for v in self.violations[:MAX_REPORTED]]
        extra = len(self.violations) - len(shown)
        if extra > 0:
            shown.append(f"... {extra} more")
        return {
            "op": "verify",
            "suite": self.suite,
            "system": self.system,
            "params": self.params,
            "checked": self.checked,
            "ok": self.ok,
            "violations": shown,
        }


def suite_structure(B: BRSystem) -> SuiteResult:
    rep = validate_system(B.sys)
    return SuiteResult("structure", B.name, {}, 1, list(rep.violations))


def suite_associativity(B: BRSystem, window: int) -> SuiteResult:
    """(x*y)*z against x*(y*z) for every window triple.

    (x*y)*z is the window's row right[id(x*y)], and, per x, left is the row
    x*p over the window's distinct products p.  A pair (x, y) compares that
    row with left read at the ids of the y*z by one row_reader per y, built
    once, and only a row that differs is walked element by element."""
    w = B.window(window)
    getters = [row_reader(yz_ids) for yz_ids in w.table]
    bad = []
    for x, xy_ids, left in zip(w.elems, w.table, brmul_ids(B, w.elems, w.prods)):
        for y, xy_id, get_yz in zip(w.elems, xy_ids, getters):
            xy_z, x_yz = w.right[xy_id], get_yz(left)
            if xy_z == x_yz:
                continue
            for z, u, v in zip(w.elems, xy_z, x_yz):
                if u != v:
                    bad.append(
                        f"({format_elem(x)}*{format_elem(y)})*{format_elem(z)} "
                        f"!= {format_elem(x)}*({format_elem(y)}*{format_elem(z)})"
                    )
    return SuiteResult("associativity", B.name, {"window": window}, len(w.elems) ** 3, bad)


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
    """The box of each window product against bmul of the two boxes."""
    w = B.window(window)
    images = [eta(x) for x in w.elems]
    prod_images = [eta(p) for p in w.prods]
    bad = []
    for x, xy_ids, etas in zip(w.elems, w.table, bmul_rows(images, images)):
        for y, xy, e in zip(w.elems, xy_ids, etas):
            if prod_images[xy] != e:
                bad.append(f"eta breaks at {format_elem(x)}, {format_elem(y)}")
    return SuiteResult("eta_homomorphism", B.name, {"window": window}, len(w.elems) ** 2, bad)


def suite_eta_congruence(B: BRSystem, window: int) -> SuiteResult:
    """Same input boxes must force the same product box, whatever the
    group parts are; that is exactly saying the eta fibers form a
    congruence."""
    w = B.window(window)
    boxes = [box(p) for p in w.prods]
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
                bad.append(f"product box of {tuple(b1)}*{tuple(b2)} not constant: {sorted(map(tuple, prods))}")
    return SuiteResult("eta_congruence", B.name, {"window": window}, checked, bad)


def suite_idempotent_chain(B: BRSystem, max_window: int = 8) -> SuiteResult:
    """idempotents_window gives a strict chain of the promised length for
    every window up to max_window, matching an initial segment of the
    naturals under the reversed order.

    The max_window chain is encoded and multiplied in one brmul_ids pass;
    each shorter window that is a prefix of it reads its pairs from that
    pass, and a window that is not such a prefix is a violation."""
    ne = len(idempotents(B.sys))
    windows = [idempotents_window(B, n) for n in range(1, max_window + 1)]
    chain = windows[-1] if windows else []
    codes = [encode(B, e) for e in chain]
    rows = list(brmul_ids(B, chain, chain))
    bad = []
    checked = 0
    for n, lst in enumerate(windows, 1):
        if len(lst) != n * ne:
            bad.append(f"window {n}: {len(lst)} idempotents, expected {n * ne}")
            continue
        if lst != chain[: len(lst)]:
            bad.append(f"window {n}: not a prefix of window {max_window}")
            continue
        for a in range(len(lst)):
            for b in range(a + 1, len(lst)):
                checked += 1
                prods = rows[a][b], rows[b][a]
                below = prods == (codes[b], codes[b])
                above = prods == (codes[a], codes[a])
                if not below or above:
                    bad.append(
                        f"window {n}: {format_elem(lst[b])} not strictly below {format_elem(lst[a])}"
                    )
    return SuiteResult("idempotent_chain", B.name, {"max_window": max_window}, checked, bad)


def suite_nat_order(B: BRSystem, window: int) -> SuiteResult:
    """Closed form against the canonical witness x = y * x^-1 x, all pairs,
    the witness read from the window's product ids."""
    w = B.window(window)
    elems, table = w.elems, w.table
    bad = []
    for x, (xe, xi) in enumerate(zip(elems, w.inv)):
        e = table[xi][x]  # x^-1 x
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
        claimed = set(hclass(B, x))
        if claimed != classes[key]:
            bad.append(f"H-class mismatch at {format_elem(x)}")
        if len(claimed) != B.sys.group(x.s.level).order:
            bad.append(f"H-class size off at {format_elem(x)}")
    return SuiteResult("hclass", B.name, {"window": window}, len(w.elems), bad)


def _random_elem(B: BRSystem, rng: random.Random, max_index: int) -> BRElem:
    level = rng.randrange(len(B.sys.groups))
    elem = rng.randrange(B.sys.group(level).order)
    return BRElem(
        rng.randrange(max_index + 1),
        CliffordElement(level, elem),
        rng.randrange(max_index + 1),
    )


def suite_simplicity(
    B: BRSystem, seed: int, pairs: int = 1000, max_index: int = 50
) -> SuiteResult:
    """simplicity_witness self-verifies; here we just exercise it widely,
    including the a = b corner."""
    rng = random.Random(seed)
    bad = []
    for n in range(pairs):
        a = _random_elem(B, rng, max_index)
        b = a if n % 100 == 0 else _random_elem(B, rng, max_index)
        try:
            simplicity_witness(B, a, b)
        except WitnessVerificationFailed as exc:
            bad.append(f"witness for {format_elem(a)} -> {format_elem(b)}: {exc}")
    return SuiteResult(
        "simplicity",
        B.name,
        {"seed": seed, "pairs": pairs, "max_index": max_index},
        pairs,
        bad,
    )


def suite_zero_divisors(B: BRSystem, window: int = 4) -> SuiteResult:
    rep = zero_divisor_scan(B, window)
    bad = [
        f"{format_elem(x)} * {format_elem(y)} = 0" for x, y in rep.counterexamples
    ]
    return SuiteResult("zero_divisors", B.name, {"window": window}, rep.checked, bad)


def suite_bicyclic_axioms(system_name: str, max_index: int = 6) -> SuiteResult:
    """Idempotent shape and order, inverse axioms and inverse uniqueness on
    the bicyclic monoid itself."""
    elems = [BicyclicElem(k, l) for k in range(max_index + 1) for l in range(max_index + 1)]
    bad = []
    for x in elems:
        if (bmul(x, x) == x) != (x.k == x.l):
            bad.append(f"idempotency miscounts at {bicyclic.format_elem(x)}")
        xi = binv(x)
        if bmul(bmul(x, xi), x) != x or bmul(bmul(xi, x), xi) != xi:
            bad.append(f"inverse axioms fail at {bicyclic.format_elem(x)}")
    for k in range(max_index + 1):
        for m in range(max_index + 1):
            e, f = BicyclicElem(k, k), BicyclicElem(m, m)
            below = bmul(e, f) == e and bmul(f, e) == e
            if below != (k >= m):
                bad.append(f"idempotent order wrong at ({k},{k}) vs ({m},{m})")
    for x in elems:
        for y in elems:
            if bmul(bmul(x, y), x) == x and bmul(bmul(y, x), y) == y and y != binv(x):
                bad.append(
                    f"second inverse {bicyclic.format_elem(y)} for {bicyclic.format_elem(x)}"
                )
    return SuiteResult(
        "bicyclic_axioms", system_name, {"max_index": max_index}, len(elems) ** 2, bad
    )


def suite_bicyclic_oracle(system_name: str, max_index: int = 12) -> SuiteResult:
    """Closed-form index arithmetic against the faithful max-plus image.

    rho is built by products of the generator images for indices up to
    2 * max_index, which holds every product of two operands; a product
    bmul_rows places outside the table is a disagreement.  Each row of
    products, read through rho, is compared whole with rho[x] times the
    images of the ys, and only a row that differs is walked pair by pair."""
    rho = rho_table(2 * max_index)
    r = range(max_index + 1)
    elems = [BicyclicElem(k, l) for k in r for l in r]
    images = [rho[y] for y in elems]
    bad = []
    for x, row in zip(elems, bmul_rows(elems, elems)):
        want = list(map(tmul, repeat(rho[x]), images))
        if list(map(rho.get, row)) != want:
            bad += [f"{bicyclic.format_elem(x)}*{bicyclic.format_elem(y)} disagrees"
                    for y, p, v in zip(elems, row, want) if rho.get(p) != v]
    return SuiteResult(
        "bicyclic_oracle", system_name, {"max_index": max_index}, (max_index + 1) ** 4, bad
    )


def suite_box_solver(system_name: str, max_index: int = 6) -> SuiteResult:
    """Closed-form box equation solutions against a full scan, both sides.

    Multipliers and targets are the boxes with indices up to max_index.
    A left solution (t1 - a1 + a2, t2) has a first index up to
    2 * max_index, so the scan multiplies every box up to the brute bound
    max(20, 2 * max_index).  The products come from bmul_rows as streamed
    rows and only those that are targets are kept: a left multiplier is
    checked as soon as its row arrives, a right one once the scan over the
    boxes ends.
    """
    brute_bound = max(20, 2 * max_index)
    r, m = range(brute_bound + 1), range(max_index + 1)
    grid = [BicyclicElem(i, j) for i in r for j in r]
    boxes = [Box(i, j) for i in r for j in r]
    small = [Box(i, j) for i in m for j in m]  # multipliers and targets
    elems = [BicyclicElem(*t) for t in small]
    ids = {t: n for n, t in enumerate(elems)}
    bad = []

    def check(side, a, hits):
        """hits: (target id, box) for every box whose product with a is a target."""
        sols = [[] for _ in small]
        for t, b in hits:
            sols[t].append(b)
        bad.extend(f"{side} solutions differ for a={tuple(a)}, target={tuple(t)}"
                   for t, s in zip(small, sols) if box_solve(a, t, side) != frozenset(s))

    for a, row in zip(small, bmul_rows(elems, grid)):
        check("left", a, [(ids[p], b) for b, p in zip(boxes, row) if p in ids])
    # right rows run over the boxes, so every multiplier's hits are kept until
    # the scan ends, flat, without a tuple per hit
    right = [[] for _ in small]
    for b, row in zip(boxes, bmul_rows(grid, elems)):
        for hits, p in zip(right, row):
            if p in ids:
                hits += ids[p], b
    for a, hits in zip(small, right):
        it = iter(hits)
        check("right", a, zip(it, it))
    return SuiteResult(
        "box_solver",
        system_name,
        {"max_index": max_index, "brute_bound": brute_bound},
        2 * len(small) ** 2,
        bad,
    )


def suite_continuity(B: BRSystem, seed: int, samples: int = 100, a_window: int = 3) -> SuiteResult:
    """Random targets, every multiplier with indices below a_window, both
    sides; each certificate carries its own box-by-box re-verification."""
    rng = random.Random(seed)
    multipliers = window_elements(B, a_window)
    bad = []
    checked = 0
    for _ in range(samples):
        w = BasicZeroNbhd.excluding(
            (rng.randrange(11), rng.randrange(11)) for _ in range(rng.randint(0, 3))
        )
        side = "left" if rng.random() < 0.5 else "right"
        for a in multipliers:
            checked += 1
            cert = continuity_cert_zero(B, a, w, side)
            if not cert.ok:
                bad.append(
                    f"certificate for a={format_elem(a)}, side={side}: {cert.violations[0]}"
                )
    return SuiteResult(
        "continuity",
        B.name,
        {"seed": seed, "samples": samples, "a_window": a_window},
        checked,
        bad,
    )


def suite_zero_nbhd_checks(B: BRSystem, probe_bound: int = 64) -> SuiteResult:
    """Bounded finiteness checkers on honest basics and on degenerate
    families built to fail them."""
    bad = []
    basic = BasicZeroNbhd.excluding([(2, 5), (2, 7), (9, 0)])
    if not meets_almost_all_boxes(basic, probe_bound):
        bad.append("cofinite basic flagged as missing too many boxes")
    if not meets_almost_all_boxes(BasicZeroNbhd(frozenset()), probe_bound):
        bad.append("whole space flagged as missing too many boxes")
    single_row = BoxFamily(lambda i, j: i == 0)
    if meets_almost_all_boxes(single_row, probe_bound):
        bad.append("single-row family not refuted")
    if not row_exceptions_finite(basic, 2, probe_bound):
        bad.append("two exceptions in row 2 flagged as infinite")
    if not row_exceptions_finite(basic, 3, probe_bound):
        bad.append("empty exception set in row 3 flagged as infinite")
    row_gone = BoxFamily(lambda i, j: i != 4)
    if row_exceptions_finite(row_gone, 4, probe_bound):
        bad.append("fully removed row not refuted")
    if not row_exceptions_finite(row_gone, 0, probe_bound):
        bad.append("untouched row flagged as infinite")
    if column_exceptions_finite(BoxFamily(lambda i, j: j != 1), 1, probe_bound):
        bad.append("fully removed column not refuted")
    return SuiteResult(
        "zero_nbhd_checks", B.name, {"probe_bound": probe_bound}, 8, bad
    )


def suite_descriptor_classification(B: BRSystem) -> SuiteResult:
    bad = []
    if classify_descriptor(ISOLATED_ZERO).verdict != "isolated_zero":
        bad.append("isolated descriptor misclassified")
    if classify_descriptor(EXCLUDED_BOXES_BASE).verdict != "compact":
        bad.append("box-complement descriptor misclassified")
    try:
        classify_descriptor({"kind": "mystery"})
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


def suite_pushforward_roundtrip(B: BRSystem, seed: int, samples: int = 100) -> SuiteResult:
    rng = random.Random(seed)
    bad = []
    if pushforward_descriptor(EXCLUDED_BOXES_BASE).kind != "cofinite":
        bad.append("box-complement base must push to the cofinite base")
    if pushforward_descriptor(ISOLATED_ZERO).kind != "discrete":
        bad.append("isolated zero must push to the discrete structure")
    for _ in range(samples):
        u = BasicZeroNbhd.excluding(
            (rng.randrange(12), rng.randrange(12)) for _ in range(rng.randint(0, 4))
        )
        if pullback_points(pushforward_basic(u)) != u:
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
    """One suite of `verify --all`.  run(B, window, seed, probe_bound) calls
    it by its module-level name, so a rebound suite_* is the one run;
    checked(B, window) is its checked count in closed form; applies(B) says
    whether run_all runs it on B."""

    name: str
    run: Callable[[BRSystem, int, int, int], SuiteResult]
    checked: Callable[[BRSystem, int], int]
    applies: Callable[[BRSystem], bool] = lambda B: True


SUITES = (
    Suite("structure", lambda B, w, seed, pb: suite_structure(B), lambda B, w: 1),
    Suite("associativity", lambda B, w, seed, pb: suite_associativity(B, w), lambda B, w: _w(B, w) ** 3),
    Suite("inverse_axioms", lambda B, w, seed, pb: suite_inverse_axioms(B, w),
          lambda B, w: _w(B, w) ** 2 + _w(B, w)),
    Suite("eta_homomorphism", lambda B, w, seed, pb: suite_eta_homomorphism(B, w), lambda B, w: _w(B, w) ** 2),
    Suite("eta_congruence", lambda B, w, seed, pb: suite_eta_congruence(B, w), lambda B, w: _w(B, w) ** 2),
    Suite("idempotent_chain", lambda B, w, seed, pb: suite_idempotent_chain(B, 8),
          lambda B, w: sum(comb(n * len(idempotents(B.sys)), 2) for n in range(1, 9))),
    Suite("nat_order", lambda B, w, seed, pb: suite_nat_order(B, w), lambda B, w: _w(B, w) ** 2),
    Suite("hclass", lambda B, w, seed, pb: suite_hclass(B, w), lambda B, w: _w(B, w)),
    Suite("simplicity", lambda B, w, seed, pb: suite_simplicity(B, seed), lambda B, w: 1000),
    Suite("zero_divisors", lambda B, w, seed, pb: suite_zero_divisors(B, 4), lambda B, w: _w(B, 4) ** 2,
          lambda B: B.with_zero),
    Suite("bicyclic_axioms", lambda B, w, seed, pb: suite_bicyclic_axioms(B.name, 6), lambda B, w: 7 ** 4),
    Suite("bicyclic_oracle", lambda B, w, seed, pb: suite_bicyclic_oracle(B.name, 4 * w),
          lambda B, w: (4 * w + 1) ** 4),
    Suite("box_solver", lambda B, w, seed, pb: suite_box_solver(B.name, 2 * w), lambda B, w: 2 * (2 * w + 1) ** 4),
    Suite("continuity", lambda B, w, seed, pb: suite_continuity(B, seed, a_window=min(w, 3)),
          lambda B, w: 100 * _w(B, min(w, 3))),
    Suite("zero_nbhd_checks", lambda B, w, seed, pb: suite_zero_nbhd_checks(B, pb), lambda B, w: 8),
    Suite("descriptor_classification", lambda B, w, seed, pb: suite_descriptor_classification(B), lambda B, w: 4),
    Suite("pushforward_roundtrip", lambda B, w, seed, pb: suite_pushforward_roundtrip(B, seed), lambda B, w: 102),
    Suite("bicyclic_isomorphism", lambda B, w, seed, pb: suite_bicyclic_isomorphism(B, w),
          lambda B, w: _w(B, w) ** 2, lambda B: B.sys.order() == 1),
)


def run_all(B: BRSystem, window: int = 3, seed: int = 0, probe_bound: int = 64) -> list[SuiteResult]:
    """Every suite of SUITES that applies to the given system, in order."""
    return [s.run(B, window, seed, probe_bound) for s in SUITES if s.applies(B)]
