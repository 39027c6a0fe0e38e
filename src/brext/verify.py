"""Property suites over a loaded system.

Each suite runs a finite, deterministic battery of checks and returns a
SuiteResult whose record serializes to one NDJSON line.  The CLI verify
command and the acceptance tests both drive these functions, so the counts
and violation strings here are the single source of truth for what was
checked.  Seeded randomness only ever comes from random.Random(seed).
Exhaustive pair scans take their products a row at a time from
brmul_rows: associativity numbers its distinct window products and
compares whole rows of them, the eta suites walk rows of the window, and
nat_order reads y * x^-1 x from rows against the distinct x^-1 x.
Products are reused only where a suite's loops recompute them:
inverse_axioms and idempotent_chain cache brmul with functools.cache for
one call, and continuity hands one dict to every certificate, so the
certificates of one multiplier box and side share one inverted index of
product boxes; the others call brmul directly.  bicyclic_oracle checks
bmul against the faithful max-plus image of the bicyclic monoid, one
matrix product per pair, and box_solver scans a grid built once per call
with bmul.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter

from . import bicyclic
from .bicyclic import BicyclicElem, bmul, binv, rho_table, tmul
from .bruck_reilly import (
    Box,
    BRElem,
    BRSystem,
    ZERO,
    box,
    brinv,
    brmul,
    brmul_rows,
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

    Each distinct window product p gets an id; right[id] is the row p*z
    over the window, kept as a tuple, and, per x, left is the row x*p over
    the distinct products.  A pair (x, y) compares right[id(x*y)] with
    left read at the ids of the y*z by one itemgetter per y, built once,
    and only a row that differs is walked element by element."""
    elems = window_elements(B, window)
    ids = {}
    prod_ids = [[ids.setdefault(p, len(ids)) for p in row] for row in brmul_rows(B, elems, elems)]
    prods = list(ids)
    right = [tuple(row) for row in brmul_rows(B, prods, elems)]
    # itemgetter returns a bare item, not a tuple, for a one-element window
    getters = [itemgetter(*yz_ids) if len(yz_ids) > 1 else (lambda row, k=yz_ids[0]: (row[k],))
               for yz_ids in prod_ids]
    bad = []
    for x, xy_ids, left in zip(elems, prod_ids, brmul_rows(B, elems, prods)):
        for y, xy_id, get_yz in zip(elems, xy_ids, getters):
            xy_z, x_yz = right[xy_id], get_yz(left)
            if xy_z == x_yz:
                continue
            for z, u, v in zip(elems, xy_z, x_yz):
                if u != v:
                    bad.append(
                        f"({format_elem(x)}*{format_elem(y)})*{format_elem(z)} "
                        f"!= {format_elem(x)}*({format_elem(y)}*{format_elem(z)})"
                    )
    return SuiteResult("associativity", B.name, {"window": window}, len(elems) ** 3, bad)


def suite_inverse_axioms(B: BRSystem, window: int) -> SuiteResult:
    elems = window_elements(B, window)
    mul = functools.cache(functools.partial(brmul, B))
    bad = []
    for x in elems:
        xi = brinv(B, x)
        if mul(mul(x, xi), x) != x or mul(mul(xi, x), xi) != xi:
            bad.append(f"inverse axioms fail for {format_elem(x)}")
        if brinv(B, xi) != x:
            bad.append(f"inverse is not an involution at {format_elem(x)}")
    # uniqueness: the only generalized inverse of x is brinv(x)
    for x in elems:
        for y in elems:
            if mul(mul(x, y), x) == x and mul(mul(y, x), y) == y and y != brinv(B, x):
                bad.append(f"second inverse {format_elem(y)} for {format_elem(x)}")
    return SuiteResult(
        "inverse_axioms", B.name, {"window": window}, len(elems) ** 2 + len(elems), bad
    )


def suite_eta_homomorphism(B: BRSystem, window: int) -> SuiteResult:
    elems = window_elements(B, window)
    images = [eta(y) for y in elems]
    bad = []
    for x, row in zip(elems, brmul_rows(B, elems, elems)):
        ex = eta(x)
        for y, ey, p in zip(elems, images, row):
            if eta(p) != bmul(ex, ey):
                bad.append(f"eta breaks at {format_elem(x)}, {format_elem(y)}")
    return SuiteResult("eta_homomorphism", B.name, {"window": window}, len(elems) ** 2, bad)


def suite_eta_congruence(B: BRSystem, window: int) -> SuiteResult:
    """Same input boxes must force the same product box, whatever the
    group parts are; that is exactly saying the eta fibers form a
    congruence."""
    fibers = {}
    for x in window_elements(B, window):
        fibers.setdefault(box(x), []).append(x)
    bad = []
    checked = 0
    for b1, f1 in fibers.items():
        for b2, f2 in fibers.items():
            prods = {box(p) for row in brmul_rows(B, f1, f2) for p in row}
            checked += len(f1) * len(f2)
            if len(prods) != 1:
                bad.append(f"product box of {tuple(b1)}*{tuple(b2)} not constant: {sorted(map(tuple, prods))}")
    return SuiteResult("eta_congruence", B.name, {"window": window}, checked, bad)


def suite_idempotent_chain(B: BRSystem, max_window: int = 8) -> SuiteResult:
    """idempotents_window gives a strict chain of the promised length for
    every window up to max_window, matching an initial segment of the
    naturals under the reversed order."""
    ne = len(idempotents(B.sys))
    mul = functools.cache(functools.partial(brmul, B))
    bad = []
    checked = 0
    for n in range(1, max_window + 1):
        lst = idempotents_window(B, n)
        if len(lst) != n * ne:
            bad.append(f"window {n}: {len(lst)} idempotents, expected {n * ne}")
            continue
        for a in range(len(lst)):
            for b in range(a + 1, len(lst)):
                hi, lo = lst[a], lst[b]
                checked += 1
                prods = mul(hi, lo), mul(lo, hi)
                below = prods == (lo, lo)
                above = prods == (hi, hi)
                if not below or above:
                    bad.append(
                        f"window {n}: {format_elem(lo)} not strictly below {format_elem(hi)}"
                    )
    return SuiteResult("idempotent_chain", B.name, {"max_window": max_window}, checked, bad)


def suite_nat_order(B: BRSystem, window: int) -> SuiteResult:
    """Closed form against the canonical witness x = y * x^-1 x, all pairs.

    x^-1 x is computed once per x and numbered; witness holds, for each
    window element y, the row of y times every distinct x^-1 x."""
    elems = window_elements(B, window)
    ids = {}
    e_ids = [ids.setdefault(brmul(B, brinv(B, x), x), len(ids)) for x in elems]
    witness = list(brmul_rows(B, elems, list(ids)))
    bad = []
    for x, e_id in zip(elems, e_ids):
        for y, y_row in zip(elems, witness):
            fast = nat_order(B, x, y)
            slow = y_row[e_id] == x
            if fast != slow:
                bad.append(
                    f"closed form says {fast} for {format_elem(x)} <= {format_elem(y)}"
                )
            if fast and nat_order(B, y, x) and x != y:
                bad.append(f"antisymmetry fails at {format_elem(x)}, {format_elem(y)}")
    if B.with_zero:
        probe = elems[: min(4, len(elems))]
        for x in probe:
            if not nat_order(B, ZERO, x) or nat_order(B, x, ZERO):
                bad.append(f"zero is not strictly least under {format_elem(x)}")
    return SuiteResult("nat_order", B.name, {"window": window}, len(elems) ** 2, bad)


def suite_hclass(B: BRSystem, window: int) -> SuiteResult:
    """The group fiber answer against the idempotent-pair criterion, which
    is scanned over the whole window."""
    elems = window_elements(B, window)
    ends = {y: (brmul(B, y, brinv(B, y)), brmul(B, brinv(B, y), y)) for y in elems}
    bad = []
    for x in elems:
        claimed = set(hclass(B, x))
        scanned = {y for y in elems if ends[y] == ends[x]}
        if claimed != scanned:
            bad.append(f"H-class mismatch at {format_elem(x)}")
        if len(claimed) != B.sys.group(x.s.level).order:
            bad.append(f"H-class size off at {format_elem(x)}")
    return SuiteResult("hclass", B.name, {"window": window}, len(elems), bad)


def _random_elem(B: BRSystem, rng: random.Random, max_index: int) -> BRElem:
    level = rng.randrange(B.sys.chain.size)
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
    bmul places outside the table is a disagreement."""
    rho = rho_table(2 * max_index)
    r = range(max_index + 1)
    elems = [BicyclicElem(k, l) for k in r for l in r]
    bad = []
    for x in elems:
        rx = rho[x]
        for y in elems:
            if rho.get(bmul(x, y)) != tmul(rx, rho[y]):
                bad.append(f"{bicyclic.format_elem(x)}*{bicyclic.format_elem(y)} disagrees")
    return SuiteResult(
        "bicyclic_oracle", system_name, {"max_index": max_index}, (max_index + 1) ** 4, bad
    )


def suite_box_solver(system_name: str, max_index: int = 6, brute_bound: int = 20) -> SuiteResult:
    """Closed-form box equation solutions against a full scan, both sides.

    The scan still multiplies every box up to the brute bound by bmul; the
    grid, its boxes and the multiplier and target pairs are built once per
    call, and each multiplier's products are grouped by product instead of
    rescanned per target.
    """
    bad = []
    r, m = range(brute_bound + 1), range(max_index + 1)
    grid = [BicyclicElem(i, j) for i in r for j in r]
    boxes = [Box(i, j) for i in r for j in r]
    small = [(Box(i, j), BicyclicElem(i, j)) for i in m for j in m]  # multipliers and targets
    checked = 0
    for side in ("left", "right"):
        for a, ab in small:
            ae = repeat(ab)
            hits = {}
            for prod, b in zip(map(bmul, ae, grid) if side == "left" else map(bmul, grid, ae), boxes):
                hits.setdefault(prod, []).append(b)
            for t, te in small:
                checked += 1
                if box_solve(a, t, side) != frozenset(hits.get(te, ())):
                    bad.append(f"{side} solutions differ for a={tuple(a)}, target={tuple(t)}")
    return SuiteResult(
        "box_solver",
        system_name,
        {"max_index": max_index, "brute_bound": brute_bound},
        checked,
        bad,
    )


def suite_continuity(B: BRSystem, seed: int, samples: int = 100, a_window: int = 3) -> SuiteResult:
    """Random targets, every multiplier with indices below a_window, both
    sides; each certificate carries its own box-by-box re-verification,
    which shares one product-box index per multiplier box and side across
    the whole suite."""
    rng = random.Random(seed)
    multipliers = window_elements(B, a_window)
    fibers = {}
    bad = []
    checked = 0
    for _ in range(samples):
        w = BasicZeroNbhd.excluding(
            (rng.randrange(11), rng.randrange(11)) for _ in range(rng.randint(0, 3))
        )
        side = "left" if rng.random() < 0.5 else "right"
        for a in multipliers:
            checked += 1
            cert = continuity_cert_zero(B, a, w, side, fibers=fibers)
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
    single_row = BoxFamily(lambda i, j: i == 0, label="single row")
    if meets_almost_all_boxes(single_row, probe_bound):
        bad.append("single-row family not refuted")
    if not row_exceptions_finite(basic, 2, probe_bound):
        bad.append("two exceptions in row 2 flagged as infinite")
    if not row_exceptions_finite(basic, 3, probe_bound):
        bad.append("empty exception set in row 3 flagged as infinite")
    row_gone = BoxFamily(lambda i, j: i != 4, label="row 4 removed")
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


def run_all(B: BRSystem, window: int = 3, seed: int = 0, probe_bound: int = 64) -> list[SuiteResult]:
    """Every suite that applies to the given system, fixed order."""
    out = [
        suite_structure(B),
        suite_associativity(B, window),
        suite_inverse_axioms(B, window),
        suite_eta_homomorphism(B, window),
        suite_eta_congruence(B, window),
        suite_idempotent_chain(B, 8),
        suite_nat_order(B, window),
        suite_hclass(B, window),
        suite_simplicity(B, seed),
        suite_bicyclic_axioms(B.name, 6),
        suite_bicyclic_oracle(B.name, 4 * window),
        suite_box_solver(B.name, 2 * window),
        suite_continuity(B, seed, a_window=min(window, 3)),
        suite_zero_nbhd_checks(B, probe_bound),
        suite_descriptor_classification(B),
        suite_pushforward_roundtrip(B, seed),
    ]
    if B.with_zero:
        out.insert(9, suite_zero_divisors(B, 4))
    if B.sys.order() == 1:
        out.append(suite_bicyclic_isomorphism(B, window))
    return out
