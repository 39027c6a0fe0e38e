"""Zero-neighborhood descriptors and their finitely checkable certificates.

Two shapes of zero neighborhood arise for an extension with adjoined zero:
either zero is isolated, or the basic neighborhoods of zero are complements
of finitely many boxes, each named by its bicyclic pair (k, l), the point
the index map sends it to.  Both shapes are recorded as descriptors, and
the facts that matter about them (translates of a basic staying inside
another, almost-all-boxes coverage, finite exception rows, compactness of
the box variant, and what the index map does to either) reduce to exact
arithmetic on finite box sets.  Everything here is a certificate producer
or checker; no open-ended topology is represented.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from .bicyclic import bmul
from .bruck_reilly import Box, BRElem, BRSystem, _check, box, brmul, format_elem, is_zero
from .errors import MalformedDescriptor
from .groups import is_int

ISOLATED = "isolated"
EXCLUDED_BOXES = "excluded_boxes"
PROBE_BOUND = 64  # the bounded checks' window; their verdicts on the suite's families hold at any bound >= 2


@dataclass(frozen=True)
class ZeroNbhdDescriptor:
    """Which of the two zero-neighborhood shapes a system carries."""

    kind: str

    def __post_init__(self):
        if self.kind not in (ISOLATED, EXCLUDED_BOXES):
            raise MalformedDescriptor(f"unknown descriptor kind {self.kind!r}")


ISOLATED_ZERO = ZeroNbhdDescriptor(ISOLATED)
EXCLUDED_BOXES_BASE = ZeroNbhdDescriptor(EXCLUDED_BOXES)


def descriptor_from_obj(obj) -> ZeroNbhdDescriptor:
    """Parse {'kind': ...}; any other shape or kind is malformed."""
    if not isinstance(obj, dict) or set(obj) != {"kind"}:
        raise MalformedDescriptor(f"descriptor must be {{'kind': ...}}, got {obj!r}")
    return ZeroNbhdDescriptor(obj["kind"])


@dataclass(frozen=True)
class BasicZeroNbhd:
    """Complement of finitely many boxes, plus zero itself.

    Membership of a nonzero element is a single box lookup.
    """

    excluded: frozenset[Box]

    @classmethod
    def excluding(cls, boxes) -> "BasicZeroNbhd":
        """Excludes each box (i, j); a pair not of ints >= 0 raises ValueError."""
        out = [Box(i, j) for i, j in boxes]
        for b in out:
            if not (is_int(b.k) and is_int(b.l) and b.k >= 0 and b.l >= 0):
                raise ValueError(f"not a box: ({b.k!r}, {b.l!r})")
        return cls(frozenset(out))

    def contains(self, x) -> bool:
        return is_zero(x) or Box(x.i, x.j) not in self.excluded


def box_solve(a_box: Box, target: Box, side: str) -> frozenset[Box]:
    """All boxes x with a_box * x = target (side 'left') or x * a_box = target.

    Closed form from the bicyclic index arithmetic.  For the left side with
    a = (a1, a2): products with x = (i, j), i <= a2 pin the first coordinate
    to a1 and trace the diagonal j - i = t2 - a2, while i > a2 determines x
    uniquely; the cases are disjoint on the first target coordinate.  The
    right side is the mirror image.  At most min-index + 1 boxes come back.
    """
    a1, a2 = a_box
    t1, t2 = target
    if side == "left":
        if t1 == a1:
            lo = max(0, a2 - t2)
            return frozenset(map(Box, range(lo, a2 + 1), range(lo + t2 - a2, t2 + 1)))
        return frozenset((Box(t1 - a1 + a2, t2),)) if t1 > a1 else frozenset()
    _check_side(side)
    if t2 == a2:
        lo = max(0, a1 - t1)
        return frozenset(map(Box, range(lo + t1 - a1, t1 + 1), range(lo, a1 + 1)))
    return frozenset((Box(t1, t2 - a2 + a1),)) if t2 > a2 else frozenset()


def _check_side(side: str) -> None:
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', not {side!r}")


def _check_multiplier(B: BRSystem, a: BRElem) -> None:
    if is_zero(a):
        raise ValueError("the multiplier must be a nonzero element")
    _check(B, a)


def box_solve_brute(a_box: Box, target: Box, side: str, bound: int = 20) -> frozenset[Box]:
    """Independent route: scan all boxes up to the bound and multiply."""
    _check_side(side)
    out = set()
    for i in range(bound + 1):
        for j in range(bound + 1):
            x = Box(i, j)
            if (bmul(a_box, x) if side == "left" else bmul(x, a_box)) == target:
                out.add(x)
    return frozenset(out)


@dataclass
class ContinuityCertificate:
    """Witness that translating `found` by `a` stays inside `target`.

    trace records, for every excluded box of the target, the solved boxes
    that forced exclusions in `found`.  `violations` lists what the
    re-check with real products found and stays empty for sound output.
    """

    a: BRElem
    side: str
    target: BasicZeroNbhd
    found: BasicZeroNbhd
    trace: dict
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def continuity_cert_zero(B: BRSystem, a: BRElem, target: BasicZeroNbhd, side: str) -> ContinuityCertificate:
    """Build the basic U with a * U inside target (or U * a on the right)."""
    return continuity_certs(B, [a], target, side)[0]


def continuity_certs(B: BRSystem, multipliers: list[BRElem], target: BasicZeroNbhd, side: str) -> list[ContinuityCertificate]:
    """One certificate per multiplier, in order, all for one target and side.

    A box of U lands in an excluded box of the target exactly when it solves
    the corresponding box equation, so excluding the union of solution sets
    is both sound and exact.  Such a U always exists: the union is finite.
    A product's box depends on a only through box(a), so the multipliers of
    one box share the solutions and _recheck's probes and preimage, which
    each box residuates from the target boxes' rho images, taken once per
    call; each is checked up front and decided by its own product with each
    found box's probe.  Only a certificate with a probe that leaves the
    target, or with a non-empty preimage, goes to verify_certificate to list
    its violations."""
    _check_side(side)
    for a in multipliers:
        _check_multiplier(B, a)
    s0, shared, out, excluded = B.sys.unit(), {}, [], target.excluded  # any group part decides a product's box
    targets, left = sorted(excluded), side == "left"
    rho_targets = [_rho(*t) for t in targets]
    for a in multipliers:
        if (ab := (a.i, a.j)) not in shared:
            trace = {w: box_solve(ab, w, side) for w in targets}
            found = frozenset().union(*trace.values())
            shared[ab] = BasicZeroNbhd(found), trace, *_recheck(ab, found, rho_targets, side, s0)
        found, trace, probes, preimage = shared[ab]
        cert = ContinuityCertificate(a, side, target, found, trace)
        if preimage or any((brmul(B, a, p) if left else brmul(B, p, a))[::2] not in excluded for p in probes):
            cert.violations = verify_certificate(B, cert)
        out.append(cert)
    return out


def verify_certificate(B: BRSystem, cert: ContinuityCertificate) -> list[str]:
    """Re-verify a certificate built elsewhere, box by box with real products.

    Checks both directions: elements of U multiply into the target, and
    every excluded box was necessary; zero multiplies to zero, which every
    zero neighborhood contains.  Only the preimage of the target boxes and
    the `found` boxes can fail, which covers all of BR(T, theta).  The
    preimage comes from _residuate, never box_solve, so the check stays
    independent of the certificate's route; a found box is decided by one
    brmul, as a product's box ignores group parts.  Failing boxes are
    walked element by element, in order.
    """
    a, side = cert.a, cert.side
    found, target = cert.found.excluded, cert.target.excluded
    _check_side(side)
    _check_multiplier(B, a)
    probes, preimage = _recheck(box(a), found, [_rho(*t) for t in target], side, B.sys.unit())
    mul = (lambda x: brmul(B, a, x)) if side == "left" else (lambda x: brmul(B, x, a))
    failing = preimage.union([p[::2] for p in probes if mul(p)[::2] not in target])  # [::2]: a box
    bad = []
    for i, j in sorted(failing):
        inside = (i, j) in found
        for s in B.sys.compiled.elements:
            x = BRElem(i, s, j)
            if (box(mul(x)) in target) != inside:
                bad.append(f"{format_elem(x)} was excluded but its product stays in the target" if inside
                           else f"{format_elem(x)} is in U but its product leaves the target")
    return bad


def _rho(k: int, l: int) -> tuple:
    """rho(q^k p^l) = [[2(k-l), 2k+l-2], [-inf, l-k]] as (m11, m12, m22)."""
    return (2 * (k - l), 2 * k + l - 2, l - k)


def _residuate(ra: tuple, rt: tuple, side: str) -> frozenset[Box]:
    """Every box x with a * x = t (left) or x * a = t (right), given ra = rho(a)
    and rt = rho(t).

    rho(a) (x) X = rho(t) (X (x) rho(a) on the right) forces X's diagonal;
    its corner x12 is forced, free up to the residual r, or impossible as the
    max's fixed term falls short of, meets or exceeds t12 (Cuninghame-Green,
    Minimax Algebra, 1979).  X is rho of a box (i, j) only if x11 = -2 x22;
    then d = i - j = -x22 and x12 = 3i - d - 2 <= r.
    """
    a11, a12, a22 = ra
    t11, t12, t22 = rt
    x11, x22 = t11 - a11, t22 - a22
    fixed, r = (a12 + x22, t12 - a11) if side == "left" else (x11 + a12, t12 - a22)
    if x11 != -2 * x22 or fixed > t12:
        return frozenset()
    d = -x22
    hi, rem = divmod(r + d + 2, 3)  # the largest i with x12 <= r
    if fixed < t12:  # a forced corner: x12 == r
        return frozenset({Box(hi, hi - d)}) if rem == 0 and hi >= max(0, d) else frozenset()
    return frozenset(map(Box, range(max(0, d), hi + 1), range(max(0, -d), hi + 1 - d)))


def _recheck(ab: Box, found: frozenset[Box], rho_targets: list, side: str, s0) -> tuple:
    """verify_certificate's probes and preimage for a multiplier in box ab: a
    probe (k, s0, l) per found box, and the preimage, residuated from the
    target boxes' rho images, outside found."""
    ra, preimage = _rho(*ab), set()
    for rt in rho_targets:
        preimage |= _residuate(ra, rt, side)
    return [BRElem(k, s0, l) for k, l in found], preimage - found


@dataclass(frozen=True)
class BoundedCheck:
    """Outcome of a finiteness check over the one probe window, PROBE_BOUND
    as read when the check ran, which probe_bound records.

    A False result means refuted within the probe bound, never an
    unconditional falsehood; `note` spells the qualification out and
    `witnesses` lists offending boxes or indices from the outer probe region.
    """

    ok: bool
    probe_bound: int
    witnesses: tuple
    note: str

    def __bool__(self) -> bool:
        return self.ok


def _probe(u, structural, probes, refuted: str, clean: str) -> BoundedCheck:
    """A BasicZeroNbhd is answered structurally, with witnesses
    structural(u.excluded); a box predicate u(i, j) -> bool is refuted by the
    (witness, i, j) of the outer region `probes` where it is false, up to eight."""
    if isinstance(u, BasicZeroNbhd):
        return BoundedCheck(True, PROBE_BOUND, structural(u.excluded), "cofinite by construction")
    misses = tuple(islice((w for w, i, j in probes if not u(i, j)), 8))
    if misses:
        return BoundedCheck(False, PROBE_BOUND, misses, f"refuted within probe bound {PROBE_BOUND}: {refuted}")
    return BoundedCheck(True, PROBE_BOUND, (), clean)


def meets_almost_all_boxes(u) -> BoundedCheck:
    """Does the neighborhood intersect all but finitely many boxes?

    Structurally true for any BasicZeroNbhd.  A box predicate (i, j) -> bool
    is probed over the PROBE_BOUND window and refuted when it misses a box in
    the outer half, the region where the misses of a genuinely cofinite
    family probed with any sensible bound have run out.
    """
    half = PROBE_BOUND // 2
    outer = ((Box(i, j), i, j) for i in range(PROBE_BOUND) for j in range(PROBE_BOUND) if max(i, j) >= half)
    return _probe(u, lambda ex: (), outer, "misses reach the outer region",
                  f"no misses beyond {half} within probe bound {PROBE_BOUND}")


def row_exceptions_finite(u, i0: int) -> BoundedCheck:
    """Are there only finitely many j with box (i0, j) outside u?"""
    half = PROBE_BOUND // 2
    return _probe(u, lambda ex: tuple(sorted(b.l for b in ex if b.k == i0)),
                  ((j, i0, j) for j in range(half, PROBE_BOUND)),
                  f"row {i0} misses keep appearing", f"row {i0} misses stop before {half}")


def column_exceptions_finite(u, j0: int) -> BoundedCheck:
    """Mirror of row_exceptions_finite for a fixed second index."""
    half = PROBE_BOUND // 2
    return _probe(u, lambda ex: tuple(sorted(b.k for b in ex if b.l == j0)),
                  ((i, i, j0) for i in range(half, PROBE_BOUND)),
                  f"column {j0} misses keep appearing", f"column {j0} misses stop before {half}")


@dataclass(frozen=True)
class Classification:
    verdict: str  # "compact" or "isolated_zero"
    certificate: dict


def classify_descriptor(d: ZeroNbhdDescriptor) -> Classification:
    """Compactness dichotomy: box-complement bases give a compact space,
    an isolated zero gives a non-compact one."""
    if d.kind == ISOLATED:
        return Classification(
            verdict="isolated_zero",
            certificate={
                "scheme": "isolated_point",
                "statement": "the singleton of zero is itself a basic neighborhood, "
                "so the nonzero part is closed, discrete and infinite",
            },
        )
    return Classification(
        verdict="compact",
        certificate={
            "scheme": "finite_remainder",
            "statement": "every basic neighborhood of zero excludes finitely many "
            "boxes and each box is a finite set, so any basic cover of zero "
            "leaves a finite remainder of points",
        },
    )


def compactness_remainder(B: BRSystem, u: BasicZeroNbhd) -> list[BRElem]:
    """The finite remainder a basic neighborhood leaves: its excluded fibers."""
    return [
        BRElem(bx.k, s, bx.l) for bx in sorted(u.excluded) for s in B.sys.compiled.elements
    ]


def pushforward_descriptor(d: ZeroNbhdDescriptor) -> str:
    """What the index map does to each descriptor kind, named by the shape of
    the image structure on the bicyclic monoid with zero: box-complement
    bases map to the "cofinite" at zero base (boxes become single points),
    and an isolated zero stays isolated, giving the "discrete" structure."""
    return "cofinite" if d.kind == EXCLUDED_BOXES else "discrete"
