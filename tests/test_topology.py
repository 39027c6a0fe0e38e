import random
import re
import time
from dataclasses import astuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from brext import topology, verify
from brext.bicyclic import BicyclicElem
from brext.bruck_reilly import ZERO, Box, BRElem, box, brmul, format_elem, parse_elem, window_elements
from brext.clifford import CliffordElement as CE
from brext.errors import MalformedDescriptor
from brext.topology import (
    EXCLUDED_BOXES_BASE,
    ISOLATED_ZERO,
    BasicZeroNbhd,
    ZeroNbhdDescriptor,
    box_solve,
    box_solve_brute,
    classify_descriptor,
    column_exceptions_finite,
    compactness_remainder,
    ContinuityCertificate,
    continuity_cert_zero,
    continuity_certs,
    descriptor_from_obj,
    meets_almost_all_boxes,
    pushforward_descriptor,
    row_exceptions_finite,
    verify_certificate,
)
from brext.verify import suite_continuity
from conftest import plant

idx = st.integers(min_value=0, max_value=12)
WHOLE_SPACE = BasicZeroNbhd(frozenset())


def test_box_solve_unique_solution():
    assert box_solve(Box(2, 3), Box(4, 1), "left") == {Box(5, 1)}


def test_box_solve_no_solution():
    # products with left factor (1,2) never drop the first index below 1
    assert box_solve(Box(1, 2), Box(0, 0), "left") == frozenset()


def test_box_solve_diagonal_family():
    assert box_solve(Box(1, 2), Box(1, 5), "left") == {Box(0, 3), Box(1, 4), Box(2, 5)}


def test_box_solve_right_side():
    assert box_solve(Box(1, 2), Box(3, 2), "right") == {Box(2, 0), Box(3, 1)}
    assert box_solve(Box(1, 2), Box(0, 1), "right") == frozenset()


def test_box_solve_bad_side():
    with pytest.raises(ValueError):
        box_solve(Box(0, 0), Box(0, 0), "middle")


def test_certificates_reject_bad_side_before_any_work(c2c2):
    a = BRElem(1, CE(0, 0), 2)
    # the whole space excludes no box, so box_solve is never reached
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        continuity_cert_zero(c2c2, a, WHOLE_SPACE, "middle")
    with pytest.raises(ValueError, match="^side must be 'left' or 'right', not 'up'$"):
        continuity_certs(c2c2, [], BasicZeroNbhd.excluding([(2, 2)]), "up")  # no multiplier to check
    cert = continuity_cert_zero(c2c2, a, BasicZeroNbhd.excluding([(2, 2)]), "left")
    cert.side = "middle"
    with pytest.raises(ValueError, match="side must be 'left' or 'right'"):
        verify_certificate(c2c2, cert)


def residuate(a, t, side):
    """The certificate re-verification's route: max-plus residuation."""
    return topology._residuate(topology._rho(*a), t, side)


def test_box_solve_matches_brute_force_small():
    for a1 in range(5):
        for a2 in range(5):
            for t1 in range(5):
                for t2 in range(5):
                    for side in ("left", "right"):
                        a, t = Box(a1, a2), Box(t1, t2)
                        want = box_solve_brute(a, t, side)
                        assert box_solve(a, t, side) == want == residuate(a, t, side), (a, t, side)


@given(idx, idx, idx, idx, st.sampled_from(["left", "right"]))
def test_box_solve_matches_brute_force_randomized(a1, a2, t1, t2, side):
    a, t = Box(a1, a2), Box(t1, t2)
    assert box_solve(a, t, side) == box_solve_brute(a, t, side, bound=30) == residuate(a, t, side)


def test_residuation_at_a_huge_index():
    a, t = Box(10**12, 3), Box(10**12 + 5, 7)
    assert residuate(a, t, "left") == box_solve(a, t, "left") == {Box(8, 7)}


def test_solution_count_bound():
    for a1 in range(6):
        for a2 in range(6):
            for t1 in range(6):
                for t2 in range(6):
                    n = len(box_solve(Box(a1, a2), Box(t1, t2), "left"))
                    assert n <= a2 + 1


def test_continuity_certificate_worked_example(c2c2):
    a = BRElem(1, CE(0, 0), 2)
    target = BasicZeroNbhd.excluding([(1, 5)])
    cert = continuity_cert_zero(c2c2, a, target, "left")
    assert cert.found.excluded == {Box(0, 3), Box(1, 4), Box(2, 5)}
    assert cert.ok
    assert cert.trace[Box(1, 5)] == {Box(0, 3), Box(1, 4), Box(2, 5)}


def test_continuity_certificate_whole_space(c2c2):
    a = BRElem(2, CE(1, 1), 0)
    cert = continuity_cert_zero(c2c2, a, WHOLE_SPACE, "left")
    assert cert.found == WHOLE_SPACE
    assert cert.ok


def test_continuity_certificate_unreachable_target_box(c2c2):
    # nothing multiplied by (1, -, 2) on the left reaches box (0, 0)
    a = BRElem(1, CE(0, 0), 2)
    cert = continuity_cert_zero(c2c2, a, BasicZeroNbhd.excluding([(0, 0)]), "left")
    assert cert.found == WHOLE_SPACE
    assert cert.ok


def test_continuity_certificates_randomized(c2c2, trivial):
    rng = random.Random(5)
    for B in (c2c2, trivial):
        for _ in range(20):
            target = BasicZeroNbhd.excluding(
                (rng.randrange(8), rng.randrange(8)) for _ in range(rng.randint(0, 3))
            )
            lv = rng.randrange(len(B.sys.groups))
            a = BRElem(
                rng.randrange(3), CE(lv, rng.randrange(B.sys.group(lv).order)), rng.randrange(3)
            )
            side = rng.choice(["left", "right"])
            cert = continuity_cert_zero(B, a, target, side)
            assert cert.ok, cert.violations[:3]


def test_verify_certificate_catches_unsound_exclusion_sets(c2c2):
    a = BRElem(1, CE(0, 0), 2)
    target = BasicZeroNbhd.excluding([(1, 5)])
    fiber = [CE(0, 0), CE(0, 1), CE(1, 0), CE(1, 1)]
    # drop one needed exclusion: every element of box (2, 5) leaves the target
    cert = ContinuityCertificate(
        a=a, side="left", target=target,
        found=BasicZeroNbhd.excluding([(0, 3), (1, 4)]), trace={},
    )
    assert verify_certificate(c2c2, cert) == [
        f"(2,{lv}:{e},5) is in U but its product leaves the target" for lv, e in fiber
    ]
    # exclude one box too many: every element of box (2, 2) stays inside
    cert = ContinuityCertificate(
        a=a, side="left", target=target,
        found=BasicZeroNbhd.excluding([(0, 3), (1, 4), (2, 5), (2, 2)]), trace={},
    )
    assert verify_certificate(c2c2, cert) == [
        f"(2,{lv}:{e},2) was excluded but its product stays in the target" for lv, e in fiber
    ]


@pytest.mark.parametrize(
    "a,side,target,failing",
    [
        (BRElem(0, CE(0, 0), 5), "left", (5, 0), (10, 0)),
        (BRElem(5, CE(0, 0), 0), "right", (0, 5), (0, 10)),
        (BRElem(0, CE(1, 0), 0), "left", (0, 0), (0, 0)),
    ],
)
def test_verify_certificate_has_no_blind_spot(c2c2, a, side, target, failing):
    # the failing box lies twice the multiplier's index away from the target,
    # or is the corner box (0, 0) itself
    cert = ContinuityCertificate(
        a=a, side=side, target=BasicZeroNbhd.excluding([target]), found=WHOLE_SPACE, trace={},
    )
    assert verify_certificate(c2c2, cert) == [
        f"{format_elem(BRElem(failing[0], s, failing[1]))} is in U but its product leaves the target"
        for s in c2c2.sys.elements()
    ]


def test_certificates_reject_bad_multipliers(c2c2):
    cert = continuity_cert_zero(c2c2, BRElem(1, CE(0, 0), 2), WHOLE_SPACE, "left")
    for a, message in [(ZERO, "nonzero"), (BRElem(1, CE(0, 7), 1), r"\(0, 7\)")]:
        with pytest.raises(ValueError, match=message):
            continuity_cert_zero(c2c2, a, WHOLE_SPACE, "left")
        cert.a = a
        with pytest.raises(ValueError, match=message):
            verify_certificate(c2c2, cert)


def test_continuity_checks_each_multiplier_once(c2c2, monkeypatch):
    calls = []
    check = topology._check_multiplier
    monkeypatch.setattr(topology, "_check_multiplier", lambda *args: calls.append(args) or check(*args))
    result = suite_continuity(c2c2, 0)
    assert result.ok and result.checked == len(calls) == 3600


def off_by_one_box(part, brmul=brmul):
    """brmul with every product that has a factor of group part `part`
    landing one box lower: a fault in the products of some multipliers
    that leaves their box-mates' products alone."""
    def mul(B, x, y):
        p = brmul(B, x, y)
        return p._replace(i=p.i + 1) if part in (x.s, y.s) else p
    return mul


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_batched_certificates_equal_certificates_made_one_at_a_time(c2c2, trivial, s3c2, c4c2c2, data):
    # box-mates share their solutions, preimage and probes, but a faulty
    # product of one multiplier must show in its certificate alone
    B = data.draw(st.sampled_from([c2c2, trivial, s3c2, c4c2c2]))
    side = data.draw(st.sampled_from(["left", "right"]))
    target = BasicZeroNbhd.excluding(data.draw(st.sets(st.tuples(st.integers(0, 10), st.integers(0, 10)), max_size=3)))
    ms = data.draw(st.lists(st.sampled_from(window_elements(B, 3)), min_size=1, max_size=24))
    part = data.draw(st.sampled_from([None, *B.sys.compiled.elements]))
    # topology's binding, the one both continuity_certs and continuity_cert_zero read
    with mock.patch.object(topology, "brmul", off_by_one_box(part) if part else brmul):
        got = continuity_certs(B, ms, target, side)
        want = [continuity_cert_zero(B, a, target, side) for a in ms]
    assert [astuple(c) for c in got] == [astuple(c) for c in want]
    assert [c.a for c in got] == ms and all(c.side == side and c.target is target for c in got)


def test_continuity_multiplies_by_each_multiplier_not_one_per_box(c2c2, monkeypatch):
    # with products by one group part one box off, the suite fails, and
    # only on multipliers of that part: none of their box-mates
    part = CE(1, 1)
    plant(monkeypatch, "brmul", lambda brmul: off_by_one_box(part, brmul))
    result = suite_continuity(c2c2, 0)
    assert not result.ok
    named = {re.match(r"certificate for a=(\S+), side=", v)[1] for v in result.violations}
    assert {parse_elem(a).s for a in named} == {part}
    assert len({box(parse_elem(a)) for a in named}) > 1


def test_continuity_takes_one_product_per_found_box_and_solves_once_per_box(c2c2, trivial, monkeypatch):
    products, solves, batches = [], [], []
    batch = verify.continuity_certs

    def recorded(*args):
        batches.append(batch(*args))
        return batches[-1]

    monkeypatch.setattr(topology, "brmul", lambda *args: products.append(None) or brmul(*args))
    monkeypatch.setattr(topology, "box_solve", lambda *args: solves.append(None) or box_solve(*args))
    monkeypatch.setattr(verify, "continuity_certs", recorded)
    assert suite_continuity(c2c2, 0).ok and suite_continuity(trivial, 0).ok
    assert len(products) == sum(len(c.found.excluded) for certs in batches for c in certs) == 6435
    assert len(solves) == sum(len({box(c.a) for c in certs}) * len(certs[0].target.excluded) for certs in batches)


@st.composite
def certificates(draw, B):
    """A multiplier, a side and a target, with the box_solve exclusions
    or a set one box off from them."""
    small = st.integers(0, 6)
    lv = draw(st.integers(0, len(B.sys.groups) - 1))
    a = BRElem(draw(small), CE(lv, draw(st.integers(0, B.sys.group(lv).order - 1))), draw(small))
    side = draw(st.sampled_from(["left", "right"]))
    boxes = st.tuples(st.integers(0, 8), st.integers(0, 8))
    target = BasicZeroNbhd.excluding(draw(st.sets(boxes, max_size=3)))
    found = set().union(*(box_solve(box(a), w, side) for w in target.excluded))
    change = draw(st.sampled_from(["none", "drop", "add"]))
    if change == "drop" and found:
        found.discard(draw(st.sampled_from(sorted(found))))
    elif change == "add":
        found.add(Box(*draw(boxes)))
    return ContinuityCertificate(
        a=a, side=side, target=target, found=BasicZeroNbhd.excluding(found), trace={}
    )


def brute_violations(B, cert):
    """Every element of every box in [0, N]^2, N = 2 * largest index + 2,
    multiplied with brmul alone."""
    found, target = cert.found.excluded, cert.target.excluded
    n = 2 * max([cert.a.i, cert.a.j, *(k for bx in found | target for k in bx)]) + 2
    bad = []
    for i in range(n + 1):
        for j in range(n + 1):
            for s in B.sys.elements():
                x = BRElem(i, s, j)
                p = brmul(B, cert.a, x) if cert.side == "left" else brmul(B, x, cert.a)
                if (box(p) in target) != (Box(i, j) in found):
                    bad.append(
                        f"{format_elem(x)} was excluded but its product stays in the target"
                        if Box(i, j) in found
                        else f"{format_elem(x)} is in U but its product leaves the target"
                    )
    return bad


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.data())
def test_verify_certificate_matches_elementwise_oracle(c2c2, trivial, s3c2, data):
    # s3c2 adds a non-abelian T, eight group parts walked per failing box
    B = data.draw(st.sampled_from([c2c2, trivial, s3c2]))
    cert = data.draw(certificates(B))
    assert verify_certificate(B, cert) == brute_violations(B, cert)


def test_verify_certificate_finds_a_tall_failing_box(c2c2):
    # a wide target row (0, 8), then a target six rows down at (6, 2): the
    # one box it must exclude lies in a column the first never needed
    a = BRElem(0, CE(1, 1), 0)
    assert continuity_cert_zero(c2c2, a, BasicZeroNbhd.excluding([(0, 8)]), "left").ok
    tall = ContinuityCertificate(
        a=a, side="left", target=BasicZeroNbhd.excluding([(6, 2)]), found=WHOLE_SPACE, trace={},
    )
    assert verify_certificate(c2c2, tall) == [
        f"{format_elem(BRElem(6, s, 2))} is in U but its product leaves the target" for s in c2c2.sys.elements()
    ]


def large_index_certificate(B, n, side):
    """Multiplier (n, 0:0, n) and three target boxes, one with n + 1 solutions."""
    target = BasicZeroNbhd.excluding([(n, n + 1), (2 * n, n), (n + 3, 2 * n)])
    return continuity_cert_zero(B, BRElem(n, CE(0, 0), n), target, side)


@pytest.mark.parametrize("side", ["left", "right"])
def test_large_index_certificates(c2c2, side):
    # re-verification solves each target box's preimage by max-plus
    # residuation, so its cost follows the certificate's size (515 boxes at
    # n = 512), not the area under the target corners
    t0 = time.perf_counter()
    cert = large_index_certificate(c2c2, 512, side)
    assert cert.ok and len(cert.found.excluded) == 512 + 3
    assert time.perf_counter() - t0 < 5  # both sides within 10 s
    n = 256
    cert = large_index_certificate(c2c2, n, side)
    found, target = cert.found.excluded, cert.target.excluded
    assert cert.ok
    assert found == set().union(*(box_solve(box(cert.a), w, side) for w in target))
    assert len(found) == n + 3
    # drop one needed box and add a stray one: exactly those two fibers fail
    dropped, stray = sorted(found)[n // 2], Box(3 * n, 1)
    bad = ContinuityCertificate(
        a=cert.a, side=side, target=cert.target,
        found=BasicZeroNbhd(found - {dropped} | {stray}), trace={},
    )
    want = []
    for b in sorted([dropped, stray]):
        for s in c2c2.sys.elements():
            x = BRElem(b.k, s, b.l)
            p = brmul(c2c2, cert.a, x) if side == "left" else brmul(c2c2, x, cert.a)
            if (box(p) in target) != (b == stray):
                want.append(f"{format_elem(x)} was excluded but its product stays in the target" if b == stray
                            else f"{format_elem(x)} is in U but its product leaves the target")
    assert len(want) == 2 * len(list(c2c2.sys.elements()))
    assert verify_certificate(c2c2, bad) == want


def test_membership_is_box_lookup(c2c2):
    u = BasicZeroNbhd.excluding([(1, 2)])
    assert u.contains(ZERO)
    assert not u.contains(BRElem(1, CE(0, 1), 2))
    assert u.contains(BRElem(2, CE(0, 1), 1))
    assert u.contains(BRElem(0, CE(1, 0), 0))


def test_meets_almost_all_boxes():
    assert meets_almost_all_boxes(BasicZeroNbhd.excluding([(0, 0), (4, 7), (9, 9)]))
    assert meets_almost_all_boxes(WHOLE_SPACE)
    check = meets_almost_all_boxes(lambda i, j: i == 0)
    assert not check
    assert "refuted within probe bound" in check.note
    assert check.witnesses


def test_row_and_column_exceptions():
    u = BasicZeroNbhd.excluding([(2, 5), (2, 7)])
    assert row_exceptions_finite(u, 2)
    assert row_exceptions_finite(u, 2).witnesses == (5, 7)
    assert row_exceptions_finite(u, 3)
    gone = lambda i, j: i != 4
    assert not row_exceptions_finite(gone, 4)
    assert row_exceptions_finite(gone, 0)
    assert not column_exceptions_finite(lambda i, j: j != 1, 1)
    assert column_exceptions_finite(u, 5)


REFUTED_FAMILIES = [
    (meets_almost_all_boxes, lambda i, j: i == 0,
     lambda pred, pb: [Box(i, j) for i in range(pb) for j in range(pb) if max(i, j) >= pb // 2 and not pred(i, j)]),
    (lambda u, pb: row_exceptions_finite(u, 4, pb), lambda i, j: i != 4,
     lambda pred, pb: [j for j in range(pb // 2, pb) if not pred(4, j)]),
    (lambda u, pb: column_exceptions_finite(u, 1, pb), lambda i, j: j != 1,
     lambda pred, pb: [i for i in range(pb // 2, pb) if not pred(i, 1)]),
]


@pytest.mark.parametrize("check, pred, scan", REFUTED_FAMILIES)
def test_a_refuted_family_stops_at_its_eighth_witness(check, pred, scan):
    calls = []

    def counted(i, j):
        calls.append(None)
        if len(calls) > 10**4:
            pytest.fail("more predicate calls than the probe bound")
        return pred(i, j)

    assert not check(counted, 10**4)
    result = check(pred, 64)
    assert not result and result.witnesses == tuple(scan(pred, 64)[:8])
    assert len(scan(pred, 64)) > 8


def test_classify_descriptors():
    c = classify_descriptor(ISOLATED_ZERO)
    assert c.verdict == "isolated_zero"
    c = classify_descriptor(EXCLUDED_BOXES_BASE)
    assert c.verdict == "compact"
    assert c.certificate["scheme"] == "finite_remainder"
    with pytest.raises(MalformedDescriptor, match="^unknown descriptor kind 'open_sesame'$"):
        descriptor_from_obj({"kind": "open_sesame"})
    with pytest.raises(MalformedDescriptor, match="^unknown descriptor kind 'open_sesame'$"):
        ZeroNbhdDescriptor("open_sesame")
    with pytest.raises(MalformedDescriptor):
        descriptor_from_obj({"kind": "excluded_boxes", "extra": 1})
    with pytest.raises(MalformedDescriptor):
        descriptor_from_obj("excluded_boxes")


def test_compactness_remainder_is_the_excluded_fibers(c2c2):
    u = BasicZeroNbhd.excluding([(0, 0), (3, 1)])
    rem = compactness_remainder(c2c2, u)
    assert len(rem) == 2 * c2c2.sys.order()
    assert all(not u.contains(x) for x in rem)
    assert len(compactness_remainder(c2c2, WHOLE_SPACE)) == 0


def test_pushforward_descriptor_kinds():
    assert pushforward_descriptor(EXCLUDED_BOXES_BASE) == "cofinite"
    assert pushforward_descriptor(ISOLATED_ZERO) == "discrete"


@pytest.mark.parametrize("pair", [(2.7, 1), (True, 2), (1, False), (-1, 0), (0, -3), ("1", 2)])
def test_excluding_refuses_a_pair_that_is_not_a_box(pair):
    # int() would coerce a float, a bool or a digit string, and a negative
    # index names no box; (True, 2) is refused also after the box (1, 2)
    # that it equals
    for boxes in ([pair], [(1, 2), pair]):
        with pytest.raises(ValueError, match=re.escape(f"not a box: ({pair[0]!r}, {pair[1]!r})")):
            BasicZeroNbhd.excluding(boxes)


def test_a_basics_image_excludes_its_pairs_and_pulls_back_to_it():
    # a box is the bicyclic pair that the index map sends it to
    u = BasicZeroNbhd.excluding([(1, 2)])
    assert u.excluded == {BicyclicElem(1, 2)}
    assert BasicZeroNbhd.excluding(u.excluded) == u
    assert BasicZeroNbhd.excluding(WHOLE_SPACE.excluded) == WHOLE_SPACE


@given(st.sets(st.tuples(idx, idx), max_size=5))
def test_pushforward_roundtrip_randomized(boxes):
    u = BasicZeroNbhd.excluding(boxes)
    assert BasicZeroNbhd.excluding(u.excluded) == u
