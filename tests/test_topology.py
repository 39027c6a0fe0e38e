import random

import pytest
from hypothesis import given, settings, strategies as st

from brext import topology
from brext.bicyclic import BicyclicElem
from brext.bruck_reilly import ZERO, Box, BRElem, box, brmul, format_elem
from brext.clifford import CliffordElement as CE
from brext.errors import MalformedDescriptor
from brext.topology import (
    EXCLUDED_BOXES_BASE,
    ISOLATED_ZERO,
    WHOLE_SPACE,
    BasicZeroNbhd,
    BoxFamily,
    box_solve,
    box_solve_brute,
    classify_descriptor,
    column_exceptions_finite,
    compactness_remainder,
    ContinuityCertificate,
    continuity_cert_zero,
    descriptor_from_obj,
    meets_almost_all_boxes,
    pullback_points,
    pushforward_basic,
    pushforward_descriptor,
    row_exceptions_finite,
    verify_certificate,
)
from brext.verify import suite_continuity

idx = st.integers(min_value=0, max_value=12)


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
def test_verify_certificate_matches_elementwise_oracle(c2c2, trivial, data):
    B = data.draw(st.sampled_from([c2c2, trivial]))
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
            x = BRElem(b.i, s, b.j)
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
    assert u.contains_box(0, 0)


def test_meets_almost_all_boxes():
    assert meets_almost_all_boxes(BasicZeroNbhd.excluding([(0, 0), (4, 7), (9, 9)]))
    assert meets_almost_all_boxes(WHOLE_SPACE)
    check = meets_almost_all_boxes(BoxFamily(lambda i, j: i == 0))
    assert not check
    assert "refuted within probe bound" in check.note
    assert check.witnesses


def test_row_and_column_exceptions():
    u = BasicZeroNbhd.excluding([(2, 5), (2, 7)])
    assert row_exceptions_finite(u, 2)
    assert row_exceptions_finite(u, 2).witnesses == (5, 7)
    assert row_exceptions_finite(u, 3)
    gone = BoxFamily(lambda i, j: i != 4)
    assert not row_exceptions_finite(gone, 4)
    assert row_exceptions_finite(gone, 0)
    assert not column_exceptions_finite(BoxFamily(lambda i, j: j != 1), 1)
    assert column_exceptions_finite(u, 5)


def test_classify_descriptors():
    c = classify_descriptor(ISOLATED_ZERO)
    assert c.verdict == "isolated_zero"
    c = classify_descriptor(EXCLUDED_BOXES_BASE)
    assert c.verdict == "compact"
    assert c.certificate["scheme"] == "finite_remainder"
    with pytest.raises(MalformedDescriptor):
        classify_descriptor({"kind": "open_sesame"})
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
    assert pushforward_descriptor(EXCLUDED_BOXES_BASE).kind == "cofinite"
    assert pushforward_descriptor(ISOLATED_ZERO).kind == "discrete"


def test_pushforward_basic_and_roundtrip():
    u = BasicZeroNbhd.excluding([(1, 2)])
    assert pushforward_basic(u) == {BicyclicElem(1, 2)}
    assert pullback_points(pushforward_basic(u)) == u
    assert pullback_points(pushforward_basic(WHOLE_SPACE)) == WHOLE_SPACE


@given(st.sets(st.tuples(idx, idx), max_size=5))
def test_pushforward_roundtrip_randomized(boxes):
    u = BasicZeroNbhd.excluding(boxes)
    assert pullback_points(pushforward_basic(u)) == u
