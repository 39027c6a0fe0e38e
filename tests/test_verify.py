import pytest

from brext import verify
from brext.bicyclic import BicyclicElem, ZERO, oracle_mul
from brext.bruck_reilly import brmul, brmul_rows, parse_elem
from brext.clifford import CliffordElement
from brext.verify import SuiteResult, run_all

C2C2_SUITES = [
    "structure",
    "associativity",
    "inverse_axioms",
    "eta_homomorphism",
    "eta_congruence",
    "idempotent_chain",
    "nat_order",
    "hclass",
    "simplicity",
    "zero_divisors",
    "bicyclic_axioms",
    "bicyclic_oracle",
    "box_solver",
    "continuity",
    "zero_nbhd_checks",
    "descriptor_classification",
    "pushforward_roundtrip",
]


@pytest.fixture(scope="module")
def c2c2_results(c2c2):
    return run_all(c2c2, window=2)


def test_suite_lineup_for_c2c2(c2c2_results):
    results = c2c2_results
    assert [r.suite for r in results] == C2C2_SUITES
    assert all(r.ok for r in results), [(r.suite, r.violations[:2]) for r in results if not r.ok]
    assert all(r.checked > 0 for r in results)


def test_trivial_system_gets_the_isomorphism_suite(trivial):
    results = run_all(trivial, window=2)
    assert [r.suite for r in results] == C2C2_SUITES + ["bicyclic_isomorphism"]
    assert all(r.ok for r in results)


def test_zero_divisor_suite_only_when_zero_adjoined(c2c2):
    from dataclasses import replace

    results = run_all(replace(c2c2, with_zero=False), window=2)
    names = [r.suite for r in results]
    assert "zero_divisors" not in names
    assert len(names) == len(C2C2_SUITES) - 1


def test_record_shape_and_truncation():
    r = SuiteResult("demo", "sys", {"window": 2}, checked=40, violations=[])
    rec = r.record()
    assert rec == {
        "op": "verify",
        "suite": "demo",
        "system": "sys",
        "params": {"window": 2},
        "checked": 40,
        "ok": True,
        "violations": [],
    }
    noisy = SuiteResult("demo", "sys", {}, 40, [f"bad {i}" for i in range(20)])
    rec = noisy.record()
    assert not noisy.ok
    assert len(rec["violations"]) == 13
    assert rec["violations"][-1] == "... 8 more"


def test_seed_changes_sampled_suites_but_not_verdicts(c2c2, c2c2_results):
    b = run_all(c2c2, window=2, seed=99)
    assert all(r.ok for r in b)
    pa = {r.suite: r.params for r in c2c2_results}
    pb = {r.suite: r.params for r in b}
    assert pa["simplicity"]["seed"] == 0 and pb["simplicity"]["seed"] == 99


def test_window_is_recorded_in_params(c2c2_results):
    results = {r.suite: r for r in c2c2_results}
    assert results["associativity"].params == {"window": 2}
    assert results["associativity"].checked == (2 * 2 * 4) ** 3
    assert results["bicyclic_oracle"].params == {"max_index": 8}


def _corrupt(pair, change):
    """brmul and brmul_rows with the single product pair[0] * pair[1]
    changed, in every row it appears in."""
    x0, y0 = map(parse_elem, pair)

    def mul(B, x, y):
        p = brmul(B, x, y)
        return change(p) if (x, y) == (x0, y0) else p

    def rows(B, xs, ys):
        for x, row in zip(xs, brmul_rows(B, xs, ys)):
            yield [change(p) if (x, y) == (x0, y0) else p for y, p in zip(ys, row)]

    return mul, rows


def _flip_group(p):
    return p._replace(s=CliffordElement(p.s.level, 1 - p.s.elem))


def _shift_index(p):
    return p._replace(i=p.i + 1)


# One corrupted product per window suite: an index change for the eta
# suites, a group-part change for the others.  Associativity has a second
# case, at window 2, whose corrupted product is one of the (x*y)*z with
# x*y outside the window.
CORRUPTIONS = [
    ("associativity", 1, ("(0,0:1,0)", "(0,1:1,0)"), _flip_group, [
        "((0,0:1,0)*(0,0:1,0))*(0,1:0,0) != (0,0:1,0)*((0,0:1,0)*(0,1:0,0))",
        "((0,0:1,0)*(0,1:0,0))*(0,0:1,0) != (0,0:1,0)*((0,1:0,0)*(0,0:1,0))",
        "((0,0:1,0)*(0,1:0,0))*(0,1:1,0) != (0,0:1,0)*((0,1:0,0)*(0,1:1,0))",
        "((0,0:1,0)*(0,1:1,0))*(0,0:1,0) != (0,0:1,0)*((0,1:1,0)*(0,0:1,0))",
        "((0,0:1,0)*(0,1:1,0))*(0,1:1,0) != (0,0:1,0)*((0,1:1,0)*(0,1:1,0))",
        "((0,1:0,0)*(0,0:1,0))*(0,1:1,0) != (0,1:0,0)*((0,0:1,0)*(0,1:1,0))",
        "((0,1:1,0)*(0,0:1,0))*(0,1:1,0) != (0,1:1,0)*((0,0:1,0)*(0,1:1,0))",
    ]),
    ("inverse_axioms", 2, ("(0,0:1,1)", "(1,0:1,0)"), _flip_group, [
        "inverse axioms fail for (0,0:1,1)",
        "inverse axioms fail for (1,0:1,0)",
    ]),
    ("eta_homomorphism", 2, ("(0,0:1,1)", "(1,1:0,0)"), _shift_index, [
        "eta breaks at (0,0:1,1), (1,1:0,0)",
    ]),
    ("eta_congruence", 2, ("(0,0:1,1)", "(1,1:0,0)"), _shift_index, [
        "product box of (0, 1)*(1, 0) not constant: [(0, 0), (1, 0)]",
    ]),
    ("idempotent_chain", 2, ("(1,0:0,1)", "(1,1:0,1)"), _flip_group, [
        "window 2: (1,1:0,1) not strictly below (1,0:0,1)",
    ]),
    ("nat_order", 2, ("(0,0:1,1)", "(1,0:0,1)"), _flip_group, [
        "closed form says False for (0,0:0,1) <= (0,0:1,1)",
        "closed form says True for (0,0:1,1) <= (0,0:1,1)",
    ]),
    ("hclass", 2, ("(1,1:1,0)", "(0,1:1,1)"), _flip_group, [
        "H-class mismatch at (0,1:0,1)",
        "H-class mismatch at (0,1:1,1)",
        "H-class mismatch at (1,1:0,0)",
        "H-class mismatch at (1,1:1,0)",
    ]),
    pytest.param("associativity", 2, ("(2,1:1,0)", "(1,0:1,0)"), _flip_group, [
        "((1,0:0,0)*(1,1:1,0))*(1,0:1,0) != (1,0:0,0)*((1,1:1,0)*(1,0:1,0))",
        "((1,0:1,0)*(1,1:0,0))*(1,0:1,0) != (1,0:1,0)*((1,1:0,0)*(1,0:1,0))",
        "((1,1:0,0)*(1,1:1,0))*(1,0:1,0) != (1,1:0,0)*((1,1:1,0)*(1,0:1,0))",
        "((1,1:1,0)*(1,1:0,0))*(1,0:1,0) != (1,1:1,0)*((1,1:0,0)*(1,0:1,0))",
    ], id="associativity-product-outside-window"),
]


@pytest.mark.parametrize(
    "suite,arg,pair,change,expected", CORRUPTIONS, ids=[getattr(c, "id", c[0]) for c in CORRUPTIONS]
)
def test_window_suite_reports_a_corrupted_product(c2c2, monkeypatch, suite, arg, pair, change, expected):
    mul, rows = _corrupt(pair, change)
    monkeypatch.setattr(verify, "brmul", mul)
    monkeypatch.setattr(verify, "brmul_rows", rows)
    assert getattr(verify, f"suite_{suite}")(c2c2, arg).violations == expected


def _bmul_mutant(d):
    """bmul with the cancelled index min(x.l, y.k) replaced by d(x, y)."""
    def mul(x, y):
        e = d(x, y)
        return BicyclicElem(x.k + y.k - e, x.l + y.l - e)
    return mul


BMUL_MUTANTS = {
    "min-to-max": _bmul_mutant(lambda x, y: max(x.l, y.k)),
    "swapped-index": _bmul_mutant(lambda x, y: min(x.k, y.k)),
    "off-by-one": _bmul_mutant(lambda x, y: min(x.l, y.k) - 1),
}


@pytest.mark.parametrize("name", BMUL_MUTANTS)
def test_bicyclic_oracle_catches_bmul_mutants(monkeypatch, name):
    mutant = BMUL_MUTANTS[name]
    r = range(5)
    elems = [BicyclicElem(k, l) for k in r for l in r]
    wrong = [
        f"({x.k},{x.l})*({y.k},{y.l}) disagrees"
        for x in elems
        for y in elems
        if mutant(x, y) != oracle_mul(x, y)
    ]
    assert wrong
    monkeypatch.setattr(verify, "bmul", mutant)
    result = verify.suite_bicyclic_oracle("mutant", 4)
    assert result.violations == wrong
    assert result.checked == 5 ** 4


@pytest.mark.parametrize("name", BMUL_MUTANTS)
def test_box_solver_catches_bmul_mutants(monkeypatch, name):
    # the brute scan multiplies through verify.bmul, not an inlined formula
    monkeypatch.setattr(verify, "bmul", BMUL_MUTANTS[name])
    assert verify.suite_box_solver("mutant", 4).violations


def test_associativity_on_a_one_element_window(trivial):
    result = verify.suite_associativity(trivial, 1)
    assert (result.checked, result.violations) == (1, [])


def test_bicyclic_oracle_reports_products_outside_the_table(monkeypatch):
    real = verify.bmul
    odd = {
        (BicyclicElem(1, 2), BicyclicElem(3, 0)): BicyclicElem(9, 0),
        (BicyclicElem(2, 2), BicyclicElem(0, 1)): BicyclicElem(2, 9),
        (BicyclicElem(3, 3), BicyclicElem(3, 3)): ZERO,
        (BicyclicElem(4, 0), BicyclicElem(0, 4)): None,
    }
    monkeypatch.setattr(verify, "bmul", lambda x, y: odd[x, y] if (x, y) in odd else real(x, y))
    result = verify.suite_bicyclic_oracle("mutant", 4)
    assert result.violations == [
        "(1,2)*(3,0) disagrees",
        "(2,2)*(0,1) disagrees",
        "(3,3)*(3,3) disagrees",
        "(4,0)*(0,4) disagrees",
    ]
