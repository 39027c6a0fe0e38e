import pytest

from brext import bruck_reilly, verify
from brext.bicyclic import BicyclicElem, ZERO, bmul, oracle_mul
from brext.bruck_reilly import BRSystem, brmul_ids, decode, encode, eta, format_elem, parse_elem, window_elements
from brext.clifford import CliffordElement
from brext.verify import SuiteResult, run_all
from test_clifford import make_c12_c6_c3

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
    """brmul_ids with the single product pair[0] * pair[1] changed, in every
    row it appears in."""
    x0, y0 = map(parse_elem, pair)

    def rows(B, xs, ys):
        for x, row in zip(xs, brmul_ids(B, xs, ys)):
            yield [encode(B, change(decode(B, p))) if (x, y) == (x0, y0) else p for y, p in zip(ys, row)]

    return rows


def _patch_kernel(monkeypatch, rows):
    """Bind rows as the id kernel wherever the suites and the window
    builder look it up."""
    for module in (bruck_reilly, verify):
        monkeypatch.setattr(module, "brmul_ids", rows)


def _flip_group(p):
    return p._replace(s=CliffordElement(p.s.level, 1 - p.s.elem))


def _shift_index(p):
    return p._replace(i=p.i + 1)


# One corrupted product per window suite: an index change for the eta
# suites, a group-part change for the others.  Associativity has a second
# case, at window 2, whose corrupted product is one of the (x*y)*z with
# x*y outside the window; idempotent_chain has one for each of hi*lo and
# lo*hi, the two products it reads per pair.
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
    pytest.param("idempotent_chain", 2, ("(1,1:0,1)", "(1,0:0,1)"), _flip_group, [
        "window 2: (1,1:0,1) not strictly below (1,0:0,1)",
    ], id="idempotent_chain-lo-times-hi"),
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
    _patch_kernel(monkeypatch, _corrupt(pair, change))
    assert getattr(verify, f"suite_{suite}")(c2c2, arg).violations == expected


def test_idempotent_chain_reports_a_window_that_is_not_a_prefix_of_the_longest(c2c2, monkeypatch):
    real = verify.idempotents_window
    monkeypatch.setattr(verify, "idempotents_window", lambda B, n: real(B, n)[::-1] if n == 1 else real(B, n))
    assert verify.suite_idempotent_chain(c2c2, 2).violations == ["window 1: not a prefix of window 2"]


def test_a_cached_window_cannot_hide_a_patched_kernel(c2c2, monkeypatch):
    # c2c2 is session-scoped: compile its window with the real kernel first
    _, arg, pair, change, expected = CORRUPTIONS[0]
    assert verify.suite_associativity(c2c2, arg).ok
    cached = c2c2.window(arg)
    _patch_kernel(monkeypatch, _corrupt(pair, change))
    assert verify.suite_associativity(c2c2, arg).violations == expected
    assert c2c2.window(arg) is not cached
    monkeypatch.undo()
    assert c2c2.window(arg) is cached
    assert verify.suite_associativity(c2c2, arg).ok


def _bmul_mutant(d):
    """bmul with the cancelled index min(x.l, y.k) replaced by d(x, y)."""
    def mul(x, y):
        e = d(x, y)
        return BicyclicElem(x.k + y.k - e, x.l + y.l - e)
    return mul


def _rows(mul):
    """bmul_rows built from a pairwise product."""
    return lambda xs, ys: ([mul(x, y) for y in ys] for x in xs)


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
    monkeypatch.setattr(verify, "bmul_rows", _rows(mutant))
    result = verify.suite_bicyclic_oracle("mutant", 4)
    assert result.violations == wrong
    assert result.checked == 5 ** 4


@pytest.mark.parametrize("name", BMUL_MUTANTS)
def test_box_solver_catches_bmul_mutants(monkeypatch, name):
    # the brute scan multiplies through verify.bmul_rows, not an inlined formula
    monkeypatch.setattr(verify, "bmul_rows", _rows(BMUL_MUTANTS[name]))
    assert verify.suite_box_solver("mutant", 4).violations


@pytest.mark.parametrize("name", BMUL_MUTANTS)
def test_eta_homomorphism_catches_bmul_mutants(c2c2, monkeypatch, name):
    mutant = BMUL_MUTANTS[name]
    elems = window_elements(c2c2, 2)
    wrong = [
        f"eta breaks at {format_elem(x)}, {format_elem(y)}"
        for x in elems
        for y in elems
        if mutant(eta(x), eta(y)) != bmul(eta(x), eta(y))
    ]
    assert wrong
    monkeypatch.setattr(verify, "bmul_rows", _rows(mutant))
    result = verify.suite_eta_homomorphism(c2c2, 2)
    assert result.violations == wrong
    assert result.checked == len(elems) ** 2


def test_box_solver_bound_sees_every_solution():
    result = verify.suite_box_solver("bicyclic", 6)
    assert result.ok and result.params["brute_bound"] == 20


@pytest.mark.parametrize("window", [6, 8])
@pytest.mark.parametrize("system", ["c2c2", "trivial"])
def test_verify_all_passes_past_the_golden_window(request, system, window):
    results = {r.suite: r for r in run_all(request.getfixturevalue(system), window=window)}
    assert all(r.ok for r in results.values()), [(n, r.violations[:2]) for n, r in results.items() if not r.ok]
    assert results["box_solver"].params == {"max_index": 2 * window, "brute_bound": 4 * window}


@pytest.mark.parametrize("system", ["c2c2", "trivial", "chain3"])
def test_window_suites_check_what_their_closed_forms_predict(request, system):
    if system == "chain3":
        B = BRSystem(sys=make_c12_c6_c3(), with_zero=True, name="chain3")
    else:
        B = request.getfixturevalue(system)
    suites = ["associativity", "inverse_axioms", "eta_homomorphism", "eta_congruence", "nat_order", "hclass",
              "zero_divisors"]
    for window in range(1, 5):
        for suite in suites:
            result = getattr(verify, f"suite_{suite}")(B, window)
            assert result.checked == verify.predicted_checked(B, suite, window), (suite, window)
        # the system-free suites at the arguments run_all gives them
        for suite, arg in (("bicyclic_axioms", 6), ("bicyclic_oracle", 4 * window), ("box_solver", 2 * window)):
            result = getattr(verify, f"suite_{suite}")(B.name, arg)
            assert result.checked == verify.predicted_checked(B, suite, arg), (suite, arg)
    for max_window in range(1, 9):
        result = verify.suite_idempotent_chain(B, max_window)
        assert result.checked == verify.predicted_checked(B, "idempotent_chain", max_window), max_window


def test_associativity_on_a_one_element_window(trivial):
    result = verify.suite_associativity(trivial, 1)
    assert (result.checked, result.violations) == (1, [])


def test_bicyclic_oracle_reports_products_outside_the_table(monkeypatch):
    odd = {
        (BicyclicElem(1, 2), BicyclicElem(3, 0)): BicyclicElem(9, 0),
        (BicyclicElem(2, 2), BicyclicElem(0, 1)): BicyclicElem(2, 9),
        (BicyclicElem(3, 3), BicyclicElem(3, 3)): ZERO,
        (BicyclicElem(4, 0), BicyclicElem(0, 4)): None,
    }
    monkeypatch.setattr(verify, "bmul_rows", _rows(lambda x, y: odd[x, y] if (x, y) in odd else bmul(x, y)))
    result = verify.suite_bicyclic_oracle("mutant", 4)
    assert result.violations == [
        "(1,2)*(3,0) disagrees",
        "(2,2)*(0,1) disagrees",
        "(3,3)*(3,3) disagrees",
        "(4,0)*(0,4) disagrees",
    ]
