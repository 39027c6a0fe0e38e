from dataclasses import replace

import pytest

from brext import bruck_reilly, clifford, groups, topology, verify
from brext.bicyclic import BicyclicElem, ZERO, bmul, rho_table
from brext.bruck_reilly import BRElem, BRSystem, brmul_ids, decode, encode, eta, format_elem, parse_elem, window_elements
from brext.clifford import CliffordElement, CliffordSystem, cmul_oracle, theta_pow, theta_pow_oracle
from brext.config import data_path, load_system
from brext.verify import SUITES, SuiteResult, run_all
from conftest import FIXTURES
from test_bicyclic import oracle_mul
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

    def rows(B, xs, ys, n):
        for x, row in zip(xs, brmul_ids(B, xs, ys, n)):
            yield [encode(B, change(decode(B, p, n)), n) if (x, y) == (x0, y0) else p for y, p in zip(ys, row)]

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


def test_idempotent_chain_reports_a_refused_window_and_checks_the_others(c2c2, monkeypatch):
    # lo*hi at index 2 is wrong, so idempotents_window refuses windows 3 and
    # 4; windows 1 and 2 still pass their length and prefix checks
    _patch_kernel(monkeypatch, _corrupt(("(2,1:0,2)", "(2,0:0,2)"), _flip_group))
    result = verify.suite_idempotent_chain(c2c2, 4)
    assert result.violations == [
        "window 3: (2,1:0,2) not strictly below (2,0:0,2)",
        "window 4: (2,1:0,2) not strictly below (2,0:0,2)",
    ]
    assert result.checked == 1 + 6 + 15 + 28
    suite = next(s for s in SUITES if s.name == "idempotent_chain")
    assert verify.suite_idempotent_chain(c2c2, 8).checked == suite.checked(c2c2, 3)


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


def _code(p, n):
    """bmul_codes' code of p at width n; a second index outside 0..n-1, which
    the real kernel refuses by its width check, gets -2, the code of no pair."""
    return -1 if p is ZERO else p.k * n + p.l if 0 <= p.l < n else -2


def _codes(mul):
    """bmul_codes built from a pairwise product."""
    return lambda xs, ys, n: ([_code(mul(x, y), n) for y in ys] for x in xs)


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
    monkeypatch.setattr(verify, "bmul_codes", _codes(mutant))
    result = verify.suite_bicyclic_oracle("mutant", 4)
    assert result.violations == wrong
    assert result.checked == 5 ** 4


@pytest.mark.parametrize("name", BMUL_MUTANTS)
def test_bicyclic_axioms_catches_bmul_mutants(monkeypatch, name):
    mul = BMUL_MUTANTS[name]
    r = range(7)
    elems = [BicyclicElem(k, l) for k in r for l in r]
    wrong = []
    for x in elems:
        xi = BicyclicElem(x.l, x.k)
        if (mul(x, x) == x) != (x.k == x.l):
            wrong.append(f"idempotency miscounts at ({x.k},{x.l})")
        if mul(mul(x, xi), x) != x or mul(mul(xi, x), xi) != xi:
            wrong.append(f"inverse axioms fail at ({x.k},{x.l})")
    for k in r:
        for m in r:
            e, f = BicyclicElem(k, k), BicyclicElem(m, m)
            if (mul(e, f) == e and mul(f, e) == e) != (k >= m):
                wrong.append(f"idempotent order wrong at ({k},{k}) vs ({m},{m})")
    wrong += [
        f"second inverse ({y.k},{y.l}) for ({x.k},{x.l})"
        for x in elems
        for y in elems
        if mul(mul(x, y), x) == x and mul(mul(y, x), y) == y and y != (x.l, x.k)
    ]
    assert wrong
    monkeypatch.setattr(verify, "bmul_codes", _codes(mul))
    result = verify.suite_bicyclic_axioms("mutant", 6)
    assert result.violations == wrong
    assert result.checked == len(elems) ** 2


@pytest.mark.parametrize("name", BMUL_MUTANTS)
def test_box_solver_catches_bmul_mutants(monkeypatch, name):
    # the brute scan multiplies through verify.bmul_codes, not an inlined formula
    monkeypatch.setattr(verify, "bmul_codes", _codes(BMUL_MUTANTS[name]))
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
    monkeypatch.setattr(verify, "bmul_codes", _codes(mutant))
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


@pytest.mark.parametrize("system", ["c2c2", "trivial", "chain3", "c2c2_without_zero"])
def test_window_suites_check_what_their_closed_forms_predict(request, c2c2, system):
    if system == "chain3":
        B = BRSystem(sys=make_c12_c6_c3(), with_zero=True, name="chain3")
    elif system == "c2c2_without_zero":
        B = replace(c2c2, with_zero=False)
    else:
        B = request.getfixturevalue(system)
    for window in range(1, 5):
        for suite in SUITES:
            if suite.applies(B):
                assert suite.run(B, window, 0, 64).checked == suite.checked(B, window), (suite.name, window)


def test_run_all_runs_the_suite_bound_on_the_module_at_call_time(c2c2, monkeypatch):
    marker = SuiteResult("hclass", "marker", {}, 0, [])
    monkeypatch.setattr(verify, "suite_hclass", lambda B, window: marker)
    results = run_all(c2c2, window=1)
    assert results[C2C2_SUITES.index("hclass")] is marker
    assert [r.suite for r in results] == C2C2_SUITES == [s.name for s in SUITES if s.applies(c2c2)]


def test_associativity_on_a_one_element_window(trivial):
    result = verify.suite_associativity(trivial, 1)
    assert (result.checked, result.violations) == (1, [])


def test_bicyclic_oracle_reports_products_outside_the_table(monkeypatch):
    # codes at width 9, against a table of 81: -63 is 18 - 81, which a list
    # read would wrap round to 18, the code of the true product (2,0); 27 is
    # (2,9) with its second index overflowing into (3,0); -1 is zero, the
    # table's last entry if read; 81 is past the table
    odd = {
        (BicyclicElem(1, 2), BicyclicElem(3, 0)): -63,
        (BicyclicElem(2, 2), BicyclicElem(0, 1)): 2 * 9 + 9,
        (BicyclicElem(3, 3), BicyclicElem(3, 3)): -1,
        (BicyclicElem(4, 0), BicyclicElem(0, 4)): 81,
    }
    rows = lambda xs, ys, n: ([odd.get((x, y), _code(bmul(x, y), n)) for y in ys] for x in xs)
    monkeypatch.setattr(verify, "bmul_codes", rows)
    result = verify.suite_bicyclic_oracle("mutant", 4)
    assert result.violations == [
        "(1,2)*(3,0) disagrees",
        "(2,2)*(0,1) disagrees",
        "(3,3)*(3,3) disagrees",
        "(4,0)*(0,4) disagrees",
    ]


def test_packed_images_are_distinct_on_the_oracle_table():
    # suite_bicyclic_oracle(m) packs rho_table(2m) at width 2m + 1; m = 64
    # is its max_index at window 16
    for m in range(65):
        n = 2 * m + 1
        keys = verify.pack_images(rho_table(n - 1), n)
        assert len(set(keys)) == len(keys) == n * n, m


def test_structure_compares_the_compiled_form_of_t_with_the_oracles(s3c2):
    # T's compiled table transposed reads b*a for a*b; every other suite
    # passes on s3c2 under it, so only the oracle comparison sees it
    B = load_system(FIXTURES / "s3c2.json")
    compiled = B.sys.compiled
    B.sys.__dict__["compiled"] = compiled._replace(products=[list(col) for col in zip(*compiled.products)])
    elems = list(s3c2.sys.elements())
    wrong = [
        f"compiled product differs from cmul_oracle at a={tuple(a)}, b={tuple(b)}"
        for a in elems
        for b in elems
        if cmul_oracle(s3c2.sys, a, b) != cmul_oracle(s3c2.sys, b, a)
    ]
    assert len(wrong) == 18
    results = run_all(B, window=3)
    assert [(r.suite, r.violations) for r in results if not r.ok] == [("structure", wrong)]
    assert results[0].checked == 1


def test_structure_compares_the_compiled_theta_with_the_oracle(c2c2):
    B = load_system(data_path("c2c2"))
    compiled = B.sys.compiled
    B.sys.__dict__["compiled"] = compiled._replace(theta=[0] * len(compiled.theta))
    moved = [tuple(a) for a in c2c2.sys.elements() if theta_pow_oracle(c2c2.sys, a, 1).elem != 0]
    assert moved
    assert verify.suite_structure(B).violations == [
        f"compiled theta differs from theta_pow_oracle at a={a}" for a in moved
    ]


def test_structure_checks_the_order_of_the_factors_in_brmuls_shifted_branch(s3c2, monkeypatch):
    # brmul's j < k branch reading T's product as b * theta^d(s) in place of
    # theta^d(s) * b: the window suites read brmul_ids and continuity only
    # boxes, so on s3c2 only structure's (0,a,1)*(2,b,0) sees it
    original = bruck_reilly.brmul

    def mutant(B, x, y):
        if type(x) is BRElem and type(y) is BRElem and x.j < y.i:
            T, d = B.sys.compiled, y.i - x.j
            return BRElem(x.i + d, T.elements[T.products[T.ids[y.s]][theta_pow(B.sys, x.s, d).elem]], y.j)
        return original(B, x, y)

    for module in (bruck_reilly, topology, verify):
        monkeypatch.setattr(module, "brmul", mutant)
    T = s3c2.sys
    wrong = [
        f"brmul gives {format_elem(BRElem(0, a, 1))}*{format_elem(BRElem(2, b, 0))} "
        f"a group part other than {tuple(cmul_oracle(T, theta_pow_oracle(T, a, 1), b))}"
        for a in T.elements()
        for b in T.elements()
        if cmul_oracle(T, theta_pow_oracle(T, a, 1), b) != cmul_oracle(T, b, theta_pow_oracle(T, a, 1))
    ]
    assert len(wrong) == 16  # the 4 elements with theta = (12) against the 4 of S3 outside its centralizer
    results = run_all(load_system(FIXTURES / "s3c2.json"), window=3)
    assert [(r.suite, r.violations) for r in results if not r.ok] == [("structure", wrong)]
    assert results[0].checked == 1


def test_associativity_catches_a_theta_one_step_short_on_a_long_orbit(monkeypatch):
    # theta^n read as theta^(n-1) for n >= 2 goes unseen wherever
    # theta^2 = theta on the top group, as on c2c2, trivial and s3c2;
    # c4c2c2's top orbits have tail 2 and cycle 3, so there (xy)z and
    # x(yz), which shift by different amounts, disagree
    original = clifford.theta_pow

    def mutant(sys, a, n):
        return original(sys, a, n - 1 if n >= 2 else n)

    for module in (clifford, bruck_reilly):
        monkeypatch.setattr(module, "theta_pow", mutant)
    results = run_all(load_system(FIXTURES / "c4c2c2.json"), window=2)  # fresh: windows are cached per system
    assert [r.suite for r in results if not r.ok] == ["associativity"]


@pytest.mark.parametrize("path, window, failing", [
    (FIXTURES / "s3c2.json", 3, ["structure", "inverse_axioms", "nat_order", "hclass"]),
    (FIXTURES / "c4c2c2.json", 2, ["structure", "inverse_axioms", "nat_order", "hclass"]),
    (data_path("c2c2"), 3, []),  # every element of c2c2 is its own inverse
])
def test_suites_catch_a_compiled_inverse_that_is_the_identity(path, window, failing):
    B = load_system(path)
    compiled = B.sys.compiled
    B.sys.__dict__["compiled"] = compiled._replace(inverse=list(range(len(compiled.inverse))))
    assert [r.suite for r in run_all(B, window=window) if not r.ok] == failing


class Uncompiled(Exception):
    pass


def test_runtime_layers_read_t_from_its_compiled_form_alone(s3c2, monkeypatch):
    # with the groups' own arithmetic and element listing refusing, only
    # structure, which compares the compiled form with them, needs them;
    # theta_pow's steps past the first still apply the GroupHom sys.theta[0]
    B = load_system(FIXTURES / "s3c2.json")  # fresh: windows are cached per system
    T = B.sys.compiled
    x, y = BRElem(2, T.elements[4], 1), BRElem(1, T.elements[7], 3)
    e = BRElem(1, T.elements[T.idempotents[1]], 1)
    u = topology.BasicZeroNbhd.excluding([(3, 2), (0, 0), (2, 5)])

    def queries():
        return (
            [bruck_reilly.brmul(B, p, q) for p in (x, y) for q in (x, y)],
            [bruck_reilly.brinv(B, p) for p in (x, y, ZERO)],
            [bruck_reilly.nat_order(B, bruck_reilly.brmul(B, p, e), q) for p in (x, y) for q in (x, y)],
            [bruck_reilly.hclass(B, p) for p in (x, y, ZERO)],
            bruck_reilly.simplicity_witness(B, x, y),
            [topology.continuity_cert_zero(B, p, u, side) for p in (x, y) for side in ("left", "right")],
            topology.compactness_remainder(B, u),
        )

    want = queries()
    assert SUITES[0].name == "structure"
    records = [s.run(s3c2, 3, 0, 64).record() for s in SUITES[1:] if s.applies(s3c2)]

    def refuse(*args):
        raise Uncompiled

    for module, name in ((groups, "gmul"), (groups, "ginv"), (clifford, "gmul"), (clifford, "ginv"), (verify, "ginv")):
        monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(CliffordSystem, "elements", refuse)
    with pytest.raises(Uncompiled):
        verify.suite_structure(B)
    assert [s.run(B, 3, 0, 64).record() for s in SUITES[1:] if s.applies(B)] == records
    monkeypatch.setattr(CliffordSystem, "group", refuse)
    assert queries() == want


def test_box_solver_and_continuity_catch_a_box_solve_one_box_short(monkeypatch):
    original = topology.box_solve

    def mutant(a, t, side):
        sols = original(a, t, side)
        return sols - {min(sols)} if len(sols) >= 2 else sols

    for module in (topology, verify):
        monkeypatch.setattr(module, "box_solve", mutant)
    results = run_all(load_system(data_path("c2c2")), window=3)
    assert [(r.suite, len(r.violations)) for r in results if not r.ok] == [("box_solver", 504), ("continuity", 344)]


def test_bicyclic_oracle_refuses_a_negative_code(monkeypatch):
    # unguarded, c11[-63] would read the true product's entry and the fault
    # would go unseen
    def rows(xs, ys, n):
        for x in xs:
            yield [_code(bmul(x, y), n) - n * n * ((x, y) == ((1, 2), (3, 0))) for y in ys]

    monkeypatch.setattr(verify, "bmul_codes", rows)
    assert verify.suite_bicyclic_oracle("mutant", 4).violations == ["(1,2)*(3,0) disagrees"]
