import errno
import os
import random
import select
import signal
import threading
from copy import copy
from dataclasses import replace

import pytest

from brext import bruck_reilly, topology, verify
from brext.bicyclic import BicyclicElem, ZERO, bmul, rho_table
from brext.bruck_reilly import BRElem, BRSystem, eta, format_elem, window_elements
from brext.cli import main
from brext.clifford import CliffordElement, cmul, cmul_oracle, idempotents, theta_pow, theta_pow_oracle
from brext.config import data_path, load_system
from brext.topology import EXCLUDED_BOXES_BASE, ISOLATED_ZERO
from brext.verify import SUITES, SuiteResult, run_all
from conftest import FIXTURES, GOLDEN, corrupt, identity_hom, plant
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
    return run_all(c2c2, window=2, seed=0)


def test_suite_lineup_for_c2c2(c2c2_results):
    results = c2c2_results
    assert [r.suite for r in results] == C2C2_SUITES
    assert all(r.ok for r in results), [(r.suite, r.violations[:2]) for r in results if not r.ok]
    assert all(r.checked > 0 for r in results)


def test_trivial_system_gets_the_isomorphism_suite(trivial):
    results = run_all(trivial, window=2, seed=0)
    assert [r.suite for r in results] == C2C2_SUITES + ["bicyclic_isomorphism"]
    assert all(r.ok for r in results)


def test_zero_divisor_suite_only_when_zero_adjoined(c2c2):
    results = run_all(replace(c2c2, with_zero=False), window=2, seed=0)
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


@pytest.mark.parametrize("system, third, last", [
    ("c2c2", ("(8,0:1,48)", "(34,0:1,45)"), ("(15,0:1,29)", "(8,1:1,24)")),
    ("s3c2", ("(8,0:2,48)", "(16,0:4,34)"), ("(48,0:4,39)", "(9,1:1,26)")),
])
def test_simplicity_draws_its_pairs_in_a_fixed_order(request, monkeypatch, system, third, last):
    # level, group element, i, j per element from random.Random(0).randrange:
    # the cmul-transposed cell of FAULTS rests on this order
    pairs = []
    plant(monkeypatch, "simplicity_witness", lambda witness: lambda B, a, b: pairs.append((a, b)) or witness(B, a, b))
    assert verify.suite_simplicity(request.getfixturevalue(system), 0).ok
    shown = [(format_elem(a), format_elem(b)) for a, b in pairs]
    assert shown[:3] == [("(2,1:1,16)", "(2,1:1,16)"), ("(50,1:1,19)", "(37,1:1,13)"), third]
    assert len(shown) == 1000 and shown[999] == last
    assert all(a == b for a, b in pairs[::100])


def _randrange_pairs(B, seed):
    """The simplicity suite's 1000 pairs as four random.Random(seed).randrange
    calls per element drew them, kept as a reference for its own draws."""
    randrange = random.Random(seed).randrange
    levels = [[CliffordElement(level, e) for e in range(g.order)] for level, g in enumerate(B.sys.groups)]

    def draws():
        while True:
            parts = levels[randrange(len(levels))]
            s = parts[randrange(len(parts))]
            yield BRElem(randrange(51), s, randrange(51))

    elems, pairs = draws(), []
    for n in range(1000):
        a = next(elems)
        pairs.append((a, a if n % 100 == 0 else next(elems)))
    return pairs


@pytest.mark.parametrize("seed", [0, 1, 99])
@pytest.mark.parametrize("system", ["trivial", "c2c2", "s3c2", "c4c2c2", "chain3"])
def test_simplicity_draws_the_pairs_of_randrange(request, monkeypatch, system, seed):
    # on trivial every level and group draw is randrange(1), which redraws
    # getrandbits(1) until it reads 0; a draw of getrandbits(k) % n would not
    B = BRSystem(sys=make_c12_c6_c3(), name="chain3") if system == "chain3" else request.getfixturevalue(system)
    pairs = []
    plant(monkeypatch, "simplicity_witness", lambda witness: lambda B, a, b: pairs.append((a, b)) or witness(B, a, b))
    assert verify.suite_simplicity(B, seed).ok
    assert pairs == _randrange_pairs(B, seed)


def test_window_is_recorded_in_params(c2c2_results):
    results = {r.suite: r for r in c2c2_results}
    assert results["associativity"].params == {"window": 2}
    assert results["associativity"].checked == (2 * 2 * 4) ** 3
    assert results["bicyclic_oracle"].params == {"max_index": 8}


def _next_group_part(B, p):
    """p with its group part moved to the next element of its level."""
    level, elem = p.s
    return p._replace(s=CliffordElement(level, (elem + 1) % B.sys.group(level).order))


def test_idempotent_chain_reports_a_window_that_is_not_a_prefix_of_the_longest(c2c2, monkeypatch):
    plant(monkeypatch, "idempotents_window", lambda real: lambda B, n: real(B, n)[::-1] if n == 1 else real(B, n))
    assert verify.suite_idempotent_chain(c2c2, 2).violations == ["window 1: not a prefix of window 2"]


def test_idempotent_chain_reports_a_refused_window_and_checks_the_others(c2c2, monkeypatch):
    # lo*hi at index 2 is wrong, so idempotents_window refuses windows 3 and
    # 4; windows 1 and 2 still pass their length and prefix checks
    plant(monkeypatch, "brmul_ids", corrupt(("(2,1:0,2)", "(2,0:0,2)"), _next_group_part))
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
    _, target, fault, cells = next(f for f in FAULTS if f[0] == "brmul_ids-one-group-part-moved")
    assert verify.suite_associativity(c2c2, 3).ok
    cached = c2c2.window(3)
    plant(monkeypatch, target, fault)
    violations = verify.suite_associativity(c2c2, 3).violations
    assert (len(violations), violations[0]) == cells["c2c2"]["associativity"]
    assert c2c2.window(3) is not cached
    monkeypatch.undo()
    assert c2c2.window(3) is cached
    assert verify.suite_associativity(c2c2, 3).ok


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
    plant(monkeypatch, "bmul_codes", lambda bmul_codes: _codes(mutant))
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
    plant(monkeypatch, "bmul_codes", lambda bmul_codes: _codes(mul))
    result = verify.suite_bicyclic_axioms("mutant")
    assert result.violations == wrong
    assert result.checked == len(elems) ** 2


@pytest.mark.parametrize("name", BMUL_MUTANTS)
def test_box_solver_catches_bmul_mutants(monkeypatch, name):
    # the brute scan multiplies through bmul_codes, not an inlined formula
    plant(monkeypatch, "bmul_codes", lambda bmul_codes: _codes(BMUL_MUTANTS[name]))
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
    plant(monkeypatch, "bmul_codes", lambda bmul_codes: _codes(mutant))
    result = verify.suite_eta_homomorphism(c2c2, 2)
    assert result.violations == wrong
    assert result.checked == len(elems) ** 2


def test_box_solver_bound_sees_every_solution():
    result = verify.suite_box_solver("bicyclic", 6)
    assert result.ok and result.params["brute_bound"] == 20


@pytest.mark.parametrize("window", [6, 8])
@pytest.mark.parametrize("system", ["c2c2", "trivial"])
def test_verify_all_passes_past_the_golden_window(request, system, window):
    results = {r.suite: r for r in run_all(request.getfixturevalue(system), window=window, seed=0)}
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
                assert suite.run(B, window, 0).checked == suite.checked(B, window), (suite.name, window)


def test_run_all_runs_the_suite_bound_on_the_module_at_call_time(c2c2, monkeypatch):
    marker = SuiteResult("hclass", "marker", {}, 0, [])
    monkeypatch.setattr(verify, "suite_hclass", lambda B, window: marker)  # the binding Suite.run reads
    results = run_all(c2c2, window=1, seed=0)
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
    plant(monkeypatch, "bmul_codes", lambda bmul_codes: rows)
    result = verify.suite_bicyclic_oracle("mutant", 4)
    assert result.violations == [
        "(1,2)*(3,0) disagrees",
        "(2,2)*(0,1) disagrees",
        "(3,3)*(3,3) disagrees",
        "(4,0)*(0,4) disagrees",
    ]


def test_bicyclic_oracle_refuses_a_negative_code(monkeypatch):
    # unguarded, c11[-63] would read the true product's entry and the fault
    # would go unseen
    def rows(xs, ys, n):
        for x in xs:
            yield [_code(bmul(x, y), n) - n * n * ((x, y) == ((1, 2), (3, 0))) for y in ys]

    plant(monkeypatch, "bmul_codes", lambda bmul_codes: rows)
    assert verify.suite_bicyclic_oracle("mutant", 4).violations == ["(1,2)*(3,0) disagrees"]


def test_packed_images_are_distinct_on_the_oracle_table():
    # suite_bicyclic_oracle(m) packs rho_table(2m) at width 2m + 1; m = 64
    # is its max_index at window 16
    for m in range(65):
        n = 2 * m + 1
        keys = verify.pack_images(rho_table(n - 1), n)
        assert len(set(keys)) == len(keys) == n * n, m


def _probe_violations(T, route, relations):
    """structure's violations for a kernel that reads theta^j(b)*theta^k(a)
    for the group part of (0,a,j)*(k,b,0), on the given (j, k)."""
    def ordered(a, b, j, k):
        return cmul_oracle(T, theta_pow_oracle(T, a, k), theta_pow_oracle(T, b, j))

    return [
        f"{route} gives {format_elem(BRElem(0, a, j))}*{format_elem(BRElem(k, b, 0))} = "
        f"{format_elem(BRElem(k, CliffordElement(*ordered(b, a, k, j)), j))}, "
        f"not {format_elem(BRElem(k, CliffordElement(*ordered(a, b, j, k)), j))}"
        for j, k in relations for a in T.elements() for b in T.elements() if ordered(a, b, j, k) != ordered(b, a, k, j)
    ]


def _on_a_copy_of_t(change):
    """brmul_ids run on a copy of T that takes its attributes from change(T)."""
    def plant(brmul_ids):
        def mutant(B, xs, ys, n):
            T = copy(B.sys)
            vars(T).update(change(B.sys))
            return brmul_ids(replace(B, sys=T), xs, ys, n)
        return mutant
    return plant


SYSTEMS = {"s3c2": (FIXTURES / "s3c2.json", 3), "c4c2c2": (FIXTURES / "c4c2c2.json", 2),  # at their golden windows
           "c2c2": (data_path("c2c2"), 3), "trivial": (data_path("trivial"), 3)}
S3C2, C2C2 = (load_system(SYSTEMS[name][0]).sys for name in ("s3c2", "c2c2"))
NO_INVERSE = {system: {  # every element of c2c2 and trivial is its own inverse
    "inverse_axioms": (count, f"inverse axioms fail for (0,0:{a},0)"),
    "nat_order": (count, f"closed form says True for (0,0:{a},0) <= (0,0:{a},0)"),
    "hclass": (hclass, f"H-class of (0,0:0,0): (0,0:{a},0) is not H-related to (0,0:0,0)"),
} for system, a, count, hclass in [("s3c2", 3, 36, 54), ("c4c2c2", 1, 64, 64)]}
ONE_STEP_SHORT = "((0,0:1,0)*(1,0:0,0))*(1,0:0,0) != (0,0:1,0)*((1,0:0,0)*(1,0:0,0))"
BELOW = "H-class of (1,0:0,0): (1,0:1,0) is not H-related to (1,0:0,0)"
BELOW_DIAGONAL = [(1, 0), (2, 0), (2, 1)]  # the boxes of window 3 below the diagonal
MOVED = {system: {  # (0,0:1,1)*(1,0:1,0) moved within its H-class, of box (0,0)
    "inverse_axioms": (2, "inverse axioms fail for (0,0:1,1)", "inverse axioms fail for (1,0:1,0)"),
    "nat_order": (2, "closed form says False for (1,0:1,0) <= (1,0:0,0)",
                  "closed form says True for (1,0:1,0) <= (1,0:1,0)"),
    "hclass": (2 * order, *[f"H-class mismatch at ({i},0:{e},{j})" for i, j in [(0, 1), (1, 0)] for e in range(order)]),
} for system, order in [("s3c2", 6), ("c2c2", 2)]}
IDEMPOTENT_CHAIN = (7, *[f"window {n}: (1,1:0,1) not strictly below (1,0:0,1)" for n in range(2, 9)])
UNFINISHED = {suite: (1, f"{suite} could not finish: WitnessVerificationFailed: the inverse of (0,0:0,0) lies "
                         "outside the window") for suite in ("associativity", "inverse_axioms", "eta_homomorphism",
                                                             "eta_congruence", "nat_order", "hclass")}


def _assoc(x, y, z):
    return f"({x}*{y})*{z} != {x}*({y}*{z})"


def _past_the_window(T):
    """associativity's violations when (4,1:1,0)*(1,0:1,0) alone is wrong:
    the (x*y)*(1,0:1,0) with x = (2,a,0), y = (2,b,0) and theta^2(a)*b = (1,1)."""
    elems = list(T.elements())
    pairs = [(a, b) for a in elems for b in elems if cmul_oracle(T, theta_pow_oracle(T, a, 2), b) == (1, 1)]
    return [_assoc(format_elem(BRElem(2, a, 0)), format_elem(BRElem(2, b, 0)), "(1,0:1,0)") for a, b in pairs]


def _one_box_off(eta_congruence, **other):
    """The cells of (0,0:1,1)*(1,1:0,0), of box (0,0), out of its box."""
    return {system: {"associativity": (count, _assoc("(0,0:1,0)", "(0,0:0,1)", "(1,1:0,0)")),
                     "eta_homomorphism": (1, "eta breaks at (0,0:1,1), (1,1:0,0)"),
                     "eta_congruence": (1, f"product box of (0, 1)*(1, 0) not constant: {eta_congruence}"), **other}
            for system, count in [("s3c2", 216), ("c2c2", 100)]}


# (id, target, fault, cells), fault planted on target: cells maps
# a system to each suite failing there, with its violation count and first
# violations (all of them where they number the count); a system left out
# fails none.  A kernel computing another Bruck-Reilly extension keeps every
# law.  T is abelian on all but s3c2, theta^2 = theta on all but c4c2c2 (top
# orbits of tail 2, cycle 3) and id 0 is the top identity on every system.
FAULTS = [
    ("compiled-products-transposed", "compiled.products", lambda products: list(map(list, zip(*products))),
     {"s3c2": {"structure": (18, *[
        f"compiled product differs from cmul_oracle at a={tuple(a)}, b={tuple(b)}" for a in S3C2.elements()
        for b in S3C2.elements() if cmul_oracle(S3C2, a, b) != cmul_oracle(S3C2, b, a)])}}),
    ("compiled-theta-zeroed", "compiled.theta", lambda theta: [0] * len(theta), {
        "s3c2": {"structure": (4, "compiled theta differs from theta_pow_oracle at a=(0, 1)")},
        "c4c2c2": {"structure": (14, "compiled theta differs from theta_pow_oracle at a=(0, 1)")},
        "c2c2": {"structure": (2, *[f"compiled theta differs from theta_pow_oracle at a={tuple(a)}"
                                    for a in C2C2.elements() if theta_pow_oracle(C2C2, a, 1).elem != 0])}}),
    ("compiled-inverse-identity", "compiled.inverse", lambda inverse: list(range(len(inverse))), {
        "s3c2": {"structure": (2, "compiled inverse differs from ginv at a=(0, 3)"), **NO_INVERSE["s3c2"]},
        "c4c2c2": {"structure": (8, "compiled inverse differs from ginv at a=(0, 1)"), **NO_INVERSE["c4c2c2"]}}),
    ("theta_pow-one-step-short", "theta_pow", lambda theta_pow: lambda T, a, n: theta_pow(T, a, n - 1 if n >= 2 else n),
     {"c4c2c2": {"associativity": (28672, ONE_STEP_SHORT)}}),
    ("box_solve-one-box-short", "box_solve",
     lambda box_solve: lambda a, t, side: s - {min(s)} if len(s := box_solve(a, t, side)) >= 2 else s, {system: {
         "box_solver": (solver, "left solutions differ for a=(0, 1), target=(0, 1)"), "continuity": (continuity, (
             "certificate for a=(1,0:0,0), side=right: (5,0:0,0) is in U but its product leaves the target"))}
      for system, solver, continuity in [("s3c2", 504, 688), ("c4c2c2", 160, 512), ("c2c2", 504, 344),
                                         ("trivial", 504, 86)]}),
    # structure's (0,a,0)*(1,b,0) alone sees it: the 4 elements of S3 with
    # theta = (12) against the 4 outside its centralizer
    ("brmul-shifted-swapped", "brmul", lambda brmul: lambda B, x, y: BRElem(
        x.i + y.i - x.j, cmul(B.sys, y.s, theta_pow(B.sys, x.s, y.i - x.j)), y.j)
        if type(x) is type(y) is BRElem and x.j < y.i else brmul(B, x, y),
     {"s3c2": {"structure": (16, *_probe_violations(S3C2, "brmul", [(0, 1)]))}}),
    ("brmul-equal-transposed", "brmul", lambda brmul: lambda B, x, y: brmul(
        B, x._replace(s=y.s), y._replace(s=x.s)) if type(x) is type(y) is BRElem and x.j == y.i else brmul(B, x, y),
     {"s3c2": {"structure": (18, *_probe_violations(S3C2, "brmul", [(0, 0)]))}}),
    ("brmul_ids-transposed", "brmul_ids",
     _on_a_copy_of_t(lambda T: {"compiled": T.compiled._replace(products=list(map(list, zip(*T.compiled.products))))}),
     {"s3c2": {"structure": (50, *_probe_violations(S3C2, "brmul_ids", [(0, 1), (0, 0), (1, 0)]))}}),
    ("brmul_ids-trivial-theta", "brmul_ids",
     _on_a_copy_of_t(lambda T: {"compiled": T.compiled._replace(theta=[0] * len(T.compiled.theta))}), {system: {
         "structure": (structure, f"brmul_ids gives (0,0:1,0)*(1,0:0,0) = (1,0:0,0), not (1,0:{theta_1},0)"),
         "nat_order": (nat_order, "closed form says False for (1,0:0,1) <= (0,0:1,0)"),
     } for system, structure, theta_1, nat_order in [("s3c2", 64, 2, 80), ("c4c2c2", 448, 2, 28), ("c2c2", 16, 1, 40)]}),
    ("brmul_ids-theta-once", "brmul_ids",
     _on_a_copy_of_t(lambda T: {"theta": (identity_hom(T.groups[0]), *T.theta[1:])}),
     {"c4c2c2": {"associativity": (28672, ONE_STEP_SHORT)}}),
    # one product of brmul_ids changed, on each path by which the window
    # suites read one: the window's table, a box, the idempotent chain's
    # hi*lo and lo*hi, and right, past the window
    ("brmul_ids-one-group-part-moved", "brmul_ids", corrupt(("(0,0:1,1)", "(1,0:1,0)"), _next_group_part), {
        system: {"associativity": (count, _assoc("(0,0:1,0)", "(0,0:0,1)", "(1,0:1,0)")), **MOVED.get(system, {})}
        for system, count in [("s3c2", 198), ("c4c2c2", 214), ("c2c2", 90)]}),
    ("brmul_ids-one-first-index-up", "brmul_ids",
     corrupt(("(0,0:1,1)", "(1,1:0,0)"), lambda B, p: p._replace(i=p.i + 1)), _one_box_off("[(0, 0), (1, 0)]")),
    ("brmul_ids-hi-times-lo-moved", "brmul_ids", corrupt(("(1,0:0,1)", "(1,1:0,1)"), _next_group_part), {
        system: {"associativity": (count, _assoc("(0,0:1,0)", "(1,0:0,1)", "(1,1:0,1)")),
                 "idempotent_chain": IDEMPOTENT_CHAIN,
                 "nat_order": (2, "closed form says True for (1,1:0,1) <= (1,0:0,1)",
                               "closed form says False for (1,1:1,1) <= (1,0:0,1)")}
        for system, count in [("s3c2", 233), ("c2c2", 109)]}),
    ("brmul_ids-lo-times-hi-moved", "brmul_ids", corrupt(("(1,1:0,1)", "(1,0:0,1)"), _next_group_part), {
        system: {"associativity": (count, _assoc("(0,0:1,0)", "(1,1:0,1)", "(1,0:0,1)")),
                 "idempotent_chain": IDEMPOTENT_CHAIN} for system, count in [("s3c2", 233), ("c2c2", 109)]}),
    ("brmul_ids-past-the-window-moved", "brmul_ids", corrupt(("(4,1:1,0)", "(1,0:1,0)"), _next_group_part), {
        system: {"associativity": (len(v), *v)} for system, v in [("s3c2", _past_the_window(S3C2)),
                                                                  ("c2c2", _past_the_window(C2C2))]}),
    ("brinv-without-group-inverse", "brinv",
     lambda brinv: lambda B, x: y if (y := brinv(B, x)) is ZERO else y._replace(s=x.s), NO_INVERSE),
    # x <= y read at the gap d = max(i - m, 0), whatever j - n is
    ("nat_order-without-gap-check", "nat_order", lambda nat_order: lambda B, x, y: nat_order(B, x, y)
     if ZERO in (x, y) else cmul(B.sys, theta_pow(B.sys, y.s, max(x.i - y.i, 0)), idempotents(B.sys)[x.s.level]) == x.s,
     {system: {"nat_order": (count, "closed form says True for (0,0:0,0) <= (0,0:0,1)",
                             "antisymmetry fails at (0,0:0,0), (0,0:0,1)")}
      for system, count in [("s3c2", 1450), ("c4c2c2", 248), ("c2c2", 842), ("trivial", 139)]}),
    ("hclass-of-top-group-order", "hclass", lambda hclass: lambda B, x: hclass(B, x) if x is ZERO else [
        x._replace(s=CliffordElement(x.s.level, e)) for e in range(B.sys.group(0).order)],
     {"s3c2": {"hclass": (36, "H-class mismatch at (0,1:0,0)", "H-class size off at (0,1:0,0)")}}),
    # the rows below reach the window suites' other violation lines
    ("brinv-one-box-below-diagonal", "brinv",
     lambda brinv: lambda B, x: y if (y := brinv(B, x)) is ZERO or x.i <= x.j else y._replace(j=x.j), {system: {
         "inverse_axioms": (inverse, "inverse is not an involution at (0,0:0,1)"),
         "nat_order": (nat_order, "closed form says False for (1,0:0,0) <= (0,0:0,0)"), **other,
     } for system, inverse, nat_order, other in [
         ("s3c2", 96, 260, {"hclass": (18, BELOW)}), ("c4c2c2", 64, 64, {"hclass": (16, BELOW)}),
         ("c2c2", 48, 84, {}), ("trivial", 12, 12, {"bicyclic_isomorphism": (3, "inverses disagree at (1,0:0,0)")})]}),
    # a window that cannot be compiled ends the suites that read it
    ("brinv-past-the-window", "brinv",
     lambda brinv: lambda B, x: y if (y := brinv(B, x)) is ZERO else y._replace(i=y.i + 5),
     {**dict.fromkeys(["s3c2", "c4c2c2", "c2c2"], UNFINISHED), "trivial": {**UNFINISHED, "bicyclic_isomorphism": (
         9, *[f"inverses disagree at ({i},0:0,{j})" for i in range(3) for j in range(3)])}}),
    # x^-1 x of (2,s,0) lands in box (4,0), past the window
    ("brinv-in-its-own-box-below-diagonal", "brinv",
     lambda brinv: lambda B, x: y if (y := brinv(B, x)) is ZERO or x.i <= x.j else y._replace(i=x.i, j=x.j), {
         "s3c2": {"inverse_axioms": (72, "inverse is not an involution at (0,0:0,1)"),
                  "nat_order": (76, "closed form says False for (1,0:0,0) <= (0,0:0,1)"), "hclass": (18, BELOW)},
         "c4c2c2": {"inverse_axioms": (48, "inverse is not an involution at (0,0:0,1)"),
                    "nat_order": (16, "(1,0:0,0)^-1*(1,0:0,0) lies outside the window"), "hclass": (16, BELOW)},
         "c2c2": {"inverse_axioms": (36, "inverse is not an involution at (0,0:0,1)"),
                  "nat_order": (28, "closed form says False for (1,0:0,0) <= (0,0:0,1)")},
         "trivial": {"inverse_axioms": (9, *[  # (i,0:0,j) is its own inverse for i > j
             f"inverse is not an involution at ({i},0:0,{j})" if i < j else f"inverse axioms fail for ({i},0:0,{j})"
             for i in range(3) for j in range(3) if i != j], *[f"second inverse ({j},0:0,{i}) for ({i},0:0,{j})"
                                                               for i, j in BELOW_DIAGONAL]),
                     "nat_order": (5, *[f"closed form says {fast} for (1,0:0,0) <= {y}" for fast, y in [
                         (False, "(0,0:0,1)"), (True, "(1,0:0,0)"), (False, "(1,0:0,2)")]],
                         *[f"({i},0:0,{j})^-1*({i},0:0,{j}) lies outside the window" for i, j in BELOW_DIAGONAL[1:]]),
                     "bicyclic_isomorphism": (3, *[f"inverses disagree at ({i},0:0,{j})"
                                                   for i, j in BELOW_DIAGONAL])}}),
    ("brmul_ids-one-product-zero", "brmul_ids", corrupt(("(0,0:1,1)", "(1,1:0,0)"), lambda B, p: ZERO),
     _one_box_off("[0, (0, 0)]", zero_divisors=(1, "(0,0:1,1) * (1,1:0,0) = 0"))),
    ("idempotents_window-one-short", "idempotents_window", lambda window: lambda B, n: window(B, n)[:-1], {
        system: {"idempotent_chain": (8, f"window 1: {levels - 1} idempotents, expected {levels}")}
        for system, levels in [("s3c2", 2), ("c4c2c2", 1), ("c2c2", 2), ("trivial", 1)]}),
    ("nat_order-zero-on-top", "nat_order",
     lambda nat_order: lambda B, x, y: nat_order(B, y, x) if ZERO in (x, y) else nat_order(B, x, y),
     {system: {"nat_order": (4, "zero is not strictly least under (0,0:0,0)")} for system in SYSTEMS}),
    ("cmul-transposed", "cmul", lambda cmul: lambda T, a, b: cmul(T, b, a), {"s3c2": {"simplicity": (
        191, "witness for (8,0:2,48) -> (16,0:4,34): x*a*y = (16,0:3,34), expected (16,0:4,34)")}}),
    ("eta-first-index-twice", "eta", lambda eta: lambda x: x if x is ZERO else eta(x._replace(j=x.i)), {
        system: {"eta_homomorphism": (count, "eta breaks at (0,0:0,0), (0,0:0,1)"), **other} for system, count, other in [
            ("s3c2", 4288, {}), ("c4c2c2", 2816, {}), ("c2c2", 1072, {}),
            ("trivial", 67, {"bicyclic_isomorphism": (37, "index map not injective on the window")})]}),
]


@pytest.mark.parametrize("target, fault, path, window, want", [
    pytest.param(target, fault, *SYSTEMS[system], cells.get(system, {}), id=f"{name}-{system}")
    for name, target, fault, cells in FAULTS for system in SYSTEMS])
def test_planted_fault_fails_exactly_its_suites(monkeypatch, target, fault, path, window, want):
    B = load_system(path)  # fresh: windows are cached per system
    plant(monkeypatch, target, fault, B)
    results = run_all(B, window=window, seed=0)
    got = {r.suite: r.violations for r in results if not r.ok}
    assert {suite: (len(v), *v[:len(want.get(suite, (0,))) - 1]) for suite, v in got.items()} == want
    assert results[0].checked == 1


def _associativity_pair_by_pair(B, window):
    """associativity's violations by the route that checked one pair (x, y)
    at a time: x's row over the window's products, read at the ids of y*z."""
    w = B.window(window)
    return [_assoc(format_elem(x), format_elem(y), format_elem(z))
            for x, xy_ids, left in zip(w.elems, w.table, bruck_reilly.brmul_ids(B, w.elems, w.prods, w.width))
            for y, xy, yz_ids in zip(w.elems, xy_ids, w.table)
            for z, u, yz in zip(w.elems, w.right[xy], yz_ids) if u != left[yz]]


@pytest.mark.parametrize("target, fault, path, window, count", [
    pytest.param(target, fault, *SYSTEMS[system], cell["associativity"][0], id=f"{name}-{system}")
    for name, target, fault, cells in FAULTS for system, cell in cells.items()
    if cell.get("associativity", UNFINISHED["associativity"]) != UNFINISHED["associativity"]])  # it walked
def test_associativity_lists_every_violation_in_the_pair_by_pair_order(monkeypatch, target, fault, path, window,
                                                                       count):
    B = load_system(path)
    plant(monkeypatch, target, fault, B)
    violations = verify.suite_associativity(B, window).violations
    assert len(violations) == count
    assert violations == _associativity_pair_by_pair(B, window)


def _past_the_window_up(brmul_ids):
    """brmul_ids with every product x*y whose y has first index 4 moved one
    box down; at window 3 only associativity's x*(y*z) pass has such ys."""
    def rows(B, xs, ys, n):
        for row in brmul_ids(B, xs, ys, n):
            yield [bruck_reilly.encode(B, (p := bruck_reilly.decode(B, c, n))._replace(i=p.i + 1), n)
                   if y is not ZERO and y.i == 4 else c for y, c in zip(ys, row)]
    return rows


@pytest.mark.parametrize("system, count, middles", [
    pytest.param("trivial", 9 * 3, ["(2,0:0,0)"], id="one-middle"),  # y*z = (4,0:0,j) only for y = (2,0:0,0)
    pytest.param("c2c2", 36 * 4 * 12, [f"(2,{a}:{e},0)" for a in range(2) for e in range(2)], id="four-middles")])
def test_associativity_walks_its_failing_middle_factors_in_the_pair_by_pair_order(request, monkeypatch, system,
                                                                                   count, middles):
    B = replace(request.getfixturevalue(system))  # a window cache of its own
    plant(monkeypatch, "brmul_ids", _past_the_window_up, B)
    violations = verify.suite_associativity(B, 3).violations
    assert len(violations) == count
    assert sorted({v.split("*")[1][:-1] for v in violations}) == middles
    assert {v[1:].split("*")[0] for v in violations} == {format_elem(x) for x in window_elements(B, 3)}
    assert violations == _associativity_pair_by_pair(B, 3)


def _cpus(monkeypatch, n):
    """run_all's CPU check sees n CPUs, whatever the machine has; returns the
    pids os.fork gives this process from then on."""
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
    monkeypatch.setattr(os, "fork", lambda: forks.append(fork()) or forks[-1])
    return forks


@pytest.mark.parametrize("seed", [0, 99])
@pytest.mark.parametrize("system", SYSTEMS)
def test_the_forked_suites_give_the_records_of_an_in_process_run(monkeypatch, system, seed):
    path, window = SYSTEMS[system]
    forks = _cpus(monkeypatch, 1)
    in_process = [r.record() for r in run_all(load_system(path), window, seed)]
    assert forks == []
    forks = _cpus(monkeypatch, 2)
    assert [r.record() for r in run_all(load_system(path), window, seed)] == in_process
    assert len(forks) == 1


@pytest.mark.parametrize("system", ["c2c2", "trivial"])
def test_run_all_forks_no_child_under_threads(monkeypatch, system):
    # a fork in a multi-threaded process may deadlock the child, and CPython
    # 3.12 warns of it: with a second thread alive every suite runs here
    path, window = SYSTEMS[system]
    _cpus(monkeypatch, 1)
    in_process = [r.record() for r in run_all(load_system(path), window, 0)]
    forks, release = _cpus(monkeypatch, 2), threading.Event()
    waiting = threading.Thread(target=release.wait)
    waiting.start()
    try:
        assert [r.record() for r in run_all(load_system(path), window, 0)] == in_process
    finally:
        release.set()
        waiting.join(timeout=10)
    assert forks == [] and not waiting.is_alive()


@pytest.mark.parametrize("name", BMUL_MUTANTS)
def test_a_plant_reaches_the_forked_suites(c2c2, monkeypatch, name):
    forks = _cpus(monkeypatch, 2)
    plant(monkeypatch, "bmul_codes", lambda bmul_codes: _codes(BMUL_MUTANTS[name]))
    got = {r.suite: r.violations for r in run_all(c2c2, 2, 0)}
    want = {s.name: s.run(c2c2, 2, 0).violations for s in SUITES if s.name in verify.FORKED}
    assert {name: got[name] for name in verify.FORKED} == want and all(want.values())
    assert len(forks) == 1


@pytest.mark.parametrize("suite, fault, code", [
    ("box_solver", lambda suite: lambda *args: os._exit(3), 3),
    ("bicyclic_axioms", lambda suite: lambda *args: os._exit(3), 3),
    # a lambda among the violations: the child raises pickling the result
    ("bicyclic_oracle", lambda suite: lambda *args: SuiteResult("bicyclic_oracle", "c2c2", {}, 0, [lambda: 0]), 1),
])
def test_a_forked_suite_whose_result_never_arrives_could_not_finish(c2c2, monkeypatch, suite, fault, code):
    # results already sent arrive; the suites after the child's end are lost
    forks = _cpus(monkeypatch, 2)
    plant(monkeypatch, f"suite_{suite}", fault)
    results = run_all(c2c2, 2, 0)
    assert [r.suite for r in results] == C2C2_SUITES and len(forks) == 1
    assert {r.suite: r.violations for r in results if not r.ok} == {
        lost: [f"{lost} could not finish: ChildProcessError: suite process exited with code {code}"]
        for lost in verify.FORKED[verify.FORKED.index(suite):]}


def _open_fds():
    """This process's open descriptors, or [] where /proc/self/fd does not
    exist and they cannot be listed."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


def _fail(monkeypatch, failure):
    """os.fork, or the first or second os.pipe call of each run_all, fails
    as it does in a process that may start no more processes or open no more
    files."""
    if failure == "fork":
        def fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", fork)
        return
    calls, pipe = [], os.pipe

    def failing_pipe():
        calls.append(None)
        if len(calls) == failure:
            calls.clear()
            raise OSError(errno.EMFILE, "Too many open files")
        return pipe()
    monkeypatch.setattr(os, "pipe", failing_pipe)


@pytest.mark.parametrize("failure", ["fork", 1, 2])
@pytest.mark.parametrize("system", ["c2c2", "trivial"])
def test_a_failed_fork_runs_every_suite_in_process(monkeypatch, capsys, system, failure):
    path, window = SYSTEMS[system]
    _cpus(monkeypatch, 1)
    in_process = [r.record() for r in run_all(load_system(path), window, 0)]
    forks = _cpus(monkeypatch, 2)
    _fail(monkeypatch, failure)
    assert [r.record() for r in run_all(load_system(path), window, 0)] == in_process
    code = main(["verify", "--all", "--system", str(path), "--window", str(window), "--seed", "0", "--json"])
    assert (code, capsys.readouterr().out) == (0, (GOLDEN / f"verify_{system}.ndjson").read_text())
    assert forks == []


def test_run_all_leaves_no_child_process(c2c2, monkeypatch):
    forks, before = _cpus(monkeypatch, 2), _open_fds()
    run_all(c2c2, 2, 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == before

    def interrupted(B):
        raise KeyboardInterrupt

    plant(monkeypatch, "suite_structure", lambda suite: interrupted)  # the first suite, while the child runs
    with pytest.raises(KeyboardInterrupt):
        run_all(c2c2, 2, 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == before and len(forks) == 2
    monkeypatch.undo()
    for failure in "fork", 1, 2:  # the descriptors opened before the failure are closed
        _cpus(monkeypatch, 2)
        _fail(monkeypatch, failure)
        run_all(c2c2, 2, 0)
        assert _open_fds() == before
        monkeypatch.undo()


@pytest.fixture
def child_first(monkeypatch):
    """Plants continuity_violations so that run_all's forked child claims a
    sample, and checks it through child(check), before the parent checks
    its first; returns the list of the parent's waits, True where the child
    had claimed one in time."""
    parent, (r, w), waited = os.getpid(), os.pipe(), []

    def install(child=lambda check: check):
        def fault(check):
            def violations(*args):
                if os.getpid() != parent:
                    os.write(w, b".")
                    return child(check)(*args)
                if not waited:
                    waited.append(bool(select.select([r], [], [], 60)[0]))
                return check(*args)
            return violations
        plant(monkeypatch, "continuity_violations", fault)
        return waited
    yield install
    os.close(r)
    os.close(w)


@pytest.mark.parametrize("system", SYSTEMS)
def test_shared_continuity_samples_give_the_in_process_violations_in_sample_order(monkeypatch, child_first, system):
    path, window = SYSTEMS[system]
    _, target, fault, cells = next(f for f in FAULTS if f[0] == "box_solve-one-box-short")
    plant(monkeypatch, target, fault)
    _cpus(monkeypatch, 1)
    in_process = next(r for r in run_all(load_system(path), window, 0) if r.suite == "continuity")
    forks, waited = _cpus(monkeypatch, 2), child_first()
    shared = next(r for r in run_all(load_system(path), window, 0) if r.suite == "continuity")
    assert shared.violations == in_process.violations and len(shared.violations) == cells[system]["continuity"][0]
    assert shared.record() == in_process.record() and len(forks) == 1 and waited == [True]


@pytest.mark.parametrize("system", ["c2c2", "trivial"])
def test_the_first_continuity_sample_that_raised_gives_the_record_on_both_paths(monkeypatch, child_first, system):
    path, window = SYSTEMS[system]
    _, _, samples = verify.continuity_samples(load_system(path), 0, window)
    unique = [sample for sample in samples if samples.count(sample) == 1]
    raising = unique[len(unique) // 4], unique[3 * len(unique) // 4]

    def fault(certs):
        def raised(B, multipliers, target, side):
            if (target, side) in raising:
                raise ValueError(f"planted at {sorted(map(tuple, target.excluded))}, {side}")
            return certs(B, multipliers, target, side)
        return raised

    plant(monkeypatch, "continuity_certs", fault)
    _cpus(monkeypatch, 1)
    in_process = next(r for r in run_all(load_system(path), window, 0) if r.suite == "continuity")
    forks, waited = _cpus(monkeypatch, 2), child_first()
    shared = next(r for r in run_all(load_system(path), window, 0) if r.suite == "continuity")
    target, side = raising[0]
    assert shared.record() == in_process.record() == SuiteResult("continuity", system, {}, 0, [
        f"continuity could not finish: ValueError: planted at {sorted(map(tuple, target.excluded))}, {side}"]).record()
    assert len(forks) == 1 and waited == [True]


def test_a_continuity_sample_the_child_claimed_and_never_sent_could_not_finish(c2c2, monkeypatch, child_first):
    def expired(signum, frame):
        raise TimeoutError("run_all still waits for its child after 60 s")

    forks, waited = _cpus(monkeypatch, 2), child_first(lambda check: lambda *args: os._exit(5))
    handler = signal.signal(signal.SIGALRM, expired)
    signal.alarm(60)
    try:
        results = run_all(c2c2, 2, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, handler)
    assert [r.suite for r in results] == C2C2_SUITES and len(forks) == 1 and waited == [True]
    assert {r.suite: r.violations for r in results if not r.ok} == {
        "continuity": ["continuity could not finish: ChildProcessError: suite process exited with code 5"]}
    assert all(r.checked for r in results if r.suite in verify.FORKED)


def test_a_continuity_sample_the_child_sent_still_arrives_when_it_dies_on_a_later_one(c2c2, monkeypatch,
                                                                                      child_first):
    # The parent's last own suite waits until the child has claimed sample 0.
    # The child finishes it once the parent has checked a sample of its own,
    # and dies on the next it claims, while the parent's first check waits for
    # that claim.  So sample 0 arrives from the child, the parent's first
    # sample comes before the lost one, and it gives the in-process record.
    parent, (started, started_w), (checked, checked_w) = os.getpid(), os.pipe(), os.pipe()
    armed, calls = [], []  # calls: the child's own copy counts its samples

    def fault(certs):
        def raised(*args):
            if os.getpid() != parent:
                return certs(*args)
            if armed:
                armed.clear()
                os.write(checked_w, b".")
                select.select([started], [], [], 60)
            raise ValueError("planted in the parent")
        return raised

    def waits(suite):
        def run(*args):
            select.select([started], [], [], 60)
            os.read(started, 1)
            return suite(*args)
        return run

    def child(check):
        def violations(*args):
            os.write(started_w, b".")
            calls.append(None)
            if len(calls) == 2:
                os._exit(5)
            found = check(*args)
            select.select([checked], [], [], 60)
            return found
        return violations

    try:
        plant(monkeypatch, "continuity_certs", fault)
        _cpus(monkeypatch, 1)
        in_process = next(r for r in run_all(c2c2, 2, 0) if r.suite == "continuity")
        plant(monkeypatch, "suite_pushforward_roundtrip", waits)
        forks, waited = _cpus(monkeypatch, 2), child_first(child)
        armed.append(True)
        results = run_all(c2c2, 2, 0)
    finally:
        for fd in started, started_w, checked, checked_w:
            os.close(fd)
    assert in_process.record() == SuiteResult("continuity", "c2c2", {}, 0, [
        "continuity could not finish: ValueError: planted in the parent"]).record()
    assert {r.suite: r.violations for r in results if not r.ok} == {"continuity": in_process.violations}
    assert next(r for r in results if r.suite == "continuity").record() == in_process.record()
    assert len(forks) == 1 and waited == [True] and not armed


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
    records = [s.run(s3c2, 3, 0).record() for s in SUITES[1:] if s.applies(s3c2)]

    def refuse(*args):
        raise Uncompiled

    for target in ("gmul", "ginv", "CliffordSystem.elements"):
        plant(monkeypatch, target, lambda f: refuse)
    with pytest.raises(Uncompiled):
        verify.suite_structure(B)
    assert [s.run(B, 3, 0).record() for s in SUITES[1:] if s.applies(B)] == records
    plant(monkeypatch, "CliffordSystem.group", lambda f: refuse)
    assert queries() == want


def _negated(check):
    return lambda *args: not check(*args)


def _swapped(pushforward):
    return lambda d: {"cofinite": "discrete", "discrete": "cofinite"}[pushforward(d)]


def _swapped_verdicts(classify):
    return lambda d: classify(ISOLATED_ZERO if d == EXCLUDED_BOXES_BASE else EXCLUDED_BOXES_BASE)


def _transposed_excluding(excluding):
    return classmethod(lambda cls, boxes: excluding([(j, i) for i, j in boxes]))


def _transposed_round_trips():
    """suite_pushforward_roundtrip's violations at seed 0 when excluding
    transposes: its 100 samples replayed, each excluding the transposes of its pairs."""
    rng, moved = random.Random(0), []
    for _ in range(100):
        pairs = {(rng.randrange(12), rng.randrange(12)) for _ in range(rng.randint(0, 4))}
        if pairs != {(j, i) for i, j in pairs}:
            moved.append(f"round trip moved {sorted((j, i) for i, j in pairs)}")
    return moved


TOPOLOGY_FAULTS = [  # (id, target, fault, each topology suite's violations)
    ("meets_almost_all_boxes-negated", "meets_almost_all_boxes", _negated, {"zero_nbhd_checks": [
        "cofinite basic flagged as missing too many boxes", "whole space flagged as missing too many boxes",
        "single-row family not refuted"]}),
    ("row_exceptions_finite-negated", "row_exceptions_finite", _negated, {"zero_nbhd_checks": [
        "two exceptions in row 2 flagged as infinite", "empty exception set in row 3 flagged as infinite",
        "fully removed row not refuted", "untouched row flagged as infinite"]}),
    ("column_exceptions_finite-negated", "column_exceptions_finite", _negated,
     {"zero_nbhd_checks": ["fully removed column not refuted"]}),
    ("classify_descriptor-swapped", "classify_descriptor", _swapped_verdicts,
     {"descriptor_classification": ["isolated descriptor misclassified", "box-complement descriptor misclassified"]}),
    ("descriptor_from_obj-accepts-any-kind", "descriptor_from_obj", lambda f: lambda obj: ISOLATED_ZERO,
     {"descriptor_classification": ["unknown descriptor accepted"]}),
    ("compactness_remainder-one-short", "compactness_remainder", lambda f: lambda B, u: f(B, u)[:-1],
     {"descriptor_classification": ["remainder size 7, expected 8"]}),  # c2c2: 2 boxes of |T| = 4
    ("compactness_remainder-outside-the-boxes", "compactness_remainder",
     lambda f: lambda B, u: [x._replace(i=x.i + 1) for x in f(B, u)],
     {"descriptor_classification": ["remainder overlaps the neighborhood"]}),
    ("pushforward_descriptor-swapped", "pushforward_descriptor", _swapped, {"pushforward_roundtrip": [
        "box-complement base must push to the cofinite base", "isolated zero must push to the discrete structure"]}),
    ("excluding-transposed", "BasicZeroNbhd.excluding", _transposed_excluding,
     {"pushforward_roundtrip": _transposed_round_trips()}),
]
TOPOLOGY_SUITES = {
    "zero_nbhd_checks": verify.suite_zero_nbhd_checks,
    "descriptor_classification": verify.suite_descriptor_classification,
    "pushforward_roundtrip": lambda B: verify.suite_pushforward_roundtrip(B, 0),
}


@pytest.mark.parametrize("target, fault, want", [pytest.param(*f[1:], id=f[0]) for f in TOPOLOGY_FAULTS])
def test_topology_suites_report_a_fault_in_each_name_they_read(c2c2, monkeypatch, target, fault, want):
    plant(monkeypatch, target, fault)
    assert {suite: run(c2c2).violations for suite, run in TOPOLOGY_SUITES.items()} == {
        suite: want.get(suite, []) for suite in TOPOLOGY_SUITES
    }


@pytest.mark.parametrize("bound", [2, 3, 64, 4096])
def test_zero_nbhd_checks_give_the_suites_verdicts_at_any_bound(c2c2, monkeypatch, bound):
    # the suite runs its eight checks at the one topology.PROBE_BOUND because
    # no verdict it reads turns with the bound; a family whose verdict does fails here
    results = []
    monkeypatch.setattr(topology, "PROBE_BOUND", bound)
    for name in ("meets_almost_all_boxes", "row_exceptions_finite", "column_exceptions_finite"):
        plant(monkeypatch, name, lambda check: lambda *args: results.append(check(*args)) or results[-1])
    result = verify.suite_zero_nbhd_checks(c2c2)
    assert result.violations == [] and result.params == {"probe_bound": bound}
    assert [r.probe_bound for r in results] == [bound] * 8


def test_the_planted_faults_reach_every_window_suite_violation_line(c2c2):
    # verify.py's window-suite lines that no sound system reaches; then the one refusal
    pinned = [v for *_, cells in FAULTS for cell in cells.values() for _, *vs in cell.values() for v in vs]
    for line in ("inverse is not an involution at ", " idempotents, expected ", "antisymmetry fails at ",
                 "zero is not strictly least under ", "H-class size off at ", "witness for ",
                 "index map not injective on the window", "inverses disagree at ", "could not finish: ",
                 "lies outside the window", " = 0"):
        assert any(line in v for v in pinned), line
    with pytest.raises(ValueError, match="^isomorphism suite applies to the trivial fiber only$"):
        verify.suite_bicyclic_isomorphism(c2c2, 1)


def test_the_planted_topology_faults_reach_every_violation_line():
    # 8 lines in zero_nbhd_checks, 5 in descriptor_classification, 3 in
    # pushforward_roundtrip; a round trip's line names its sample
    lines = {v.split(" [")[0] for *_, want in TOPOLOGY_FAULTS for vs in want.values() for v in vs}
    assert len(lines) == 16 and "round trip moved" in lines
