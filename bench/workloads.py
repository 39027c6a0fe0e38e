"""The three brext benchmark workloads and the correctness gate of each.

Every workload drives brext from outside, through its public functions and
`cli.main`, in one process and one thread.  Functions are always reached as
module attributes at call time (`bruck_reilly.brmul`, never an imported
name), so the tracing wrappers see every call the benchmark makes.

A workload has a set-up (building and validating its systems, timed for
`setup_s`) and a battery: one fixed, seeded unit of work whose every answer
is checked after it was timed.  A run repeats batteries for the requested
time, each with its own seed derived from the run's seed.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from brext import bicyclic, bruck_reilly, cli, clifford, config, topology, verify
from brext.bruck_reilly import BRElem
from brext.clifford import CliffordElement

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

SEED_STRIDE = 1000  # battery b of run seed S uses seed S * SEED_STRIDE + b


def battery_seed(seed: int, b: int) -> int:
    return seed * SEED_STRIDE + b


def ndjson(record: dict) -> str:
    """One record exactly as the CLI prints it."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def with_seed(record: dict, seed: int) -> dict:
    """The record with its suite seed (if it has one) replaced."""
    params = record.get("params", {})
    if "seed" not in params:
        return record
    return {**record, "params": {**params, "seed": seed}}


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def record_digest(record: dict) -> str:
    """Digest of a suite record; the seed only reaches the params, so the
    record is hashed with seed 0 and every seed shares one digest."""
    return hashlib.sha256(ndjson(with_seed(record, 0)).encode()).hexdigest()


def answers_digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@dataclass
class Battery:
    """Outcome of one battery: when each op ran and the checks' verdict.

    `ops` are (kind, start, end) perf_counter instants per timed call;
    `attempted`/`failed` count the checked units (suites, or queries for
    query-mix).
    """

    ops: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checked_total: int = 0

    def timed(self, kind, call):
        t0 = perf_counter()
        result = call()
        self.ops.append((kind, t0, perf_counter()))
        return result

    def wall_s(self) -> float:
        """Raw seconds inside the program's calls."""
        return sum(t1 - t0 for _, t0, t1 in self.ops)


def _report_failure(what: str) -> None:
    sys.stderr.write(f"bench: check failed: {what}\n")


# -- systems ----------------------------------------------------------------


def chain3_obj() -> dict:
    """C12 > C6 > C3 with reduction bonds, an adjoined zero, and
    theta = x -> 8x into C12 on every level.

    |T| = 21, and on the top group theta has tail 1 and cycle 2
    (1 -> 8 -> 4 -> 8), so theta_pow is not the identity after one step.
    """

    def cyclic(n):
        return {"order": n, "table": [[(a + b) % n for b in range(n)] for a in range(n)], "identity": 0}

    return {
        "format_version": "1",
        "name": "chain3",
        "with_zero": True,
        "chain": 3,
        "groups": [cyclic(12), cyclic(6), cyclic(3)],
        "bonds": {
            "0->1": [x % 6 for x in range(12)],
            "0->2": [x % 3 for x in range(12)],
            "1->2": [x % 3 for x in range(6)],
        },
        "theta": [[8 * x % 12 for x in range(n)] for n in (12, 6, 3)],
    }


def theta_tail_cycle(B) -> tuple[int, int]:
    """Longest tail and longest cycle of theta iterated on the top group."""
    step = B.sys.theta[0].map
    tail = cycle = 0
    for x in range(len(step)):
        seen = {}
        while x not in seen:
            seen[x] = len(seen)
            x = step[x]
        tail = max(tail, seen[x])
        cycle = max(cycle, len(seen) - seen[x])
    return tail, cycle


def build_chain3():
    """Validate chain3 through the config loader, so its cost is set-up."""
    B = config.system_from_obj(chain3_obj())
    tail, cycle = theta_tail_cycle(B)
    if tail < 1 or cycle < 2 or B.sys.order() < 20:
        # a trivial theta or a small T would hide the costs chain3 exists for
        raise RuntimeError(f"chain3 degenerated: tail {tail}, cycle {cycle}, |T| {B.sys.order()}")
    return B


# -- verify-shipped -----------------------------------------------------------


class VerifyShipped:
    """`brext verify --all --window 3` on each shipped system, as users run it.

    Chosen because it is the command users wait for and the one Tier-1
    criteria 7 and 9 gate.  Most of its time is topology.verify_certificate
    re-walking windows in the continuity suite; its theta exponents stay
    small, so theta_pow is idle here.  One op for the latency metrics is one
    CLI command; the checked units are the suites.
    """

    name = "verify-shipped"
    systems = ("c2c2", "trivial")
    window = 3

    def __init__(self):
        self.golden = {n: (GOLDEN / f"verify_{n}.ndjson").read_text() for n in self.systems}

    def setup(self):
        return {n: config.load_system(config.data_path(n)) for n in self.systems}

    def kernel_system(self, state):
        return state["c2c2"]

    def expected_output(self, name: str, seed: int) -> str:
        if seed == 0:
            return self.golden[name]  # byte for byte, as the golden files hold it
        lines = [ndjson(with_seed(json.loads(l), seed)) for l in self.golden[name].splitlines()]
        return "".join(l + "\n" for l in lines)

    def execute(self, state, seed: int):
        bat = Battery()
        outputs = []
        for name in self.systems:
            argv = ["verify", "--all", "--system", str(config.data_path(name)),
                    "--window", str(self.window), "--seed", str(seed), "--json"]
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = bat.timed(name, lambda: cli.main(argv))
            outputs.append((name, code, buf.getvalue()))
        return bat, outputs

    def check(self, state, seed: int, bat: Battery, outputs) -> None:
        for name, code, out in outputs:
            got = out.splitlines()
            want = self.expected_output(name, seed).splitlines()
            suites = len(want) - 1  # the last line is the summary
            bad = sum(1 for i in range(suites) if i >= len(got) or got[i] != want[i])
            if not bad and (got != want or code != 0):
                bad = 1
            if bad:
                _report_failure(f"{name} seed {seed}: {bad} suite records differ (exit {code})")
            bat.attempted += suites
            bat.failed += bad
            bat.checked_total += sum(json.loads(l)["checked"] for l in got if '"checked"' in l)


# -- algebra-chain3 -----------------------------------------------------------


class AlgebraChain3:
    """The window-exhaustive algebra suites at window 2 on chain3 (|T| = 21).

    Chosen because the product path (brmul -> cmul -> bond/hom -> gmul) and
    the nat_order_oracle scan do almost all the work while topology does
    none, and because |T| >> 4 is where a compiled product table pays off;
    the shipped c2c2 system is too small to show that.
    """

    name = "algebra-chain3"
    window = 2

    def setup(self):
        return build_chain3()

    def kernel_system(self, state):
        return state

    def calls(self, B, seed: int):
        w = self.window
        return [
            ("associativity", lambda: verify.suite_associativity(B, w)),
            ("inverse_axioms", lambda: verify.suite_inverse_axioms(B, w)),
            ("eta_homomorphism", lambda: verify.suite_eta_homomorphism(B, w)),
            ("eta_congruence", lambda: verify.suite_eta_congruence(B, w)),
            ("idempotent_chain", lambda: verify.suite_idempotent_chain(B, 8)),
            ("nat_order", lambda: verify.suite_nat_order(B, w)),
            ("hclass", lambda: verify.suite_hclass(B, w)),
            ("simplicity", lambda: verify.suite_simplicity(B, seed)),
            ("zero_divisors", lambda: verify.suite_zero_divisors(B, 4)),
        ]

    def execute(self, B, seed: int):
        bat = Battery()
        results = [(name, bat.timed(name, call)) for name, call in self.calls(B, seed)]
        return bat, results

    @functools.cached_property
    def expected(self) -> dict:
        return load_expected()["algebra-chain3"]

    def check(self, B, seed: int, bat: Battery, results) -> None:
        for name, result in results:
            rec = result.record()
            bat.attempted += 1
            bat.checked_total += rec["checked"]
            want = self.expected[name]
            if not rec["ok"] or rec["checked"] != want["checked"] or record_digest(rec) != want["sha256"]:
                bat.failed += 1
                _report_failure(f"chain3 {name} seed {seed}: {ndjson(rec)[:200]}")


# -- query-mix ----------------------------------------------------------------

BLOCK = 1200  # queries per battery; p99 then has 12 samples beyond it
BIG_LOG2 = 16  # mul/inv/hclass/witness indices are log-uniform below 2**16
SMALL = 12  # order indices: the oracle's idempotent scan grows with them
CERT = 6  # continuity indices: solved boxes reach 2 * CERT, and the
# certificate re-walk covers the square up to the largest box plus 2

# Chosen so that mul takes the largest share of query time and no kind more
# than half of it at the commit that defined the benchmark (see NOTES.md).
WEIGHTS = {"mul": 40, "inv": 10, "order": 24, "hclass": 14, "witness": 10, "continuity": 2}
assert BLOCK % sum(WEIGHTS.values()) == 0


class QueryMix:
    """A seeded closed loop (one client, no think time) of one-off queries
    mirroring the CLI's mul, inv, order, hclass, witness and continuity.

    Chosen because no query reuses another's products, so memo caches get
    no hits, and because theta exponents in the thousands make theta_pow
    dominant: the opposite of the verify workloads, so a batch-verification
    gain that costs single queries shows here.
    """

    name = "query-mix"

    def setup(self):
        B = build_chain3()
        return B, [(s.level, s.elem) for s in B.sys.elements()]

    def kernel_system(self, state):
        return state[0]

    # inputs ---------------------------------------------------------------

    @staticmethod
    def _big(rng):
        return int(2 ** rng.uniform(0, BIG_LOG2)) - 1

    @staticmethod
    def _small(rng):
        return rng.randrange(SMALL + 1)

    @staticmethod
    def _cert(rng):
        return rng.randrange(CERT + 1)

    def _elem(self, rng, T, index):
        level, elem = rng.choice(T)
        return BRElem(index(rng), CliffordElement(level, elem), index(rng))

    def queries(self, state, seed: int):
        B, T = state
        rng = random.Random(seed)
        # every battery holds each kind exactly in proportion to its weight,
        # so batteries differ in their inputs but not in their mix
        deck = [k for k in WEIGHTS for _ in range(WEIGHTS[k] * BLOCK // sum(WEIGHTS.values()))]
        rng.shuffle(deck)
        out = []
        for kind in deck:
            if kind in ("mul", "witness"):
                args = (self._elem(rng, T, self._big), self._elem(rng, T, self._big))
            elif kind in ("inv", "hclass"):
                args = (self._elem(rng, T, self._big),)
            elif kind == "order":
                y = self._elem(rng, T, self._small)
                if rng.random() < 0.5:  # same index gap on both sides, so some pairs compare
                    d = rng.randrange(SMALL + 1 - max(y.i, y.j))
                    level, elem = rng.choice(T)
                    x = BRElem(y.i + d, CliffordElement(level, elem), y.j + d)
                else:
                    x = self._elem(rng, T, self._small)
                args = (x, y)
            else:
                boxes = [(self._cert(rng), self._cert(rng)) for _ in range(rng.randint(0, 3))]
                args = (self._elem(rng, T, self._cert), tuple(boxes), rng.choice(("left", "right")))
            out.append((kind, args))
        return out

    # one query, as the CLI subcommand computes it ---------------------------

    @staticmethod
    def answer(B, kind, args):
        br = bruck_reilly
        if kind == "mul":
            return br.brmul(B, *args)
        if kind == "inv":
            return br.brinv(B, *args)
        if kind == "order":
            return br.nat_order(B, *args), br.nat_order_oracle(B, *args)
        if kind == "hclass":
            return br.hclass(B, *args)
        if kind == "witness":
            return br.simplicity_witness(B, *args)
        a, boxes, side = args
        return topology.continuity_cert_zero(B, a, topology.BasicZeroNbhd.excluding(boxes), side)

    # second routes ----------------------------------------------------------

    @staticmethod
    def verify_answer(B, kind, args, got) -> bool:
        br = bruck_reilly
        if kind == "mul":
            x, y = args
            return not br.is_zero(got) and br.eta(got) == bicyclic.bmul(br.eta(x), br.eta(y))
        if kind == "inv":
            (x,) = args
            unit = CliffordElement(x.s.level, B.sys.group(x.s.level).identity)
            return br.eta(got) == bicyclic.binv(br.eta(x)) and clifford.cmul(B.sys, x.s, got.s) == unit
        if kind == "order":
            fast, slow = got
            return fast == slow
        if kind == "hclass":
            (x,) = args
            return (
                x in got
                and len(set(got)) == B.sys.group(x.s.level).order
                and all((y.i, y.s.level, y.j) == (x.i, x.s.level, x.j) for y in got)
            )
        if kind == "witness":
            a, b = args
            wx, wy = got
            return br.brmul(B, br.brmul(B, wx, a), wy) == b
        a, boxes, side = args
        bound = 2 * CERT  # every solution of a box equation with indices <= CERT lies below it
        brute = {w: topology.box_solve_brute(br.box(a), w, side, bound) for w in got.target.excluded}
        union = frozenset().union(*brute.values())
        return got.ok and got.found.excluded == union and got.trace == brute

    @staticmethod
    def render(kind, args, got) -> str:
        fmt = bruck_reilly.format_elem
        if kind == "order":
            shown = got
        elif kind in ("hclass", "witness"):
            shown = [fmt(y) for y in got]
        elif kind == "continuity":
            shown = [sorted(map(list, got.found.excluded)), got.ok]
        else:
            shown = fmt(got)
        inputs = [fmt(a) if isinstance(a, BRElem) else a for a in args]
        return json.dumps([kind, inputs, shown], separators=(",", ":"))

    def execute(self, state, seed: int):
        B, _ = state
        bat = Battery()
        answers = []
        for kind, args in self.queries(state, seed):
            t0 = perf_counter()
            try:
                got = self.answer(B, kind, args)
            except Exception:  # a raised query is a failed query; keep the loop going
                got = None
                traceback.print_exc()
            bat.ops.append((kind, t0, perf_counter()))
            answers.append((kind, args, got))
        return bat, answers

    def check(self, state, seed: int, bat: Battery, answers) -> None:
        B, _ = state
        lines = []
        for kind, args, got in answers:
            bat.attempted += 1
            if got is None or not self.verify_answer(B, kind, args, got):
                bat.failed += 1
                _report_failure(f"query {kind} {args!r}")
            elif seed == 0:
                lines.append(self.render(kind, args, got))
        if seed == 0 and bat.failed == 0:
            digest = answers_digest(lines)
            if digest != load_expected()["query-mix"]["sha256_block0"]:
                bat.failed += 1
                _report_failure(f"query-mix answers at seed 0 hash to {digest}")


WORKLOADS = {w.name: w for w in (VerifyShipped, AlgebraChain3, QueryMix)}
