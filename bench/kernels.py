"""ns/op of the six ROADMAP kernels, timed without tracing, in reference
time (see speed.py).

Inputs are drawn from the system a workload uses, so each workload reports
the kernels on its own system: bmul on the index images of its elements,
cmul and theta_pow on its chain of groups, brmul on window elements,
box_solve on boxes of the size the continuity suite solves, and
verify_certificate on one certificate built from its system.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter

from brext import bicyclic, bruck_reilly, clifford, topology
from brext.bruck_reilly import BRElem
from speed import SpeedClock

INPUTS = 256
REPEATS = 5
MIN_REPEAT_S = 0.05


def _per_call_s(call, inputs) -> float:
    """Median over REPEATS of the mean time per call, each repeat looping
    the inputs until it has run for at least MIN_REPEAT_S."""
    spans = []
    with SpeedClock() as clock:
        for _ in range(REPEATS):
            calls = 0
            t0 = perf_counter()
            while True:
                for args in inputs:
                    call(*args)
                calls += len(inputs)
                t1 = perf_counter()
                if t1 - t0 >= MIN_REPEAT_S:
                    break
            spans.append((t0, t1, calls))
    return statistics.median(clock.ref_s(t0, t1) / calls for t0, t1, calls in spans)


def kernel_metrics(B, seed: int) -> dict[str, float]:
    rng = random.Random(seed)
    T = list(B.sys.elements())

    def elem(hi):
        return BRElem(rng.randrange(hi), rng.choice(T), rng.randrange(hi))

    pairs = [(elem(8), elem(8)) for _ in range(INPUTS)]
    eta_pairs = [(bruck_reilly.eta(x), bruck_reilly.eta(y)) for x, y in pairs]
    t_pairs = [(B.sys, x.s, y.s) for x, y in pairs]
    boxes = [
        (topology.Box(rng.randrange(13), rng.randrange(13)),
         topology.Box(rng.randrange(13), rng.randrange(13)),
         rng.choice(("left", "right")))
        for _ in range(INPUTS)
    ]
    cert = topology.continuity_cert_zero(
        B, elem(3), topology.BasicZeroNbhd.excluding([(rng.randrange(11), rng.randrange(11)) for _ in range(2)]), "left"
    )
    ns = 1e9
    return {
        "bicyclic.bmul_ns": ns * _per_call_s(bicyclic.bmul, eta_pairs),
        "clifford.cmul_ns": ns * _per_call_s(clifford.cmul, t_pairs),
        "clifford.theta_pow_1_ns": ns * _per_call_s(clifford.theta_pow, [(B.sys, x.s, 1) for x, _ in pairs]),
        "clifford.theta_pow_4096_ns": ns * _per_call_s(clifford.theta_pow, [(B.sys, x.s, 4096) for x, _ in pairs[:16]]),
        "bruck_reilly.brmul_ns": ns * _per_call_s(bruck_reilly.brmul, [(B, x, y) for x, y in pairs]),
        "topology.box_solve_ns": ns * _per_call_s(topology.box_solve, boxes),
        "topology.verify_certificate_us": 1e6 * _per_call_s(topology.verify_certificate, [(B, cert)]),
    }
