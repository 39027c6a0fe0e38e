#!/usr/bin/env python3
"""brext benchmark: one command, three workloads, every answer checked.

    python3 bench/run.py --workload {verify-shipped,algebra-chain3,query-mix}
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (or anywhere: paths are taken from this file).
It imports brext from `src/` next to this directory, single process, single
thread, standard library only.

--trace 0 repeats seeded batteries until the next one would end after
--seconds, setting the workload's systems up SETUP_REPS times before each
(median -> setup_s), and prints every end-to-end metric.  --trace 1 runs one
battery untraced and the same battery again with every public brext function
wrapped (see tracing.py), times the ROADMAP kernels, prints every per-layer
metric and writes the aggregated call edges to
.bench_trace/<workload>-seed<N>.json.

Times are reported in reference seconds (see speed.py): raw perf_counter time
corrected by a speed probe that runs alongside, because neighbour load on a
shared machine moves raw times by up to 2x.  Per-layer times taken from the
tracer stay raw and include the tracing cost.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
try:
    import kernels
    import speed
    import tracing
    import workloads
except ImportError as exc:  # no brext sources next to the benchmark
    sys.exit(f"bench: cannot import brext from {SRC}: {exc}")

SETUP_REPS = 20  # per battery

SUITES = (
    "structure", "associativity", "inverse_axioms", "eta_homomorphism", "eta_congruence",
    "idempotent_chain", "nat_order", "hclass", "simplicity", "zero_divisors",
    "bicyclic_axioms", "bicyclic_oracle", "box_solver", "continuity", "zero_nbhd_checks",
    "descriptor_classification", "pushforward_roundtrip", "bicyclic_isomorphism",
)

# per-layer metric -> traced function (defining module . qualified name)
CALLS = {
    "topology.verify_certificate_calls": "topology.verify_certificate",
    "topology.contains_calls": "topology.BasicZeroNbhd.contains",
    "topology.box_solve_calls": "topology.box_solve",
    "bruck_reilly.brmul_calls": "bruck_reilly.brmul",
    "clifford.cmul_calls": "clifford.cmul",
    "clifford.bond_calls": "clifford.CliffordSystem.bond",
    "groups.hom_calls": "groups.hom",
    "groups.gmul_calls": "groups.gmul",
    "clifford.theta_pow_calls": "clifford.theta_pow",
    "bicyclic.bmul_calls": "bicyclic.bmul",
    "bicyclic.oracle_mul_calls": "bicyclic.oracle_mul",
}
SELF_TIMES = {
    "topology.verify_certificate_self_s": "topology.verify_certificate",
    "bruck_reilly.nat_order_oracle_self_s": "bruck_reilly.nat_order_oracle",
    "bruck_reilly.brmul_self_s": "bruck_reilly.brmul",
    "clifford.cmul_self_s": "clifford.cmul",
    "clifford.theta_pow_self_s": "clifford.theta_pow",
    "bicyclic.oracle_mul_self_s": "bicyclic.oracle_mul",
}
TOTAL_TIMES = {
    "groups.validate_group_s": "groups.validate_group",
    "clifford.validate_system_s": "clifford.validate_system",
    "config.system_from_obj_s": "config.system_from_obj",
    **{f"verify.{s}_s": f"verify.suite_{s}" for s in SUITES},
}


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest value with p% at or below it."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def require_clean() -> None:
    left = tracing.installed_wrappers()
    if left:
        raise RuntimeError(f"tracing wrappers installed in an untraced phase: {left[:5]}")


def run_untraced(wl, seed: int, seconds: float) -> tuple[dict, int, int]:
    require_clean()
    setups, batteries, cycles = [], [], []
    start = perf_counter()
    with speed.SpeedClock() as clock:
        while True:
            t_cycle = perf_counter()
            # set-up is repeated before every battery so that its median samples
            # the whole run, like the other metrics, not one instant of it
            for _ in range(SETUP_REPS):
                t0 = perf_counter()
                state = wl.setup()
                setups.append((t0, perf_counter()))
            s = workloads.battery_seed(seed, len(batteries))
            bat, out = wl.execute(state, s)
            wl.check(state, s, bat, out)
            batteries.append(bat)
            cycles.append(perf_counter() - t_cycle)
            # stop before a battery that would likely end after --seconds
            if perf_counter() - start + statistics.median(cycles) > seconds:
                break
    require_clean()
    walls = [sum(clock.ref_s(t0, t1) for _, t0, t1 in b.ops) for b in batteries]
    ops = [clock.ref_s(t0, t1) for b in batteries for _, t0, t1 in b.ops]
    attempted = sum(b.attempted for b in batteries)
    failed = sum(b.failed for b in batteries)
    sys.stderr.write(
        f"bench: {wl.name} seed {seed}: {len(batteries)} batteries, {len(ops)} queries, "
        f"{attempted} checked ops, {failed} failed; raw/reference time "
        f"{sum(b.wall_s() for b in batteries) / sum(walls):.3f}, median probe "
        f"{1e6 * clock.median_probe_s():.1f} us\n"
    )
    metrics = {
        "setup_s": (statistics.median(clock.ref_s(t0, t1) for t0, t1 in setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "queries_per_s": (len(ops) / sum(ops), "1/s"),
        "query_p50_us": (1e6 * statistics.median(ops), "us"),
        "query_p99_us": (1e6 * percentile(ops, 99), "us"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, attempted, failed


def layer_metrics(tracer) -> dict:
    """Counts and raw seconds (tracing cost included) from the call edges."""
    m = {}
    for name, key in CALLS.items():
        m[name] = (tracer.calls(key), "count")
    for name, key in SELF_TIMES.items():
        m[name] = (tracer.self_s(key), "s")
    for name, key in TOTAL_TIMES.items():
        m[name] = (tracer.total_s(key), "s")
    cli_main = tracer.total_s("cli.main")
    m["cli.self_s"] = (cli_main - tracer.total_s("verify.run_all", parent="cli.main"), "s")
    return m


def query_metrics(wl, clock, base) -> dict:
    """Per-kind latency, count and time share, from the untraced battery;
    zero on workloads that make no queries."""
    lat = {k: [] for k in workloads.WEIGHTS}
    if wl.name == "query-mix":
        for kind, t0, t1 in base.ops:
            lat[kind].append(clock.ref_s(t0, t1))
    total = sum(map(sum, lat.values())) or 1.0
    m = {}
    for kind, xs in lat.items():
        m[f"query.{kind}_p50_us"] = (1e6 * statistics.median(xs) if xs else 0.0, "us")
        m[f"query.{kind}_count"] = (len(xs), "count")
        m[f"query.{kind}_time_share"] = (sum(xs) / total, "ratio")
    return m


def run_traced(wl, seed: int) -> tuple[dict, int, int]:
    require_clean()
    s = workloads.battery_seed(seed, 0)
    with speed.SpeedClock() as clock:
        state = wl.setup()
        base, out = wl.execute(state, s)
        wl.check(state, s, base, out)

        tracer = tracing.Tracer()
        with tracer:
            traced_state = wl.setup()
            traced, out = wl.execute(traced_state, s)
    wl.check(traced_state, s, traced, out)
    require_clean()
    kernel = kernels.kernel_metrics(wl.kernel_system(state), seed)

    metrics = layer_metrics(tracer)
    metrics["verify.checked_total"] = (traced.checked_total, "count")
    brmuls = tracer.calls("bruck_reilly.brmul")
    metrics["verify.products_per_check"] = (brmuls / traced.checked_total if traced.checked_total else 0.0, "ratio")
    base_s, traced_s = (sum(clock.ref_s(t0, t1) for _, t0, t1 in b.ops) for b in (base, traced))
    metrics["trace.overhead_frac"] = (traced_s / base_s - 1, "ratio")
    metrics.update(query_metrics(wl, clock, base))
    for name, value in kernel.items():
        metrics[name] = (value, name.rsplit("_", 1)[1])

    out_dir = ROOT / ".bench_trace"
    out_dir.mkdir(exist_ok=True)
    dump = {"workload": wl.name, "seed": seed, "metrics": {k: v for k, (v, _) in metrics.items()},
            "edges": tracer.dump()}
    (out_dir / f"{wl.name}-seed{seed}.json").write_text(json.dumps(dump, indent=1) + "\n")

    attempted = base.attempted + traced.attempted
    failed = base.failed + traced.failed
    return metrics, attempted, failed


def declared_metrics(trace: bool) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    wl = workloads.WORKLOADS[args.workload]()
    if args.trace:
        metrics, attempted, failed = run_traced(wl, args.seed)
    else:
        metrics, attempted, failed = run_untraced(wl, args.seed, args.seconds)
    mismatch = declared_metrics(bool(args.trace)) ^ set(metrics)
    if mismatch:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
