"""Command line front end.

Machine-readable NDJSON goes to stdout, one record per line with sorted
keys, so identical inputs and seeds produce byte-identical output; human
summaries and timings go to stderr.  Exit codes: 0 all checks passed,
1 a check failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from pathlib import Path

from . import bicyclic, bruck_reilly
from .bruck_reilly import BRSystem, brinv, brmul, eta, hclass, idempotents_window, is_zero, nat_order, nat_order_oracle, simplicity_witness, zero_divisor_scan
from .config import load_system
from .errors import BrextError, ParseError, ValidationFailed, WitnessVerificationFailed
from .topology import (
    BasicZeroNbhd,
    Box,
    classify_descriptor,
    continuity_cert_zero,
    descriptor_from_obj,
    pushforward_descriptor,
)
from .verify import listed, run_all


MAX_PROBE_BOUND = 2**20  # two checks of verify --all walk about probe_bound / 2 boxes each

# What every command handler returns: its records, the last one the verdict,
# and the stderr summary line (None: main writes a timing line instead).
Outcome = tuple[list[dict], str | None]


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def build_parser() -> argparse.ArgumentParser:
    # Each option sits only on the commands that read it: output flags on
    # all, --system on the ten that load one, --window on the window scans.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="suppress the stderr summary")
    system = argparse.ArgumentParser(add_help=False, parents=[output])
    system.add_argument("--system", help="path to a system config (JSON)")
    window = argparse.ArgumentParser(add_help=False, parents=[system])
    window.add_argument("--window", type=int, default=3, help="index window for exhaustive scans (max 16)")

    p = argparse.ArgumentParser(prog="brext", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def command(name, func, parent, help, *positionals):
        sp = sub.add_parser(name, parents=[parent], help=help)
        for arg in positionals:
            sp.add_argument(arg)
        sp.set_defaults(func=func)
        return sp

    command("validate", _cmd_validate, system, "structural validation of a config")
    command("mul", _cmd_mul, system, "multiply two elements", "x", "y")
    command("inv", _cmd_inv, system, "invert an element", "x")
    command("eta", _cmd_eta, output, "apply the index map", "x")
    command("order", _cmd_order, system, "natural partial order, both routes", "x", "y")
    command("idempotents", _cmd_idempotents, window, "idempotent chain on the window")
    command("hclass", _cmd_hclass, system, "maximal subgroup through an element", "x")
    command("witness", _cmd_witness, system, "simplicity witness x*a*y = b", "a", "b")
    command("zeroscan", _cmd_zeroscan, window, "zero divisor scan on the window")
    sp = command("continuity", _cmd_continuity, system, "zero-neighborhood continuity certificate", "a")
    sp.add_argument("--side", choices=("left", "right"), default="left")
    sp.add_argument("--exclude", action="append", default=[], metavar="I,J", help="excluded box of the target, repeatable")
    command("classify", _cmd_classify, output, "compactness dichotomy for a descriptor", "descriptor")
    sp = command("pushforward", _cmd_pushforward, output, "image of a descriptor under the index map", "descriptor")
    sp.add_argument("--exclude", action="append", default=[], metavar="I,J", help="excluded box of a basic to push forward")
    sp = command("verify", _cmd_verify, window, "run the property suites")
    sp.add_argument("--all", action="store_true", help="run every applicable suite")
    sp.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    sp.add_argument("--probe-bound", type=int, default=64, dest="probe_bound", help=f"probe bound for finiteness checks (2..{MAX_PROBE_BOUND})")
    return p


def _need_system(args) -> BRSystem:
    if not args.system:
        raise ParseError(f"command {args.cmd!r} needs --system")
    return load_system(args.system)


_BOX = re.compile(rf"(\()?{bicyclic._INDEX},{bicyclic._INDEX}(?(1)\))")


def _parse_box(text: str) -> Box:
    """'I,J' or '(I,J)', with the element grammar's indices."""
    m = _BOX.fullmatch(text.strip())
    if not m:
        raise ParseError(f"cannot parse box {text!r}")
    return Box(int(m.group(2)), int(m.group(3)))


def _parse_descriptor(text: str):
    s = text.strip()
    if s in ("isolated", "excluded_boxes"):
        return descriptor_from_obj({"kind": s})
    if s.startswith("{"):
        try:
            return descriptor_from_obj(json.loads(s))
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"descriptor: {exc}") from exc
    path = Path(s)
    try:  # the probe too: a name over 255 bytes raises OSError there
        if path.exists():
            return descriptor_from_obj(json.loads(path.read_text()))
    except (OSError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"descriptor file {s}: {exc}") from exc
    raise ParseError(f"descriptor must be 'isolated', 'excluded_boxes', JSON, or a file: {text!r}")


def _summary(args, text: str) -> None:
    if not args.json:
        sys.stderr.write(text + "\n")


def _window(args) -> int:
    # read before _need_system, so a bad window is refused before the config loads
    if not 1 <= args.window <= bruck_reilly.MAX_WINDOW:
        raise ParseError(f"--window must be within 1..{bruck_reilly.MAX_WINDOW}")
    return args.window


def _cmd_validate(args) -> Outcome:
    B = _need_system(args)
    return [{"op": "validate", "system": B.name, "ok": True, "violations": []}], f"validate {B.name}: ok"


def _cmd_mul(args) -> Outcome:
    if args.system:
        B = _need_system(args)
        x, y = bruck_reilly.parse_elem(args.x), bruck_reilly.parse_elem(args.y)
        res = bruck_reilly.format_elem(brmul(B, x, y))
    else:
        res = bicyclic.format_elem(
            bicyclic.bmul(bicyclic.parse_elem(args.x), bicyclic.parse_elem(args.y))
        )
    return [{"op": "mul", "inputs": [args.x, args.y], "result": res, "ok": True}], f"mul: {res}"


def _cmd_inv(args) -> Outcome:
    if args.system:
        B = _need_system(args)
        res = bruck_reilly.format_elem(brinv(B, bruck_reilly.parse_elem(args.x)))
    else:
        res = bicyclic.format_elem(bicyclic.binv(bicyclic.parse_elem(args.x)))
    return [{"op": "inv", "inputs": [args.x], "result": res, "ok": True}], f"inv: {res}"


def _cmd_eta(args) -> Outcome:
    x = bruck_reilly.parse_elem(args.x)
    res = bicyclic.format_elem(eta(x))
    return [{"op": "eta", "inputs": [args.x], "result": res, "ok": True}], f"eta: {res}"


def _cmd_order(args) -> Outcome:
    B = _need_system(args)
    x, y = bruck_reilly.parse_elem(args.x), bruck_reilly.parse_elem(args.y)
    fast = nat_order(B, x, y)
    slow = nat_order_oracle(B, x, y)
    ok = fast == slow
    record = {"op": "order", "inputs": [args.x, args.y], "result": fast, "oracle": slow, "ok": ok}
    return [record], f"order: {fast}" + ("" if ok else " (routes disagree!)")


def _cmd_idempotents(args) -> Outcome:
    n, B = _window(args), _need_system(args)
    lst = idempotents_window(B, n)
    rendered = [bruck_reilly.format_elem(e) for e in lst]
    record = {"op": "idempotents", "system": B.name, "window": args.window, "result": rendered, "ok": True}
    return [record], f"idempotents: chain of {len(lst)}"


def _cmd_hclass(args) -> Outcome:
    B = _need_system(args)
    members = hclass(B, bruck_reilly.parse_elem(args.x))
    rendered = [bruck_reilly.format_elem(e) for e in members]
    record = {"op": "hclass", "inputs": [args.x], "result": rendered, "ok": True}
    return [record], f"hclass: {len(members)} elements"


def _cmd_witness(args) -> Outcome:
    B = _need_system(args)
    a, b = bruck_reilly.parse_elem(args.a), bruck_reilly.parse_elem(args.b)
    x, y = simplicity_witness(B, a, b)
    record = {
        "op": "witness",
        "inputs": [args.a, args.b],
        "result": {"x": bruck_reilly.format_elem(x), "y": bruck_reilly.format_elem(y)},
        "ok": True,
    }
    return [record], f"witness: x={bruck_reilly.format_elem(x)} y={bruck_reilly.format_elem(y)}"


def _cmd_zeroscan(args) -> Outcome:
    n, B = _window(args), _need_system(args)
    rep = zero_divisor_scan(B, n)
    record = {
        "op": "zeroscan",
        "system": B.name,
        "window": rep.window,
        "checked": rep.checked,
        "counterexamples": [
            [bruck_reilly.format_elem(x), bruck_reilly.format_elem(y)]
            for x, y in rep.counterexamples
        ],
        "ok": rep.ok,
    }
    return [record], f"zeroscan: {rep.checked} pairs, {len(rep.counterexamples)} hit zero"


def _cmd_continuity(args) -> Outcome:
    a = bruck_reilly.parse_elem(args.a)
    target = BasicZeroNbhd.excluding(_parse_box(t) for t in args.exclude)
    indices = [n for w in target.excluded for n in w] + ([] if is_zero(a) else [a.i, a.j])
    if max(indices, default=0) > bruck_reilly.MAX_WINDOW:
        raise ParseError(f"continuity takes indices up to {bruck_reilly.MAX_WINDOW}, got {max(indices)}")
    cert = continuity_cert_zero(_need_system(args), a, target, args.side)
    record = {
        "op": "continuity",
        "a": bruck_reilly.format_elem(a),
        "side": cert.side,
        "target_excluded": sorted(map(list, target.excluded)),
        "found_excluded": sorted(map(list, cert.found.excluded)),
        "trace": {
            f"{w.k},{w.l}": sorted(map(list, sols)) for w, sols in cert.trace.items()
        },
        "ok": cert.ok,
    }
    return [record], f"continuity: excluded {len(cert.found.excluded)} boxes, verified={cert.ok}"


def _cmd_classify(args) -> Outcome:
    d = _parse_descriptor(args.descriptor)
    c = classify_descriptor(d)
    record = {
        "op": "classify",
        "descriptor": d.kind,
        "verdict": c.verdict,
        "certificate": c.certificate,
        "ok": True,
    }
    return [record], f"classify: {c.verdict}"


def _cmd_pushforward(args) -> Outcome:
    d = _parse_descriptor(args.descriptor)
    out = pushforward_descriptor(d)
    record = {"op": "pushforward", "descriptor": d.kind, "result": out, "ok": True}
    if args.exclude:
        basic = BasicZeroNbhd.excluding(_parse_box(t) for t in args.exclude)
        record["excluded_points"] = sorted(bicyclic.format_elem(p) for p in basic.excluded)
    return [record], f"pushforward: {out}"


def _cmd_verify(args) -> Outcome:
    if not args.all:
        raise ParseError("verify needs --all")
    if args.probe_bound < 2:
        raise ParseError("--probe-bound must be at least 2")
    if args.probe_bound > MAX_PROBE_BOUND:
        raise ParseError(f"--probe-bound must be at most {MAX_PROBE_BOUND}")
    n, B = _window(args), _need_system(args)
    records = [r.record() for r in run_all(B, window=n, seed=args.seed, probe_bound=args.probe_bound)]
    failed = sum(not r["ok"] for r in records)
    records.append(
        {
            "op": "verify_summary",
            "system": B.name,
            "suites": len(records),
            "failed": failed,
            "ok": failed == 0,
        }
    )
    return records, None


def main(argv=None) -> int:
    """Run one command: emit its records, write its summary, and exit 1
    exactly when the last record (the verdict) is not ok."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    start = time.perf_counter()
    try:
        records, summary = args.func(args)
    except ValidationFailed as exc:
        records = [{"op": args.cmd, "system": exc.name, "ok": False, "violations": listed(exc.violations)}]
        summary = f"{args.cmd} {exc.name}: {len(exc.violations)} violations"
    except WitnessVerificationFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (BrextError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    for record in records:
        emit(record)
    code = 0 if records[-1]["ok"] else 1
    _summary(args, summary or f"verify: done in {time.perf_counter() - start:.2f}s, exit {code}")
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
