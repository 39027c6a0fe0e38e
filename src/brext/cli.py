"""Command line front end.

Machine-readable NDJSON goes to stdout, one record per line with sorted
keys, so identical inputs and seeds produce byte-identical output; human
summaries and timings go to stderr.  Exit codes: 0 all checks passed,
1 a check failed, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from . import bicyclic, bruck_reilly
from .bruck_reilly import BRSystem, brinv, brmul, eta, hclass, idempotents_window, nat_order, nat_order_oracle, simplicity_witness, zero_divisor_scan
from .config import load_system
from .errors import BrextError, ParseError, ValidationFailed, WitnessVerificationFailed
from .topology import (
    BasicZeroNbhd,
    Box,
    classify_descriptor,
    continuity_cert_zero,
    descriptor_from_obj,
    pushforward_basic,
    pushforward_descriptor,
)
from .verify import run_all


def emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")


def build_parser() -> argparse.ArgumentParser:
    # Each option sits only on the commands that read it: output flags on
    # all, --system on the ten that load one, --window on the window scans.
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="NDJSON only; implies --quiet")
    output.add_argument("--quiet", action="store_true", help="suppress the stderr summary")
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
    sp.add_argument("--probe-bound", type=int, default=64, dest="probe_bound", help="probe bound for finiteness checks (at least 2)")
    return p


def _need_system(args) -> BRSystem:
    if not args.system:
        raise ParseError(f"command {args.cmd!r} needs --system")
    return load_system(args.system)


def _parse_box(text: str) -> Box:
    parts = text.strip().lstrip("(").rstrip(")").split(",")
    if len(parts) != 2:
        raise ParseError(f"cannot parse box {text!r}")
    try:
        return Box(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise ParseError(f"cannot parse box {text!r}") from exc


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
    if path.exists():
        try:
            return descriptor_from_obj(json.loads(path.read_text()))
        except (OSError, json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"descriptor file {s}: {exc}") from exc
    raise ParseError(f"descriptor must be 'isolated', 'excluded_boxes', JSON, or a file: {text!r}")


def _summary(args, text: str) -> None:
    if not (args.quiet or args.json):
        sys.stderr.write(text + "\n")


def _window(args) -> int:
    if not 1 <= args.window <= bruck_reilly.MAX_WINDOW:
        raise ParseError(f"--window must be within 1..{bruck_reilly.MAX_WINDOW}")
    return args.window


def _cmd_validate(args) -> int:
    B = _need_system(args)
    emit({"op": "validate", "system": B.name, "ok": True, "violations": []})
    _summary(args, f"validate {B.name}: ok")
    return 0


def _cmd_mul(args) -> int:
    if args.system:
        B = _need_system(args)
        x, y = bruck_reilly.parse_elem(args.x), bruck_reilly.parse_elem(args.y)
        res = bruck_reilly.format_elem(brmul(B, x, y))
    else:
        res = bicyclic.format_elem(
            bicyclic.bmul(bicyclic.parse_elem(args.x), bicyclic.parse_elem(args.y))
        )
    emit({"op": "mul", "inputs": [args.x, args.y], "result": res, "ok": True})
    _summary(args, f"mul: {res}")
    return 0


def _cmd_inv(args) -> int:
    if args.system:
        B = _need_system(args)
        res = bruck_reilly.format_elem(brinv(B, bruck_reilly.parse_elem(args.x)))
    else:
        res = bicyclic.format_elem(bicyclic.binv(bicyclic.parse_elem(args.x)))
    emit({"op": "inv", "inputs": [args.x], "result": res, "ok": True})
    _summary(args, f"inv: {res}")
    return 0


def _cmd_eta(args) -> int:
    x = bruck_reilly.parse_elem(args.x)
    res = bicyclic.format_elem(eta(x))
    emit({"op": "eta", "inputs": [args.x], "result": res, "ok": True})
    _summary(args, f"eta: {res}")
    return 0


def _cmd_order(args) -> int:
    B = _need_system(args)
    x, y = bruck_reilly.parse_elem(args.x), bruck_reilly.parse_elem(args.y)
    fast = nat_order(B, x, y)
    slow = nat_order_oracle(B, x, y)
    ok = fast == slow
    emit({"op": "order", "inputs": [args.x, args.y], "result": fast, "oracle": slow, "ok": ok})
    _summary(args, f"order: {fast}" + ("" if ok else " (routes disagree!)"))
    return 0 if ok else 1


def _cmd_idempotents(args) -> int:
    B = _need_system(args)
    lst = idempotents_window(B, _window(args))
    rendered = [bruck_reilly.format_elem(e) for e in lst]
    emit({"op": "idempotents", "system": B.name, "window": args.window, "result": rendered, "ok": True})
    _summary(args, f"idempotents: chain of {len(lst)}")
    return 0


def _cmd_hclass(args) -> int:
    B = _need_system(args)
    members = hclass(B, bruck_reilly.parse_elem(args.x))
    rendered = [bruck_reilly.format_elem(e) for e in members]
    emit({"op": "hclass", "inputs": [args.x], "result": rendered, "ok": True})
    _summary(args, f"hclass: {len(members)} elements")
    return 0


def _cmd_witness(args) -> int:
    B = _need_system(args)
    a, b = bruck_reilly.parse_elem(args.a), bruck_reilly.parse_elem(args.b)
    x, y = simplicity_witness(B, a, b)
    emit(
        {
            "op": "witness",
            "inputs": [args.a, args.b],
            "result": {"x": bruck_reilly.format_elem(x), "y": bruck_reilly.format_elem(y)},
            "ok": True,
        }
    )
    _summary(args, f"witness: x={bruck_reilly.format_elem(x)} y={bruck_reilly.format_elem(y)}")
    return 0


def _cmd_zeroscan(args) -> int:
    B = _need_system(args)
    rep = zero_divisor_scan(B, _window(args))
    emit(
        {
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
    )
    _summary(args, f"zeroscan: {rep.checked} pairs, {len(rep.counterexamples)} hit zero")
    return 0 if rep.ok else 1


def _cmd_continuity(args) -> int:
    B = _need_system(args)
    a = bruck_reilly.parse_elem(args.a)
    target = BasicZeroNbhd.excluding(_parse_box(t) for t in args.exclude)
    cert = continuity_cert_zero(B, a, target, args.side)
    emit(
        {
            "op": "continuity",
            "a": bruck_reilly.format_elem(a),
            "side": cert.side,
            "target_excluded": sorted(map(list, target.excluded)),
            "found_excluded": sorted(map(list, cert.found.excluded)),
            "trace": {
                f"{w.i},{w.j}": sorted(map(list, sols)) for w, sols in cert.trace.items()
            },
            "ok": cert.ok,
        }
    )
    _summary(args, f"continuity: excluded {len(cert.found.excluded)} boxes, verified={cert.ok}")
    return 0 if cert.ok else 1


def _cmd_classify(args) -> int:
    d = _parse_descriptor(args.descriptor)
    c = classify_descriptor(d)
    emit(
        {
            "op": "classify",
            "descriptor": d.kind,
            "verdict": c.verdict,
            "certificate": c.certificate,
            "ok": True,
        }
    )
    _summary(args, f"classify: {c.verdict}")
    return 0


def _cmd_pushforward(args) -> int:
    d = _parse_descriptor(args.descriptor)
    out = pushforward_descriptor(d)
    record = {"op": "pushforward", "descriptor": d.kind, "result": out.kind, "ok": True}
    if args.exclude:
        basic = BasicZeroNbhd.excluding(_parse_box(t) for t in args.exclude)
        record["excluded_points"] = sorted(
            bicyclic.format_elem(p) for p in pushforward_basic(basic)
        )
    emit(record)
    _summary(args, f"pushforward: {out.kind}")
    return 0


def _cmd_verify(args) -> int:
    if not args.all:
        raise ParseError("verify needs --all")
    if args.probe_bound < 2:
        raise ParseError("--probe-bound must be at least 2")
    B = _need_system(args)
    results = run_all(B, window=_window(args), seed=args.seed, probe_bound=args.probe_bound)
    failed = 0
    for r in results:
        emit(r.record())
        if not r.ok:
            failed += 1
    emit(
        {
            "op": "verify_summary",
            "system": B.name,
            "suites": len(results),
            "failed": failed,
            "ok": failed == 0,
        }
    )
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    start = time.perf_counter()
    try:
        code = args.func(args)
    except ValidationFailed as exc:
        name = Path(args.system).stem if args.system else ""
        emit(
            {
                "op": args.cmd,
                "system": name,
                "ok": False,
                "violations": list(exc.report.violations),
            }
        )
        _summary(args, f"{args.cmd} {name}: {len(exc.report.violations)} violations")
        return 1
    except WitnessVerificationFailed as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (BrextError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    if args.cmd == "verify":
        elapsed = time.perf_counter() - start
        _summary(args, f"verify: done in {elapsed:.2f}s, exit {code}")
    return code


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
