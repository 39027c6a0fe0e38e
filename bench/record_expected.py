#!/usr/bin/env python3
"""Rewrite bench/expected.json from the program as it stands, at seed 0.

    python3 bench/record_expected.py

The stored digests are the benchmark's correctness reference for
algebra-chain3 (one per suite record) and query-mix (the answers of the
first battery at seed 0).  Re-record only when those outputs are meant to
change; the goldens under tests/golden gate verify-shipped directly.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    chain = workloads.AlgebraChain3()
    B = chain.setup()
    _, results = chain.execute(B, 0)
    records = {name: r.record() for name, r in results}
    bad = [name for name, rec in records.items() if not rec["ok"]]

    mix = workloads.QueryMix()
    state = mix.setup()
    _, answers = mix.execute(state, 0)
    bad += [f"{k} {a!r}" for k, a, got in answers if got is None or not mix.verify_answer(state[0], k, a, got)]
    if bad:
        sys.stderr.write(f"refusing to record: failed {bad[:5]}\n")
        return 1

    expected = {
        "algebra-chain3": {
            name: {"checked": rec["checked"], "sha256": workloads.record_digest(rec)}
            for name, rec in records.items()
        },
        "query-mix": {
            "sha256_block0": workloads.answers_digest(mix.render(k, a, got) for k, a, got in answers)
        },
    }
    workloads.EXPECTED.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
