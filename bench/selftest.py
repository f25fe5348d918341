#!/usr/bin/env python3
"""Self-test of the benchmark's oracles and tracing.

    python3 bench/selftest.py

For every workload it checks three things.  A short run reports no failed
operation.  The same run with one deliberately wrong expected answer reports
a failed share above zero, so the oracle cannot pass vacuously.  Two traced
runs of one seed, in fresh processes, give exactly equal `*_calls` counts.
It also checks that the traced run puts each layer's work on the workload
named as its heavy one.  Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import run

SECONDS = 1

# (workload, metric, predicate, description)
ATTRIBUTION = (
    ("verify-all", "field.mul_calls", lambda v: v > 0, "> 0"),
    ("verify-all", "arrangement.build_calls", lambda v: v > 0, "> 0"),
    ("section-sweep", "field.mul_calls", lambda v: v == 0, "== 0"),
    ("section-sweep", "groebner.buchberger_calls", lambda v: v == 0, "== 0"),
    ("section-sweep", "multipoly.resultant_calls", lambda v: v > 0, "> 0"),
    ("deformation-family", "groebner.buchberger_calls", lambda v: v > 0, "> 0"),
    ("deformation-family", "series.substitute_calls", lambda v: v > 0, "> 0"),
)


def _expect(ok: bool, message: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'}  {message}")
    if not ok:
        sys.exit(1)


def _traced(workload: str) -> dict:
    cmd = [sys.executable, str(Path(run.__file__)), "--workload", workload,
           "--seconds", str(SECONDS), "--trace", "1"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True,
                         stdin=subprocess.DEVNULL, timeout=170)
    return json.loads(out.stdout.splitlines()[-1])["metrics"]


def main() -> int:
    for workload in sorted(run.DEFAULT_SEEDS):
        shares = []
        for corrupt in (False, True):
            args = run.parse_args(["--workload", workload, "--seconds", str(SECONDS)])
            result, _ = run.bench(args, corrupt_first=corrupt)
            shares.append(result["failed"] / result["attempted"])
        _expect(shares[0] == 0, f"{workload}: failed_share {shares[0]} on true answers")
        _expect(shares[1] > shares[0],
                f"{workload}: failed_share rises to {shares[1]} with one wrong answer")

        first, second = _traced(workload), _traced(workload)
        counts = [k for k in first if k.endswith("_calls") or k.endswith("_sum")]
        unequal = [k for k in counts if first[k] != second[k]]
        _expect(not unequal, f"{workload}: {len(counts)} traced counts repeat exactly "
                f"{unequal or ''}")
        _expect(first["trace.missing_names"]["value"] == 0,
                f"{workload}: every traced name exists")
        for name, metric, pred, text in ATTRIBUTION:
            if name == workload:
                value = first[metric]["value"]
                _expect(pred(value), f"{workload}: {metric} = {value} {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
