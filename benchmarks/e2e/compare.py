"""Compare two sets of benchmark invocations against the committed bounds.

    python benchmarks/e2e/compare.py A.json B.json

Each file is a JSON list of invocations as saved by ``run.py --json`` (one
invocation) or ``run.py --aa`` (``out/aa-A.json``, ``out/aa-B.json``); an
invocation maps workload -> metric -> value.  For every (workload, metric)
pair it prints both medians, how much worse B is than A as a share of A,
and the metric's bound from BENCHMARK.json, and ends with PASS or FAIL.
Per-layer metrics (sets taken with ``--trace 1``) have no bound: their rows
are printed for information and never fail.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

Invocation = dict[str, dict[str, float]]


def report(a: list[Invocation], b: list[Invocation], spec: dict,
           *, symmetric: bool = False) -> bool:
    """Print the table; True when no end-to-end metric is beyond its bound.

    ``symmetric`` is for two sets of the same code (A/A): a difference in
    either direction counts.
    """
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    ok = True
    print(f"{'workload':<16} {'metric':<40} {'median A':>12} {'median B':>12} "
          f"{'B worse by':>10} {'bound':>6}")
    for workload in a[0]:
        for name in a[0][workload]:
            meta = metrics[name]
            med_a = statistics.median(run[workload][name] for run in a)
            med_b = statistics.median(run[workload][name] for run in b)
            worse = (med_b - med_a) / med_a if med_a else 0.0
            if meta["better"] == "higher":
                worse = -worse
            bound = meta.get("bound")
            within = (bound is None
                      or (abs(worse) if symmetric else worse) <= bound)
            ok &= within
            print(f"{workload:<16} {name:<40} {med_a:>12.6g} {med_b:>12.6g} "
                  f"{worse:>+10.1%} {'-' if bound is None else bound:>6}"
                  f"{'' if within else '  FAIL'}")
    print("PASS" if ok else "FAIL")
    return ok


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    root = Path(__file__).resolve().parents[2]
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return 0 if report(a, b, spec) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
