"""Measure one workload in this interpreter and print one JSON line.

``run.py`` starts this file in a fresh interpreter that leads its own
session, so that whatever the runtimes start can be found and waited for
(see :mod:`hygiene`).  ``--trace 0`` runs the output oracle and the
end-to-end metrics with tracing off; ``--trace 1`` runs the separate
traced pass that produces the per-layer numbers, the timed rounds among
them.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

import layers  # noqa: E402
import measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    signal.signal(signal.SIGALRM, measure.on_alarm)
    workload = WORKLOADS[args.workload]
    if args.quick:
        workload = workload.quick()
    bench = measure.Bench(workload, args.seed)
    out: dict[str, Any] = {"metrics": {}, "detail": {}}
    try:
        if args.trace:
            out = layers.traced_pass(bench, args.quick, HERE / "out")
        else:
            out = measure.untraced_pass(bench, args.seconds, args.quick)
    except measure.RunTimeout:
        pass  # already counted as a failed operation; report what we have
    units = layers.UNITS if args.trace else measure.UNITS
    missing = [n for n in units if out["metrics"].get(n) is None]
    bench.ops.errors += [f"metric {n} could not be measured" for n in missing]
    print(json.dumps({
        "correct": bench.ops.failed == 0 and not missing,
        "attempted": bench.ops.attempted,
        "failed": bench.ops.failed,
        "metrics": {
            name: {"value": out["metrics"][name], "unit": unit}
            for name, unit in units.items() if name not in missing
        },
        "errors": bench.ops.errors,
        "detail": out["detail"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
