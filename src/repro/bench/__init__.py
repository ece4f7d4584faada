"""Paper reproduction: regenerates every result figure of the paper.

* :mod:`repro.bench.harness` — application variants (PiP-1/2, JPiP-1/2,
  Blur-3x3/5x5, PiP-12, JPiP-12, Blur-35), their XSPCL and sequential
  builds, and cached simulation runners;
* :mod:`repro.bench.figures` — FIG8 (sequential overhead), FIG9 (speedup
  on 1..9 nodes), FIG10 (reconfiguration overhead), plus the ablations
  listed in DESIGN.md §5;
* :mod:`repro.bench.report` — ASCII tables and charts so the regenerated
  figures print like the paper's;
* :mod:`repro.bench.golden` — the cycle-exact fixture the simulator's
  fast paths are held to.

Nothing here times this implementation: how fast the runtimes and the
simulator run is measured by ``benchmarks/e2e/run.py`` alone
(docs/performance.md).
"""

from repro.bench.harness import (
    RECONFIG_VARIANTS,
    STATIC_VARIANTS,
    Harness,
)
from repro.bench.figures import (
    fig8_sequential_overhead,
    fig9_speedup,
    fig10_reconfiguration_overhead,
)

__all__ = [
    "Harness",
    "STATIC_VARIANTS",
    "RECONFIG_VARIANTS",
    "fig8_sequential_overhead",
    "fig9_speedup",
    "fig10_reconfiguration_overhead",
]
