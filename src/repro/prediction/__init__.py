"""Performance prediction on the SPC model (paper §2 item 1, Fig. 1).

"SPC allows efficient performance prediction ...  Performance prediction
can be used to verify that the application meets its deadlines.
Moreover, it can be used to tune application parameters."  The paper's
companion tool is PAM-SoC (Varbanescu et al.); this package implements
the same idea: evaluate the expanded program's series-parallel
composition (``Program.root``) analytically against a machine
description, without simulating.

* :mod:`repro.prediction.pamela` — one recursive walk over the program
  for one option state: the contention-aware span of an iteration
  (series = sum; parallel on P processors = max(critical path, work/P)),
  its total work and heaviest job, a pipeline model for whole runs, and
  the two worst-case execution time bounds sketched in the paper's future
  work ("an XSPCL specification could be used to estimate the worst case
  execution time by recursively traversing the component graph");
* :mod:`repro.prediction.deadline` — the real-time check behind
  ``predict --deadline``: steady-state initiation interval and latency
  against a per-frame budget, and the smallest node count that meets it.

Prediction runs before execution, never inside a runtime: no backend
retunes itself from the model while a program runs.
"""

from repro.prediction.pamela import (
    LeafCostFn,
    cost_model_leaf_fn,
    iteration_cost,
    predict_iteration,
    predict_run,
    wcet_sequential,
    wcet_span,
)
from repro.prediction.deadline import (
    DeadlineReport,
    check_deadline,
    min_nodes_for_deadline,
)

__all__ = [
    "LeafCostFn",
    "cost_model_leaf_fn",
    "iteration_cost",
    "predict_iteration",
    "predict_run",
    "wcet_sequential",
    "wcet_span",
    "DeadlineReport",
    "check_deadline",
    "min_nodes_for_deadline",
]
