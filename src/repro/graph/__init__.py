"""Flat task graphs and their series-parallel analyses.

The paper adopts van Gemund's SPC (Series-Parallel Contention) model: an
application's task graph is built recursively from *series* and
*parallel* composition of subgraphs, with components at the leaves.
That composition is the expanded program's IR (``Program.root``), which
:mod:`repro.prediction` walks directly;
:meth:`~repro.core.program.Program.build_graph` lowers it to the
:class:`~repro.graph.taskgraph.TaskGraph` (a plain DAG) that the Hinch
scheduler and the SpaceCAKE simulator execute.

Cross-dependency regions (XSPCL ``shape="crossdep"``) are deliberately
*not* series-parallel; :mod:`repro.graph.analysis` recognizes SP graphs
and provides SP-ization (a synchronization barrier between layers), the
transformation the paper prescribes before prediction and the one the
prediction walk applies to a crossdep region's parblocks.
"""

from repro.graph.taskgraph import TaskGraph, TaskNode
from repro.graph.analysis import (
    is_series_parallel,
    sp_ize,
    sp_reduction,
)

__all__ = [
    "TaskGraph",
    "TaskNode",
    "is_series_parallel",
    "sp_ize",
    "sp_reduction",
]
