"""Series-parallel graph algebra and flat task graphs.

This package implements the SPC (Series-Parallel Contention) structural
model the paper adopts from van Gemund: an application's task graph is
built recursively from *series* and *parallel* composition of subgraphs,
with components at the leaves.  An expanded program gives both forms:
:meth:`~repro.core.program.Program.to_sp_tree` the
:class:`~repro.graph.spc.SPNode` tree that prediction evaluates, and
:meth:`~repro.core.program.Program.build_graph` the
:class:`~repro.graph.taskgraph.TaskGraph` (a plain DAG) that the Hinch
scheduler and the SpaceCAKE simulator execute.

Cross-dependency regions (XSPCL ``shape="crossdep"``) are deliberately
*not* series-parallel; :mod:`repro.graph.analysis` provides SP-ization
(inserting synchronization barriers) so performance prediction can still
run, exactly as the paper prescribes.
"""

from repro.graph.spc import Leaf, Parallel, Series, SPNode, parallel, series
from repro.graph.taskgraph import TaskGraph, TaskNode
from repro.graph.analysis import (
    critical_path,
    is_series_parallel,
    sp_ize,
    sp_reduction,
)

__all__ = [
    "Leaf",
    "Parallel",
    "Series",
    "SPNode",
    "series",
    "parallel",
    "TaskGraph",
    "TaskNode",
    "critical_path",
    "is_series_parallel",
    "sp_ize",
    "sp_reduction",
]
