"""Component grouping: schedule producer+consumer as one entity (§4.1).

"This issue can be addressed in future versions by grouping several
components into a group that is scheduled as one entity.  The consumer
components in this group will then be run immediately after the
producers, when the data is still in the cache.  However, this approach
reduces the amount of parallelism in the application ..."

:func:`group_linear_chains` implements that future version: it rewrites a
built task graph, merging *linear chains* of task nodes (single successor
meets single predecessor, both plain components with the same slice
assignment) into one composite node.  The runtimes execute a composite
node's members back-to-back in one job on one core — so in the SpaceCAKE
model the intermediate stream's cache keys are written and immediately
re-read by the same core (L1 hits), reproducing exactly the reuse the
paper predicts, while the merged node makes the lost parallelism visible
to the scheduler.

Only the simulator takes ``group_chains=True`` (the §4.1 ablation,
:mod:`repro.bench.figures`); grouping is re-applied after every
reconfiguration splice, and ``SimRuntime(execute=True)`` runs grouped
nodes for real.

The process backend's *speculative job leases*
(``DataflowScheduler.extract_followons``) are the dynamic counterpart of
this static rewrite: a consumer whose only missing producer is an
earlier member of the same lease runs immediately after it on the same
worker — the §4.1 producer→consumer locality — but the pairing is
decided per dispatch, not baked into the graph, so the parallelism the
quote worries about is only forfeited when no other worker could have
taken the consumer anyway (follow-ons are skipped while idle workers
could use them).  Grouping trades parallelism for locality statically and
visibly; batching recovers most of the locality with no graph change.

:mod:`repro.hinch.fusion` holds the two strongest readings of the §4.1
quote.  *Pair fusion* is the one grouping every threaded and process
build applies unasked: where a consumer class offers a combined kernel
for its producer's class, the linear pair becomes one node, contracted
by :func:`contract` under the same :func:`fusable_edge` rules, and the
stream between them is never written at all — not merely "still in the
cache".  The process backend's *chain compiler* goes further where
grouping stops: it proves through the components' row-access contracts
that each consumer copy reads only its paired producer copy's band,
merges the pair even though the graph shows a barrier between the
stages, and keeps the intermediate plane inside the job.

A chain must never cross a *control* node (managers, barriers), a
*crossdep* consumer (its halo edges encode a sparser ordering than
producer+consumer), or an *option-configuration* boundary (the members
would splice at different times): :func:`fusable_edge` refuses all
three, so the §4.1 rewrite, the pair fusion and the X401 lint only
propose chains that every backend can actually schedule as one entity.
"""

from __future__ import annotations

from typing import Callable

from repro.core.program import ComponentInstance, ProgramGraph
from repro.graph.taskgraph import TaskGraph

__all__ = [
    "group_linear_chains",
    "find_linear_chains",
    "fusable_edge",
    "contract",
    "GROUP_SEPARATOR",
]

GROUP_SEPARATOR = "+"


def fusable_edge(
    graph: TaskGraph, crossdep_nodes: frozenset[str] | set[str], u: str, v: str
) -> bool:
    """May the edge ``u -> v`` join one scheduled entity?

    Both ends are plain component tasks, ``u``'s only successor is
    ``v`` and ``v``'s only predecessor is ``u``, neither is a crossdep
    member (``crossdep_nodes``, from :attr:`ProgramGraph.crossdep_nodes`),
    and both share options, manager and slice assignment.
    """
    nu, nv = graph.node(u), graph.node(v)
    # control nodes (managers, barriers) are never chain members
    if nu.kind != "task" or nv.kind != "task":
        return False
    if graph.out_degree(u) != 1 or graph.in_degree(v) != 1:
        return False
    pu = nu.payload
    pv = nv.payload
    if not isinstance(pu, ComponentInstance) or not isinstance(
        pv, ComponentInstance
    ):
        return False
    # crossdep members: the halo edges encode a sparser ordering than
    # producer+consumer; merging would serialize the region
    if u in crossdep_nodes or v in crossdep_nodes:
        return False
    # option boundaries: members spliced by different reconfigurations
    # cannot be one scheduled entity
    if pu.options != pv.options:
        return False
    if pu.manager != pv.manager:
        return False
    return pu.slice == pv.slice


def find_linear_chains(
    graph: TaskGraph,
    crossdep_nodes: frozenset[str] | set[str] = frozenset(),
) -> list[list[str]]:
    """Maximal linear chains of :func:`fusable_edge` edges (length >= 2).

    Public so the lint pass (X401, ``repro.analysis.perf``) can point at
    grouping opportunities without committing to the rewrite.
    """
    in_chain: set[str] = set()
    chains: list[list[str]] = []
    for node in graph.topological_order():
        if node in in_chain:
            continue
        # only start a chain at a node that is not a fusable continuation
        preds = graph.predecessors(node)
        if len(preds) == 1 and fusable_edge(graph, crossdep_nodes,
                                            preds[0], node):
            continue
        chain = [node]
        cur = node
        while True:
            succs = graph.successors(cur)
            if len(succs) == 1 and fusable_edge(graph, crossdep_nodes,
                                                cur, succs[0]):
                cur = succs[0]
                chain.append(cur)
            else:
                break
        if len(chain) >= 2:
            chains.append(chain)
            in_chain.update(chain)
    return chains


def contract(
    pg: ProgramGraph,
    chains: list[list[str]],
    payload: Callable[[tuple[ComponentInstance, ...]], tuple] = tuple,
) -> ProgramGraph:
    """Return a ProgramGraph with each of ``chains`` merged into one node.

    A merged node gets id ``a+b+c`` and payload ``payload((inst_a,
    inst_b, inst_c))`` in execution order; everything else (streams,
    aliases, option states) is shared with the input.
    """
    graph = pg.graph
    member_of: dict[str, str] = {}
    members: dict[str, list[str]] = {}
    for chain in chains:
        gid = GROUP_SEPARATOR.join(chain)
        members[gid] = chain
        for node_id in chain:
            member_of[node_id] = gid

    merged = TaskGraph()
    for node in graph:
        gid = member_of.get(node.node_id)
        if gid is None:
            merged.add_node(
                node.node_id,
                label=node.label,
                kind=node.kind,
                payload=node.payload,
                weight=node.weight,
            )
        elif gid not in merged:
            chain = members[gid]
            merged.add_node(
                gid,
                label=gid,
                kind="task",
                payload=payload(tuple(graph.node(n).payload for n in chain)),
                weight=sum(graph.node(n).weight for n in chain),
            )

    for u, v in graph.edges():
        gu, gv = member_of.get(u, u), member_of.get(v, v)
        if gu != gv:
            merged.add_edge(gu, gv)

    return ProgramGraph(
        graph=merged,
        streams=pg.streams,
        aliases=pg.aliases,
        option_states=pg.option_states,
        active_components=pg.active_components,
        crossdep_nodes=pg.crossdep_nodes,
    )


def group_linear_chains(pg: ProgramGraph) -> ProgramGraph:
    """Return a ProgramGraph with linear component chains merged.

    Composite nodes get id ``a+b+c`` and payload ``(inst_a, inst_b,
    inst_c)`` in execution order (:func:`contract`).
    """
    chains = find_linear_chains(pg.graph, pg.crossdep_nodes)
    return contract(pg, chains) if chains else pg
