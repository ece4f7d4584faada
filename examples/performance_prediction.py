#!/usr/bin/env python
"""Performance prediction: the SPC model vs the event-driven simulator.

The paper's framework (Fig. 1) routes XSPCL both to the runtime and to a
performance-estimation tool so "parallelization decisions" can be made
before running.  This example predicts the Blur application analytically
(PAMELA/SPC recursion + pipeline model), simulates it, and charts both —
then uses the prediction to pick a node count meeting a throughput goal.

Run:  python examples/performance_prediction.py
"""

from repro.apps import build_blur, make_program
from repro.bench.report import format_table, line_chart
from repro.components.registry import default_registry
from repro.prediction import predict_run, wcet_sequential, wcet_span
from repro.prediction.pamela import cost_model_leaf_fn
from repro.spacecake import SimRuntime
from repro.spacecake.costmodel import CostModel

FRAMES = 48

program = make_program(build_blur(5), name="blur5")
registry = default_registry()

# WCET bounds per iteration (paper §6: recursive graph traversal)
tree = program.to_sp_tree()
cost_model = CostModel(registry)
leaf_cost = cost_model_leaf_fn(cost_model, program, nodes=1)
print(f"per-iteration WCET bounds: span {wcet_span(tree, leaf_cost)/1e3:.0f} "
      f"kcycles <= T <= sequential {wcet_sequential(tree, leaf_cost)/1e3:.0f} "
      f"kcycles")

rows = []
series = {"predicted": [], "simulated": []}
for nodes in range(1, 10):
    predicted = predict_run(program, registry, nodes=nodes,
                            iterations=FRAMES, pipeline_depth=5)
    simulated = SimRuntime(program, registry, nodes=nodes, pipeline_depth=5,
                           max_iterations=FRAMES).run().cycles
    rows.append((nodes, predicted / 1e6, simulated / 1e6,
                 f"{(predicted / simulated - 1) * 100:+.1f}%"))
    series["predicted"].append((nodes, predicted / 1e6))
    series["simulated"].append((nodes, simulated / 1e6))

print()
print(format_table(("nodes", "predicted Mcyc", "simulated Mcyc", "error"),
                   rows, title=f"Blur-5x5, {FRAMES} frames"))
print()
print(line_chart(series, title="predicted vs simulated cycles",
                 x_label="nodes", y_label="Mcycles"))

# use the prediction for a deployment decision
TARGET_MCYCLES = 40.0
viable = [n for n, pred, _, _ in rows if pred < TARGET_MCYCLES]
print(f"\nsmallest node count predicted to finish under "
      f"{TARGET_MCYCLES:.0f} Mcycles: {viable[0] if viable else 'none'}")
