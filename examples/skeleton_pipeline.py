#!/usr/bin/env python
"""Skeletal parallelism: template components (paper §6, implemented).

Builds a video-analysis pipeline entirely out of *template* components —
map / stencil / reduce / monitor skeletons configured by initialization
parameters, including a custom user-registered kernel — then lets a
monitor-driven manager enable a binarize stage when the scene gets
bright, closing the loop of "events can be used to respond to special
input values" (§2.3b).

Run:  python examples/skeleton_pipeline.py
"""

import numpy as np

from repro.components.registry import default_ports, default_registry
from repro.components.skeletons import register_kernel
from repro.core import AppBuilder, expand
from repro.core.ports import PortSpec
from repro.hinch import Component, ThreadedRuntime

W, H, FRAMES = 96, 64, 12


# A user-defined kernel joins the template family with one decorator.
@register_kernel("posterize", cycles_per_pixel=1.5)
def posterize(block, *, levels: int = 4):
    step = 256 // int(levels)
    return ((block // step) * step).astype(block.dtype)


# A scripted source whose brightness ramps up over time (drives the
# monitor); alternating rows give the edge stencil something to find.
class RampSource(Component):
    ports = PortSpec(outputs=("output",))

    def run(self, job):
        level = min(30 + job.iteration * 20, 230)
        plane = np.zeros((H, W), dtype=np.uint8)
        plane[::4] = level  # stripes: mean = level/4, strong edges
        job.write("output", plane)


registry = default_registry({"ramp_source": RampSource})
ports = default_ports(registry)

b = AppBuilder()
main = b.procedure("main")
main.component("src", "ramp_source", streams={"output": "raw"})
with main.parallel("slice", n=4):
    main.component("poster", "map_plane",
                   streams={"input": "raw", "output": "art"},
                   params={"width": W, "height": H,
                           "kernel": "posterize", "levels": 8})
with main.parallel("crossdep", n=4):
    with main.parblock():
        main.component("pre", "map_plane",
                       streams={"input": "art", "output": "pre"},
                       params={"width": W, "height": H, "kernel": "identity"})
    with main.parblock():
        main.component("edges", "stencil_plane",
                       streams={"input": "pre", "output": "edged"},
                       params={"width": W, "height": H, "kernel": "edge",
                               "halo": 1})
main.component("watch", "monitor",
               streams={"input": "raw", "output": "passthru"},
               params={"width": W, "height": H, "op": "mean",
                       "threshold": 30, "queue": "scene", "event": "bright"})
with main.manager("m", queue="scene") as mgr:
    mgr.on("bright", "enable", option="binarized")
    with main.option("binarized", enabled=False,
                     bypass=[("edged", "final")]):
        main.component("bin", "map_plane",
                       streams={"input": "edged", "output": "final"},
                       params={"width": W, "height": H,
                               "kernel": "binarize", "threshold": 40})
main.component("sink", "plane_sink", streams={"input": "final"},
               params={"width": W, "height": H, "collect": True})

program = expand(b.build(), ports, name="skeletons")
print(f"pipeline of {len(program.components)} template-component instances")

runtime = ThreadedRuntime(program, registry, nodes=2, pipeline_depth=2,
                          max_iterations=FRAMES)
result = runtime.run()
print(f"ran {result.completed_iterations} frames, "
      f"{result.reconfig_count} reconfiguration(s) "
      f"(binarize enabled when mean luminance crossed 30)")
planes = result.components["sink"].ordered_planes()
binary_frames = [
    k for k, p in enumerate(planes)
    if 255 in p and set(np.unique(p)) <= {0, 255}
]
print(f"frames that went through the binarize option: {binary_frames}")
assert binary_frames, "the monitor should have enabled binarization"
assert binary_frames[0] > 0, "early dark frames must pass through unbinarized"
print("monitor-driven reconfiguration verified ✓")
