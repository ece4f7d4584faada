"""The four benchmark workloads: XSPCL XML text generated from (name, seed).

Each workload is built with a :mod:`repro.apps` builder, serialised with
``spec_to_xml`` and has every source's ``seed`` param rewritten to
``base + seed``; the system under test receives only the XML text.

The frame counts are fixed constants (identical on every commit that is
compared) sized on the reference host so that the fastest timed run lasts
at least a second, and a process-backend run at least 20 times the
workload's ``cold_run_process_s``, which keeps worker spawn under 5 % of
it.  The traced pass takes its own, shorter runs (``trace_frames``), never
under two pipeline depths.  See README.md for why each workload exists
and which layer it keeps busy.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable

from repro.apps import build_audio, build_blur, build_jpip, build_pip
from repro.core.ast import Spec
from repro.core.xmlio import spec_to_xml

#: the paper's pipeline depth, and the node/worker count of every
#: parallel configuration (the reference host has two cores)
PIPELINE_DEPTH = 5
WIDTH = 2

#: the timed configurations, in round-robin order
CONFIGS = ("seq", "threaded", "process", "tuned", "sim")

#: frames of the output-oracle runs (two toggle periods of blur35)
ORACLE_FRAMES = 12

_SEED_PARAM = re.compile(r'(<param name="seed" value=")(\d+)(")')


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``build(collect, **overrides)`` -> Spec
    build: Callable[..., Spec]
    #: frames per timed run, per configuration in :data:`CONFIGS`
    frames: dict[str, int]
    #: frames per run of the traced pass
    trace_frames: dict[str, int]
    #: frames of the ``calls_per_frame`` profile run
    probe_frames: int
    #: the option whose exposure weights FIG10's static baselines, and the
    #: builders of the two static variants (reconfigurable workloads only)
    toggle_option: str | None = None
    static_variants: tuple[Callable[..., Spec], ...] = ()

    def xml(self, seed: int, *, collect: bool = False, **overrides) -> str:
        return _reseed(spec_to_xml(self.build(collect, **overrides)), seed)

    def static_xml(self, seed: int, *, collect: bool = False) -> list[str]:
        return [
            _reseed(spec_to_xml(build(collect)), seed)
            for build in self.static_variants
        ]

    def quick(self) -> "Workload":
        """Tiny frame counts for ``--quick``; the numbers mean nothing."""
        tiny = {c: 3 for c in CONFIGS}
        return replace(self, frames=tiny, trace_frames=tiny,
                       probe_frames=3)


def _reseed(xml: str, seed: int) -> str:
    return _SEED_PARAM.sub(
        lambda m: f"{m.group(1)}{int(m.group(2)) + seed}{m.group(3)}", xml
    )


def _blur(size: int, collect: bool, **overrides) -> Spec:
    return build_blur(size, width=360, height=288, slices=9, collect=collect,
                      **overrides)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "audio_dispatch",
            "8 jobs/frame on ~1 KiB records: scheduler, job queue and the "
            "process control plane do nearly all the work, kernels almost none",
            lambda collect, **kw: build_audio(
                channels=8, block=64, slices=2, collect=collect, **kw),
            {"seq": 2000, "threaded": 1100, "process": 560, "tuned": 840,
             "sim": 4600},
            trace_frames={"seq": 130, "threaded": 70, "process": 180,
                          "tuned": 240, "sim": 300},
            probe_frames=240,
        ),
        Workload(
            "pip_bandwidth",
            "paper-scale 720x576 PiP: video kernels and plane traffic "
            "dominate, dispatch is small; a control-plane change must not "
            "move it",
            lambda collect, **kw: build_pip(
                1, width=720, height=576, factor=4, slices=8,
                collect=collect, **kw),
            {"seq": 24, "threaded": 40, "process": 60, "tuned": 70,
             "sim": 1400},
            trace_frames={"seq": 10, "threaded": 10, "process": 10,
                          "tuned": 10, "sim": 80},
            probe_frames=6,
        ),
        Workload(
            "jpip_codec",
            "serial entropy decode then sliced IDCT: JPEG kernels and the "
            "fusion peephole do the work; the only workload where fusion pays",
            lambda collect, **kw: build_jpip(
                1, width=320, height=256, pip_height=256, factor=4, slices=4,
                collect=collect, **kw),
            {"seq": 18, "threaded": 16, "process": 46, "tuned": 138,
             "sim": 700},
            trace_frames={"seq": 10, "threaded": 10, "process": 10,
                          "tuned": 16, "sim": 45},
            probe_frames=6,
        ),
        Workload(
            "blur35_reconfig",
            "Blur-35 with crossdep toggling every 6 frames: drain, splice, "
            "graph rebuild, format re-solve and component create/destroy run "
            "beside steady-state dispatch (FIG10)",
            lambda collect, **kw: _blur(
                3, collect, reconfigurable=True, **{"period": 6, **kw}),
            # multiples of 12: whole toggle periods
            {"seq": 156, "threaded": 120, "process": 120, "tuned": 132,
             "sim": 3840},
            trace_frames={"seq": 12, "threaded": 12, "process": 48,
                          "tuned": 48, "sim": 240},
            probe_frames=48,
            toggle_option="blur5",
            static_variants=(
                lambda collect: _blur(3, collect),
                lambda collect: _blur(5, collect),
            ),
        ),
    )
}
