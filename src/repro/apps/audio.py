"""Audio / sensor fusion: the anti-JPiP workload.

The paper's applications move large video frames through few dispatches;
this one moves tiny int16 records (``channels x block`` samples, ~1 KiB)
through *many* dispatches — a microphone array and a vibration sensor,
each band-filtered per channel, fused into one feature stream::

    mic source -> band_filter[slices over channels] --.
                                                      fuse -> sink
    vib source -> band_filter[slices over channels] --'

Per-record kernel work is microseconds, so dispatch overhead dominates:
the workload where the process backend's job leases and chain compiler
pay most, and that punishes naive per-job dispatch.  The bench registers it beside pip/blur/jpip for
exactly that contrast, and the fuzzer palette draws on its components.

The reconfigurable variant wraps the vibration branch in a manager
option toggled every ``period`` records — fusion degrades to a
mic-only passthrough (weight 1.0) while the branch is disabled.
"""

from __future__ import annotations

from repro.core.ast import Spec
from repro.core.builder import AppBuilder, ProcedureBuilder
from repro.errors import XSPCLError

__all__ = ["build_audio"]


def _branch(
    main: ProcedureBuilder,
    *,
    tag: str,
    seed: int,
    taps: str,
    channels: int,
    block: int,
    slices: int,
    frames: int | None,
    out_stream: str,
) -> None:
    src_params: dict = {"channels": channels, "block": block, "seed": seed}
    if frames is not None:
        src_params["frames"] = frames
    geometry = {"channels": channels, "block": block, "taps": taps}
    main.component(f"{tag}_src", "audio_source",
                   streams={"samples": f"{tag}_raw"}, params=src_params)
    if slices > 1:
        with main.parallel("slice", n=slices):
            main.component(f"{tag}_filt", "band_filter",
                           streams={"input": f"{tag}_raw",
                                    "output": out_stream},
                           params=geometry)
    else:
        main.component(f"{tag}_filt", "band_filter",
                       streams={"input": f"{tag}_raw",
                                "output": out_stream},
                       params=geometry)


def build_audio(
    *,
    channels: int = 8,
    block: int = 64,
    slices: int = 2,
    frames: int | None = None,
    reconfigurable: bool = False,
    period: int = 16,
    collect: bool = False,
) -> Spec:
    """Build the audio/sensor-fusion spec.

    Static: both branches always fused.  ``reconfigurable=True`` wraps
    the vibration branch in a manager option toggled every ``period``
    records; a bypass reroutes fusion input ``b`` to the mic stream
    while the branch is off (weight stays 0.5, so the fused output is
    then just the mic signal).
    """
    if slices > channels:
        raise XSPCLError(
            f"cannot slice {channels} channels {slices} ways"
        )
    b = AppBuilder()
    main = b.procedure("main")
    _branch(main, tag="mic", seed=7, taps="smooth", channels=channels,
            block=block, slices=slices, frames=frames, out_stream="mic_filt")

    fuse_params = {"channels": channels, "block": block, "weight": 0.5}
    sink_params: dict = {"channels": channels, "block": block}
    if collect:
        sink_params["collect"] = True

    if not reconfigurable:
        _branch(main, tag="vib", seed=31, taps="diff", channels=channels,
                block=block, slices=slices, frames=frames,
                out_stream="vib_filt")
        main.component("fuse", "fuse_sensors",
                       streams={"a": "mic_filt", "b": "vib_filt",
                                "fused": "features"},
                       params=fuse_params)
        main.component("sink", "feature_sink", streams={"input": "features"},
                       params=sink_params)
        return b.build()

    main.component("clock", "timer",
                   params={"queue": "reconf", "period": period,
                           "event": "toggle_vib"})
    with main.manager("vib_mgr", queue="reconf") as mgr:
        mgr.on("toggle_vib", "toggle", option="vib_branch")
        # While the branch is off the mic filter writes "features"
        # directly (the bypass), so the sink keeps streaming.
        with main.option("vib_branch", enabled=True,
                         bypass=[("mic_filt", "features")]):
            _branch(main, tag="vib", seed=31, taps="diff",
                    channels=channels, block=block, slices=slices,
                    frames=frames, out_stream="vib_filt")
            main.component("fuse", "fuse_sensors",
                           streams={"a": "mic_filt", "b": "vib_filt",
                                    "fused": "features"},
                           params=fuse_params)
    main.component("sink", "feature_sink", streams={"input": "features"},
                   params=sink_params)
    return b.build()
