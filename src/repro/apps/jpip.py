"""JPEG Picture-in-Picture (paper §4, application 2; structure Fig. 7).

"The input videos consist of compressed JPEG images ...  Besides down
scaling and blending, the application also has to decode the JPEG
images. ...  Data parallelism is exploited by running the IDCT, down
scale and blend components using 45 slices.  The input image size is
1280x720.  The down scale factor is 16."

Per input: ``mjpeg source -> jpeg decode -> IDCT y/u/v`` (decode stages);
the background's decoded fields feed the blend chain directly, each pip's
fields go through a downscale stage first.  Every operation is separated
by a synchronization point, i.e. the graph is in series-parallel form
("before the Blend components are run, all Downscale and IDCT components
must have finished") — our expander inserts exactly those barriers.

Geometry note (documented deviation, see EXPERIMENTS.md): a 16x down
scale of a 4:2:0 chroma plane needs input rows divisible by 32, which
720 is not.  The background stays at the paper's 1280x720; pip inputs
use 1280x704 so every stage stays integer and block-aligned, and pips
use 44 slices (16 rows each) while background-side stages use the
paper's 45.
"""

from __future__ import annotations

from repro.apps.common import FIELDS, halve
from repro.core.ast import Spec
from repro.core.builder import AppBuilder, ProcedureBuilder
from repro.errors import XSPCLError

__all__ = ["build_jpip", "jpip_positions"]

PIP_HEIGHT_DEFAULT = 704  # see geometry note above


def jpip_positions(
    n_pips: int, width: int, height: int, pip_width: int, pip_height: int,
    factor: int,
) -> list[tuple[int, int]]:
    """Non-overlapping anchors for the scaled-down overlays."""
    if n_pips > 4:
        raise XSPCLError(f"at most 4 picture-in-pictures supported, got {n_pips}")
    ow, oh = pip_width // factor, pip_height // factor
    margin = 16
    anchors = [
        (margin, margin),
        (margin, width - ow - margin),
        (height - oh - margin, margin),
        (height - oh - margin, width - ow - margin),
    ]
    return anchors[:n_pips]


def _decode_field_stage(b: AppBuilder) -> None:
    """Per-field IDCT procedure with explicit field geometry."""
    proc = b.procedure(
        "idct_stage",
        stream_formals=["coeffs_in", "plane_out"],
        param_formals={"width": None, "height": None, "slices": None},
    )
    with proc.parallel("slice", n="${slices}"):
        proc.component(
            "idct",
            "idct_field",
            streams={"coeffs": "${coeffs_in}", "output": "${plane_out}"},
            params={"width": "${width}", "height": "${height}"},
        )


def _idct_scale_stage(b: AppBuilder) -> None:
    """Grouped per-field stage: IDCT and downscale share each slice copy.

    The downscale of slice *i* reads exactly the rows IDCT copy *i*
    produced (row-partitioned identically), so placing both in one slice
    parblock is semantically safe and lets the runtime schedule them "as
    one entity" (paper §4.1) — the intermediate plane slice stays in the
    producing core's cache.
    """
    proc = b.procedure(
        "idct_scale_stage",
        stream_formals=["coeffs_in", "small_out"],
        param_formals={"width": None, "height": None, "slices": None,
                       "factor": None},
    )
    with proc.parallel("slice", n="${slices}"):
        proc.component(
            "idct",
            "idct_field",
            streams={"coeffs": "${coeffs_in}", "output": "plane"},
            params={"width": "${width}", "height": "${height}"},
        )
        proc.component(
            "scale",
            "downscale_field",
            streams={"input": "plane", "output": "${small_out}"},
            params={"width": "${width}", "height": "${height}",
                    "factor": "${factor}"},
        )


def _emit_input_decode(
    main: ProcedureBuilder,
    *,
    tag: str,
    width: int,
    height: int,
    seed: int,
    slices: int,
    frames: int | None,
    grouped_y: bool = False,
    grouped_factor: int = 16,
) -> None:
    """Source + decode + per-field IDCT for one MJPEG input, inline.

    ``grouped_y`` (pip inputs of the grouped variant): the Y field's IDCT
    and downscale share one slice region (see :func:`_idct_scale_stage`);
    chroma fields stay split because the 16x chroma downscale is not
    slice-local to the block-aligned IDCT partitioning.
    """
    src_params = {"width": width, "height": height, "seed": seed}
    if frames is not None:
        src_params["frames"] = frames
    main.component(f"{tag}_read", "mjpeg_source",
                   streams={"output": f"{tag}_bits"}, params=src_params)
    main.component(
        f"{tag}_decode",
        "jpeg_decode",
        streams={"input": f"{tag}_bits"}
        | {f"coeffs_{f}": f"{tag}_coeffs_{f}" for f in FIELDS},
        params={"width": width, "height": height},
    )
    with main.parallel("task"):
        for f in FIELDS:
            with main.parblock():
                if grouped_y and f == "y":
                    main.call(
                        "idct_scale_stage",
                        name=f"{tag}_idct_{f}",
                        streams={
                            "coeffs_in": f"{tag}_coeffs_{f}",
                            "small_out": f"small{tag.removeprefix('pip')}_{f}",
                        },
                        params={
                            "width": halve(width, f),
                            "height": halve(height, f),
                            "slices": slices,
                            "factor": grouped_factor,
                        },
                    )
                else:
                    main.call(
                        "idct_stage",
                        name=f"{tag}_idct_{f}",
                        streams={
                            "coeffs_in": f"{tag}_coeffs_{f}",
                            "plane_out": f"{tag}_plane_{f}",
                        },
                        params={
                            "width": halve(width, f),
                            "height": halve(height, f),
                            "slices": slices,
                        },
                    )


def _emit_pip_chain(
    main: ProcedureBuilder,
    *,
    index: int,
    field: str,
    pip_width: int,
    pip_height: int,
    bg_width: int,
    bg_height: int,
    factor: int,
    pip_slices: int,
    bg_slices: int,
    position: tuple[int, int],
    bg_stream: str,
    out_stream: str,
    skip_downscale: bool = False,
) -> None:
    w, h = halve(pip_width, field), halve(pip_height, field)
    if not skip_downscale:
        with main.parallel("slice", n=pip_slices):
            main.component(
                f"scale{index}_{field}",
                "downscale_field",
                streams={"input": f"pip{index}_plane_{field}",
                         "output": f"small{index}_{field}"},
                params={"width": w, "height": h, "factor": factor},
            )
    row, col = position
    with main.parallel("slice", n=bg_slices):
        main.component(
            f"blend{index}_{field}",
            "blend_field",
            streams={
                "background": bg_stream,
                "overlay": f"small{index}_{field}",
                "output": out_stream,
            },
            params={
                "width": halve(bg_width, field),
                "height": halve(bg_height, field),
                "pos_row": halve(row, field),
                "pos_col": halve(col, field),
                "overlay_width": w // factor,
                "overlay_height": h // factor,
            },
        )


def build_jpip(
    n_pips: int = 1,
    *,
    width: int = 1280,
    height: int = 720,
    pip_height: int = PIP_HEIGHT_DEFAULT,
    factor: int = 16,
    slices: int = 45,
    frames: int | None = None,
    reconfigurable: bool = False,
    period: int = 12,
    collect: bool = False,
    grouped_stages: bool = False,
) -> Spec:
    """Build the JPiP application spec (JPiP-12 with ``reconfigurable``).

    ``slices`` applies to background-side stages (45 in the paper); pip
    stages use the block-aligned count implied by ``pip_height``/16-row
    slices.  ``grouped_stages`` builds the paper-§4.1 "scheduled as one
    entity" variant: each pip's Y-field IDCT and downscale share a slice
    copy (``SimRuntime(group_chains=True)`` merges them into one job);
    incompatible with ``reconfigurable``.
    """
    if n_pips < 1:
        raise XSPCLError(f"need at least one picture-in-picture, got {n_pips}")
    if reconfigurable and n_pips < 2:
        raise XSPCLError("the reconfigurable variant toggles the 2nd pip; use n_pips>=2")
    if grouped_stages and reconfigurable:
        raise XSPCLError("grouped_stages is a static-variant study only")
    pip_width = width
    pip_slices = pip_height // 16  # 16 rows per slice, block-aligned
    positions = jpip_positions(n_pips, width, height, pip_width, pip_height,
                               factor)

    b = AppBuilder()
    _decode_field_stage(b)
    if grouped_stages:
        _idct_scale_stage(b)
    main = b.procedure("main")

    static_pips = list(range(n_pips - 1 if reconfigurable else n_pips))
    optional_pip = n_pips - 1 if reconfigurable else None

    # Decode stages for background + static pips, mutually independent.
    with main.parallel("task"):
        with main.parblock():
            _emit_input_decode(main, tag="bg", width=width, height=height,
                               seed=400, slices=slices, frames=frames)
        for i in static_pips:
            with main.parblock():
                _emit_input_decode(main, tag=f"pip{i}", width=pip_width,
                                   height=pip_height, seed=500 + i,
                                   slices=pip_slices, frames=frames,
                                   grouped_y=grouped_stages,
                                   grouped_factor=factor)

    if reconfigurable:
        main.component(
            "timer", "timer",
            # Phase-align the toggle so ON/OFF exposure balances over a
            # finite run: whole-graph draining delays each transition by
            # roughly the pipeline depth, which would otherwise
            # under-expose the enabled state (see EXPERIMENTS.md, FIG10).
            params={"queue": "ui", "period": period, "event": "toggle_pip",
                    "offset": -(period // 2)},
        )

    def blend_kwargs(field: str) -> dict:
        return dict(
            field=field, pip_width=pip_width, pip_height=pip_height,
            bg_width=width, bg_height=height, factor=factor,
            pip_slices=pip_slices, bg_slices=slices,
        )

    # Static blend chains per field.
    with main.parallel("task"):
        for field in FIELDS:
            with main.parblock():
                upstream = f"bg_plane_{field}"
                for chain_pos, i in enumerate(static_pips):
                    last = chain_pos == len(static_pips) - 1
                    out = (
                        f"out_{field}"
                        if (last and optional_pip is None)
                        else f"mid{i}_{field}"
                    )
                    _emit_pip_chain(
                        main, index=i, position=positions[i],
                        bg_stream=upstream, out_stream=out,
                        skip_downscale=grouped_stages and field == "y",
                        **blend_kwargs(field),
                    )
                    upstream = out

    if optional_pip is not None:
        i = optional_pip
        prev = static_pips[-1]
        with main.manager("mgr", queue="ui") as mgr:
            mgr.on("toggle_pip", "toggle", option="pip_opt")
            with main.option(
                "pip_opt",
                enabled=False,
                bypass=[(f"mid{prev}_{f}", f"out_{f}") for f in FIELDS],
            ):
                _emit_input_decode(main, tag=f"pip{i}", width=pip_width,
                                   height=pip_height, seed=500 + i,
                                   slices=pip_slices, frames=frames)
                with main.parallel("task"):
                    for field in FIELDS:
                        with main.parblock():
                            _emit_pip_chain(
                                main, index=i, position=positions[i],
                                bg_stream=f"mid{prev}_{field}",
                                out_stream=f"out_{field}",
                                **blend_kwargs(field),
                            )

    sink_params = {"width": width, "height": height}
    if collect:
        sink_params["collect"] = True
    main.component("sink", "video_sink",
                   streams={f: f"out_{f}" for f in FIELDS},
                   params=sink_params)
    return b.build()
