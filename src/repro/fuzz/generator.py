"""Random series-parallel XSPCL case generation (seedable, deterministic).

A :class:`FuzzCase` is a plain-data description of one scenario: a
component palette with declared port formats, a chain of randomly chosen
stages (plain, sliced, crossdep), an optional reconfigurable region with
a toggle schedule, a knob configuration for the wide run, and an
optional *mutation* that deliberately breaks the spec (the
lint-vs-build oracle's fodder).  Cases serialize to JSON so a failure
can be replayed and shrunk byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, asdict, dataclass, field, fields
from random import Random
from typing import Any

from repro.errors import ReproError

__all__ = ["FuzzCase", "generate_case", "case_from_dict"]

#: palette geometries kept tiny: the fuzzer's value is breadth, not load
VIDEO_DIMS = ((16, 12), (24, 24), (32, 24), (48, 36))
AUDIO_DIMS = ((4, 16), (6, 24), (8, 32))  # (channels, block)

#: deliberate spec corruptions; each must be lint-visible
MUTATIONS = ("shape", "dangling", "unknown_class")


@dataclass
class FuzzCase:
    """One generated scenario, JSON round-trippable."""

    seed: int
    palette: str  # "video" | "audio"
    width: int  # channels for the audio palette
    height: int  # block for the audio palette
    iterations: int
    #: chain stages, source -> ... -> sink; each
    #: {"kind": "convert"|"blur"|"filter", "slices": int, ...}
    stages: list[dict] = field(default_factory=list)
    #: None, or {"stage": idx, "toggles": n} — wrap stage idx in a
    #: manager option and post n toggle events before the run
    reconfig: dict | None = None
    #: the wide run's knob configuration
    knobs: dict = field(default_factory=dict)
    mutation: str | None = None

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    def describe(self) -> str:
        bits = [
            f"{self.palette} {self.width}x{self.height}",
            f"{len(self.stages)} stage(s)",
            f"{self.iterations} iter(s)",
        ]
        if self.reconfig:
            bits.append(f"reconfig@{self.reconfig['stage']}"
                        f"x{self.reconfig['toggles']}")
        if self.mutation:
            bits.append(f"mutant:{self.mutation}")
        knobs = ",".join(f"{k}={v}" for k, v in sorted(self.knobs.items()))
        bits.append(knobs)
        return " | ".join(bits)


def case_from_dict(data: dict[str, Any]) -> FuzzCase:
    """The case ``data`` describes; a key :class:`FuzzCase` does not
    declare, or a required one left out, is a :class:`ReproError`."""
    declared = {f.name: f for f in fields(FuzzCase)}
    unknown = sorted(data.keys() - declared.keys())
    missing = sorted(
        name for name, f in declared.items()
        if name not in data
        and f.default is MISSING and f.default_factory is MISSING
    )
    problems = [f"{what} key(s) {', '.join(keys)}"
                for what, keys in (("unknown", unknown), ("missing", missing))
                if keys]
    if problems:
        raise ReproError(f"not a fuzz case: {'; '.join(problems)}")
    return FuzzCase(**data)


def _gen_stage(rng: Random, palette: str, max_slices: int) -> dict:
    if palette == "audio":
        slices = rng.choice([1, 1, 2, min(3, max_slices)])
        return {
            "kind": "filter",
            "slices": min(slices, max_slices),
            "taps": rng.choice(["smooth", "diff"]),
        }
    roll = rng.random()
    if roll < 0.55:
        return {"kind": "convert", "slices": rng.choice([1, 2, 3])}
    return {"kind": "blur", "slices": rng.choice([2, 3])}


def generate_case(seed: int, *, max_nodes: int = 8) -> FuzzCase:
    """Deterministically generate case ``seed``.

    ``max_nodes`` caps the expanded component count roughly: each sliced
    stage costs its slice count, a crossdep stage twice that.
    """
    rng = Random(seed)
    palette = rng.choice(["video", "video", "audio"])
    if palette == "audio":
        width, height = rng.choice(AUDIO_DIMS)
    else:
        width, height = rng.choice(VIDEO_DIMS)

    budget = max(2, max_nodes - 2)  # source + sink are free
    stages: list[dict] = []
    while budget > 0 and len(stages) < 4 and rng.random() < 0.75:
        stage = _gen_stage(rng, palette, max_slices=min(budget, width)
                           if palette == "audio" else budget)
        cost = stage["slices"] * (2 if stage["kind"] == "blur" else 1)
        if cost > budget:
            break
        budget -= cost
        stages.append(stage)

    iterations = rng.randint(2, 6)

    reconfig = None
    if stages and rng.random() < 0.35:
        reconfig = {
            "stage": rng.randrange(len(stages)),
            "toggles": rng.randint(1, 3),
        }

    knobs = {
        "workers": rng.choice([1, 2, 2, 3]),
        "depth": rng.choice([1, 2, 2, 4]),
    }

    mutation = None
    if rng.random() < 0.2:
        mutation = rng.choice(MUTATIONS)

    return FuzzCase(
        seed=seed,
        palette=palette,
        width=width,
        height=height,
        iterations=iterations,
        stages=stages,
        reconfig=reconfig,
        knobs=knobs,
        mutation=mutation,
    )
