"""Audio / sensor-fusion components: small records at high rate.

The video applications move hundreds of kilobytes per frame through a
handful of dispatches; a microphone-array front-end is the opposite
workload — records of a few hundred *bytes* (``channels x block`` int16
samples) at thousands of records per second, so per-dispatch overhead
dominates and job leases and fusion matter far more than kernel cycles.
These components give the bench and the fuzzer that anti-JPiP profile.

A record is a plane of shape ``(channels, block)``: one row per input
channel, ``block`` samples of one hop along time.  ``band_filter`` is
data-parallel over *channels* (rows), mirroring how the video components
slice over image rows, so the same grouping/reslicing machinery applies
unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.components import filters
from repro.components.streaming import (
    COLLECT, DIM, FRAMES, SEED, _instance_rows, _slice_fraction,
)
from repro.core.ports import Param, PortSpec
from repro.core.program import ComponentInstance
from repro.hinch.component import Component, JobContext
from repro.spacecake.costmodel import JobCost, PortTraffic

__all__ = [
    "AudioSource",
    "BandFilter",
    "FuseSensors",
    "FeatureSink",
    "synthetic_record",
]

#: int16 samples
BYTES_PER_SAMPLE = 2

_RECORD = {"channels": DIM, "block": DIM}


def synthetic_record(
    index: int, channels: int, block: int, *, seed: int = 0
) -> np.ndarray:
    """Deterministic int16 test signal: per-channel tones plus noise.

    Channel ``c`` carries a sine at a channel-specific frequency with a
    deterministic noise floor — phase advances with ``index`` so
    consecutive records form one continuous signal per channel.
    """
    t = (np.arange(block, dtype=np.float64) + index * block)
    freq = 0.01 + 0.002 * np.arange(channels) + 0.0005 * (seed % 7)
    data = np.sin((2.0 * np.pi * freq)[:, None] * t)  # one row per channel
    data *= 12000.0
    for c, row in enumerate(data):
        rng = np.random.default_rng(seed * 1_000_003 + c * 101 + index)
        row += rng.integers(-800, 800, size=block)
    return data.clip(-32768, 32767, out=data).astype(np.int16)


class AudioSource(Component):
    """Synthesizes deterministic ``channels x block`` int16 records."""

    ports = PortSpec(
        outputs=("samples",),
        params={**_RECORD, "seed": SEED, "frames": FRAMES},
        formats={
            "samples": "kind=plane shape=channels,block dtype=int16 "
                       "colorspace=audio",
        },
    )
    READ_CYCLES_PER_BYTE = 0.4  # DMA-in from the capture device

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        nbytes = (instance.params["channels"] * instance.params["block"]
                  * BYTES_PER_SAMPLE)
        return JobCost(
            compute_cycles=cls.READ_CYCLES_PER_BYTE * nbytes,
            traffic=(PortTraffic("samples", nbytes, True),),
        )

    def __init__(self, instance: ComponentInstance) -> None:
        super().__init__(instance)
        #: records by clip index, kept only when the clip loops
        #: (``frames`` set): without a loop no index comes back
        self._cache: dict[int, np.ndarray] = {}

    def configure(self) -> None:
        params = self.params
        self.loop = params.get("frames")
        self.geometry = params["channels"], params["block"]
        self.seed = params["seed"]

    def _record(self, index: int) -> np.ndarray:
        if self.loop is None:
            return synthetic_record(index, *self.geometry, seed=self.seed)
        index %= self.loop  # loop the clip, like the video sources
        record = self._cache.get(index)
        if record is None:
            record = self._cache[index] = synthetic_record(
                index, *self.geometry, seed=self.seed
            )
        return record

    def run(self, job: JobContext) -> None:
        job.write("samples", self._record(job.iteration))


class BandFilter(Component):
    """3-tap FIR along time, per channel — data-parallel over channels.

    ``taps`` picks the kernel: ``smooth`` (low-pass ``[1,2,1]/4``) or
    ``diff`` (edge/onset ``[-1,2,-1]``, energy-preserving clip).  Each
    sliced copy filters only its channel rows; the row-range contracts
    below make sliced chains fusable exactly like the video filters.
    """

    #: ``taps`` value -> FIR coefficients
    KERNELS = {"smooth": (0.25, 0.5, 0.25), "diff": (-1.0, 2.0, -1.0)}

    ports = PortSpec(
        inputs=("input",),
        outputs=("output",),
        params={**_RECORD, "taps": Param("enum", choices=KERNELS,
                                         default="smooth")},
        formats={
            "input": "kind=plane shape=channels,block dtype=int16 "
                     "colorspace=audio",
            "output": "kind=plane shape=channels,block dtype=int16 "
                      "colorspace=audio",
        },
    )
    CYCLES_PER_SAMPLE = 3.0  # 3 multiply-accumulates

    slice: tuple[int, int] | None

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        samples = (instance.params["channels"] * instance.params["block"]
                   * _slice_fraction(instance))
        nbytes = int(samples * BYTES_PER_SAMPLE)
        return JobCost(
            compute_cycles=cls.CYCLES_PER_SAMPLE * samples,
            traffic=(
                PortTraffic("input", nbytes, False),
                PortTraffic("output", nbytes, True),
            ),
        )

    @classmethod
    def writes_rows(
        cls, instance: ComponentInstance, port: str, height: int
    ) -> tuple[int, int] | None:
        if port == "output":
            return _instance_rows(instance, height)
        return super().writes_rows(instance, port, height)

    @classmethod
    def reads_rows(
        cls, instance: ComponentInstance, port: str, height: int
    ) -> tuple[int, int] | None:
        if port == "input":
            return _instance_rows(instance, height)
        return super().reads_rows(instance, port, height)

    def configure(self) -> None:
        self._kernel = self.KERNELS[self.params["taps"]]
        channels = self.params["channels"]
        self.span = (0, channels) if self.slice is None else (
            filters.slice_rows(channels, *self.slice))

    def run(self, job: JobContext) -> None:
        samples: np.ndarray = job.read("input")
        out = job.buffer("output", shape=samples.shape, dtype=samples.dtype)
        lo, hi = self.span
        kernel = self._kernel
        padded = filters.edge_pad(samples[lo:hi], (0, 0), (1, 1), np.float64)
        acc = (
            padded[:, :-2] * kernel[0]
            + padded[:, 1:-1] * kernel[1]
            + padded[:, 2:] * kernel[2]
        )
        out[lo:hi] = np.clip(acc, -32768, 32767).astype(np.int16)


class FuseSensors(Component):
    """Weighted fusion of two aligned sensor streams (int32 accumulate)."""

    ports = PortSpec(
        inputs=("a", "b"),
        outputs=("fused",),
        params={**_RECORD,
                "weight": Param("float", lo=0.0, hi=1.0, default=0.5)},
        formats={
            "a": "kind=plane shape=channels,block dtype=int16 "
                 "colorspace=audio",
            "b": "kind=plane shape=channels,block dtype=int16 "
                 "colorspace=audio",
            "fused": "kind=plane shape=channels,block dtype=int16 "
                     "colorspace=audio",
        },
    )
    CYCLES_PER_SAMPLE = 2.0  # two loads, one weighted add

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        samples = instance.params["channels"] * instance.params["block"]
        nbytes = samples * BYTES_PER_SAMPLE
        return JobCost(
            compute_cycles=cls.CYCLES_PER_SAMPLE * samples,
            traffic=(
                PortTraffic("a", nbytes, False),
                PortTraffic("b", nbytes, False),
                PortTraffic("fused", nbytes, True),
            ),
        )

    def configure(self) -> None:
        self.weight = self.params["weight"]

    def run(self, job: JobContext) -> None:
        a: np.ndarray = job.read("a")
        b: np.ndarray = job.read("b")
        weight = self.weight
        acc = a.astype(np.int32) * weight + b.astype(np.int32) * (1.0 - weight)
        job.write("fused", np.clip(acc, -32768, 32767).astype(np.int16))


class FeatureSink(Component):
    """Collects fused records; the audio pipeline's terminal.

    Same exactly-once checkpoint contract as the video sinks: collected
    records ride worker snapshots, so kill/retry recovery never loses or
    duplicates a record.
    """

    ports = PortSpec(
        inputs=("input",),
        params={**_RECORD, "collect": COLLECT},
        formats={
            "input": "kind=plane shape=channels,block dtype=int16 "
                     "colorspace=audio",
        },
    )
    WRITE_CYCLES_PER_BYTE = 0.4

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        nbytes = (instance.params["channels"] * instance.params["block"]
                  * BYTES_PER_SAMPLE)
        return JobCost(
            compute_cycles=cls.WRITE_CYCLES_PER_BYTE * nbytes,
            traffic=(PortTraffic("input", nbytes, False),),
        )

    def __init__(self, instance: ComponentInstance) -> None:
        super().__init__(instance)
        self.records: list[tuple[int, np.ndarray]] = []
        self.records_written = 0

    def configure(self) -> None:
        self.collect = self.params["collect"]

    def run(self, job: JobContext) -> None:
        record = job.read("input")
        self.records_written += 1
        if self.collect:
            self.records.append((job.iteration, record.copy()))

    def ordered_records(self) -> list[np.ndarray]:
        return [r for _, r in sorted(self.records, key=lambda kv: kv[0])]

    # alias so differential checkers can treat every collecting sink alike
    ordered_planes = ordered_records

    def merge_state(
        self, state: tuple[int, list[tuple[int, np.ndarray]]]
    ) -> None:
        written, records = state
        self.records_written += written
        self.records.extend(records)

    def checkpoint_state(
        self,
    ) -> tuple[int, list[tuple[int, np.ndarray]]] | None:
        if not self.records_written and not self.records:
            return None
        state = (self.records_written, self.records)
        self.records_written = 0
        self.records = []
        return state
