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

import threading

import numpy as np

from repro.components import filters
from repro.components.streaming import (
    COLLECT, DIM, FRAMES, SEED, _slice_fraction,
)
from repro.core.ports import Param, PortSpec
from repro.core.program import ComponentInstance
from repro.hinch.component import Component, JobContext
from repro.spacecake.costmodel import JobCost

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
    consecutive records form one continuous signal per channel.  The
    noise of channel ``c`` is
    ``default_rng(seed * 1_000_003 + c * 101 + index).integers(-800, 800,
    size=block)``, drawn for every channel at once by :func:`_noise`.
    """
    t = (np.arange(block, dtype=np.float64) + index * block)
    freq = 0.01 + 0.002 * np.arange(channels) + 0.0005 * (seed % 7)
    data = np.sin((2.0 * np.pi * freq)[:, None] * t)  # one row per channel
    data *= 12000.0
    data += _noise(seed * 1_000_003 + index, channels, block)
    # |tone| <= 12000 and |noise| <= 800: every sample fits int16 unclipped
    return data.astype(np.int16)


#: the noise floor: ``integers(_NOISE_LOW, _NOISE_LOW + _NOISE_SPAN)``
_NOISE_LOW, _NOISE_SPAN = -800, 1600
#: numpy's 32-bit Lemire step rejects a draw whose low word is below this
_NOISE_REJECT = (2**32 - _NOISE_SPAN) % _NOISE_SPAN
_WORD = 0xFFFFFFFF


def _state_hash() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``SeedSequence.generate_state(4, np.uint64)``'s output hash.

    It hashes eight uint32 words, the 4-word pool twice over; its xor and
    multiply constants do not depend on the pool.  Returns the pool word
    each output reads and the two constant rows.
    """
    xor, mul = [], []
    h = 0x8B51F9DD
    for _ in range(8):
        xor.append(h)
        h = h * 0x58F38DED & _WORD
        mul.append(h)
    return (np.arange(8) % 4, np.array(xor, np.uint32),
            np.array(mul, np.uint32))


_POOL_WORD, _HASH_XOR, _HASH_MUL = _state_hash()
#: PCG64's 128-bit LCG multiplier and modulus mask
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


class _Generator(threading.local):
    """One ``PCG64`` per thread: :func:`_noise` rewrites its whole state
    for every channel, so two threads drawing records must not share it."""

    def __init__(self) -> None:
        self.bits = np.random.PCG64(0)


_GENERATOR = _Generator()


def _noise(first: int, channels: int, block: int) -> np.ndarray:
    """Channel ``c``'s ``default_rng(first + c * 101)`` noise, every row at once.

    ``default_rng(s)`` is ``PCG64(SeedSequence(s))``.  Numpy mixes each
    seed into its pool; the rest is restated here over all channels:
    ``generate_state``'s output hash (uint32 arrays), PCG64's seeding
    (Python ints), one ``random_raw`` per channel, and ``integers``'s
    32-bit Lemire step (each raw word serves two draws, low half first).
    Words are split by arithmetic, so byte order does not matter.  A
    record with a draw numpy would reject and redraw (about 1 in 10**4)
    takes the generator path instead.
    """
    pools = np.empty((channels, 4), np.uint32)
    for c in range(channels):
        pools[c] = np.random.SeedSequence(first + c * 101).pool
    words = pools[:, _POOL_WORD]
    words ^= _HASH_XOR
    words *= _HASH_MUL
    words ^= words >> 16
    half = (block + 1) // 2
    raw = np.empty((channels, half), np.uint64)
    bits = _GENERATOR.bits
    for c, w in enumerate(words.tolist()):
        # state words v0..v3: v = w[2i] | w[2i+1] << 32 (generate_state's
        # little-endian uint64); initstate = v0:v1, increment = v2:v3
        inc = ((w[4] | w[5] << 32) << 65 | (w[6] | w[7] << 32) << 1 | 1)
        inc &= _MASK128
        initstate = (w[0] | w[1] << 32) << 64 | w[2] | w[3] << 32
        # pcg64_set_seed: state 0, one step, += initstate, one step
        state = ((inc + initstate) * _PCG_MULT + inc) & _MASK128
        bits.state = {"bit_generator": "PCG64",
                      "state": {"state": state, "inc": inc},
                      "has_uint32": 0, "uinteger": 0}
        raw[c] = bits.random_raw(half)
    draws = np.empty((channels, 2 * half), np.int64)
    draws[:, 0::2] = raw & _WORD
    draws[:, 1::2] = raw >> 32
    scaled = draws[:, :block] * _NOISE_SPAN
    if np.minimum.reduce(scaled & _WORD, axis=None, initial=_WORD) < _NOISE_REJECT:
        return _generator_noise(first, channels, block)
    scaled >>= 32
    scaled += _NOISE_LOW
    return scaled


def _generator_noise(first: int, channels: int, block: int) -> np.ndarray:
    """The reference: one seeded ``default_rng`` per channel."""
    noise = np.empty((channels, block), np.int64)
    for c in range(channels):
        noise[c] = np.random.default_rng(first + c * 101).integers(
            _NOISE_LOW, _NOISE_LOW + _NOISE_SPAN, size=block)
    return noise


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
        return JobCost(compute_cycles=cls.READ_CYCLES_PER_BYTE * nbytes)

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
    sliced copy filters only its channel rows; the row contract makes
    sliced chains fusable exactly like the video filters.
    """

    #: ``taps`` value -> FIR coefficients
    KERNELS = {"smooth": (0.25, 0.5, 0.25), "diff": (-1.0, 2.0, -1.0)}

    ports = PortSpec(
        inputs=("input",),
        outputs=("output",),
        buffers=("output",),
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
    row_contract = True

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        samples = (instance.params["channels"] * instance.params["block"]
                   * _slice_fraction(instance))
        return JobCost(compute_cycles=cls.CYCLES_PER_SAMPLE * samples)

    def configure(self) -> None:
        self._kernel = self.KERNELS[self.params["taps"]]
        self.span = self.rows(self.params["channels"])

    def run(self, job: JobContext) -> None:
        samples: np.ndarray = job.read("input")
        out = job.buffer("output")
        lo, hi = self.span
        kernel = self._kernel
        padded = filters.edge_pad(samples[lo:hi], (0, 0), (1, 1), np.float64)
        acc = (
            padded[:, :-2] * kernel[0]
            + padded[:, 1:-1] * kernel[1]
            + padded[:, 2:] * kernel[2]
        )
        out[lo:hi] = filters.saturate(acc, -32768, 32767)


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
        return JobCost(compute_cycles=cls.CYCLES_PER_SAMPLE * samples)

    def configure(self) -> None:
        self.weight = self.params["weight"]

    def run(self, job: JobContext) -> None:
        a: np.ndarray = job.read("a")
        b: np.ndarray = job.read("b")
        weight = self.weight
        acc = a.astype(np.int32) * weight + b.astype(np.int32) * (1.0 - weight)
        job.write("fused", filters.saturate(acc, -32768, 32767).astype(np.int16))


class FeatureSink(Component):
    """Collects fused records; the audio pipeline's terminal.

    Same checkpoint contract as the video sinks: on processes each job's
    collected records move to the dispatcher's mirror with its record.
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
        return JobCost(compute_cycles=cls.WRITE_CYCLES_PER_BYTE * nbytes)

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
