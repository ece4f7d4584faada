"""Footprint-based cache hierarchy model: per-core L1, shared L2, DRAM.

A full line-accurate cache simulation is overkill for reproducing the
paper's *relative* effects (stream buffering between split components
raises miss traffic; producer/consumer scheduled apart lose reuse).  The
model here is the classic *stack-distance approximation at object
granularity*:

* every distinct data object (a stream slot region) has a record of the
  core that last touched it and the per-core / per-tile "bytes touched
  since" counters at that moment;
* on a new access, the object is in the toucher's **L1** if the same core
  touched it and fewer than ``l1_bytes`` have flowed through that core's
  L1 since; it is in the shared **L2** if fewer than ``l2_bytes`` flowed
  through the tile since; otherwise it comes from **DRAM**;
* the access is charged ``nbytes * cycles_per_byte[level]`` and the
  counters advance by ``nbytes``.

This reproduces the two behaviours the paper reports: the XSPCL JPiP's
extra stream buffers blow past the reuse windows ("the number of cache
misses is significantly higher than when the sequential version is run"),
and fusing producer/consumer restores reuse ("consumer components ...
run immediately after the producers, when the data is still in the
cache").
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Hashable

from repro.errors import SimulationError

__all__ = ["AccessLevel", "CacheConfig", "CacheModel", "CacheStats"]


class AccessLevel(enum.Enum):
    L1 = "l1"
    L2 = "l2"
    MEM = "mem"


@dataclass(frozen=True)
class CacheConfig:
    """Capacities and per-byte latencies.

    Defaults approximate a TriMedia-class tile: 16 KiB data L1 per core, a
    shared 1 MiB L2 (the CAKE tile used large embedded memory), and DRAM
    several times slower than L2.  The absolute values are calibration
    constants (DESIGN.md §6), not claims about the real silicon; the
    calibration tests pin the resulting behaviour, not these numbers.
    """

    l1_bytes: int = 16 * 1024
    l2_bytes: int = 512 * 1024
    l1_cycles_per_byte: float = 0.05
    l2_cycles_per_byte: float = 0.25
    mem_cycles_per_byte: float = 1.0
    #: graded L2->DRAM transition, in units of ``l2_bytes`` of reuse
    #: distance: below ``graded_lo`` the access pays the pure L2 rate,
    #: above ``graded_hi`` the pure DRAM rate, linear in between.  Real
    #: reuse-distance profiles are smooth; a binary threshold makes the
    #: model knife-edged for working sets near the capacity.
    graded_lo: float = 1.0
    graded_hi: float = 3.0

    def cycles(self, level: AccessLevel, nbytes: int) -> float:
        if level is AccessLevel.L1:
            return self.l1_cycles_per_byte * nbytes
        if level is AccessLevel.L2:
            return self.l2_cycles_per_byte * nbytes
        return self.mem_cycles_per_byte * nbytes

    def graded_rate(self, tile_distance: float) -> float:
        """Per-byte cost of a non-L1 access at this reuse distance."""
        d = tile_distance / self.l2_bytes
        if d <= self.graded_lo:
            return self.l2_cycles_per_byte
        if d >= self.graded_hi:
            return self.mem_cycles_per_byte
        frac = (d - self.graded_lo) / (self.graded_hi - self.graded_lo)
        return (
            self.l2_cycles_per_byte
            + frac * (self.mem_cycles_per_byte - self.l2_cycles_per_byte)
        )


@dataclass
class CacheStats:
    accesses: dict[AccessLevel, int] = field(
        default_factory=lambda: {lvl: 0 for lvl in AccessLevel}
    )
    bytes_by_level: dict[AccessLevel, int] = field(
        default_factory=lambda: {lvl: 0 for lvl in AccessLevel}
    )

    def hit_rate(self, level: AccessLevel) -> float:
        total = sum(self.accesses.values())
        return self.accesses[level] / total if total else 0.0

    @property
    def total_accesses(self) -> int:
        return sum(self.accesses.values())


#: An object's residency record: ``(core, core_clock, tile_clock)`` — the
#: core that last touched it and the per-core / per-tile byte clocks at
#: that moment.  A plain tuple: millions are allocated per sweep and the
#: fast path (:meth:`CacheModel.access_traffic`) rebuilds one per access.
_Record = tuple[int, int, int]


class CacheModel:
    """Object-granular reuse-distance cache model for one tile."""

    def __init__(self, cores: int, config: CacheConfig | None = None) -> None:
        if cores < 1:
            raise SimulationError(f"cores must be >= 1, got {cores}")
        self.cores = cores
        self.config = config or CacheConfig()
        self._core_clock = [0] * cores
        self._tile_clock = 0
        self._objects: dict[Hashable, _Record] = {}
        self.stats = CacheStats()
        # CacheConfig is frozen: hoist its constants into one tuple so the
        # hot access_traffic() pays a single attribute load for all of them.
        cfg = self.config
        self._constants = (
            cfg.l1_bytes,
            cfg.l2_bytes,
            cfg.l1_cycles_per_byte,
            cfg.l2_cycles_per_byte,
            cfg.mem_cycles_per_byte,
            cfg.graded_lo,
            cfg.graded_hi,
        )

    def classify(self, core: int, key: Hashable) -> AccessLevel:
        """Where would ``key`` be found by ``core`` right now?"""
        record = self._objects.get(key)
        if record is None:
            return AccessLevel.MEM
        if (
            record[0] == core
            and self._core_clock[core] - record[1] < self.config.l1_bytes
        ):
            return AccessLevel.L1
        if self._tile_clock - record[2] < self.config.l2_bytes:
            return AccessLevel.L2
        return AccessLevel.MEM

    def access(self, core: int, key: Hashable, nbytes: int, *, write: bool = False) -> float:
        """Touch ``nbytes`` of object ``key`` from ``core``; returns cycles.

        Writes allocate: the object becomes resident for the writing core
        (write-allocate, as on the real tile).  Reads refresh residency.
        """
        if not 0 <= core < self.cores:
            raise SimulationError(f"core {core} out of range 0..{self.cores - 1}")
        if nbytes < 0:
            raise SimulationError(f"negative access size {nbytes}")
        level = self.classify(core, key)
        if level is AccessLevel.L1:
            cycles = self.config.cycles(level, nbytes)
        else:
            # Graded cost: a record at intermediate reuse distance pays a
            # rate between L2 and DRAM (partial residency); a brand-new
            # object pays full DRAM.
            record = self._objects.get(key)
            if record is None:
                cycles = self.config.cycles(AccessLevel.MEM, nbytes)
            else:
                distance = self._tile_clock - record[2]
                cycles = self.config.graded_rate(distance) * nbytes
        self.stats.accesses[level] += 1
        self.stats.bytes_by_level[level] += nbytes
        # Advance clocks and refresh the record.
        self._core_clock[core] += nbytes
        self._tile_clock += nbytes
        self._objects[key] = (core, self._core_clock[core], self._tile_clock)
        return cycles

    def access_traffic(
        self,
        core: int,
        iteration: int,
        traffic,
        base: float,
        keyset: set,
    ) -> float:
        """Run one job's whole traffic plan through the cache, in order.

        ``traffic`` is a sequence of ``(stream, bucket_start, bucket_stop,
        bytes_per_bucket, write)`` port entries (a :class:`JobPlan`'s
        precompiled traffic).  Equivalent to one :meth:`access` per bucket
        per entry — same float-accumulation order (so cycle totals are
        bit-identical to the unbatched loop), same statistics, same clock
        advancement — but the per-call overhead (attribute lookups, enum
        hashing, stats-dict updates, record construction) is paid once
        per *job* instead of once per bucket.  This is the simulator's
        hot inner loop: an unsliced component touches all 64 slot buckets
        per port per job, a sliced one a couple of buckets on each of
        several ports.
        """
        if not 0 <= core < self.cores:
            raise SimulationError(f"core {core} out of range 0..{self.cores - 1}")
        (l1_bytes, l2_bytes, l1_rate, l2_rate, mem_rate,
         graded_lo, graded_hi) = self._constants
        objects = self._objects
        core_clock = self._core_clock[core]
        tile_clock = self._tile_clock
        n_l1 = n_l2 = n_mem = 0
        b_l1 = b_l2 = b_mem = 0
        keyset_add = keyset.add
        for stream, start, stop, nbytes, _write in traffic:
            if nbytes < 0:
                raise SimulationError(f"negative access size {nbytes}")
            for bucket in range(start, stop):
                key = (stream, iteration, bucket)
                record = objects.get(key)
                if record is None:
                    n_mem += 1
                    b_mem += nbytes
                    base += mem_rate * nbytes
                elif record[0] == core and core_clock - record[1] < l1_bytes:
                    n_l1 += 1
                    b_l1 += nbytes
                    base += l1_rate * nbytes
                else:
                    distance = tile_clock - record[2]
                    if distance < l2_bytes:
                        n_l2 += 1
                        b_l2 += nbytes
                    else:
                        n_mem += 1
                        b_mem += nbytes
                    # Inlined CacheConfig.graded_rate, operation for
                    # operation, so accumulated cycles stay bit-identical
                    # to access().
                    d = distance / l2_bytes
                    if d <= graded_lo:
                        base += l2_rate * nbytes
                    elif d >= graded_hi:
                        base += mem_rate * nbytes
                    else:
                        frac = (d - graded_lo) / (graded_hi - graded_lo)
                        base += (l2_rate + frac * (mem_rate - l2_rate)) * nbytes
                core_clock += nbytes
                tile_clock += nbytes
                objects[key] = (core, core_clock, tile_clock)
                keyset_add(key)
        self._core_clock[core] = core_clock
        self._tile_clock = tile_clock
        stats = self.stats
        if n_l1:
            stats.accesses[AccessLevel.L1] += n_l1
            stats.bytes_by_level[AccessLevel.L1] += b_l1
        if n_l2:
            stats.accesses[AccessLevel.L2] += n_l2
            stats.bytes_by_level[AccessLevel.L2] += b_l2
        if n_mem:
            stats.accesses[AccessLevel.MEM] += n_mem
            stats.bytes_by_level[AccessLevel.MEM] += b_mem
        return base

    def evict(self, key: Hashable) -> None:
        """Forget an object (stream slot released)."""
        self._objects.pop(key, None)

    def evict_many(self, keys) -> None:
        """Forget a batch of objects (one iteration's stream slots)."""
        pop = self._objects.pop
        for key in keys:
            pop(key, None)

    @property
    def resident_objects(self) -> int:
        return len(self._objects)
