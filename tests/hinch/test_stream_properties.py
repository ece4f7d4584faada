"""Property tests for stream invariants under random operation sequences."""

from __future__ import annotations

import numpy as np
from hypothesis import given, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.errors import StreamError
from repro.hinch.stream import LockedStream, Stream, StreamStore


class StreamMachine(RuleBasedStateMachine):
    """Model-based test: a Stream against a plain dict reference model."""

    def __init__(self):
        super().__init__()
        self.stream = Stream("s")
        self.model: dict[int, object] = {}
        self.finalized: set[int] = set()

    iterations = st.integers(0, 5)

    @rule(k=iterations, value=st.integers())
    def put(self, k, value):
        if k in self.model:
            try:
                self.stream.put(k, value)
                raise AssertionError("double write must raise")
            except StreamError:
                pass
        else:
            self.stream.put(k, value)
            self.model[k] = value
            self.finalized.add(k)

    @rule(k=iterations)
    def get(self, k):
        if k in self.model:
            assert self.stream.get(k) == self.model[k]
        else:
            try:
                self.stream.get(k)
                raise AssertionError("read-before-write must raise")
            except StreamError:
                pass

    @rule(k=iterations)
    def ensure(self, k):
        if k in self.finalized:
            try:
                self.stream.ensure_buffer(k, lambda: [0])
                raise AssertionError("sliced write after put must raise")
            except StreamError:
                pass
        else:
            buf = self.stream.ensure_buffer(k, lambda: [0])
            if k in self.model:
                assert buf is self.model[k]
            else:
                self.model[k] = buf

    @rule(k=iterations)
    def release(self, k):
        self.stream.release(k)
        self.model.pop(k, None)
        self.finalized.discard(k)

    @invariant()
    def live_slots_match_model(self):
        assert self.stream.live_slots == len(self.model)
        # one frame per written iteration (a release drops the emptied
        # frame); a sliced slot is recorded as a buffer, a put one is not
        frames = self.stream._frames
        assert set(frames) == set(self.model)
        assert {k for k, (_, buffers) in frames.items() if "s" in buffers} \
            == set(self.model) - self.finalized


TestStreamModel = StreamMachine.TestCase


#: at most this many iterations are live, as the scheduler admits them
DEPTH = 3
#: request geometries: two shapes and two dtypes, so a stream sees the
#: format change a splice can make
GEOMETRIES = [((4, 6), np.uint8), ((4, 6), np.int16), ((3, 5), np.uint8)]


class RecyclingMachine(RuleBasedStateMachine):
    """A stream reuses only its own released ``shape`` buffers.

    Iterations are admitted in order, at most :data:`DEPTH` at a time,
    and each is written by ``put``, by ``shape`` requests or by a
    ``factory`` before it is read and released.
    """

    stream_cls = Stream

    def __init__(self):
        super().__init__()
        self.stream = self.stream_cls("s")
        self.next = 0
        self.live: list[int] = []
        #: iteration -> (slot value, its geometry if shape-allocated,
        #: else "put" or "factory")
        self.slots: dict[int, tuple[np.ndarray, tuple | str]] = {}
        #: put values and factory buffers: never handed out again
        self.foreign: list[np.ndarray] = []

    def _pick(self, index: int) -> int:
        return self.live[index % len(self.live)]

    @precondition(lambda self: len(self.live) < DEPTH)
    @rule()
    def admit(self):
        self.live.append(self.next)
        self.next += 1

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, DEPTH - 1), geometry=st.sampled_from(GEOMETRIES))
    def put(self, index, geometry):
        k = self._pick(index)
        value = np.zeros(*geometry)
        if k in self.slots:
            try:
                self.stream.put(k, value)
                raise AssertionError("double write must raise")
            except StreamError:
                return
        self.stream.put(k, value)
        self.slots[k] = (value, "put")
        self.foreign.append(value)

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, DEPTH - 1), geometry=st.sampled_from(GEOMETRIES))
    def ensure_shape(self, index, geometry):
        k = self._pick(index)
        value, allocated = self.slots.get(k, (None, None))
        if allocated == "put":
            try:
                self.stream.ensure_buffer(k, shape=geometry[0], dtype=geometry[1])
                raise AssertionError("sliced write after put must raise")
            except StreamError:
                return
        if allocated == "factory":
            return
        if value is not None:
            geometry = allocated  # a later slice copy asks for the same
        shape, dtype = geometry
        buf = self.stream.ensure_buffer(k, shape=shape, dtype=dtype)
        if value is not None:
            assert buf is value
            return
        # never a spare of another geometry ...
        assert buf.shape == shape and buf.dtype == dtype
        # ... never an unreleased iteration's slot ...
        assert all(buf is not v for v, _ in self.slots.values())
        # ... and never a put value or a factory buffer
        assert all(buf is not f for f in self.foreign)
        self.slots[k] = (buf, geometry)

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, DEPTH - 1))
    def ensure_factory(self, index):
        k = self._pick(index)
        if k in self.slots:
            return
        buf = self.stream.ensure_buffer(k, lambda: np.zeros(*GEOMETRIES[0]))
        self.slots[k] = (buf, "factory")
        self.foreign.append(buf)

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, DEPTH - 1))
    def get(self, index):
        k = self._pick(index)
        if k in self.slots:
            assert self.stream.get(k) is self.slots[k][0]

    @precondition(lambda self: self.live)
    @rule(index=st.integers(0, DEPTH - 1))
    def release(self, index):
        k = self._pick(index)
        self.stream.release(k)
        self.stream.release(k)  # idempotent: recycles once
        self.live.remove(k)
        self.slots.pop(k, None)

    @invariant()
    def spares_are_released_shape_buffers(self):
        spare = self.stream._spare
        assert len({id(b) for b in spare}) == len(spare)
        assert all(b is not v for b in spare for v, _ in self.slots.values())
        assert all(b is not f for b in spare for f in self.foreign)
        assert self.stream.live_slots == len(self.slots)

    @invariant()
    def frames_record_each_slot_and_its_spare_list(self):
        """The table holds a frame per written iteration: its value, and
        the spare list only for a ``shape`` buffer (None for a factory
        buffer, nothing for a put value)."""
        frames = self.stream._frames
        assert set(frames) == set(self.slots)
        for k, (value, allocated) in self.slots.items():
            values, buffers = frames[k]
            assert list(values) == ["s"] and values["s"] is value
            if allocated == "put":
                assert buffers == {}
            elif allocated == "factory":
                assert buffers == {"s": None}
            else:
                assert list(buffers) == ["s"]
                assert buffers["s"] is self.stream._spare


TestStreamRecycling = RecyclingMachine.TestCase


class LockedRecyclingMachine(RecyclingMachine):
    stream_cls = LockedStream


TestLockedStreamRecycling = LockedRecyclingMachine.TestCase


@given(st.lists(st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 3)),
                max_size=30))
def test_prop_store_release_clears_everything(ops):
    store = StreamStore()
    live: set[tuple[str, int]] = set()
    for name, k in ops:
        store.stream(name).put(*_fresh(store, name, k))
        live.add((name, _last_put[0]))
    for _, k in list(live):
        store.release_iteration(k)
    # releasing every iteration seen leaves nothing behind
    for name, k in live:
        store.release_iteration(k)
    assert store.total_live_slots() == 0
    assert store.live_iterations == 0


_last_put = [0]


def _fresh(store, name, k):
    """Find an unused iteration near k to avoid double-write errors."""
    stream = store.stream(name)
    while stream.has(k):
        k += 1
    _last_put[0] = k
    return k, object()
