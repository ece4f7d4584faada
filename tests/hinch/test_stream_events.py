"""Unit tests for streams and event queues."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.errors import EventError, StreamError
from repro.hinch import (
    Event,
    EventBroker,
    EventQueue,
    EventStormWarning,
    Stream,
    StreamStore,
)
from repro.hinch import events


# -- streams ------------------------------------------------------------------


def test_put_get_roundtrip():
    s = Stream("x")
    s.put(0, "frame0")
    s.put(1, "frame1")
    assert s.get(0) == "frame0"
    assert s.get(1) == "frame1"


def test_read_before_write_raises():
    s = Stream("x")
    with pytest.raises(StreamError, match="read before write"):
        s.get(0)


def test_double_put_raises():
    s = Stream("x")
    s.put(0, "a")
    with pytest.raises(StreamError, match="double write"):
        s.put(0, "b")


def test_release_frees_slot():
    s = Stream("x")
    s.put(0, "a")
    assert s.live_slots == 1
    s.release(0)
    assert s.live_slots == 0
    with pytest.raises(StreamError):
        s.get(0)


def test_release_is_idempotent():
    s = Stream("x")
    s.release(5)  # no slot: fine
    s.put(5, "v")
    s.release(5)
    s.release(5)


def test_iteration_can_be_rewritten_after_release():
    # Not used by the runtime (iterations are unique), but the slot map
    # must not remember released iterations.
    s = Stream("x")
    s.put(0, "a")
    s.release(0)
    s.put(0, "b")
    assert s.get(0) == "b"


def test_ensure_buffer_shared_across_copies():
    s = Stream("x")
    calls = []

    def factory():
        calls.append(1)
        return np.zeros(8)

    b1 = s.ensure_buffer(0, factory)
    b2 = s.ensure_buffer(0, factory)
    assert b1 is b2
    assert len(calls) == 1
    b1[:4] = 1.0
    b2[4:] = 2.0
    assert s.get(0).tolist() == [1, 1, 1, 1, 2, 2, 2, 2]


def test_ensure_buffer_after_put_raises():
    s = Stream("x")
    s.put(0, "whole")
    with pytest.raises(StreamError, match="sliced write after"):
        s.ensure_buffer(0, lambda: [])


def test_ensure_buffer_geometry_mismatch_raises():
    """Satellite regression: a second sliced writer requesting a
    different shape/dtype used to silently share the first allocation
    and write out of bounds; it must raise."""
    s = Stream("x")
    s.ensure_buffer(0, shape=(4, 8), dtype=np.uint8)
    with pytest.raises(StreamError, match="geometry mismatch"):
        s.ensure_buffer(0, shape=(4, 6), dtype=np.uint8)
    with pytest.raises(StreamError, match="geometry mismatch"):
        s.ensure_buffer(0, shape=(4, 8), dtype=np.float64)


def test_ensure_buffer_matching_geometry_shares():
    s = Stream("x")
    b1 = s.ensure_buffer(0, shape=(4, 8), dtype=np.uint8)
    b2 = s.ensure_buffer(0, shape=(4, 8), dtype=np.uint8)
    assert b1 is b2
    # dtype omitted: shape alone is validated
    assert s.ensure_buffer(0, shape=(4, 8)) is b1


def test_slots_independent_per_iteration():
    s = Stream("x")
    b0 = s.ensure_buffer(0, lambda: np.zeros(2))
    b1 = s.ensure_buffer(1, lambda: np.ones(2))
    assert b0 is not b1


def test_stats_counters():
    s = Stream("x")
    s.put(0, "a")
    s.get(0)
    s.get(0)
    assert s.stats == (1, 2)


def test_concurrent_sliced_writers():
    s = Stream("x")
    n = 16
    results = []

    def writer(i):
        buf = s.ensure_buffer(0, lambda: np.zeros(n))
        buf[i] = i
        results.append(buf)

    threads = [threading.Thread(target=writer, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r is results[0] for r in results)
    assert s.get(0).tolist() == list(range(n))


def test_store_creates_on_demand_and_releases_everywhere():
    store = StreamStore()
    a = store.stream("a")
    b = store.stream("b")
    assert store.stream("a") is a
    a.put(0, 1)
    b.put(0, 2)
    assert store.total_live_slots() == 2
    store.release_iteration(0)
    assert store.total_live_slots() == 0
    assert sorted(store.names) == ["a", "b"]


# -- events ----------------------------------------------------------------------


def test_event_queue_fifo_drain():
    q = EventQueue("ui")
    q.post(Event("a"))
    q.post(Event("b", payload=42))
    events = q.poll()
    assert [e.name for e in events] == ["a", "b"]
    assert events[1].payload == 42
    assert q.poll() == []


def test_event_counts():
    q = EventQueue("ui")
    q.post(Event("x"))
    assert q.peek_count() == 1
    assert q.total_posted == 1
    q.poll()
    assert q.peek_count() == 0
    assert q.total_posted == 1


def test_broker_named_queues():
    broker = EventBroker()
    broker.post("ui", Event("press"))
    assert broker.queue("ui").peek_count() == 1
    assert broker.queue("other").peek_count() == 0
    assert set(broker.queue_names) == {"ui", "other"}


def test_broker_rejects_empty_name():
    with pytest.raises(EventError):
        EventBroker().queue("")


def test_concurrent_posts_are_all_delivered():
    broker = EventBroker()
    n = 200

    def poster(i):
        broker.post("q", Event(f"e{i}"))

    threads = [threading.Thread(target=poster, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert broker.queue("q").total_posted == n
    assert len(broker.queue("q").poll()) == n


# -- high-water warning (satellite: event storms must be loud) ---------------


def test_high_water_warns_once_per_doubling(monkeypatch):
    monkeypatch.setattr(events, "HIGH_WATER", 4)
    q = EventQueue("ui")
    with pytest.warns(EventStormWarning, match="high-water 4"):
        for i in range(6):
            q.post(Event(f"e{i}"))
    # threshold doubled: growing to 7 stays quiet, crossing 8 warns again
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error", EventStormWarning)
        q.post(Event("e6"))
    with pytest.warns(EventStormWarning):
        q.post(Event("e7"))


def test_high_water_rearms_after_poll(monkeypatch):
    monkeypatch.setattr(events, "HIGH_WATER", 4)
    q = EventQueue("ui")
    with pytest.warns(EventStormWarning):
        for i in range(5):
            q.post(Event(f"e{i}"))
    q.poll()
    with pytest.warns(EventStormWarning):
        for i in range(5):
            q.post(Event(f"e{i}"))
