"""Unit tests for tracing and the central job queue."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.hinch.jobqueue import Job, JobQueue
from repro.hinch.tracing import TraceEvent, Tracer, merge_traces


# -- tracer ---------------------------------------------------------------------


def make_event(node, worker, start, end, iteration=0, kind="task"):
    return TraceEvent(node_id=node, iteration=iteration, worker=worker,
                      start=start, end=end, kind=kind)


def test_trace_event_duration():
    assert make_event("a", 0, 1.0, 3.5).duration == 2.5


def test_tracer_records_and_lists():
    t = Tracer()
    t.record(make_event("a", 0, 0, 1))
    t.record(make_event("b", 1, 1, 2))
    assert len(t.events) == 2
    t.clear()
    assert t.events == []


def test_tracer_disabled_drops_events():
    t = Tracer(enabled=False)
    t.record(make_event("a", 0, 0, 1))
    assert t.events == []


def test_busy_time_and_makespan():
    t = Tracer()
    t.record(make_event("a", 0, 0.0, 2.0))
    t.record(make_event("b", 1, 1.0, 4.0))
    assert t.busy_time() == 5.0
    assert t.busy_time(worker=0) == 2.0
    assert t.makespan() == 4.0
    assert t.utilization(2) == 5.0 / 8.0


def test_utilization_empty_trace():
    assert Tracer().utilization(4) == 0.0
    assert Tracer().makespan() == 0.0


def test_per_node_totals():
    t = Tracer()
    t.record(make_event("a", 0, 0, 1))
    t.record(make_event("a", 1, 2, 4, iteration=1))
    t.record(make_event("b", 0, 1, 2))
    assert t.per_node_totals() == {"a": 3.0, "b": 1.0}


def test_gantt_renders_rows():
    t = Tracer()
    t.record(make_event("alpha", 0, 0.0, 5.0))
    t.record(make_event("beta", 1, 5.0, 10.0))
    chart = t.gantt(width=20)
    lines = chart.splitlines()
    assert len(lines) == 2
    assert "a" in lines[0]
    assert "b" in lines[1]


def test_gantt_empty():
    assert Tracer().gantt() == "(empty trace)"


def test_merge_traces():
    t1, t2 = Tracer(), Tracer()
    t1.record(make_event("a", 0, 0, 1))
    t2.record(make_event("b", 1, 1, 2))
    merged = merge_traces([t1, t2])
    assert {e.node_id for e in merged.events} == {"a", "b"}


def test_thread_safe_recording():
    t = Tracer()

    def hammer(w):
        for i in range(200):
            t.record(make_event(f"n{i}", w, i, i + 1))

    threads = [threading.Thread(target=hammer, args=(w,)) for w in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert len(t.events) == 800


# -- job queue --------------------------------------------------------------------


def test_fifo_order():
    q = JobQueue()
    jobs = [Job(iteration=0, node_id=f"n{i}") for i in range(5)]
    q.push_all(jobs)
    assert [q.pop() for _ in range(5)] == jobs


def test_pop_timeout():
    q = JobQueue()
    t0 = time.perf_counter()
    assert q.pop(timeout=0.05) is None
    assert time.perf_counter() - t0 >= 0.04


def test_close_unblocks_consumers():
    q = JobQueue()
    results = []

    def consumer():
        results.append(q.pop())

    t = threading.Thread(target=consumer)
    t.start()
    time.sleep(0.02)
    q.close()
    t.join(timeout=2)
    assert not t.is_alive()
    assert results == [None]


def test_close_drains_remaining_jobs():
    q = JobQueue()
    q.push(Job(0, "a"))
    q.close()
    assert q.pop() == Job(0, "a")  # already-queued work still served
    assert q.pop() is None


def test_push_after_close_is_dropped():
    q = JobQueue()
    q.close()
    q.push(Job(0, "a"))
    q.push_all([Job(0, "b")])
    assert len(q) == 0


def test_drain_serves_remaining_then_sentinels():
    q = JobQueue()
    q.push(Job(0, "a"))
    q.push(Job(0, "b"))
    q.drain()
    assert q.pop() == Job(0, "a")
    assert q.pop() == Job(0, "b")
    assert q.pop() is None
    assert q.pop() is None  # sentinel is sticky


def test_drain_unblocks_waiting_consumers():
    q = JobQueue()
    results = []

    def consumer():
        results.append(q.pop())

    t = threading.Thread(target=consumer)
    t.start()
    time.sleep(0.02)
    q.drain()
    t.join(timeout=2)
    assert not t.is_alive()
    assert results == [None]


def test_push_after_drain_raises_lost_work_error():
    """drain() is only legal once the scheduler is done; a later push
    means a completion would be silently lost — that's the bug the
    sentinel protocol exists to catch."""
    import pytest

    from repro.errors import SchedulingError

    q = JobQueue()
    q.drain()
    with pytest.raises(SchedulingError, match="would be lost"):
        q.push(Job(0, "a"))
    with pytest.raises(SchedulingError, match="would be lost"):
        q.push_all([Job(0, "b")])
    # close() keeps its historical abort semantics: silent drop
    q2 = JobQueue()
    q2.close()
    assert q2.push(Job(0, "a")) == 0


def test_shutdown_race_loses_no_completed_iteration():
    """Workers racing toward shutdown must drain every queued job.

    Mirrors the runtime's worker loop: completing iteration ``i`` of a
    chain pushes ``i+1``; the worker that completes the final iteration
    of the final chain calls :meth:`JobQueue.drain` while its peers are
    mid-pop.  Every (chain, iteration) must be observed exactly once —
    the old close()-based shutdown could silently drop a push racing
    with the shutdown flag.
    """
    chains, depth, workers = 8, 50, 4
    q = JobQueue()
    completed: set[tuple[str, int]] = set()
    state = {"remaining": chains}
    lock = threading.Lock()

    def worker():
        while True:
            job = q.pop()
            if job is None:
                return
            with lock:
                key = (job.node_id, job.iteration)
                assert key not in completed
                completed.add(key)
                if job.iteration + 1 < depth:
                    q.push(Job(job.iteration + 1, job.node_id))
                else:
                    state["remaining"] -= 1
                    if state["remaining"] == 0:
                        q.drain()

    threads = [threading.Thread(target=worker) for _ in range(workers)]
    for t in threads:
        t.start()
    q.push_all([Job(0, f"chain{c}") for c in range(chains)])
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert len(completed) == chains * depth
    assert len(q) == 0


def test_concurrent_producers_consumers():
    q = JobQueue()
    produced = 400
    consumed: list[Job] = []
    lock = threading.Lock()

    def producer(base):
        for i in range(100):
            q.push(Job(iteration=base, node_id=f"n{i}"))

    def consumer():
        while True:
            job = q.pop()
            if job is None:
                return
            with lock:
                consumed.append(job)

    consumers = [threading.Thread(target=consumer) for _ in range(3)]
    for c in consumers:
        c.start()
    producers = [threading.Thread(target=producer, args=(b,)) for b in range(4)]
    for p in producers:
        p.start()
    for p in producers:
        p.join()
    # wait for drain, then close
    while len(q):
        time.sleep(0.005)
    time.sleep(0.02)
    q.close()
    for c in consumers:
        c.join(timeout=2)
    assert len(consumed) == produced
    assert len(set(consumed)) == produced


@pytest.fixture
def fast_switching():
    """Preempt every few bytecodes so lock-window races actually occur."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(previous)


def test_waiter_counted_notify_loses_no_wakeup(fast_switching):
    """One producer, one consumer, the consumer parked between bursts.

    ``push``/``push_all`` touch the condition variable only when a
    ``pop`` is counted as waiting; a wakeup lost in the window between
    the consumer's emptiness check and its wait would hang the consumer
    (the join timeout) or drop a job (the count).
    """
    q = JobQueue()
    total = 3000
    consumed: list[Job] = []

    def consumer():
        while (job := q.pop()) is not None:
            consumed.append(job)

    def wait_until_empty():
        deadline = time.monotonic() + 10
        while len(q):  # the consumer drains, then blocks in pop()
            assert time.monotonic() < deadline, "consumer never woke up"
            time.sleep(0.0005)

    thread = threading.Thread(target=consumer, daemon=True)
    thread.start()
    for k in range(0, total, 3):
        q.push(Job(k, "a"))
        q.push_all([Job(k + 1, "a"), Job(k + 2, "a")])
        if k % 150 == 0:
            wait_until_empty()
    wait_until_empty()
    q.drain()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert [j.iteration for j in consumed] == list(range(total))  # FIFO
    assert q._waiters == 0


@pytest.mark.parametrize("shutdown", ["close", "drain"])
def test_shutdown_races_a_blocked_pop(fast_switching, shutdown):
    """close()/drain() must wake a consumer wherever it is in pop()."""
    for _ in range(200):
        q = JobQueue()
        got: list[Job | None] = []
        thread = threading.Thread(target=lambda: got.append(q.pop()),
                                  daemon=True)
        thread.start()
        getattr(q, shutdown)()  # before, during or after the pop blocks
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert got == [None] and q._waiters == 0


def test_utilization_zero_workers_guarded():
    """A zero (or negative) worker count yields 0.0, not a division by
    zero."""
    t = Tracer()
    t.record(make_event("a", 0, 0.0, 2.0))
    assert t.utilization(0) == 0.0
    assert t.utilization(-1) == 0.0
    assert t.utilization(2) > 0.0
