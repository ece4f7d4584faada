"""Properties of the simulator fast path (JobPlan + batched cache).

The golden fixture (tests/bench) pins end-to-end equality with the
pre-optimization implementation; these tests pin the *invariants* the
fast path relies on, so a future change that breaks one fails with a
local, debuggable assertion instead of a whole-sweep cycle diff:

* a memoized :class:`JobPlan` always equals a fresh compilation against
  the current graph — checked on every single job of a reconfiguring
  run, so stale plans after a splice cannot hide;
* :meth:`CacheModel.access_traffic` is bit-identical to the unbatched
  per-bucket :meth:`CacheModel.access` loop it replaced;
* a reconfiguration stall enqueues exactly one dispatch wakeup no matter
  how many completions hit it.
"""

from __future__ import annotations

import pytest

from repro.apps import build_jpip, build_pip, make_program
from repro.components.registry import default_registry
from repro.spacecake import SimRuntime
from repro.spacecake.cache import CacheModel
from repro.spacecake.simulator import JobPlan


@pytest.fixture(scope="module")
def registry():
    return default_registry()


def _plan_fields(plan: JobPlan) -> tuple:
    return (
        plan.fixed_cycles,
        plan.overhead_cycles,
        plan.instances,
    )


@pytest.mark.parametrize("builder,frames,reconfigures", [
    (lambda: build_pip(2, reconfigurable=True, period=6), 24, True),
    (lambda: build_jpip(2), 6, False),
])
def test_memoized_plans_equal_fresh_compilation(
    registry, builder, frames, reconfigures
):
    """Every job's memoized plan == a plan compiled fresh at that moment.

    The PiP variant reconfigures every 6 frames, so the property is
    exercised across several graph rebuilds, not just at construction.
    """
    program = make_program(builder(), name="fastpath-prop")
    rt = SimRuntime(
        program, registry, nodes=4, pipeline_depth=5, max_iterations=frames
    )
    orig_job_cycles = rt._job_cycles
    checked = 0

    def checking_job_cycles(job, core):
        nonlocal checked
        plan = rt._plans[job.node_id]
        fresh = JobPlan.compile(
            rt.pg.graph.node(job.node_id),
            rt.cost_model,
            rt._overhead_cycles,
            rt.pg.aliases,
        )
        assert _plan_fields(fresh) == _plan_fields(plan), job.node_id
        checked += 1
        return orig_job_cycles(job, core)

    rt._job_cycles = checking_job_cycles
    result = rt.run()
    assert checked == result.jobs_executed > 0
    assert (result.reconfig_count > 0) == reconfigures


def test_plans_rebuilt_on_reconfigure(registry):
    """A splice must not leave plans for dead nodes or miss new ones."""
    program = make_program(
        build_pip(2, reconfigurable=True, period=6), name="fastpath-rebuild"
    )
    rt = SimRuntime(
        program, registry, nodes=4, pipeline_depth=5, max_iterations=24
    )
    seen_plan_sets = [frozenset(rt._plans)]
    orig = rt.on_reconfigure

    def recording(plans, resume):
        pg = orig(plans, resume)
        assert set(rt._plans) == set(pg.graph.node_ids)
        seen_plan_sets.append(frozenset(rt._plans))
        return pg

    rt.on_reconfigure = recording
    result = rt.run()
    assert result.reconfig_count > 0
    # The toggled option adds/removes the second PiP chain's nodes.
    assert len(set(seen_plan_sets)) > 1


def _drive(traffic, runs, batched: bool):
    """Run the same access pattern through one CacheModel either way."""
    cache = CacheModel(cores=4)
    totals = []
    keyset: set = set()
    for core, iteration in runs:
        base = 0.125  # non-trivial base: accumulation order must match
        if batched:
            base = cache.access_traffic(core, iteration, traffic, base, keyset)
        else:
            for stream, start, stop, nbytes, write in traffic:
                for bucket in range(start, stop):
                    key = (stream, iteration, bucket)
                    base += cache.access(core, key, nbytes, write=write)
                    keyset.add(key)
        totals.append(base)
    return totals, cache


def test_access_traffic_bit_identical_to_access_loop():
    traffic = (
        ("y", 0, 64, 330, True),      # unsliced full run
        ("u", 10, 13, 77, False),     # short sliced run
        ("y", 0, 64, 330, False),     # re-read: exercises L1/L2 hits
        ("halo", 62, 64, 4096, False),  # large part: exercises graded band
    )
    runs = [(0, 0), (1, 0), (0, 1), (3, 2), (0, 0)]
    got, cache_b = _drive(traffic, runs, batched=True)
    want, cache_u = _drive(traffic, runs, batched=False)
    # Bit-identical cycles (==, not approx) and identical model state.
    assert got == want
    assert cache_b.stats.accesses == cache_u.stats.accesses
    assert cache_b.stats.bytes_by_level == cache_u.stats.bytes_by_level
    assert cache_b._objects == cache_u._objects
    assert cache_b._core_clock == cache_u._core_clock
    assert cache_b._tile_clock == cache_u._tile_clock


def test_access_range_is_the_single_entry_form():
    cache_a = CacheModel(cores=2)
    cache_b = CacheModel(cores=2)
    ka: set = set()
    kb: set = set()
    a = cache_a.access_range(1, "s", 7, 3, 9, 128, True, 1.5, ka)
    b = cache_b.access_traffic(1, 7, (("s", 3, 9, 128, True),), 1.5, kb)
    assert a == b
    assert ka == kb == {("s", 7, bucket) for bucket in range(3, 9)}


def test_stall_enqueues_single_wakeup(registry):
    """N blocked dispatches during one splice window -> one heap event."""
    program = make_program(build_pip(1), name="fastpath-stall")
    rt = SimRuntime(
        program, registry, nodes=2, pipeline_depth=5, max_iterations=4
    )
    rt._stall_until = 1000.0
    before = rt.engine.pending
    for _ in range(5):
        rt._dispatch()
    assert rt.engine.pending == before + 1
    # A *later* stall deadline legitimately needs one more wakeup.
    rt._stall_until = 2000.0
    rt._dispatch()
    rt._dispatch()
    assert rt.engine.pending == before + 2
