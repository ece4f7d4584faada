"""Unit tests for the cost model and machine bookkeeping."""

from __future__ import annotations

import pytest

from repro.components.registry import default_ports, default_registry
from repro.core import AppBuilder, expand
from repro.core.ports import PortSpec
from repro.core.program import ComponentInstance
from repro.errors import SimulationError
from repro.hinch.component import Component
from repro.spacecake import (
    CostModel, CostParams, JobCost, Machine, MachineConfig, PortTraffic,
    SimRuntime,
)


def make_instance(class_name="unknown", params=None, slice=None):
    return ComponentInstance(
        instance_id="i", definition_id="i", class_name=class_name,
        params=params or {}, streams={}, slice=slice,
    )


def test_traffic_validation():
    with pytest.raises(SimulationError):
        PortTraffic("p", -1, True)
    with pytest.raises(SimulationError):
        JobCost(compute_cycles=-1)


def test_jobcost_byte_sums():
    """A port with no plane moves what the profile lists for it."""

    class Listed(Component):
        ports = PortSpec(inputs=("a", "b"), outputs=("c",))

        @classmethod
        def cost_profile(cls, instance):
            return JobCost(
                compute_cycles=10,
                traffic=(
                    PortTraffic("a", 100, False),
                    PortTraffic("b", 50, False),
                    PortTraffic("c", 70, True),
                ),
            )

    traffic = CostModel({"c": Listed}).port_traffic(make_instance("c"), {}, {})
    assert sum(t.nbytes for t in traffic if not t.write) == 150
    assert sum(t.nbytes for t in traffic if t.write) == 70


def test_a_widening_convert_plane_is_charged_by_the_plan():
    """uint8 in, float32 out: the compiled plan charges the converter one
    byte per pixel read and four per pixel written."""
    b = AppBuilder()
    main = b.procedure("main")
    main.component("src", "luma_source", streams={"output": "raw"},
                   params={"width": 64, "height": 32})
    main.component("conv", "convert_plane",
                   streams={"input": "raw", "output": "wide"},
                   params={"dtype": "float32", "width": 64, "height": 32})
    main.component("mean", "reduce_plane",
                   streams={"input": "wide", "output": "level"},
                   params={"width": 64, "height": 32, "op": "mean"})
    program = expand(b.build(), default_ports())
    rt = SimRuntime(program, default_registry(), max_iterations=1)
    [(_, traffic)] = rt._plans["conv"].instances
    moved = {stream: (stop - start) * per_bucket
             for stream, start, stop, per_bucket, _ in traffic}
    assert moved == {"raw": 64 * 32, "wide": 4 * 64 * 32}


def test_unknown_class_gets_default_cycles():
    model = CostModel({}, CostParams(default_job_cycles=1234.0))
    cost = model.job_cost(make_instance())
    assert cost.compute_cycles == 1234.0
    assert cost.traffic == ()


def test_profile_lookup_and_caching():
    calls = []

    class WithProfile:
        @classmethod
        def cost_profile(cls, instance):
            calls.append(instance.instance_id)
            return JobCost(compute_cycles=7.0)

    model = CostModel({"c": WithProfile})
    inst = make_instance("c")
    assert model.job_cost(inst).compute_cycles == 7.0
    model.job_cost(inst)
    assert calls == ["i"]  # cached per instance


def test_profile_none_falls_back():
    class NoneProfile:
        @classmethod
        def cost_profile(cls, instance):
            return None

    model = CostModel({"c": NoneProfile}, CostParams(default_job_cycles=5.0))
    assert model.job_cost(make_instance("c")).compute_cycles == 5.0


def test_overhead_depends_on_nodes():
    model = CostModel({}, CostParams(job_overhead_cycles=100,
                                     sync_overhead_cycles=40))
    assert model.overhead_cycles(nodes=1) == 100
    assert model.overhead_cycles(nodes=2) == 140


def test_params_scaled():
    params = CostParams().scaled(2.0)
    base = CostParams()
    assert params.job_overhead_cycles == base.job_overhead_cycles * 2
    assert params.default_job_cycles == base.default_job_cycles  # not scaled


# -- machine ------------------------------------------------------------------


def test_machine_acquire_release_fifo():
    m = Machine(MachineConfig(nodes=2))
    a = m.acquire_core()
    b = m.acquire_core()
    assert (a, b) == (0, 1)
    assert m.acquire_core() is None
    m.release_core(a, busy_cycles=10.0)
    assert m.acquire_core() == 0
    assert m.busy_cycles[0] == 10.0
    assert m.jobs_run[0] == 1


def test_machine_release_of_idle_core_rejected():
    m = Machine(MachineConfig(nodes=1))
    with pytest.raises(SimulationError):
        m.release_core(0, busy_cycles=1.0)


def test_machine_utilization():
    m = Machine(MachineConfig(nodes=2))
    core = m.acquire_core()
    m.release_core(core, busy_cycles=50.0)
    assert m.utilization(100.0) == pytest.approx(0.25)
    assert m.utilization(0.0) == 0.0
