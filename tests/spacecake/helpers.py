"""Cost-profiled synthetic components for simulator tests."""

from __future__ import annotations

from repro.core.ports import Param, PortSpec
from repro.core.program import ComponentInstance
from repro.hinch.component import Component, JobContext
from repro.spacecake.costmodel import JobCost, PortTraffic

from tests.hinch.helpers import REGISTRY as HINCH_REGISTRY


class CostedSource(Component):
    """Source with an explicit cycle cost and output traffic."""

    ports = PortSpec(outputs=("output",), params={
        "cycles": Param("float", default=1000.0),
        "nbytes": Param("int", default=0), "limit": Param("int")})

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        return JobCost(
            compute_cycles=instance.params["cycles"],
            traffic=(PortTraffic("output", instance.params["nbytes"], True),),
        )

    def run(self, job: JobContext) -> None:
        job.write("output", job.iteration)


class CostedWorker(Component):
    """Filter with explicit cycles; divides work across slice copies."""

    ports = PortSpec(inputs=("input",), outputs=("output",), params={
        "cycles": Param("float", default=1000.0),
        "nbytes": Param("int", default=0)})

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        cycles = instance.params["cycles"]
        nbytes = instance.params["nbytes"]
        if instance.slice is not None:
            _, total = instance.slice
            cycles /= total
            nbytes //= total
        return JobCost(
            compute_cycles=cycles,
            traffic=(
                PortTraffic("input", nbytes, False),
                PortTraffic("output", nbytes, True),
            ),
        )

    def run(self, job: JobContext) -> None:
        job.write("output", job.read("input"))


class CostedSink(Component):
    ports = PortSpec(inputs=("input",),
                     params={"cycles": Param("float", default=100.0)})

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        return JobCost(compute_cycles=instance.params["cycles"])

    def __init__(self, instance):
        super().__init__(instance)
        self.values: list = []

    def run(self, job: JobContext) -> None:
        self.values.append((job.iteration, job.read("input")))


class SimTimer(Component):
    """Portless control component: posts an event every ``period`` iters.

    ``always_execute`` makes it run even in cost-only simulations, so
    reconfiguration experiments work without functional data.
    """

    ports = PortSpec(params={"queue": Param("str", default="ui"),
                             "period": Param("int", lo=1, default=12),
                             "event": Param("str", default="tick")})
    always_execute = True

    @classmethod
    def cost_profile(cls, instance: ComponentInstance) -> JobCost:
        return JobCost(compute_cycles=50.0)

    def run(self, job: JobContext) -> None:
        params = self.params
        if (job.iteration + 1) % params["period"] == 0:
            job.post_event(params["queue"], params["event"])


REGISTRY = dict(HINCH_REGISTRY)
REGISTRY.update(
    {
        "costed_source": CostedSource,
        "costed_worker": CostedWorker,
        "costed_sink": CostedSink,
        "sim_timer": SimTimer,
    }
)
PORTS = {name: cls.ports for name, cls in REGISTRY.items()}
