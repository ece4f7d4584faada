"""Manager invocation logic (paper §3.4), shared by every executor.

A manager "is invoked twice in every iteration: at the entrance of its
subgraph ... and at the exit".  When invoked it polls its event queue and
applies, per event, the actions its handlers define:

* enable / disable / toggle an option — "ignored when the option is
  already in the required state";
* forward the event to another queue;
* send a reconfiguration request to all components in the managed
  subgraph.

The manager does not mutate the scheduler directly; it talks to a
:class:`ReconfigController` provided by the runtime, which owns option
target-states, pre-creates components for options being enabled ("as soon
as the event is detected, even though the contained subgraph is still
active"), and files a :class:`~repro.hinch.scheduler.ReconfigPlan`.
"""

from __future__ import annotations

from typing import Any, Protocol

from repro.core.program import ManagerInfo
from repro.hinch.events import Event, EventBroker

__all__ = ["ManagerRuntime", "ReconfigController"]


class ReconfigController(Protocol):
    """Runtime services a manager needs."""

    def target_option_state(self, option_qname: str) -> bool:
        """Current state including not-yet-applied pending changes."""

    def apply_option_changes(self, manager: str, changes: dict[str, bool]) -> None:
        """Queue a reconfiguration for the non-no-op subset of changes."""

    def send_reconfigure_request(self, manager: str, request: str) -> None:
        """Deliver a reconfiguration request to all active members."""


class ManagerRuntime:
    """One manager's per-run state: its queue binding and statistics."""

    def __init__(
        self,
        info: ManagerInfo,
        broker: EventBroker,
        controller: ReconfigController,
    ) -> None:
        self.info = info
        self.broker = broker
        # a broker creates a queue on first use and never drops one, so
        # the queue bound here is the one every poll drains
        self._queue = broker.queue(info.queue)
        self.controller = controller
        self.events_handled = 0
        self.events_ignored = 0

    def poll(self, job: Any = None) -> None:
        """Poll the queue and apply handlers.

        This is a manager node's plan step
        (:class:`~repro.hinch.engine.NodePlan`), at its subgraph's entry
        and exit alike; ``job`` is the step's context, which it never
        reads.
        """
        events = self._queue.poll()
        if not events:
            return
        changes: dict[str, bool] = {}
        for event in events:
            handlers = self.info.handlers_for(event.name)
            if not handlers:
                self.events_ignored += 1
                continue
            self.events_handled += 1
            for handler in handlers:
                if handler.action in ("enable", "disable", "toggle"):
                    option = handler.option
                    assert option is not None
                    current = changes.get(
                        option, self.controller.target_option_state(option)
                    )
                    if handler.action == "enable":
                        desired = True
                    elif handler.action == "disable":
                        desired = False
                    else:
                        desired = not current
                    changes[option] = desired
                elif handler.action == "forward":
                    assert handler.target is not None
                    self.broker.post(
                        handler.target,
                        Event(
                            name=event.name,
                            payload=event.payload,
                            source=event.source,
                        ),
                    )
                else:  # reconfigure
                    request = handler.request
                    assert request is not None
                    if event.payload is not None and "${payload}" in request:
                        request = request.replace(
                            "${payload}", str(event.payload)
                        )
                    self.controller.send_reconfigure_request(
                        self.info.qname, request
                    )
        # Drop no-op changes ("ignored when already in the required state").
        effective = {
            opt: state
            for opt, state in changes.items()
            if state != self.controller.target_option_state(opt)
        }
        if effective:
            self.controller.apply_option_changes(self.info.qname, effective)
