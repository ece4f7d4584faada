"""Isolated unit tests for ManagerRuntime (mock controller)."""

from __future__ import annotations

from repro.core.ast import EventHandler
from repro.core.program import ManagerInfo
from repro.hinch.events import Event, EventBroker
from repro.hinch.manager import ManagerRuntime


class FakeController:
    def __init__(self, states: dict[str, bool]):
        self.states = dict(states)
        self.applied: list[dict] = []
        self.requests: list[str] = []

    def target_option_state(self, option: str) -> bool:
        return self.states[option]

    def apply_option_changes(self, manager: str, changes: dict) -> None:
        self.applied.append(dict(changes))
        self.states.update(changes)

    def send_reconfigure_request(self, manager: str, request: str) -> None:
        self.requests.append(request)


def make_manager(handlers, states, queue="q"):
    broker = EventBroker()
    controller = FakeController(states)
    info = ManagerInfo(
        qname="m", queue=queue, handlers=tuple(handlers),
        options=tuple(states), members=(),
    )
    return ManagerRuntime(info, broker, controller), broker, controller


def test_empty_queue_is_noop():
    mgr, broker, ctl = make_manager(
        [EventHandler("e", "toggle", option="o")], {"o": False}
    )
    mgr.poll()
    assert ctl.applied == []
    assert mgr.events_handled == 0


def test_toggle_flips_state():
    mgr, broker, ctl = make_manager(
        [EventHandler("e", "toggle", option="o")], {"o": False}
    )
    broker.post("q", Event("e"))
    mgr.poll()
    assert ctl.applied == [{"o": True}]
    assert mgr.events_handled == 1


def test_enable_when_already_enabled_is_ignored():
    """Paper: 'The event is ignored when the option is already in the
    required state.'"""
    mgr, broker, ctl = make_manager(
        [EventHandler("e", "enable", option="o")], {"o": True}
    )
    broker.post("q", Event("e"))
    mgr.poll()
    assert ctl.applied == []


def test_disable_when_enabled_applies():
    mgr, broker, ctl = make_manager(
        [EventHandler("e", "disable", option="o")], {"o": True}
    )
    broker.post("q", Event("e"))
    mgr.poll()
    assert ctl.applied == [{"o": False}]


def test_two_toggles_in_one_poll_cancel_out():
    mgr, broker, ctl = make_manager(
        [EventHandler("e", "toggle", option="o")], {"o": False}
    )
    broker.post("q", Event("e"))
    broker.post("q", Event("e"))
    mgr.poll()
    assert ctl.applied == []  # net no-op never reaches the scheduler


def test_three_toggles_net_one_change():
    mgr, broker, ctl = make_manager(
        [EventHandler("e", "toggle", option="o")], {"o": False}
    )
    for _ in range(3):
        broker.post("q", Event("e"))
    mgr.poll()
    assert ctl.applied == [{"o": True}]


def test_one_event_two_handlers_swaps_pair():
    """Blur-35 pattern: one event toggles both kernels' options."""
    mgr, broker, ctl = make_manager(
        [
            EventHandler("switch", "toggle", option="k3"),
            EventHandler("switch", "toggle", option="k5"),
        ],
        {"k3": True, "k5": False},
    )
    broker.post("q", Event("switch"))
    mgr.poll()
    assert ctl.applied == [{"k3": False, "k5": True}]


def test_forward_copies_event():
    mgr, broker, ctl = make_manager(
        [EventHandler("e", "forward", target="downstream")], {}
    )
    broker.post("q", Event("e", payload=5, source="comp"))
    mgr.poll()
    forwarded = broker.queue("downstream").poll()
    assert len(forwarded) == 1
    assert forwarded[0].payload == 5
    assert forwarded[0].source == "comp"


def test_reconfigure_request_broadcast():
    mgr, broker, ctl = make_manager(
        [EventHandler("move", "reconfigure", request="pos=1,2")], {}
    )
    broker.post("q", Event("move"))
    mgr.poll()
    assert ctl.requests == ["pos=1,2"]


def test_reconfigure_request_payload_substitution():
    mgr, broker, ctl = make_manager(
        [EventHandler("move", "reconfigure", request="pos=${payload}")], {}
    )
    broker.post("q", Event("move", payload="7,9"))
    mgr.poll()
    assert ctl.requests == ["pos=7,9"]


def test_unmatched_events_counted_ignored():
    mgr, broker, ctl = make_manager(
        [EventHandler("known", "toggle", option="o")], {"o": False}
    )
    broker.post("q", Event("mystery"))
    broker.post("q", Event("known"))
    mgr.poll()
    assert mgr.events_ignored == 1
    assert mgr.events_handled == 1


def test_mixed_events_processed_in_order():
    mgr, broker, ctl = make_manager(
        [
            EventHandler("on", "enable", option="o"),
            EventHandler("off", "disable", option="o"),
        ],
        {"o": False},
    )
    broker.post("q", Event("on"))
    broker.post("q", Event("off"))
    broker.post("q", Event("on"))
    mgr.poll()
    # last write wins within the poll: net enable
    assert ctl.applied == [{"o": True}]
