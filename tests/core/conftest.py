"""Shared fixtures for XSPCL core tests: a tiny synthetic registry."""

from __future__ import annotations

import pytest

from repro.core.ports import Param, PortSpec


@pytest.fixture()
def registry() -> dict[str, PortSpec]:
    """Component classes used by core-language tests.

    Deliberately synthetic (not the video components) so language tests
    do not depend on the component library.
    """
    return {
        # ``rate`` is undeclared (an open schema): the language tests
        # pass it values of every type
        "source": PortSpec(
            outputs=("output",),
            params={"period": Param("int"), "queue": Param("str"),
                    "event": Param("str")},
            open_params=True,
        ),
        "sink": PortSpec(inputs=("input",), params={"expect": Param("int")}),
        "filter": PortSpec(
            inputs=("input",),
            outputs=("output",),
            params={"factor": Param("int"), "queue": Param("str"),
                    "mode": Param("str")},
        ),
        "merge": PortSpec(inputs=("a", "b"), outputs=("output",)),
        "split": PortSpec(inputs=("input",), outputs=("a", "b")),
        "strict": PortSpec(
            inputs=("input",),
            outputs=("output",),
            params={"gain": Param("int", required=True)},
        ),
    }
