"""Greedy case minimization: smallest case that still fails the same way.

Each pass proposes one structural simplification (drop a stage, drop the
reconfiguration, narrow the knobs, shrink iterations,
geometry, slice widths); a proposal is kept iff the simplified case
still fails with the *same failure kind* — shrinking must never trade
one bug for a different one.  Passes repeat to a fixpoint under a hard
evaluation budget, so shrinking a pathological case terminates.
"""

from __future__ import annotations

from copy import deepcopy
from typing import Callable, Iterator

from repro.fuzz.generator import FuzzCase, case_from_dict
from repro.fuzz.runner import CaseFailure

__all__ = ["shrink_case"]

#: hard cap on oracle evaluations during one shrink
MAX_EVALS = 60


def _clone(case: FuzzCase) -> FuzzCase:
    from dataclasses import asdict

    return case_from_dict(deepcopy(asdict(case)))


def _proposals(case: FuzzCase) -> Iterator[FuzzCase]:
    """Candidate simplifications, most aggressive first."""
    # drop each stage
    for i in range(len(case.stages)):
        c = _clone(case)
        del c.stages[i]
        if c.reconfig is not None:
            if c.reconfig["stage"] == i:
                c.reconfig = None
            elif c.reconfig["stage"] > i:
                c.reconfig["stage"] -= 1
        yield c
    # drop whole features
    if case.reconfig is not None:
        c = _clone(case)
        c.reconfig = None
        yield c
    # neutralize knobs one at a time
    neutral = {"workers": 1, "depth": 1}
    for key, value in neutral.items():
        if case.knobs.get(key, value) != value:
            c = _clone(case)
            c.knobs[key] = value
            yield c
    # fewer iterations
    if case.iterations > 2:
        c = _clone(case)
        c.iterations = 2
        yield c
    # fewer toggles
    if case.reconfig is not None and case.reconfig["toggles"] > 1:
        c = _clone(case)
        c.reconfig["toggles"] = 1
        yield c
    # narrower slices
    for i, stage in enumerate(case.stages):
        if stage["slices"] > 2:
            c = _clone(case)
            c.stages[i]["slices"] = 2
            yield c
    # smaller geometry
    small = (4, 16) if case.palette == "audio" else (16, 12)
    if (case.width, case.height) != small:
        c = _clone(case)
        c.width, c.height = small
        yield c


def shrink_case(
    case: FuzzCase,
    failure: CaseFailure,
    check: Callable[[FuzzCase], CaseFailure | None],
) -> tuple[FuzzCase, CaseFailure]:
    """Greedily minimize ``case`` while ``check`` keeps failing alike."""
    evals = 0
    current, current_failure = case, failure
    improved = True
    while improved and evals < MAX_EVALS:
        improved = False
        for candidate in _proposals(current):
            if evals >= MAX_EVALS:
                break
            evals += 1
            result = check(candidate)
            if result is not None and result.kind == current_failure.kind:
                current, current_failure = candidate, result
                improved = True
                break  # restart proposals from the simplified case
    return current, current_failure
