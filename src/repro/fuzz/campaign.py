"""Campaign driver: generate -> check -> shrink -> persist failures."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ReproError
from repro.fuzz.generator import FuzzCase, case_from_dict, generate_case
from repro.fuzz.runner import CaseFailure, check_case
from repro.fuzz.shrink import shrink_case

__all__ = ["CampaignReport", "run_campaign", "replay_file", "save_failure"]


@dataclass
class CampaignReport:
    cases: int = 0
    passed: int = 0
    #: (case, failure, artifact path or None) per failing case
    failures: list[tuple[FuzzCase, CaseFailure, str | None]] = field(
        default_factory=list
    )

    @property
    def ok(self) -> bool:
        return not self.failures


def save_failure(
    case: FuzzCase, failure: CaseFailure, out_dir: Path
) -> Path:
    """Persist a shrunk failing case with its exact replay line."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"case-{case.seed}.json"
    payload = json.loads(case.to_json())
    payload["_failure"] = {"kind": failure.kind, "detail": failure.detail}
    payload["_replay"] = (
        f"PYTHONPATH=src python -m repro fuzz --replay {path}"
    )
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def replay_file(path: str | Path) -> tuple[FuzzCase, CaseFailure | None]:
    """Re-check a persisted case (``--replay``).

    A file that is not JSON, not an object, or whose keys are not a
    :class:`FuzzCase`'s raises :class:`~repro.errors.ReproError` naming
    the problem.
    """
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path}: not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ReproError(f"{path}: not a fuzz case: a JSON object is needed")
    data.pop("_failure", None)
    data.pop("_replay", None)
    try:
        case = case_from_dict(data)
    except ReproError as exc:
        raise ReproError(f"{path}: {exc}") from None
    return case, check_case(case)


def run_campaign(
    *,
    seed: int = 0,
    cases: int = 25,
    max_nodes: int = 8,
    out_dir: str | Path = "fuzz-failures",
    shrink: bool = True,
    progress=None,
) -> CampaignReport:
    """Run ``cases`` generated cases starting at ``seed``.

    Every failing case is (optionally) shrunk and written to ``out_dir``
    with its replay line; the campaign always runs to completion so one
    failure does not mask later distinct ones.
    """
    report = CampaignReport()
    out = Path(out_dir)
    for index in range(cases):
        case = generate_case(seed + index, max_nodes=max_nodes)
        report.cases += 1
        failure = check_case(case)
        if failure is None:
            report.passed += 1
            if progress:
                progress(case, None)
            continue
        if shrink:
            case, failure = shrink_case(case, failure, check_case)
        path = save_failure(case, failure, out)
        report.failures.append((case, failure, str(path)))
        if progress:
            progress(case, failure)
    return report
