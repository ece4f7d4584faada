"""Adversarial scenario fuzzing: random SP graphs, differentially checked.

Hand-written scenarios only cover the failures someone imagined.  This
package generates random-but-valid XSPCL programs (and deliberately
*invalid* mutants), random runs over them — reconfiguration schedules,
widths and depths — and checks every case differentially:

* every executor row must produce the one-worker run's sink output
  **bit for bit** (:func:`repro.fuzz.runner.differential`);
* lint and build must **agree**: a lint-rejected spec fails at build,
  never at runtime — and a lint-clean spec runs;
* every run shuts down cleanly and leaks nothing into ``/dev/shm``.

Failures are shrunk to a minimal reproducing case and written to disk
with an exact replay line.  Entry points: ``python -m repro fuzz`` and
:func:`run_campaign`.
"""

from repro.fuzz.generator import FuzzCase, generate_case
from repro.fuzz.runner import CaseFailure, build_spec, check_case
from repro.fuzz.shrink import shrink_case
from repro.fuzz.campaign import run_campaign

__all__ = [
    "FuzzCase",
    "CaseFailure",
    "generate_case",
    "build_spec",
    "check_case",
    "shrink_case",
    "run_campaign",
]
