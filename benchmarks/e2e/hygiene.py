"""Process and shared-memory hygiene for the benchmark driver.

Every workload runs in a child interpreter that leads its own session
(``start_new_session=True``).  Whatever that interpreter starts — worker
processes, and the ``multiprocessing.resource_tracker`` helper, which
outlives its parent by a moment — stays in that session, so "nothing was
left running" is the statement "no live process has this session id".
Only ``/proc`` and ``os.kill`` are used; no private ``multiprocessing``
API.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path
from typing import Iterator

SHM_DIR = Path("/dev/shm")
TERM_AFTER = 5.0
KILL_AFTER = 10.0


def shm_entries() -> set[str]:
    try:
        return set(os.listdir(SHM_DIR))
    except OSError:
        return set()


def _live_processes() -> Iterator[tuple[int, int, int]]:
    """(pid, parent pid, session id) of every non-zombie process."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we were scanning
        # "pid (comm) state ppid pgrp session ..."; comm may hold spaces
        fields = stat[stat.rindex(")") + 2:].split()
        if fields[0] != "Z":
            yield int(entry), int(fields[1]), int(fields[3])


def session_members(sid: int) -> list[int]:
    """PIDs of live processes whose session id is ``sid``."""
    return [pid for pid, _, session in _live_processes() if session == sid]


def children_of(parent: int) -> list[int]:
    return [pid for pid, ppid, _ in _live_processes() if ppid == parent]


def signal_session(sid: int, sig: int) -> None:
    """Send ``sig`` to every member of the session.

    SIGTERM first, always: the resource tracker ignores it and unlinks
    the shared-memory segments of a dispatcher that died without cleaning
    up.  SIGKILL takes the tracker too, so it is the last resort.
    """
    for pid in session_members(sid):
        try:
            os.kill(pid, sig)
        except ProcessLookupError:
            pass


def wait_session_gone(sid: int) -> bool:
    """Wait until session ``sid`` is empty; True if it emptied by itself.

    SIGTERM goes to the stragglers after 5 s and SIGKILL after 10 s; both
    make the result False, which the driver counts as a failed operation.
    """
    start = time.monotonic()
    clean = True
    termed = False
    while True:
        if not session_members(sid):
            return clean
        waited = time.monotonic() - start
        if waited >= KILL_AFTER:
            clean = False
            signal_session(sid, signal.SIGKILL)
        elif waited >= TERM_AFTER and not termed:
            clean = False
            termed = True
            signal_session(sid, signal.SIGTERM)
        time.sleep(0.02)
