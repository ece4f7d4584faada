"""The commands the docs quote exist.

Docs, the Makefile, CI and the verify skill send readers to
``python -m repro <sub>`` / ``xspcl <sub>`` and ``make <target>``; a
retired subcommand or target must not survive in any of them.
"""

from __future__ import annotations

import argparse
import re
from pathlib import Path

import pytest

import repro.cli
from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]

QUOTING_FILES = [
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
    ROOT / "DESIGN.md",
    *sorted((ROOT / "docs").glob("*.md")),
    ROOT / "Makefile",
    ROOT / ".github" / "workflows" / "ci.yml",
    ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]

#: ``python -m repro run`` / ``$(PYTHON) -m repro run`` / ``xspcl run``;
#: the lookbehind skips the ``<xspcl version=...>`` XML root element
SUBCOMMAND = re.compile(r"(?:-m repro|(?<![<\w])xspcl) ([a-z]+)")
MAKE_TARGET = re.compile(r"\bmake ([a-z][\w-]*)")
CODE = re.compile(r"```.*?```|`[^`\n]+`", re.DOTALL)


def _code_text(path: Path) -> str:
    """What a file quotes as commands: markdown code, or the whole file."""
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".md":
        return "\n".join(CODE.findall(text))
    return text


def _subcommands() -> set[str]:
    (sub,) = (a for a in build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    return set(sub.choices)


def _make_targets() -> set[str]:
    makefile = (ROOT / "Makefile").read_text(encoding="utf-8")
    return set(re.findall(r"^([a-z][\w-]*):", makefile, re.MULTILINE))


@pytest.mark.parametrize("path", QUOTING_FILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_quoted_commands_exist(path):
    code = _code_text(path)
    assert set(SUBCOMMAND.findall(code)) <= _subcommands()
    assert set(MAKE_TARGET.findall(code)) <= _make_targets()


def test_cli_docstring_lists_every_subcommand():
    listed = re.findall(r"^\* ``(\w+)``", repro.cli.__doc__, re.MULTILINE)
    assert sorted(listed) == sorted(_subcommands())


def test_retired_bench_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
