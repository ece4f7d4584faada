"""The commands and modules the docs quote exist.

Docs, the Makefile, CI and the verify skill send readers to
``python -m repro <sub>`` / ``xspcl <sub>`` and ``make <target>``; a
retired subcommand or target must not survive in any of them.  README.md
and DESIGN.md name modules (`` `repro.hinch.engine` ``,
`` `core.parser` ``); a deleted module must not survive there either.
"""

from __future__ import annotations

import argparse
import importlib
import re
from pathlib import Path

import pytest

import repro
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


#: the files whose backticked dotted names are modules; docs/performance.md
#: is left out because its metric names (``core.parse_ms``) look like them
MODULE_NAMING_FILES = [ROOT / "README.md", ROOT / "DESIGN.md"]
PACKAGES = sorted(
    path.parent.name
    for path in Path(repro.__file__).parent.glob("*/__init__.py")
)
#: a code span that is only ``repro.<pkg>.<name>...`` or ``<pkg>.<name>...``
QUOTED_MODULE = re.compile(
    r"`((?:repro\.)?(?:%s)(?:\.\w+)+)`" % "|".join(PACKAGES))


def _resolves(name: str) -> bool:
    """Does ``name`` import, as a module or as an attribute of one?"""
    parts = name.removeprefix("repro.").split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(
                "repro." + ".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            if not hasattr(obj, attr):
                return False
            obj = getattr(obj, attr)
        return True
    return False


@pytest.mark.parametrize("path", MODULE_NAMING_FILES,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_quoted_modules_exist(path):
    names = set(QUOTED_MODULE.findall(path.read_text(encoding="utf-8")))
    assert names, "the pattern finds the modules the file names"
    assert sorted(n for n in names if not _resolves(n)) == []
