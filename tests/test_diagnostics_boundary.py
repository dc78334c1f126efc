"""Only cli talks to the user.

The library returns what a run did, in its results and through
run_timeline's on_event; cli alone writes errors and GPTSCHED_LOG lines to
stderr. This stdlib-only rule walks each other package module with `ast`
and fails on an import of logging or sys, a call of print, or a name or
attribute stderr or stdout.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import List

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gptsched"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "cli.py")
SPEAKING_MODULES = frozenset({"logging", "sys"})
STREAMS = frozenset({"stderr", "stdout"})


def user_output(source: str) -> List[str]:
    """The places in source that could write to the user, as "line: what"."""

    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""]
        else:
            names = []
        found += [(node.lineno, f"import {name}") for name in names if name.split(".")[0] in SPEAKING_MODULES]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            found.append((node.lineno, "print"))
        elif isinstance(node, ast.Name) and node.id in STREAMS:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in STREAMS:
            found.append((node.lineno, "." + node.attr))
    return [f"{line}: {what}" for line, what in sorted(found)]


def test_the_rule_finds_every_kind_of_user_output() -> None:
    source = (
        "import logging\n"
        "import os, sys\n"
        "from logging import getLogger\n"
        "import logging.handlers\n"
        "from sys import stderr\n"
        "print('x')\n"
        "os.sys.stdout.write('x')\n"
        "stream = stderr\n"
        "import system\n"
        "from . import log\n"
        "stream.write('x')\n"
        "printer = print\n"
    )
    assert user_output(source) == [
        "1: import logging", "2: import sys", "3: import logging", "4: import logging.handlers",
        "5: import sys", "6: print", "7: .stdout", "8: stderr",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_writes_nothing_to_the_user(path: Path) -> None:
    assert user_output(path.read_text(encoding="utf-8")) == []
