"""README's "Library surface" bullets name exactly what gptsched exports.

The names are the backticked identifiers in the section's bullet lists,
and the exports are the names gptsched/__init__.py imports. A name the
package stops exporting must leave the bullets too, and a new export must
be listed.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Set

import pytest

from gptsched import model, power, scheduling

ROOT = Path(__file__).resolve().parent.parent
# Named in the bullets as coming from gptsched.scheduling, not the package.
LISTED_FROM_A_MODULE = {"ClusterState"}
# Node-value helpers the package no longer has: ClusterState and the
# schedulers apply their rules.
REMOVED = (
    "allocate_to_node",
    "demand_percentages",
    "utilization_gap",
    "DuplicateAllocationError",
    "estimate_power_delta",
    "fits",
)


def readme_names(text: str) -> Set[str]:
    """The identifiers in backticks in the bullets of README's "Library surface" section."""

    section = text.split("\n## Library surface\n", 1)[1].split("\n## ", 1)[0]
    names: Set[str] = set()
    in_bullet = False
    for line in section.splitlines():
        if line.startswith("- "):
            in_bullet = True
        elif not line.startswith("  "):
            in_bullet = False
        if in_bullet:
            names.update(name for name in re.findall(r"`([^`]+)`", line) if name.isidentifier())
    return names


def exported_names(source: str) -> Set[str]:
    """The names a package __init__ binds by importing from its own modules."""

    return {
        alias.asname or alias.name
        for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def test_readme_lists_exactly_the_exports() -> None:
    listed = readme_names((ROOT / "README.md").read_text(encoding="utf-8"))
    exported = exported_names((ROOT / "src" / "gptsched" / "__init__.py").read_text(encoding="utf-8"))
    assert LISTED_FROM_A_MODULE <= listed
    assert sorted(exported - listed) == [], "exported but not listed in README"
    assert sorted(listed - exported - LISTED_FROM_A_MODULE) == [], "listed in README but not exported"


def test_the_readers_find_a_name_left_in_either_file() -> None:
    assert readme_names("\n## Library surface\n\n- model: `Node`,\n  `fits`\n\n`other`\n") == {"Node", "fits"}
    assert exported_names("from .scheduling import (\n    ALGORITHMS,\n    fits,\n)\n") == {"ALGORITHMS", "fits"}


@pytest.mark.parametrize("name", REMOVED)
def test_removed_helper_is_not_importable(name) -> None:
    with pytest.raises(ImportError):
        exec(f"from gptsched import {name}", {})
    assert not any(hasattr(module, name) for module in (model, power, scheduling))
