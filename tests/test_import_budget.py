"""Every CLI run pays for the modules `import gptsched.cli` loads.

The count is taken under `python -S`, so that site-packages start-up
hooks, which belong to the host and not to the program, are left out.
The budget is the count on CPython 3.11.7; other minor versions load a
different set of stdlib modules, so the test runs on 3.11 only.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

# Modules loaded by `python -S -c "import gptsched.cli"` on CPython 3.11.7.
MODULE_BUDGET = 88
# Loaded only by dataclasses, which the package's records no longer import.
ABSENT = ("dataclasses", "inspect", "ast", "dis")


@pytest.mark.skipif(
    sys.version_info[:2] != (3, 11), reason="the module budget is counted on CPython 3.11; other versions load other stdlib modules"
)
def test_cli_import_stays_within_its_module_budget() -> None:
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, gptsched.cli; print(len(sys.modules), *(m in sys.modules for m in %r))" % (("array",) + ABSENT,)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe], capture_output=True, text=True, env={"PYTHONPATH": str(src)}
    )
    assert proc.returncode == 0, proc.stderr
    count, array_loaded, *absent_loaded = proc.stdout.split()
    assert array_loaded == "False", "the array extension module costs every CLI run its RSS"
    assert absent_loaded == ["False"] * len(ABSENT), f"import gptsched.cli loads one of {ABSENT}"
    assert int(count) <= MODULE_BUDGET, f"import gptsched.cli loads {count} modules, budget {MODULE_BUDGET}"
