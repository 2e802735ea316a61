"""Smoke tests of the scripts in ``tools/``: each runs in a subprocess,
exits 0 and prints its first row.

``tools/engine.py`` calls the private ``verify._first_failure``, so a
change of that signature breaks the tool without failing any other test;
its ``--oracle`` mode calls ``verify.check_sorting_oracle``, whose
verdict column is checked.
"""

import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"


@pytest.mark.parametrize(
    ("argv", "first_row"),
    [
        (["loc.py"], "__init__.py "),
        (["engine.py", "-n", "1", "3"], "network       m        ms"),
        (["engine.py", "-n", "1", "--oracle", "5", "4"], "network       m        ms"),
        (["startup.py", "1"], "median of 1 fresh interpreters"),
    ],
    ids=["loc", "engine", "engine-oracle", "startup"],
)
def test_tool_runs(argv, first_row):
    proc = subprocess.run(
        [sys.executable, str(TOOLS / argv[0]), *argv[1:]],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(first_row), proc.stdout
    if "--oracle" in argv:
        # The verdict column: only the descending sorter fails, on its
        # first tuple, which is replayed; the others take the 0-1 verdict.
        verdicts = {
            row.split()[0]: row.split()[-2:] for row in proc.stdout.splitlines()[1:]
        }
        assert verdicts == {
            name: ["False", "1"] if name == "bfsort-flip" else ["True", "5"]
            for name in ("bsort", "bfsort", "bfsort-flip", "knuth", "batcher")
        }, proc.stdout
