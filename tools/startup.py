"""Print the start-up cost of a ``sortnet`` CLI call, part by part.

Each sample is a fresh interpreter that times, in this order, importing
the ``sortnet`` package (every module but ``cli``), importing
``argparse``, importing the rest of ``sortnet.cli``, and then either
``build_parser()`` or a first ``main(["verify", "bsort", "2"])``, each in
its own interpreter.  The interpreters that call ``main`` skip the
``argparse`` import, as a command call does, and the last line says in
how many of them that first ``main`` loaded ``argparse``.  One untimed
run writes the bytecode first, so no sample compiles.  The script pins
its own process, and so the interpreters it starts, to one core and
prints the median of each part in milliseconds.  Standard library
only::

    python tools/startup.py [N]      # N samples of each kind, default 20
"""

import os
import statistics
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
CHILD = """\
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
build = sys.argv[2] == "build"
marks = [time.perf_counter()]
import sortnet
marks.append(time.perf_counter())
if build:
    import argparse
marks.append(time.perf_counter())
import sortnet.cli
marks.append(time.perf_counter())
if build:
    sortnet.cli.build_parser()
else:
    with contextlib.redirect_stdout(io.StringIO()):
        sortnet.cli.main(["verify", "bsort", "2"])
marks.append(time.perf_counter())
print(*(b - a for a, b in zip(marks, marks[1:])), "argparse" in sys.modules)
"""
PARTS = ("import sortnet", "import argparse", "import sortnet.cli",
         "build_parser()")


def sample(kind):
    """Seconds of each part in one fresh interpreter, and whether it ended
    with ``argparse`` loaded."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    proc = subprocess.run([sys.executable, "-I", "-c", CHILD, str(SRC), kind],
                          capture_output=True, text=True, env=env, check=True)
    *times, loaded = proc.stdout.split()
    return [float(word) for word in times], loaded == "True"


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 20
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sample("main")
    builds, mains, loaded = [], [], 0
    for _ in range(n):
        builds.append(sample("build")[0])
        times, argparse_loaded = sample("main")
        mains.append(times)
        loaded += argparse_loaded
    rows = [(part, [times[i] for times in builds]) for i, part in enumerate(PARTS)]
    rows.append(('first main(["verify", "bsort", "2"])', [times[3] for times in mains]))
    print(f"median of {n} fresh interpreters, ms, python {sys.version.split()[0]}")
    for part, times in rows:
        print(f"{part:<40}{statistics.median(times) * 1e3:>8.2f}")
    print(f"first main loaded argparse in {loaded} of {n} interpreters")


main()
