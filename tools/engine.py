"""Print the time and peak memory of the exhaustive engine on the generators.

For each ``M`` given, runs ``verify._first_failure`` on the five generated
networks on ``2**M`` lines (``bsort``, ``bfsort`` both ways,
``knuth_exchange`` and ``batcher``), each with a fresh memo of block
verdicts.  It calls the engine directly, so the width guard of
``check_sorting_exhaustive`` does not apply; large ``M`` take long (about
8 times longer per step).  With ``--oracle TRIALS`` each row times
``verify.check_sorting_oracle(network, TRIALS)`` instead, seed 0, and
ends with the report's verdict and ``inputs_checked``.  Building the
network is not timed.  Each row gives the median of ``-n`` timed runs in
milliseconds, then the peak of traced Python memory of one more run, in
MB, and the result.  The script pins its own process to one core.
Standard library only::

    python tools/engine.py [-n RUNS] [--oracle TRIALS] M [M ...]
"""

import argparse
import os
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sortnet import verify  # noqa: E402
from sortnet.batcher import batcher  # noqa: E402
from sortnet.bitonic import bfsort, bsort  # noqa: E402
from sortnet.knuth import knuth_exchange  # noqa: E402

VARIANTS = {
    "bsort": bsort,
    "bfsort": lambda m: bfsort(False, m),
    "bfsort-flip": lambda m: bfsort(True, m),
    "knuth": knuth_exchange,
    "batcher": batcher,
}


def first_failure(network):
    layers = [layer.pairs() for layer in network.layers]
    return verify._first_failure(network.width, layers, {})


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("-n", type=int, default=5, help="timed runs per row")
    parser.add_argument("--oracle", type=int, metavar="TRIALS",
                        help="time the sampled oracle with TRIALS trials")
    parser.add_argument("m", type=int, nargs="+")
    args = parser.parse_args()
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.oracle is None:
        run, result = first_failure, "first failure"
    else:
        def run(network):
            report = verify.check_sorting_oracle(network, args.oracle)
            return f"{report.is_sorting} {report.inputs_checked}"
        result = "sorting, inputs checked"
    print(f"{'network':<12}{'m':>3}{'ms':>10}{'MB':>8}  {result}")
    for m in args.m:
        for name, build in VARIANTS.items():
            network, times = build(m), []
            for _ in range(args.n):
                start = time.perf_counter()
                outcome = run(network)
                times.append(time.perf_counter() - start)
            tracemalloc.start()
            try:
                run(network)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            print(f"{name:<12}{m:>3}{statistics.median(times) * 1e3:>10.1f}"
                  f"{peak / 1e6:>8.2f}  {outcome}")


if __name__ == "__main__":
    main()
