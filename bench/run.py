#!/usr/bin/env python3
"""End-to-end benchmark of the ``sortnet`` command line.

Run from the root of a source checkout::

    python3 bench/run.py --workload gen-write --seed 1 --seconds 35 --trace 0

Workloads: ``gen-write``, ``verify-exhaustive``, ``read-apply`` (see
``workloads.py`` and ``README.md``).  The program is taken from ``src/``
of the same checkout; nothing needs installing.

The input files and the expected outputs of one round of operations are
made from ``--seed`` by ``workloads.py`` with ``reference.py``, which
shares no code with ``sortnet``.  One child process then runs one
untimed warm-up operation of each kind, and whole rounds of in-process
``sortnet.cli.main(argv)`` calls until ``--seconds`` have passed.  Stdout
and stderr are captured in memory; garbage is collected between
operations and every output is checked, both outside the timed span.
Before every tenth operation the child also times a fresh interpreter
that imports ``sortnet.cli`` and calls ``build_parser()``; ``setup_s`` is
the median of those, after one untimed import that writes the bytecode.

Every timed span is scaled to a reference speed of the core it ran on,
measured by a fixed piece of work timed right after it (see ``pace``).
``wall_s`` is the median over rounds of the summed operation times of a
round; ``op_p50_s`` and ``op_p90_s``
are percentiles of the times of all operations of the run.  With
``--trace 1`` rounds alternate between untraced and traced
(``tracer.py``), and the per-layer metrics and the tracing overhead are
reported instead.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record goes to
``bench/results/``.  The exit code is 0 when that line is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
WORK = os.path.join(HERE, "work")

# The whole run must end within this many seconds.
DEADLINE_S = 170
# One set-up probe runs before every SETUP_EVERY-th operation of a round.
SETUP_EVERY = 10
SETUP_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import sortnet.cli\n"
    "sortnet.cli.build_parser()\n"
    "print(time.perf_counter() - start)\n"
)


def _child_env() -> dict:
    # Bytecode must be written, and inside the checkout, for the untimed
    # first import to leave compilation out of the timed ones.
    drop = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX", "PYTHONPATH")
    return {k: v for k, v in os.environ.items() if k not in drop}


def probe_setup() -> float:
    """Seconds to import ``sortnet.cli`` and build its parser in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, SRC],
        capture_output=True, text=True, env=_child_env(), timeout=60, check=True,
    )
    return float(proc.stdout.split()[-1])


# child -------------------------------------------------------------------


# The speed of a core of the host this was built on swings by up to a
# factor of two, over seconds to minutes, with what other tenants run.
# So each timed span is followed by a fixed piece of work, the *pace*,
# that uses nothing of ``sortnet``.  It has two parts: interpreter work
# (calls, tuples, a dict) and AND/OR/XOR on half-megabyte integers, like
# the bit-parallel evaluator; they slow by different amounts.  A span's
# time is scaled by the reference time of the parts that resemble its
# work over their mean time just before and just after the span, i.e.
# reported in seconds at about full speed of that host.  Each workload
# names the parts that resemble its operations (``workloads.PACE``); a
# set-up probe uses both.  The child stays on one core, so that a span
# and its paces share it.
PACE_REF_S = {"interp": 0.0011, "bigint": 0.002}
_PACE_RNG = random.Random(5)
_PACE_A = _PACE_RNG.getrandbits(1 << 22)
_PACE_B = _PACE_RNG.getrandbits(1 << 22)


def pace() -> dict:
    """Seconds each part of the fixed reference work takes now."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(6000):
        pair = (i, (i * 7919) & 1023)
        table[pair[1]] = pair
        acc += len(table) if i & 1 else pair[0]
    mid = time.perf_counter()
    a, b = _PACE_A, _PACE_B
    for _ in range(6):
        a, b = a & b, a | b
        a ^= _PACE_B
    return {"interp": mid - start, "bigint": time.perf_counter() - mid}


class _Paced:
    """Scales span times to the reference speed, from the paces around them."""

    def __init__(self):
        self.last = pace()
        self.paces = [self.last]

    def scale(self, spent: float, parts) -> float:
        now = pace()
        self.paces.append(now)
        took = sum(self.last[p] + now[p] for p in parts) / 2
        self.last = now
        return spent * sum(PACE_REF_S[p] for p in parts) / took


def _run_op(main, op) -> tuple[float, int | None, str, str]:
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(op["argv"])
        except Exception:  # an uncaught error is a traceback and exit 1 for a user
            rc = None
        spent = time.perf_counter() - start
    return spent, rc, out.getvalue(), err.getvalue()


class _Checker:
    """Checks outputs; a ``gen`` file equal to one already passed is not parsed again."""

    def __init__(self, check_output):
        self.check_output = check_output
        self.passed = set()
        self.wrong = []

    def __call__(self, index, op, rc, out, err) -> bool:
        path = op["check"].get("path")
        key = None
        if path is not None and rc == 0:
            with open(path, "rb") as handle:
                key = (index, hashlib.sha256(handle.read()).hexdigest(), out, err)
            if key in self.passed:
                return True
        ok = self.check_output(op, rc, out, err)
        if ok and key is not None:
            self.passed.add(key)
        if not ok and len(self.wrong) < 5:
            self.wrong.append({"label": op["label"], "rc": rc, "stdout": out[:300],
                               "stderr": err[:300]})
        return ok


def child(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    sys.path.insert(0, plan["src"])
    import sortnet.cli

    if not os.path.abspath(sortnet.cli.__file__).startswith(plan["src"] + os.sep):
        raise SystemExit(f"sortnet imported from {sortnet.cli.__file__}, not {plan['src']}")
    from workloads import check_output

    ops = plan["ops"]
    check = _Checker(check_output)
    correct = True

    def one(index, op):
        nonlocal correct
        spent, rc, out, err = _run_op(sortnet.cli.main, op)
        # What the operation left behind, for the collector or the
        # tracer, must not slow the pace that scales it.
        if tracer is not None:
            tracer.forget_networks()
        gc.collect()
        scaled = paced.scale(spent, plan["pace"])
        failed = rc is None
        if not failed and not check(index, op, rc, out, err):
            correct = False
        return spent, scaled, failed

    def one_round(traced, per_op=None):
        times, raw, failed = [], [], 0
        for index, op in enumerate(ops):
            if index % SETUP_EVERY == 0:
                spent = probe_setup()
                setup_raw.append(spent)
                setup.append(paced.scale(spent, PACE_REF_S))
            before = tracer.snapshot() if per_op is not None else None
            spent, scaled, bad = one(index, op)
            times.append(scaled)
            raw.append(spent)
            failed += bad
            if per_op is not None:
                after = tracer.snapshot()
                per_op.append({"label": op["label"], "seconds": spent,
                               **{k: after[k] - before[k] for k in after if after[k] != before[k]}})
        return times, raw, failed

    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
    probe_setup()  # writes the bytecode; not a sample
    setup, setup_raw = [], []
    warm = {}
    for index, op in enumerate(ops):
        if op["kind"] not in warm or op["size"] < ops[warm[op["kind"]]]["size"]:
            warm[op["kind"]] = index
    tracer = None
    if plan["trace"]:
        from tracer import Tracer

        tracer = Tracer()
    paced = _Paced()
    for index in sorted(warm.values()):
        one(index, ops[index])

    # A traced run alternates untraced and traced rounds, so that the
    # tracing overhead is measured under the same conditions.
    rounds, per_op = [], []
    deadline = time.perf_counter() + plan["seconds"]
    last = 0.0  # seconds the previous round took, checks included
    # Start a round only if it should end less than half a round late.
    while len(rounds) < (2 if tracer else 1) or time.perf_counter() + last / 2 < deadline:
        started = time.perf_counter()
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install()
            before = tracer.snapshot()
        times, raw, bad = one_round(traced, per_op if traced and not per_op else None)
        layers = None
        if traced:
            tracer.uninstall()
            after = tracer.snapshot()
            layers = {k: after[k] - before[k] for k in after}
            layers["verify.exhaustive_peak_mb"] = after["verify.exhaustive_peak_mb"]
            tracer.values["verify.exhaustive_peak_mb"] = 0.0
        rounds.append({"traced": traced, "times": times, "raw_times": raw, "failed": bad,
                       "layers": layers})
        last = time.perf_counter() - started

    result = {
        "correct": correct,
        "wrong": check.wrong,
        "labels": [op["label"] for op in ops],
        "rounds": rounds,
        "setup": setup,
        "setup_raw": setup_raw,
        "paces": paced.paces,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "per_op": per_op,
    }
    with open(plan["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


# parent ------------------------------------------------------------------


def _p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _around(sorted_labels, rank, width=5):
    """Labels of the operations ranked just below and above ``rank``."""
    lo = max(0, int(rank) - width)
    return sorted_labels[lo:int(rank) + width + 1]


def summarize(workload, seed, seconds, trace, run) -> tuple[dict, dict]:
    """The printed result line, and the fuller record kept in ``results/``."""
    metric = lambda value, unit: {"value": value, "unit": unit}  # noqa: E731
    labels = run["labels"]
    plain = [r["times"] for r in run["rounds"] if not r["traced"]]
    pooled = [t for times in plain for t in times]
    raw_pooled = [t for r in run["rounds"] if not r["traced"] for t in r["raw_times"]]
    if trace:
        from tracer import METRICS

        traced = [r for r in run["rounds"] if r["traced"]]
        metrics = {
            name: metric(statistics.median(r["layers"][name] for r in traced), unit)
            for name, (unit, _) in METRICS.items()
        }
        traced_wall = statistics.median(sum(r["times"]) for r in traced)
        metrics["trace.wall_s"] = metric(traced_wall, "s")
        plain_wall = statistics.median(sum(times) for times in plain)
        metrics["trace.overhead_pct"] = metric(100 * (traced_wall / plain_wall - 1), "%")
    else:
        metrics = {
            "setup_s": metric(statistics.median(run["setup"]), "s"),
            "wall_s": metric(statistics.median(sum(times) for times in plain), "s"),
            "op_p50_s": metric(statistics.median(pooled), "s"),
            "op_p90_s": metric(_p90(pooled), "s"),
            "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        }
    line = {
        "correct": run["correct"],
        "attempted": len(run["rounds"]) * len(labels),
        "failed": sum(r["failed"] for r in run["rounds"]),
        "metrics": metrics,
    }
    pooled_labels = labels * len(plain)
    ranked = [pooled_labels[i] for i in sorted(range(len(pooled)), key=pooled.__getitem__)]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "result": line,
        "wrong": run["wrong"],
        "setup_samples": run["setup"],
        "unscaled": {
            "setup_s": statistics.median(run["setup_raw"]),
            "wall_s": statistics.median(sum(r["raw_times"]) for r in run["rounds"]
                                        if not r["traced"]),
            "op_p50_s": statistics.median(raw_pooled),
            "op_p90_s": _p90(raw_pooled),
            **{f"pace_{part}_median_s": statistics.median(p[part] for p in run["paces"])
               for part in PACE_REF_S},
        },
        "p50_neighbours": _around(ranked, (len(ranked) - 1) / 2),
        "p90_neighbours": _around(ranked, 0.9 * (len(ranked) - 1)),
        "labels": labels,
        "round_times": plain,
        "trace_first_round": run["per_op"],
    }
    return line, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("gen-write", "verify-exhaustive", "read-apply"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", metavar="PLAN", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args.child)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "sortnet", "cli.py")):
        print(f"error: no sortnet sources under {SRC}", file=sys.stderr)
        return 2

    import workloads

    started = time.monotonic()
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        plan = {
            "src": SRC,
            "ops": workloads.prepare(args.workload, args.seed, workdir),
            "pace": workloads.PACE[args.workload],
            "seconds": args.seconds,
            "trace": args.trace,
            "result": os.path.join(workdir, "result.json"),
        }
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w", encoding="utf-8") as handle:
            json.dump(plan, handle)
        budget = DEADLINE_S - (time.monotonic() - started)
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", plan_path],
            capture_output=True, text=True, env=_child_env(), timeout=budget,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
            return 1
        with open(plan["result"], encoding="utf-8") as handle:
            run = json.load(handle)
    except subprocess.TimeoutExpired:
        print(f"error: run did not finish within {DEADLINE_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    line, record = summarize(args.workload, args.seed, args.seconds, args.trace, run)
    for wrong in run["wrong"]:
        print(f"wrong output: {json.dumps(wrong)}", file=sys.stderr)
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
