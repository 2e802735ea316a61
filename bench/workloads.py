"""The benchmark's three workloads: their operations, inputs and checks.

``prepare`` turns a workload name and a seed into one round of
operations.  Each operation is a plain dict, so the round can be handed
to the process that runs it as JSON:

* ``argv`` - the arguments given to ``sortnet.cli.main``;
* ``kind`` - the command it exercises, used to pick warm-up operations;
* ``label`` - its size class, which the result record lists for the
  operations ranked around the 50th and 90th percentiles;
* ``check`` - what its output must be, as computed here without sortnet.

``check_output`` then decides whether one output is correct.  The same
seed gives the same round.  Every round of a workload has the same make-up
(the same commands at the same sizes); the seed picks the values, the
order, and which comparator each non-sorter lost.

The mixes are chosen so that the operations at the 50th and 90th
percentile of time fall inside one block of operations of like cost (the
``label`` classes noted at each mix), never on the edge between two
classes, where the percentile would jump from run to run.
"""

from __future__ import annotations

import math
import os
import random
import xml.etree.ElementTree as ET

import reference as ref

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

# The parts of the benchmark's pace (``run.pace``) that resemble each
# workload's operations, by which their times are scaled.  Generation,
# parsing and applying are interpreter work; the exhaustive verifier
# spends its time on integers of 2**17 to 2**24 bits.
PACE = {
    "gen-write": ("interp",),
    "verify-exhaustive": ("bigint",),
    "read-apply": ("interp",),
}


def prepare(workload: str, seed: int, workdir: str) -> list[dict]:
    """Write the workload's input files under ``workdir``; return one round."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "gen-write":
        ops = _gen_write(rng, workdir)
    elif workload == "verify-exhaustive":
        ops = _verify_exhaustive(rng, workdir)
    elif workload == "read-apply":
        ops = _read_apply(rng, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


# gen-write ---------------------------------------------------------------

_GEN_VARIANTS = {
    "bsort": ("bsort", []),
    "bfsort": ("bfsort", []),
    "bfsort-flip": ("bfsort", ["--flip"]),
    "knuth": ("knuth", []),
    "batcher": ("batcher", []),
}

# (variant, m, copies per round) for `gen ... --out FILE` in text.  The
# 50th percentile falls among the 24 `knuth 8` builds, the 90th among the
# m = 10 builds of bsort, knuth and batcher.
_GEN_TEXT_MIX = [
    *((v, 4, 1) for v in _GEN_VARIANTS),
    *((v, 6, 2) for v in _GEN_VARIANTS),
    ("bsort", 7, 2), ("knuth", 7, 2),
    ("batcher", 7, 6), ("bsort", 8, 6),
    ("knuth", 8, 24), ("bfsort", 7, 8),
    ("batcher", 8, 2), ("bfsort", 8, 2), ("bfsort-flip", 7, 2), ("bfsort-flip", 8, 2),
    *((v, 9, 1) for v in _GEN_VARIANTS), ("bsort", 9, 1), ("knuth", 9, 1), ("batcher", 9, 1),
    ("bsort", 10, 4), ("knuth", 10, 4), ("batcher", 10, 4),
    *((v, 11, 1) for v in _GEN_VARIANTS), ("bfsort", 10, 1),
]
# (variant, m, copies) for `gen ... --format svg --out FILE`.
_GEN_SVG_MIX = [
    ("bsort", 5, 2), ("bfsort-flip", 5, 2), ("knuth", 6, 1), ("batcher", 6, 1),
    ("bsort", 7, 1), ("bfsort", 7, 1), ("knuth", 7, 1), ("batcher", 7, 1),
]
_CHECK_TUPLES = 3


def _gen_write(rng: random.Random, workdir: str) -> list[dict]:
    ops = []
    for fmt, mix in (("text", _GEN_TEXT_MIX), ("svg", _GEN_SVG_MIX)):
        for variant, m, copies in mix:
            algo, flags = _GEN_VARIANTS[variant]
            for _ in range(copies):
                path = os.path.join(workdir, f"gen-{len(ops)}.{'svg' if fmt == 'svg' else 'txt'}")
                argv = ["gen", algo, str(m), *flags, "--out", path]
                if fmt == "svg":
                    argv += ["--format", "svg"]
                check = {"type": f"gen-{fmt}", "path": path, "algo": algo, "m": m,
                         "flip": bool(flags)}
                if fmt == "text":
                    check["tuples"] = [
                        [rng.randint(INT64_MIN, INT64_MAX) for _ in range(1 << m)]
                        for _ in range(_CHECK_TUPLES)
                    ]
                ops.append({"kind": f"gen-{fmt}", "label": f"{fmt} {variant} {m}",
                            "size": m, "argv": argv, "check": check})
    return ops


def expected_comparators(algo: str, m: int) -> int:
    """Comparator count the construction must have on ``2**m`` lines."""
    if m == 0:
        return 0
    if algo in ("bsort", "bfsort"):
        return m * (m + 1) // 2 * (1 << (m - 1))
    if m == 1:
        return 1
    return (m * m - m + 4) * (1 << (m - 2)) - 1


def expected_flipped(algo: str, m: int, flip: bool) -> int:
    """Flipped comparators of ``bfsort(flip, m)`` (0 for the others).

    ``bfsort(flip, m)`` is ``bfsort(flip, m-1)`` beside
    ``bfsort(not flip, m-1)``, then ``m`` half-cleaner layers of
    ``2**(m-1)`` comparators, all flipped when ``flip`` is set.
    """
    if algo != "bfsort":
        return 0
    same, other = 0, 0  # flipped counts of bfsort(flip, k) and bfsort(not flip, k)
    for k in range(1, m + 1):
        cleaner = k * (1 << (k - 1))
        same, other = same + other + (cleaner if flip else 0), other + same + (0 if flip else cleaner)
    return same


def _check_gen_text(check: dict, text: str) -> bool:
    width, layers = ref.parse_snet(text)
    m, algo, flip = check["m"], check["algo"], check["flip"]
    if width != 1 << m or len(layers) != m * (m + 1) // 2:
        return False
    if ref.comparator_count(layers) != expected_comparators(algo, m):
        return False
    flipped = sum(f for layer in layers for _, _, f in layer)
    if flipped != expected_flipped(algo, m, flip):
        return False
    for values in check["tuples"]:
        if ref.apply(layers, values) != sorted(values, reverse=flip):
            return False
    return m > 4 or ref.sorts_all_booleans(width, layers, descending=flip)


def _check_gen_svg(check: dict, text: str) -> bool:
    root = ET.fromstring(text.encode("utf-8"))
    lines = [el for el in root.iter() if el.tag.endswith("}line") or el.tag == "line"]
    wires = sum(el.get("class") == "wire" for el in lines)
    links = [el for el in lines if el.get("class") == "link"]
    arrows = sum(el.get("marker-end") is not None for el in links)
    m, algo = check["m"], check["algo"]
    return (
        wires == 1 << m
        and len(links) == expected_comparators(algo, m)
        and arrows == expected_flipped(algo, m, check["flip"])
    )


# verify-exhaustive -------------------------------------------------------

# Networks per width: "oet" odd-even transposition, "mx" Batcher's
# merge-exchange, "blk" two sorters side by side then a merge, and three
# non-sorters made from "oet" by flipping one comparator, whose first
# counterexamples fall in the first, middle and last third of the 2**w
# inputs.  Not by dropping one: the evaluator runs up to 40 % faster on
# "oet" less a comparator of an early layer, so which comparator the seed
# picks would change the cost of a round.
_NETWORK_KINDS = ("oet", "mx", "blk", "early", "mid", "late")

# (width, kinds, copies per round) for `verify FILE`.  The 50th percentile
# falls in the width-20 block, the 90th in the width-22 block; the six at
# widths 23 and 24 are the slowest operations.
_VERIFY_FILE_MIX = [
    (17, _NETWORK_KINDS, 2),
    (18, _NETWORK_KINDS, 1),
    (19, _NETWORK_KINDS, 1),
    (20, _NETWORK_KINDS, 8),
    (21, _NETWORK_KINDS, 2),
    (22, _NETWORK_KINDS, 2),
    (23, ("mx", "early", "mid"), 1),
    (24, ("oet", "blk", "late"), 1),
]
# `verify ALGO m`, one of each per round.
_VERIFY_ALGO_MIX = [(a, m) for a in ("bsort", "bfsort", "knuth", "batcher") for m in (1, 2, 3, 4)]


def _third(first: int | None, width: int) -> str | None:
    if first is None:
        return None
    return ("early", "mid", "late")[min(2, 3 * first // (1 << width))]


def _non_sorters(rng: random.Random, width: int, base, wanted) -> dict:
    """Seeded search for one-comparator changes of ``base`` in each third."""
    candidates = [(t, k) for t, layer in enumerate(base) for k in range(len(layer))]
    rng.shuffle(candidates)
    found = {}
    for t, k in candidates:
        layers = ref.flipped(base, t, k)
        third = _third(ref.first_counterexample(width, layers), width)
        if third in wanted and third not in found:
            found[third] = layers
            if len(found) == len(wanted):
                return found
    raise RuntimeError(f"width {width}: no non-sorter in {sorted(set(wanted) - set(found))}")


def _verify_exhaustive(rng: random.Random, workdir: str) -> list[dict]:
    ops = []
    for width, kinds, copies in _VERIFY_FILE_MIX:
        oet = ref.odd_even_transposition(width)
        networks = {"oet": oet, "mx": ref.merge_exchange(width), "blk": ref.block_sorter(width)}
        networks.update(_non_sorters(rng, width, oet, [k for k in kinds if k not in networks]))
        for kind in kinds:
            layers = networks[kind]
            path = os.path.join(workdir, f"verify-{width}-{kind}.snet")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(ref.render_snet(width, layers))
            first = ref.first_counterexample(width, layers)
            check = {"type": "verdict", "width": width, "first": first}
            if first is not None:
                bits = ref.bool_input(first, width)
                check["input"] = list(bits)
                check["output"] = ref.apply(layers, bits)
            for _ in range(copies):
                ops.append({"kind": "verify-file", "label": f"verify {width} {kind}",
                            "size": width, "argv": ["verify", path], "check": check})
    for algo, m in _VERIFY_ALGO_MIX:
        # Every generator sorts; that is what the paper proves.
        check = {"type": "verdict", "width": 1 << m, "first": None}
        ops.append({"kind": "verify-algo", "label": f"verify {algo} {m}", "size": 1 << m,
                    "argv": ["verify", algo, str(m)], "check": check})
    return ops


def _check_verdict(check: dict, rc: int, out: str) -> bool:
    width, first = check["width"], check["first"]
    rows = ["mode: exhaustive", f"width: {width}"]
    if first is None:
        rows += [f"inputs checked: {1 << width}", "result: sorting"]
    else:
        rows += [
            f"inputs checked: {first + 1}",
            "result: counterexample",
            "input: " + ",".join(map(str, check["input"])),
            "output: " + ",".join(map(str, check["output"])),
        ]
    return rc == (0 if first is None else 1) and out == "\n".join(rows) + "\n"


# read-apply --------------------------------------------------------------

# (file, width, network) written for the read side; "mx" merge-exchange,
# "oet" odd-even transposition.
_READ_FILES = [
    ("mx8", 8, "mx"),
    ("mx64", 64, "mx"), ("oet64", 64, "oet"), ("mx96", 96, "mx"), ("mx128", 128, "mx"),
    ("mx256", 256, "mx"), ("mx512", 512, "mx"), ("mx1024", 1024, "mx"),
]
# (command, file, copies per round, oracle trials).  The 50th percentile
# falls in the width-256 block, the 90th in the width-1024 block; the six
# slowest operations are `--oracle` runs.
_READ_MIX = [
    ("apply", "mx64", 6, None), ("apply", "oet64", 6, None), ("apply", "mx96", 6, None),
    ("apply", "mx128", 6, None), ("stats", "mx64", 2, None), ("stats", "oet64", 2, None),
    ("stats", "mx96", 1, None), ("stats", "mx128", 1, None),
    ("apply", "mx256", 36, None), ("stats", "mx256", 12, None),
    ("oracle", "mx64", 6, 40), ("apply", "mx512", 8, None), ("stats", "mx512", 4, None),
    ("apply", "mx1024", 9, None), ("stats", "mx1024", 3, None),
    ("oracle", "mx8", 2, 100), ("oracle", "mx512", 2, 20), ("oracle", "mx1024", 2, 20),
]
# Files the parser must refuse with exit 2 and an `error:` line.  They do
# not depend on the seed.  The last two raise an uncaught exception today.
_MALFORMED = [
    ("bad-header", b"snet 2 4\nlayer: 0-1\n"),
    ("out-of-range", b"snet 1 4\nlayer: 0-4\n"),
    ("reused-line", b"snet 1 4\nlayer: 0-1 1-2\n"),
    ("self-pair", b"snet 1 4\nlayer: 2-2\n"),
    ("superscript", "snet 1 4\nlayer: 0-²\n".encode("utf-8")),
    ("non-utf8", b"snet 1 4\nlayer: 0-1 \xff\xfe\n"),
]


def _read_apply(rng: random.Random, workdir: str) -> list[dict]:
    files = {}
    for name, width, kind in _READ_FILES:
        layers = ref.merge_exchange(width) if kind == "mx" else ref.odd_even_transposition(width)
        path = os.path.join(workdir, f"{name}.snet")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(ref.render_snet(width, layers))
        files[name] = (path, width, layers)
    ops = []
    for command, name, copies, trials in _READ_MIX:
        path, width, layers = files[name]
        label = f"{command} {name}"
        for _ in range(copies):
            if command == "apply":
                values = [rng.randint(INT64_MIN, INT64_MAX) for _ in range(width)]
                # `--input=` keeps a leading minus sign from reading as an option.
                argv = ["apply", path, "--input=" + ",".join(map(str, values))]
                check = {"type": "apply", "values": values}
            elif command == "stats":
                argv = ["stats", path]
                check = {"type": "stats", "width": width, "layers": len(layers),
                         "comparators": ref.comparator_count(layers)}
            else:
                oracle_seed = rng.randrange(1 << 31)
                argv = ["verify", path, "--oracle", str(trials), "--seed", str(oracle_seed)]
                inputs = trials + (math.factorial(width) if width <= 8 else 0)
                check = {"type": "oracle", "width": width, "trials": trials,
                         "seed": oracle_seed, "inputs": inputs}
            ops.append({"kind": command, "label": label, "size": width, "argv": argv,
                        "check": check})
    for name, data in _MALFORMED:
        path = os.path.join(workdir, f"malformed-{name}.snet")
        with open(path, "wb") as handle:
            handle.write(data)
        ops.append({"kind": "malformed", "label": f"malformed {name}", "size": 4,
                    "argv": ["verify", path], "check": {"type": "malformed"}})
    return ops


def _check_oracle(check: dict, rc: int, out: str) -> bool:
    rows = [
        "mode: sampled",
        f"seed: {check['seed']}",
        f"trials: {check['trials']}",
        f"width: {check['width']}",
        f"inputs checked: {check['inputs']}",
        "result: sorting",
    ]
    return rc == 0 and out == "\n".join(rows) + "\n"


# checks ------------------------------------------------------------------


def check_output(op: dict, rc: int, out: str, err: str) -> bool:
    """Whether one operation's exit code and output are what they must be.

    ``gen`` operations are judged on the file they wrote.
    """
    check = op["check"]
    kind = check["type"]
    if kind in ("gen-text", "gen-svg"):
        if rc != 0 or out or err:
            return False
        try:
            with open(check["path"], encoding="utf-8") as handle:
                text = handle.read()
            return (_check_gen_text if kind == "gen-text" else _check_gen_svg)(check, text)
        except (OSError, ValueError, ET.ParseError):
            return False
    if kind == "verdict":
        return _check_verdict(check, rc, out)
    if kind == "apply":
        return rc == 0 and out == ",".join(map(str, sorted(check["values"]))) + "\n"
    if kind == "stats":
        rows = [f"layers: {check['layers']}", f"comparators: {check['comparators']}",
                f"width: {check['width']}"]
        return rc == 0 and out == "\n".join(rows) + "\n"
    if kind == "oracle":
        return _check_oracle(check, rc, out)
    if kind == "malformed":
        return rc == 2 and not out and err.startswith("error: ")
    raise ValueError(f"unknown check {kind!r}")
