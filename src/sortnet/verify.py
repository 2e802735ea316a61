"""Deciding whether a network sorts, and counting its layers and comparators.

A network sorts every input over every ordered domain exactly when it
sorts every boolean input, and with ``w`` lines there are only ``2**w``
of those, so the sorting property is decidable by enumeration.  The
enumeration here is bit-parallel: lane ``i`` of the evaluation is one big
integer whose bit ``b`` holds line ``i``'s value for input number ``b``,
and a comparator is an AND/OR pair on two lanes.  Inputs are taken in
lexicographic order, ``2**17`` of them at a time, so a chunk's lanes stay
in cache; the leading lines are constant within a chunk, and the check
stops at the first chunk that leaves an input unsorted.  Reported
counterexamples are always the lexicographically first failing input,
recomputed through the plain evaluator so they are independently
reproducible.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .core import Network
from .errors import WidthTooLarge

#: Exhaustive enumeration guard: 2**24 boolean inputs is the most this
#: module will grind through; use the sampled oracle beyond that.  Lane
#: memory does not grow with the width, so the guard bounds time: every
#: line doubles the inputs, and the 276 comparators of the width-24
#: odd-even transposition sorter take 0.1 to 0.2 s on one Xeon core.
MAX_EXHAUSTIVE_WIDTH = 24

# Inputs per chunk of the exhaustive check, as a power of two: lanes of
# 16 KB.  Of 12 to 20, 17 measured fastest on sorters of widths 20 to 24
# (one Xeon core, 2 MB L2).
_CHUNK_BITS = 17

#: Widths up to this get every permutation of ``range(width)`` included
#: in the sampled oracle on top of the random trials.
MAX_PERMUTATION_WIDTH = 8

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1


@dataclass(frozen=True)
class Counterexample:
    """An input the network fails to sort, with the output it produced."""

    input: tuple
    output: tuple


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a sorting check.

    ``mode`` is ``"exhaustive"`` (all boolean inputs in lexicographic
    order, False before True) or ``"sampled"`` (permutations of
    ``range(width)`` on small widths plus seeded random integer tuples).
    On failure ``counterexample`` holds the first offending input.
    """

    width: int
    inputs_checked: int
    mode: str
    is_sorting: bool
    counterexample: Counterexample | None = None
    seed: int | None = None
    trials: int | None = None


@dataclass(frozen=True)
class NetworkStats:
    """Layer and comparator counts of a network."""

    layers: int
    comparators: int


def _input_masks(width: int) -> list[int]:
    """Bit-parallel input lanes over all ``2**width`` boolean tuples.

    Input number ``b`` is the tuple whose line-``i`` value is bit
    ``width - 1 - i`` of ``b``, which makes increasing ``b`` enumerate
    tuples in lexicographic order.
    """
    total = 1 << width
    masks = []
    for i in range(width):
        p = width - 1 - i
        run = 1 << p
        lane = ((1 << run) - 1) << run  # one period: `run` zeros, `run` ones
        span = run << 1
        while span < total:
            lane |= lane << span
            span <<= 1
        masks.append(lane)
    return masks


def _input_tuple(number: int, width: int) -> tuple[bool, ...]:
    return tuple(bool((number >> (width - 1 - i)) & 1) for i in range(width))


def check_sorting_exhaustive(network: Network) -> VerificationReport:
    """Decide the sorting property over all ``2**width`` boolean inputs.

    The inputs run through the network in lexicographic order (False
    orders before True), a chunk of consecutive ones at a time, and the
    check stops after the first chunk that holds an unsorted input.
    Succeeds with ``inputs_checked = 2**width``; fails with the
    lexicographically first unsorted input and the number of inputs up to
    and including it.
    """
    width = network.width
    if width > MAX_EXHAUSTIVE_WIDTH:
        raise WidthTooLarge(
            f"width {width} exceeds exhaustive guard {MAX_EXHAUSTIVE_WIDTH}"
        )
    k = min(width, _CHUNK_BITS)
    lead = width - k
    low = _input_masks(k)
    ones = (1 << (1 << k)) - 1
    layers = [layer.pairs() for layer in network.layers]
    for chunk in range(1 << lead):
        lanes = [ones if bit else 0 for bit in _input_tuple(chunk, lead)] + low
        for pairs in layers:
            for i, j, flipped in pairs:
                lo, hi = lanes[i] & lanes[j], lanes[i] | lanes[j]
                lanes[i], lanes[j] = (hi, lo) if flipped else (lo, hi)
        violations = 0
        for i in range(width - 1):
            violations |= lanes[i] & ~lanes[i + 1]
        if violations:
            first = (chunk << k) + (violations & -violations).bit_length() - 1
            failing = _input_tuple(first, width)
            return VerificationReport(
                width=width,
                inputs_checked=first + 1,
                mode="exhaustive",
                is_sorting=False,
                counterexample=Counterexample(failing, network.apply(failing)),
            )
    return VerificationReport(
        width=width,
        inputs_checked=1 << width,
        mode="exhaustive",
        is_sorting=True,
    )


def check_sorting_oracle(
    network: Network, trials: int, seed: int = 0
) -> VerificationReport:
    """Sampled sorting check over integer tuples.

    Runs every permutation of ``range(width)`` when the width allows,
    then ``trials`` seeded random signed 64-bit tuples.  Each output must
    be a sorted permutation of its input.  Identical seeds give identical
    reports.
    """
    width = network.width
    rng = random.Random(seed)
    inputs = []
    if width <= MAX_PERMUTATION_WIDTH:
        inputs.append(itertools.permutations(range(width)))
    inputs.append(
        tuple(rng.randint(_INT64_MIN, _INT64_MAX) for _ in range(width))
        for _ in range(trials)
    )
    checked = 0
    for values in itertools.chain.from_iterable(inputs):
        checked += 1
        out = network.apply(values)
        # The inputs are integers, so this one comparison means "a sorted
        # permutation of the input".
        if list(out) != sorted(values):
            return VerificationReport(
                width=width,
                inputs_checked=checked,
                mode="sampled",
                is_sorting=False,
                counterexample=Counterexample(tuple(values), out),
                seed=seed,
                trials=trials,
            )
    return VerificationReport(
        width=width,
        inputs_checked=checked,
        mode="sampled",
        is_sorting=True,
        seed=seed,
        trials=trials,
    )


def network_stats(network: Network) -> NetworkStats:
    """Layer count and total comparator count."""
    return NetworkStats(
        layers=network.size,
        comparators=sum(len(layer.pairs()) for layer in network.layers),
    )
