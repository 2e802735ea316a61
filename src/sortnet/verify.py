"""Deciding whether a network sorts, and counting its layers and comparators.

A network sorts every input over every ordered domain exactly when it
sorts every boolean input, and with ``w`` lines there are only ``2**w``
of those, so the sorting property is decidable by enumeration.  The
enumeration is bit-parallel: lane ``i`` of the evaluation is one big
integer whose bit ``b`` holds line ``i``'s value for input number ``b``,
and a comparator is an AND/OR pair on two lanes.

Most sorters need far fewer than ``2**w`` of those inputs.  Cut the
network after the longest prefix of layers whose comparators leave the
lines in at least two connected components, its blocks.  The prefix acts
on each block on its own, and comparators are monotone, so a ``c``-line
block's outputs on its ``c + 1`` monotone inputs, ``d`` ones on its
``d`` highest-numbered lines, form a chain, each inside the next.  Listed
from the last line the chain fills to the first, the block's lines are
in its *chain order*.  A block sends every input with ``d`` ones to the
same output exactly when it sorts ascending with its lines in chain
order; a block that does not is split into blocks of one line, whose
count of ones is their bit.  So inputs with the same count of ones on
every block leave the network with the same output.  The smallest input
of such a class, its *representative*, has each block's ones on that
block's ``d`` highest-numbered lines.  The network sorts exactly when it
sorts every representative, one for each element of the product of the
blocks' counts: ``(w/2 + 1)**2`` for two sorted halves, and at most
``2**w``, as ``c + 1 <= 2**c``.  Its lexicographically first failing
input is the smallest failing representative: the prefix output-set
argument of Knuth, TAOCP vol. 3, §5.3.4.

One run of the prefix on the network's own ``w + 1`` monotone inputs
gives every block's chain order, as they fill each block's last lines
first.  Whether a block sorts into it is decided by this same check,
recursively, once for identical blocks at whatever level they recur: a
block's comparators touch every one of its lines, so its sub-network
fixes its width and has one verdict.

The product runs in mixed-radix order, the first block most
significant, at most ``2**17`` elements at a time, so a chunk's lanes
stay in cache.  A kept block sorts into its chain order, so on a
representative its prefix output is known: its ``d`` ones on the last
``d`` lines of that order, in place of its last ``d`` lines.  Only the
suffix and the prefix comparators of split blocks run on a chunk's
representatives, and one walk over the lines from line 0 picks the
smallest that comes out unsorted.  The leading blocks are constant
within a chunk, which fixes its smallest input, and a chunk whose
smallest input lies above a failure already found is skipped.  When all
blocks are single lines element ``e`` is input number ``e``, the order is
lexicographic, and every chunk after the first failing one is skipped.
Reported counterexamples are recomputed through ``Network.apply``, so
they are independently reproducible.

The sampled oracle runs integer tuples packed, with the same
bit-parallel idea as SIMD within a register (Lamport, CACM 1975).  Its
cases come as one flat stream of packed fields, case after case, one
field per line, and run ``_BATCH`` (64) at a time: a batch's ``width *
_BATCH`` fields are read in turn into one byte buffer per line, so lane
``i`` is one big integer whose field ``k``, bits ``72k`` to ``72k + 71``,
holds case ``k``'s value on line ``i`` plus ``2**63`` in its low 64
bits, and a clear guard bit at bit 64.  With ``G`` the guard bits of
every field, a field of ``(a | G) - b`` is ``2**64 + a_k - b_k``,
between 1 and ``2**65 - 1``: it borrows from its own guard when ``a_k <
b_k`` and never from the next field.  So
``ge = ((a | G) - b) & G`` keeps the guards of the fields with ``a_k >=
b_k``, ``ge - (ge >> 64)`` widens each into 64 ones, and ``swap = (a ^
b) & (ge - (ge >> 64))`` gives the minimum ``a ^ swap`` and the maximum
``b ^ swap``; a tie exchanges equal values.  A comparator only exchanges
values, so an output that does not decrease is a sorted permutation of
its input, and the first failing case is the lowest field whose guard is
clear in ``((b | G) - a) & G`` for some adjacent lanes ``a`` and ``b``.
Its fields, ``failing * width`` up to ``(failing + 1) * width`` of a
fresh stream, are drawn again and run through ``Network.apply``, as the
exhaustive check runs its counterexample, so counterexamples are
independently reproducible; no batch's inputs are kept.  The stream is
read one batch ahead of the run at most.

Up to width ``MAX_PERMUTATION_WIDTH`` the check above runs first.  By
the 0-1 principle at each threshold, a network that sorts every boolean
input sends every integer tuple to its sorted permutation, so a sorter
runs no tuple; ``inputs_checked`` counts the inputs the verdict covers,
every permutation and the ``trials`` random tuples, which are never
drawn.  A network that fails a boolean input with ``k`` zeros fails every
permutation whose values below ``k`` sit on those zeros, so only a
failing network runs tuples, and those are the permutations, in order,
up to its first failing one.  Wider networks run the random tuples
alone: the values of ``randint(-2**63, 2**63 - 1)`` of a generator seeded
with ``seed``, drawn in bulk.  In CPython that call is ``getrandbits(65)``,
drawn again while it is at least ``2**64``: three 32-bit words, the
lowest first, kept when the third is below ``2**31``.  So
``getrandbits(96 * n)`` gives ``n`` such draws at once, one generator
serves every batch, and a kept draw's field is its first two words.
"""

from __future__ import annotations

import itertools
import math
import random
import sys
from operator import lt
from typing import Iterable, Iterator

from .core import Network, _Record
from .errors import SortnetError, WidthTooLarge

#: Exhaustive enumeration guard: 2**24 boolean inputs is the most this
#: module will grind through; use the sampled oracle beyond that.  Lane
#: memory does not grow with the width, so the guard bounds time.  At width
#: 24 on one Xeon core: a sorter whose blocks sort, milliseconds (odd-even
#: transposition 4 to 8 ms); with one 12-line half that does not sort into
#: its chain order, 13 * 2**12 representatives in 1.6 ms; with both halves
#: so, every input in 0.13 s.  One-flip mutants of odd-even transposition
#: whose blocks sort run the product only: 5 ms in the median, 15 at most.
MAX_EXHAUSTIVE_WIDTH = 24

# Inputs or product elements per chunk of the exhaustive check, as a
# power of two: lanes of at most 16 KB.  Of 12 to 20, 17 measured fastest
# on sorters of widths 20 to 24 (one Xeon core, 2 MB L2).
_CHUNK_BITS = 17

#: Up to this width the sampled oracle lets the exhaustive check decide,
#: and a network that fails it runs the permutations of ``range(width)``
#: in place of the random trials.  Wider networks run the random trials:
#: on merge-exchange sorters (one Xeon core) that check takes 18 ms at
#: width 512 and 0.41 s at 1024, against 10 and 23 ms for 20 trials.
MAX_PERMUTATION_WIDTH = 8

_INT64_MIN = -(1 << 63)
_INT64_MAX = (1 << 63) - 1

# The sampled oracle's cases per batch, and the bits of each case's field
# in a packed lane: its value in 64, the guard bit and 7 spare bits, so a
# field is 9 whole bytes.
_BATCH = 64
_FIELD_BITS = 72

# Draws of 96 random bits per refill of the oracle's random stream.  From
# 128 to 4096 the time of 20 trials at width 1024 did not move; the
# traced peak at width 64 grew from 44 KB at 256 to 72 KB at 1024.
_DRAWS = 256


class Counterexample(_Record):
    """An input the network fails to sort, with the output it produced."""

    __slots__ = ("input", "output")

    def __init__(self, input: tuple, output: tuple):
        super().__init__(input, output)


class VerificationReport(_Record):
    """Outcome of a sorting check.

    ``mode`` is ``"exhaustive"`` (all boolean inputs in lexicographic
    order, False before True) or ``"sampled"`` (integer tuples: on small
    widths the permutations of ``range(width)``, run only through a
    network that fails, and on wider ones seeded random tuples; either
    kind runs 64 to a batch, read from one flat stream of packed fields,
    and a failing tuple is drawn again from a fresh stream and replayed
    through ``Network.apply``).  A small sorter's ``inputs_checked``
    also counts the ``trials`` random tuples, which are never drawn.  On
    failure ``counterexample`` holds the first offending input, and
    ``inputs_checked`` counts the inputs up to it, though the rest of a
    sampled batch ran too.
    """

    __slots__ = (
        "width", "inputs_checked", "mode", "is_sorting",
        "counterexample", "seed", "trials",
    )

    def __init__(
        self, width: int, inputs_checked: int, mode: str, is_sorting: bool,
        counterexample: Counterexample | None = None,
        seed: int | None = None, trials: int | None = None,
    ):
        super().__init__(
            width, inputs_checked, mode, is_sorting, counterexample, seed, trials
        )


class NetworkStats(_Record):
    """Layer and comparator counts of a network."""

    __slots__ = ("layers", "comparators")

    def __init__(self, layers: int, comparators: int):
        super().__init__(layers, comparators)


def _input_tuple(number: int, width: int) -> tuple[bool, ...]:
    return tuple(bool((number >> (width - 1 - i)) & 1) for i in range(width))


def _check_exhaustive_width(width: int) -> None:
    if width > MAX_EXHAUSTIVE_WIDTH:
        raise WidthTooLarge(
            f"width {width} exceeds exhaustive guard {MAX_EXHAUSTIVE_WIDTH}"
        )


def _components(width: int, layers: list) -> tuple[int, list[list[int]]]:
    """Cut after the longest prefix of ``layers`` whose comparators leave
    at least two connected components, and return the cut and those
    components: ascending lines, ordered by their lowest line."""
    parent, count, cut = list(range(width)), width, 0
    for pairs in layers:
        # Union-find, each root the lowest line of its component.  A
        # layer's joins are logged, to be undone if it leaves one component.
        joined = []
        for i, j, _ in pairs:
            while parent[i] != i:
                i = parent[i]
            while parent[j] != j:
                j = parent[j]
            if i > j:
                i, j = j, i
            if i != j:
                parent[j] = i
                joined.append(j)
        if count - len(joined) < 2:
            for j in joined:
                parent[j] = j
            break
        count, cut = count - len(joined), cut + 1
    # A union hangs a root under a lower one and an undo resets a line to
    # itself, so ``parent[line] <= line``: in ascending order a line's
    # parent already points at its root.
    groups: dict[int, list[int]] = {}
    for line in range(width):
        parent[line] = parent[parent[line]]
        groups.setdefault(parent[line], []).append(line)
    return cut, list(groups.values())


def _sorting_blocks(width: int, layers: list, sorts: dict) -> tuple[list, list, list]:
    """The components of :func:`_components`, each that does not sort into
    its chain order replaced by its lines, and how a representative runs
    past the prefix: lane ``i`` enters the returned layers as input lane
    ``source[i]``.  A kept block's prefix output is its input in chain
    order, lane ``order[p]`` being input lane ``lines[p]``, so none of its
    comparators run; the returned layers are the split groups' prefix
    comparators, in order, then the suffix.  ``sorts`` holds the check's
    block verdicts, keyed by the block sub-network in chain order."""
    cut, groups = _components(width, layers)
    # The chain run of the module docstring: bit ``d`` of a lane is the
    # line's value on the network's own monotone input with ``d`` ones.
    chain = [(2 << width) - (1 << width - line) for line in range(width)]
    _run(chain, layers[:cut])
    blocks, source, split = [], list(range(width)), set()
    for lines in groups:
        order = sorted(lines, key=chain.__getitem__)
        position = {line: p for p, line in enumerate(order)}
        sub = tuple(
            tuple((position[i], position[j], f) for i, j, f in pairs if i in position)
            for pairs in layers[:cut]
        )
        if sub not in sorts:
            sorts[sub] = _first_failure(len(lines), sub, sorts) is None
        if sorts[sub]:
            blocks.append(lines)
            for line, start in zip(order, lines):
                source[line] = start
        else:
            blocks += [[line] for line in lines]
            split.update(lines)
    prefix = [pair for pairs in layers[:cut] for pair in pairs if pair[0] in split]
    return blocks, source, [prefix, *layers[cut:]]


def _repeat(pattern: int, period: int, count: int) -> int:
    """``count`` copies of a ``period``-bit pattern side by side."""
    out = 0
    while True:
        if count & 1:
            out = (out << period) | pattern
        count >>= 1
        if not count:
            return out
        pattern |= pattern << period
        period <<= 1


def _run(lanes: list[int], layers: list) -> None:
    """Run ``layers`` on ``lanes`` in place.  A comparator's first-named
    line receives the minimum, or the maximum when it is flipped."""
    for pairs in layers:
        for i, j, flipped in pairs:
            lo, hi = lanes[i] & lanes[j], lanes[i] | lanes[j]
            lanes[i], lanes[j] = (hi, lo) if flipped else (lo, hi)


def _first_failure(width: int, layers: list, sorts: dict) -> int | None:
    """Number of the lexicographically first input that ``layers`` leave
    unsorted on ``width`` lines, or None if they sort.

    The representatives of the product of the prefix's blocks run through
    the layers that :func:`_sorting_blocks` returns: the suffix, and the
    prefix only on split blocks' lines, as a kept block's prefix output is
    its input moved into chain order.  Each block is decided by this same
    function unless ``sorts`` holds its verdict.  Element ``e`` of the
    product is ``e`` in mixed radix, the first block most significant,
    digit ``d`` of a block on ``c`` lines running to ``c``; its
    representative gives that block's last ``d`` lines a one.  A chunk
    spans the trailing blocks whose radices multiply to at most
    ``2**_CHUNK_BITS``; the leading blocks are constant within it, and one
    chunk's lanes live at a time.  A chunk whose smallest input lies above
    a failure already found is skipped.
    """
    if width < 2:
        return None
    blocks, source, suffix = _sorting_blocks(width, layers, sorts)
    radices = [len(lines) + 1 for lines in blocks]
    split, size = len(blocks), 1
    while split and size * radices[split - 1] <= 1 << _CHUNK_BITS:
        split -= 1
        size *= radices[split]
    base, period = [0] * width, size
    for radix, lines in zip(radices[split:], blocks[split:]):
        stride = period // radix
        # The line ``d`` from the end is one from digit ``d`` on: digit
        # 1's lane shifted up by a digit ``d - 1`` times.
        lane = one = _repeat((1 << period) - (1 << stride), period, size // period)
        for line in reversed(lines):
            base[line] = lane
            lane = lane << stride & one
        period = stride
    # ``first`` starts above every input: nothing failed yet.
    ones, first = (1 << size) - 1, 1 << width
    for chunk in itertools.product(*map(range, radices[:split])):
        inputs, smallest = base[:], 0
        for lines, digit in zip(blocks, chunk):
            for line in lines[len(lines) - digit:]:
                inputs[line] = ones
                smallest |= 1 << width - 1 - line
        if smallest > first:
            continue
        lanes = list(map(inputs.__getitem__, source))
        _run(lanes, suffix)
        # ``a ^ (a & b)`` is ``a & ~b`` without a complement of ``b``.
        unsorted = 0
        for a, b in zip(lanes, lanes[1:]):
            unsorted |= a ^ (a & b)
        if unsorted:
            # The smallest unsorted representative, line 0 first: keep the
            # elements with a zero on a line whenever some have one.
            number = 0
            for lane in inputs:
                zeros = unsorted ^ (unsorted & lane)
                number = 2 * number + (not zeros)
                unsorted = zeros or unsorted
            first = min(first, number)
    return first if first >> width == 0 else None


def check_sorting_exhaustive(network: Network) -> VerificationReport:
    """Decide the sorting property over all ``2**width`` boolean inputs.

    One representative input for each element of the product of the
    prefix's blocks, a block that does not sort into its chain order
    taken line by line, runs through the suffix and the split blocks'
    prefix comparators (see the module docstring), a chunk of at most
    ``2**_CHUNK_BITS`` elements at a time.  ``inputs_checked``
    says how many inputs the verdict covers: ``2**width`` on success,
    however few representatives ran, and on failure the inputs up to and
    including the lexicographically first unsorted one (False orders
    before True), which the report holds.
    """
    width = network.width
    _check_exhaustive_width(width)
    first = _first_failure(width, [layer.pairs() for layer in network.layers], {})
    counterexample = None
    if first is not None:
        failing = _input_tuple(first, width)
        counterexample = Counterexample(failing, network.apply(failing))
    return VerificationReport(
        width=width,
        inputs_checked=1 << width if first is None else first + 1,
        mode="exhaustive",
        is_sorting=first is None,
        counterexample=counterexample,
    )


def _field(value: int) -> bytes:
    """The packed field of a signed 64-bit ``value``: ``value + 2**63``
    in 8 little-endian bytes, then a zero byte holding the guard bit."""
    return (value - _INT64_MIN).to_bytes(9, "little")


def _random_fields(rng: random.Random) -> Iterator[bytes]:
    """Endless packed fields of ``rng.randint(_INT64_MIN, _INT64_MAX)``,
    one call after another, read ``_DRAWS`` draws of ``getrandbits(65)``
    at a time (see the module docstring)."""
    from struct import iter_unpack

    while True:
        words = rng.getrandbits(96 * _DRAWS).to_bytes(12 * _DRAWS, "little")
        for low, high in iter_unpack("<QI", words):
            if high < 1 << 31:
                yield low.to_bytes(9, "little")


def _run_packed(network: Network, lanes: list[int], count: int) -> int | None:
    """Run ``network`` in place on ``lanes`` holding ``count`` packed
    cases, layer by layer as :meth:`Network.apply` does, and return the
    index of the first case left unsorted, or None.  See the module
    docstring for the guard arithmetic."""
    guards = _repeat(1 << 64, _FIELD_BITS, count)
    for layer in network.layers:
        flip = layer.flip
        for i, j in enumerate(layer.link):
            if i < j:
                a, b = lanes[i], lanes[j]
                ge = ((a | guards) - b) & guards
                swap = (a ^ b) & (ge - (ge >> 64))
                if flip[i]:
                    lanes[i], lanes[j] = b ^ swap, a ^ swap
                else:
                    lanes[i], lanes[j] = a ^ swap, b ^ swap
    ascending = guards
    for a, b in zip(lanes, lanes[1:]):
        ascending &= (b | guards) - a
    failing = guards ^ ascending
    return (failing & -failing).bit_length() // _FIELD_BITS if failing else None


def _first_unsorted(network: Network, fields: Iterable[bytes]) -> int | None:
    """Index of the first case that ``network`` leaves unsorted, or None.
    ``fields`` runs case after case, one packed field per line.  The cases
    run ``_BATCH`` at a time: a batch's fields are read in turn into one
    byte buffer per line.  Cases of width 0 have no fields, and sort."""
    width, fields, checked = network.width, iter(fields), 0
    while width:
        lanes = [bytearray() for _ in range(width)]
        batch = itertools.islice(fields, width * _BATCH)
        for lane, field in zip(itertools.cycle(lanes), batch):
            lane += field
        count = len(lanes[0]) * 8 // _FIELD_BITS
        if not count:
            return None
        # Each buffer gives way to its integer, so the batch is held once.
        for line, lane in enumerate(lanes):
            lanes[line] = int.from_bytes(lane, "little")
        failing = _run_packed(network, lanes, count)
        if failing is not None:
            return checked + failing
        checked += count
    return None


def check_sorting_oracle(
    network: Network, trials: int, seed: int = 0
) -> VerificationReport:
    """Sampled sorting check over integer tuples.

    Up to width ``MAX_PERMUTATION_WIDTH`` the 0-1 check decides first.  A
    sorter runs no tuple: its report says "sorting" and ``inputs_checked``
    counts the inputs that verdict covers, every permutation of
    ``range(width)`` plus the ``trials`` random tuples, which are never
    drawn.  Only a network that fails runs tuples, the permutations in
    order.  Wider networks run ``trials`` seeded random signed 64-bit
    tuples alone, the values of ``random.Random(seed).randint(-2**63,
    2**63 - 1)`` in turn, drawn in bulk.  The tuples run packed, 64 to a
    batch, one pass over the network per batch, read from one flat
    stream of packed fields, case after case, one field per line (see
    the module docstring).  A comparator only exchanges values, so an output that
    does not decrease is a sorted permutation of its input.  The
    counterexample is the first tuple that fails: its fields are read
    again from a fresh stream and its output comes from
    :meth:`Network.apply`.  Identical seeds give identical reports.  Any
    nonnegative ``trials`` is taken; a negative one raises
    :class:`SortnetError`.
    """
    if trials < 0:
        raise SortnetError(f"trials must be nonnegative, got {trials}")
    width, covered, counterexample = network.width, trials, None
    runs = width > MAX_PERMUTATION_WIDTH
    if not runs:
        # A sorter runs none, and one that fails an input with ``k`` zeros
        # fails each permutation with its values below ``k`` on those zeros.
        covered += math.factorial(width)
        layers = [layer.pairs() for layer in network.layers]
        runs = _first_failure(width, layers, {}) is not None

    def fields():
        # The cases' fields, case after case, made afresh to draw one again.
        if width <= MAX_PERMUTATION_WIDTH:
            cases = itertools.permutations(map(_field, range(width)))
            return itertools.chain.from_iterable(cases)
        # ``islice`` takes no bound above ``sys.maxsize``; no run reads that
        # many fields.
        bound = min(trials * width, sys.maxsize)
        return itertools.islice(_random_fields(random.Random(seed)), bound)

    failing = _first_unsorted(network, fields()) if runs else None
    if failing is not None:
        # The failing case is drawn again, not kept: holding every batch's
        # inputs beside its lanes would double the oracle's memory.
        case = itertools.islice(fields(), failing * width, (failing + 1) * width)
        values = tuple(int.from_bytes(field, "little") + _INT64_MIN for field in case)
        counterexample = Counterexample(values, network.apply(values))
        covered = failing + 1
    return VerificationReport(
        width=width,
        inputs_checked=covered,
        mode="sampled",
        is_sorting=counterexample is None,
        counterexample=counterexample,
        seed=seed,
        trials=trials,
    )


def network_stats(network: Network) -> NetworkStats:
    """Layer count and total comparator count."""
    lines = range(network.width)
    return NetworkStats(
        layers=network.size,
        comparators=sum(sum(map(lt, lines, layer.link)) for layer in network.layers),
    )
