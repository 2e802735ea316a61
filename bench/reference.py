"""An independent reference for ``snet`` files and comparator networks.

Nothing here imports ``sortnet``: the benchmark checks the program's
outputs against this module, so the two must not share code.  A network
is a ``(width, layers)`` pair, each layer a list of ``(low, high,
flipped)`` comparators.  A plain comparator sends the minimum to the
lower-numbered line; ``flipped`` (written ``!`` in the file) sends the
maximum there instead.

Boolean input number ``b`` of a ``width``-line network gives line ``i``
bit ``width - 1 - i`` of ``b``, so increasing ``b`` walks the inputs in
lexicographic order, 0 before 1.
"""

from __future__ import annotations

import re

_HEADER = re.compile(r"snet 1 ([0-9]+)")
_TOKEN = re.compile(r"([0-9]+)-([0-9]+)(!?)")


def parse_snet(text: str) -> tuple[int, list[list[tuple[int, int, bool]]]]:
    """Read an ``snet`` document; raise ``ValueError`` on anything malformed."""
    rows = text.splitlines()
    if not rows:
        raise ValueError("empty file")
    head = _HEADER.fullmatch(" ".join(rows[0].split()))
    if head is None:
        raise ValueError(f"bad header {rows[0]!r}")
    width = int(head.group(1))
    layers = []
    for row in rows[1:]:
        if not row.strip():
            continue
        if not row.startswith("layer:"):
            raise ValueError(f"bad record {row!r}")
        layer, used = [], set()
        for token in row[len("layer:"):].split():
            match = _TOKEN.fullmatch(token)
            if match is None:
                raise ValueError(f"bad token {token!r}")
            a, b = int(match.group(1)), int(match.group(2))
            low, high = min(a, b), max(a, b)
            if low == high or high >= width or low in used or high in used:
                raise ValueError(f"invalid comparator {token!r}")
            used.update((low, high))
            layer.append((low, high, match.group(3) == "!"))
        layers.append(sorted(layer))
    return width, layers


def render_snet(width: int, layers) -> str:
    """Write a network in the ``snet`` text format."""
    rows = [f"snet 1 {width}"]
    for layer in layers:
        tokens = [f"{lo}-{hi}{'!' if f else ''}" for lo, hi, f in sorted(layer)]
        rows.append(" ".join(["layer:", *tokens]))
    return "\n".join(rows) + "\n"


def comparator_count(layers) -> int:
    return sum(len(layer) for layer in layers)


def apply(layers, values) -> list:
    """Run one tuple through the network, comparator by comparator."""
    out = list(values)
    for layer in layers:
        for lo, hi, flipped in layer:
            a, b = out[lo], out[hi]
            if (a < b) if flipped else (b < a):
                out[lo], out[hi] = b, a
    return out


def bool_input(number: int, width: int) -> tuple[int, ...]:
    return tuple((number >> (width - 1 - i)) & 1 for i in range(width))


def sorts_all_booleans(width: int, layers, descending: bool = False) -> bool:
    """Whether every one of the ``2**width`` boolean inputs comes out sorted.

    Each line holds one Python integer whose bit ``b`` is that line's value
    on input ``b``.  Meant for small widths (up to about 20).
    """
    total = 1 << width
    lanes = []
    for i in range(width):
        period = 1 << (width - 1 - i)
        lanes.append(int(("1" * period + "0" * period) * (total // (2 * period)), 2))
    for layer in layers:
        for lo, hi, flipped in layer:
            small, big = lanes[lo] & lanes[hi], lanes[lo] | lanes[hi]
            lanes[lo], lanes[hi] = (big, small) if flipped else (small, big)
    bad = 0
    for upper, lower in zip(lanes, lanes[1:]):
        bad |= (lower & ~upper) if descending else (upper & ~lower)
    return bad == 0


def first_counterexample(width: int, layers, chunk_bits: int = 20) -> int | None:
    """Number of the lexicographically first boolean input left unsorted.

    ``None`` when the network sorts.  Evaluated with numpy over chunks of
    ``2**chunk_bits`` consecutive inputs, 64 inputs per machine word, and
    stops at the first chunk that holds a failure.  Below width 6 the one
    word also holds inputs past ``2**width``; each fails exactly when the
    input it repeats (its low ``width`` bits) fails, so the lowest failing
    bit is still the answer.
    """
    import numpy as np

    chunk_bits = min(chunk_bits, width)
    words = 1 << max(0, chunk_bits - 6)
    word_index = np.arange(words, dtype=np.uint64)
    ones = np.uint64(0xFFFFFFFFFFFFFFFF)
    for chunk in range(1 << (width - chunk_bits)):
        lanes = []
        for i in range(width):
            bit = width - 1 - i
            if bit < 6:
                pattern = sum(1 << t for t in range(64) if (t >> bit) & 1)
                lanes.append(np.full(words, pattern, dtype=np.uint64))
            elif bit < chunk_bits:
                on = (word_index >> np.uint64(bit - 6)) & np.uint64(1)
                lanes.append(on * ones)
            else:
                set_ = (chunk >> (bit - chunk_bits)) & 1
                lanes.append(np.full(words, ones if set_ else 0, dtype=np.uint64))
        for layer in layers:
            for lo, hi, flipped in layer:
                small = lanes[lo] & lanes[hi]
                big = lanes[lo] | lanes[hi]
                lanes[lo], lanes[hi] = (big, small) if flipped else (small, big)
        bad = np.zeros(words, dtype=np.uint64)
        for upper, lower in zip(lanes, lanes[1:]):
            bad |= upper & ~lower
        hits = np.flatnonzero(bad)
        if hits.size:
            word = int(hits[0])
            value = int(bad[word])
            bit = (value & -value).bit_length() - 1
            return (chunk << chunk_bits) + 64 * word + bit
    return None


# Constructions the benchmark builds for itself.  Each returns layers.


def odd_even_transposition(n: int):
    """``n`` alternating layers of neighbour comparators; sorts ``n`` lines."""
    return [[(i, i + 1, False) for i in range(t % 2, n - 1, 2)] for t in range(n)]


def merge_exchange(n: int):
    """Batcher's merge-exchange sorter for any ``n`` (Knuth, Algorithm 5.2.2M).

    Every pass of the algorithm compares disjoint pairs, so each is a layer.
    """
    layers = []
    t = max(1, (n - 1).bit_length())
    p = 1 << (t - 1)
    while p > 0:
        q, r, d = 1 << (t - 1), 0, p
        while True:
            layer = [(i, i + d, False) for i in range(n - d) if i & p == r]
            if layer:
                layers.append(layer)
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return layers


def side_by_side(left, left_width: int, right):
    """Two networks on adjacent blocks of lines, layer ``t`` beside layer ``t``."""
    depth = max(len(left), len(right))
    layers = []
    for t in range(depth):
        layer = list(left[t]) if t < len(left) else []
        if t < len(right):
            layer += [(lo + left_width, hi + left_width, f) for lo, hi, f in right[t]]
        layers.append(layer)
    return layers


def odd_even_merge(xs, ys):
    """Comparators that merge sorted lines ``xs`` with sorted lines ``ys``.

    Batcher's odd-even merge.  The even and odd positions of ``xs + ys``
    must be those of ``xs`` followed by those of ``ys``, so ``len(xs)``
    is a power of two no smaller than ``len(ys)``.
    """
    if not xs or not ys:
        return []
    if len(xs) == 1 and len(ys) == 1:
        return [(xs[0], ys[0])]
    comps = odd_even_merge(xs[0::2], ys[0::2]) + odd_even_merge(xs[1::2], ys[1::2])
    lines = xs + ys
    comps += [(lines[k], lines[k + 1]) for k in range(1, len(lines) - 1, 2)]
    return comps


def layered(comparators, width: int):
    """Place each comparator in the earliest layer after its lines' last use."""
    ready = [0] * width
    layers = []
    for lo, hi in comparators:
        t = max(ready[lo], ready[hi])
        if t == len(layers):
            layers.append([])
        layers[t].append((lo, hi, False))
        ready[lo] = ready[hi] = t + 1
    return layers


def block_sorter(n: int, block: int = 16):
    """Sort lines ``0..block-1`` and the rest apart, then merge the two blocks.

    The first layers stay inside the two blocks (a block-structured
    prefix); ``n - block`` must be at most ``block``.
    """
    prefix = side_by_side(merge_exchange(block), block, odd_even_transposition(n - block))
    merge = odd_even_merge(list(range(block)), list(range(block, n)))
    return prefix + layered(merge, n)


def flipped(layers, layer_index: int, position: int):
    """A copy with one comparator flipped."""
    out = [list(layer) for layer in layers]
    lo, hi, flip = out[layer_index][position]
    out[layer_index][position] = (lo, hi, not flip)
    return out
