"""Bitonic sequences and the half-cleaner family of sorting networks.

A sequence is bitonic when some rotation of it is nondecreasing then
nonincreasing.  Boolean bitonic sequences admit a three-run normal form
(a constant run, its negation, the same constant again), and the
half-cleaner exploits it: one layer pushes the whole disorder into a
single half, so recursing on halves sorts any bitonic input.  Stacking
the recursion behind a mirrored first layer sorts the concatenation of
two sorted halves, and that yields the full sorter.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from typing import Sequence

from .combinators import ndup, nmerge
from .core import Connector, Network
from .index import pow2


def is_bitonic(values: Sequence) -> bool:
    """Whether some rotation splits into a rising prefix and falling suffix.

    Equivalently (Knuth, TAOCP vol. 3, 5.3.4), read cyclically with the
    last element followed by the first, the strict steps change direction
    at most twice: once at the peak and once at the trough.
    """
    s = tuple(values)
    steps = [a < b for a, b in zip(s, s[1:] + s[:1]) if a != b]
    return sum(x != y for x, y in zip(steps, steps[1:] + steps[:1])) <= 2


@dataclass(frozen=True)
class BitonicDecomposition:
    """Three-run normal form of a bitonic boolean sequence.

    Reconstructs ``head`` copies of ``value``, then ``mid`` copies of its
    negation, then ``tail`` copies of ``value`` again.
    """

    value: bool
    head: int
    mid: int
    tail: int

    @property
    def length(self) -> int:
        return self.head + self.mid + self.tail

    def to_tuple(self) -> tuple[bool, ...]:
        return (
            (self.value,) * self.head
            + (not self.value,) * self.mid
            + (self.value,) * self.tail
        )


def bitonic_bool_decomp(values: Sequence) -> BitonicDecomposition | None:
    """Three-run decomposition of a boolean sequence, or None.

    The maximal runs are the decomposition when there are at most three,
    and the first run is the head, so the result is canonical (longest
    head, then longest middle): constant sequences report their full
    length as the head.  Returns None exactly when the sequence is not
    bitonic.
    """
    runs = [(v, len(list(g))) for v, g in groupby(map(bool, values))]
    if len(runs) > 3:
        return None
    value = runs[0][0] if runs else False
    head, mid, tail = [n for _, n in runs] + [0] * (3 - len(runs))
    return BitonicDecomposition(value, head, mid, tail)


def half_cleaner(half: int, flip: bool = False) -> Connector:
    """Connector on ``2 * half`` lines pairing line ``i`` with ``i + half``.

    All comparators carry the same orientation flag.
    """
    width = half + half
    link = tuple(i + half if i < half else i - half for i in range(width))
    return Connector(width, link, (flip,) * width)


def rhalf_cleaner(width: int) -> Connector:
    """Connector pairing line ``i`` with its mirror ``width - 1 - i``.

    On odd widths the middle line stays unconnected.
    """
    link = tuple(width - 1 - i for i in range(width))
    return Connector(width, link, (False,) * width)


def half_cleaner_rec(m: int, flip: bool = False) -> Network:
    """Recursive half-cleaner on ``2**m`` lines: sorts any bitonic input.

    One half-cleaner layer, then the same construction duplicated on each
    half; ``m`` layers in total.
    """
    width = pow2(m)
    if m == 0:
        return Network(width, ())
    first = half_cleaner(pow2(m - 1), flip)
    rest = ndup(half_cleaner_rec(m - 1, flip))
    return Network(width, (first, *rest.layers))


def rhalf_cleaner_rec(m: int) -> Network:
    """Mirrored half-cleaner recursion on ``2**m`` lines.

    Sorts the concatenation of two sorted halves: the mirrored first layer
    turns it into bitonic halves, which the plain recursion finishes off.
    """
    width = pow2(m)
    if m == 0:
        return Network(width, ())
    rest = ndup(half_cleaner_rec(m - 1))
    return Network(width, (rhalf_cleaner(width), *rest.layers))


def bsort(m: int) -> Network:
    """Bitonic sorting network on ``2**m`` lines; ``m * (m + 1) // 2`` layers."""
    pow2(m)
    if m == 0:
        return Network(1, ())
    return ndup(bsort(m - 1)) + rhalf_cleaner_rec(m)


def bfsort(flip: bool, m: int) -> Network:
    """Oriented bitonic sorter on ``2**m`` lines using only half-cleaners.

    The two recursive halves sort in opposite directions, so no mirrored
    layer is needed; the orientation flags do the reversing.  With
    ``flip=False`` the result sorts ascending, with ``flip=True``
    descending.  Same layer count as :func:`bsort`.
    """
    pow2(m)
    if m == 0:
        return Network(1, ())
    halves = nmerge(bfsort(flip, m - 1), bfsort(not flip, m - 1))
    return halves + half_cleaner_rec(m, flip)
