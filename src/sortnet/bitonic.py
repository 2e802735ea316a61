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
from typing import Sequence

from .combinators import ndup, nmerge
from .core import Connector, Network
from .index import pow2
from .verify import is_sorted


def is_bitonic(values: Sequence) -> bool:
    """Whether some rotation splits into a rising prefix and falling suffix.

    Decided by scanning every rotation; within one rotation only the
    maximal nondecreasing prefix needs its complement inspected, since a
    suffix of a nonincreasing sequence is itself nonincreasing.
    """
    s = tuple(values)
    n = len(s)
    if n == 0:
        return True
    for r in range(n + 1):
        rotated = s[r:] + s[:r]
        p = 1
        while p < n and rotated[p - 1] <= rotated[p]:
            p += 1
        if is_sorted(rotated[p:], descending=True):
            return True
    return False


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

    Searches run lengths directly (longest head first, then longest
    middle) so the result is canonical: constant sequences report their
    full length as the head.  Returns None exactly when the sequence is
    not bitonic.
    """
    s = tuple(bool(v) for v in values)
    n = len(s)
    if n == 0:
        return BitonicDecomposition(False, 0, 0, 0)
    for head in range(n, -1, -1):
        for mid in range(n - head, -1, -1):
            tail = n - head - mid
            # The first element pins the only run value worth trying.
            value = s[0] if head or not mid else not s[0]
            candidate = (value,) * head + (not value,) * mid + (value,) * tail
            if s == candidate:
                return BitonicDecomposition(value, head, mid, tail)
    return None


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
