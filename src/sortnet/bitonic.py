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

from operator import not_

from .combinators import ndup, nmerge
from .core import Connector, Network, line_numbers
from .index import pow2


def half_cleaner(half: int, flip: bool = False) -> Connector:
    """Connector on ``2 * half`` lines pairing line ``i`` with ``i + half``.

    All comparators carry the same orientation flag.
    """
    width = half + half
    lines = line_numbers(width)
    link = lines[half:] + lines[:half]
    return Connector(width, link, (flip,) * width)


def rhalf_cleaner(width: int) -> Connector:
    """Connector pairing line ``i`` with its mirror ``width - 1 - i``.

    On odd widths the middle line stays unconnected.
    """
    link = line_numbers(width)[::-1]
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
    half = bfsort(flip, m - 1)
    # Every bfsort layer connects all of its lines, so negating every flag
    # of the ``flip`` half gives exactly the ``not flip`` half.
    other = tuple(
        Connector(c.width, c.link, map(not_, c.flip)) for c in half.layers
    )
    return nmerge(half, Network(half.width, other)) + half_cleaner_rec(m, flip)
