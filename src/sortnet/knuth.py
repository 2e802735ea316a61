"""The exchange sorter built from even/odd slicing, swaps, and jumps.

The recursion sorts the even-position and odd-position lines separately
(interleaved copies of the smaller sorter), after which the two slices
are individually sorted and their false-counts differ by a bounded
amount.  A swap layer plus a halving sequence of jump layers then closes
that gap down to at most one, which is exactly when the interleaving is
sorted as a whole.
"""

from .combinators import neodup
from .core import Connector, Network, line_numbers
from .errors import SortnetError, ZeroWidth
from .index import pow2


def uphalf(n: int) -> int:
    """Ceiling half: half of ``n + 1``."""
    return (n + 1) // 2


def _jump(width: int, first: int, k: int) -> Connector:
    """Connector pairing line ``i`` with ``i + k`` for ``i = first, first + 2,
    ...``, for odd ``k``.

    An odd ``k`` pairs lines of opposite parity, so no line is in two
    pairs.  A line whose partner would lie outside the range stays
    unconnected, so the map stays involutive.
    """
    below = max(width - k, 0)
    lines = line_numbers(width)
    link = list(lines)
    link[first:below:2] = lines[first + k :: 2]
    link[first + k :: 2] = lines[first:below:2]
    return Connector(width, tuple(link), (False,) * width)


def ceswap(width: int) -> Connector:
    """Connector pairing each even line with its successor.

    Odd lines link back to their predecessor; on odd widths the last
    (even) line has no successor and stays unconnected.
    """
    if width == 0:
        raise ZeroWidth("ceswap needs at least one line")
    return _jump(width, 0, 1)


def codd_jump(k: int, width: int) -> Connector:
    """Connector pairing odd line ``i`` with even line ``i + k``, for odd ``k``.

    Jumps that would leave the range are dropped (those lines stay
    unconnected).  An even ``k`` would pair lines of equal parity, so it
    yields the identity connector.  A negative ``k`` is rejected.
    """
    if width == 0:
        raise ZeroWidth("codd_jump needs at least one line")
    if k < 0:
        raise SortnetError(f"jump must be nonnegative, got {k}")
    if k % 2 == 0:
        return Connector.identity(width)
    return _jump(width, 1, k)


def knuth_jump_rec(width: int, count: int, jump: int) -> Network:
    """``count`` jump layers, halving the jump at each step.

    Layer ``t`` uses jump ``r_t`` where ``r_0 = jump`` and
    ``r_{t+1} = uphalf(r_t) - 1`` (never going below zero).
    """
    if width == 0:
        raise ZeroWidth("knuth_jump_rec needs at least one line")
    if jump < 0:
        raise SortnetError(f"jump must be nonnegative, got {jump}")
    layers = []
    r = jump
    for _ in range(count):
        layers.append(codd_jump(r, width))
        r = max(uphalf(r) - 1, 0)
    return Network(width, tuple(layers))


def knuth_exchange(m: int) -> Network:
    """Exchange sorting network on ``2**m`` lines; ``m * (m + 1) // 2`` layers."""
    width = pow2(m)
    if m == 0:
        return Network(1, ())
    head = neodup(knuth_exchange(m - 1))
    jumps = knuth_jump_rec(width, m - 1, pow2(m - 1) - 1)
    return head + Network(width, (ceswap(width), *jumps.layers))
