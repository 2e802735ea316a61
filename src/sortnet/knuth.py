"""The exchange sorter built from even/odd slicing, swaps, and jumps.

The recursion sorts the even-position and odd-position lines separately
(interleaved copies of the smaller sorter), after which the two slices
are individually sorted and their false-counts differ by a bounded
amount.  A swap layer plus a halving sequence of jump layers then closes
that gap down to at most one, which is exactly when the interleaving is
sorted as a whole.
"""

from typing import Sequence

from .combinators import neodup
from .core import Connector, Network
from .errors import ZeroWidth
from .index import pow2


def etake(values: Sequence) -> tuple:
    """Entries at even positions."""
    return tuple(values[::2])


def otake(values: Sequence) -> tuple:
    """Entries at odd positions."""
    return tuple(values[1::2])


def count_false(values: Sequence) -> int:
    """Number of falsy entries; the bookkeeping quantity of the jump layers."""
    return sum(1 for v in values if not v)


def uphalf(n: int) -> int:
    """Ceiling half: half of ``n + 1``."""
    return (n + 1) // 2


def ceswap(width: int) -> Connector:
    """Connector pairing each even line with its successor.

    Odd lines link back to their predecessor; on odd widths the last
    (even) line has no successor and stays unconnected.
    """
    if width == 0:
        raise ZeroWidth("ceswap needs at least one line")
    # On an odd width the last line is even and has no successor: it stays put.
    link = tuple(
        i - 1 if i % 2 else min(i + 1, width - 1) for i in range(width)
    )
    return Connector(width, link, (False,) * width)


def codd_jump(k: int, width: int) -> Connector:
    """Connector pairing odd line ``i`` with even line ``i + k``, for odd ``k``.

    Jumps that would leave the range are dropped (those lines stay
    unconnected).  An even ``k`` would pair lines of equal parity, so it
    yields the identity connector.  A negative ``k`` is rejected.
    """
    if width == 0:
        raise ZeroWidth("codd_jump needs at least one line")
    if k < 0:
        raise ValueError(f"jump must be nonnegative, got {k}")
    if k % 2 == 0:
        return Connector.identity(width)
    # A jump that would leave the range leaves the line unconnected: odd
    # ``i`` and even ``i + k`` pair up exactly when both are in range, so the
    # map stays involutive.
    link = tuple(
        (i + k if i + k < width else i) if i % 2 else (i - k if i >= k else i)
        for i in range(width)
    )
    return Connector(width, link, (False,) * width)


def knuth_jump_rec(width: int, count: int, jump: int) -> Network:
    """``count`` jump layers, halving the jump at each step.

    Layer ``t`` uses jump ``r_t`` where ``r_0 = jump`` and
    ``r_{t+1} = uphalf(r_t) - 1`` (never going below zero).
    """
    if width == 0:
        raise ZeroWidth("knuth_jump_rec needs at least one line")
    if jump < 0:
        raise ValueError(f"jump must be nonnegative, got {jump}")
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
