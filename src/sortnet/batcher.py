"""The odd-even merge sorter.

Merging here is a network, not a sequence algorithm: once the two halves
of the lines are sorted, the even and odd slices are recursively merged
(as interleaved copies) and a single jump-1 layer repairs the remaining
false-count gap of at most two.
"""

from .combinators import cswap, ndup, neodup
from .core import Connector, Network
from .index import pow2
from .knuth import codd_jump


def batcher_merge(width: int) -> Connector:
    """The final merge layer: each odd line compared with the next even one."""
    return codd_jump(1, width)


def batcher_merge_rec(m: int) -> Network:
    """Merge network on ``2**m`` lines whose two halves are sorted; ``m``
    layers, empty at ``m = 0``.

    At ``m = 1`` it compares the two lines outright; above that, two
    interleaved copies of the merge network one level down handle the even
    and odd slices and one merge layer finishes.
    """
    width = pow2(m)
    if m < 2:
        return Network(width, (cswap(0, 1, 2),) * m)
    return neodup(batcher_merge_rec(m - 1)) + Network(width, (batcher_merge(width),))


def batcher(m: int) -> Network:
    """Odd-even merge sorting network on ``2**m`` lines; ``m * (m + 1) // 2`` layers."""
    pow2(m)
    if m == 0:
        return Network(1, ())
    return ndup(batcher(m - 1)) + batcher_merge_rec(m)
