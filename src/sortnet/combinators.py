"""Ways of wiring small connectors and networks into larger ones.

Two gluing schemes recur in all the generators: placing two blocks side
by side (``cmerge`` and friends) and interleaving two blocks onto the
even and odd lines (``ceomerge`` and friends).  Both preserve the connector
invariants by construction, and the constructor revalidates anyway, with
one bulk check of the whole link map (see :class:`~sortnet.core.Connector`).
The link maps are built with ``map``, ``range`` and slice assignment, so
neither the gluing nor the check runs Python code per line.
"""

from operator import add

from .core import Connector, Network
from .errors import SortnetError, WidthMismatch


def cswap(i: int, j: int, width: int) -> Connector:
    """The connector comparing exactly lines ``i`` and ``j``."""
    return Connector.from_pairs(width, [(i, j)])


def cmerge(c1: Connector, c2: Connector) -> Connector:
    """Place two connectors side by side on ``c1.width + c2.width`` lines.

    Lines below ``c1.width`` follow ``c1``; the rest follow ``c2`` shifted
    up.  Flip flags travel with their source connector.
    """
    m1 = c1.width
    return Connector(
        m1 + c2.width,
        c1.link + tuple(map(m1.__add__, c2.link)),
        c1.flip + c2.flip,
    )


def nmerge(n1: Network, n2: Network) -> Network:
    """Layerwise side-by-side merge of two networks of equal depth.

    Layers are paired off in order; operands of different depths raise
    :class:`SortnetError` (a ``ValueError``) naming both.
    """
    if n1.size != n2.size:
        raise SortnetError(f"cannot merge depths {n1.size} and {n2.size}")
    width = n1.width + n2.width
    layers = tuple(cmerge(a, b) for a, b in zip(n1.layers, n2.layers))
    return Network(width, layers)


def ndup(n: Network) -> Network:
    """Two side-by-side copies of a network, one per half of the lines."""
    return nmerge(n, n)


def ceomerge(c1: Connector, c2: Connector) -> Connector:
    """Interleave two equal-width connectors onto even and odd lines.

    Line ``2x`` follows ``c1`` through the even embedding and line
    ``2x + 1`` follows ``c2`` through the odd embedding, so parity is
    preserved: even lines only ever link to even lines, odd to odd.
    """
    if c1.width != c2.width:
        raise WidthMismatch(
            f"cannot interleave widths {c1.width} and {c2.width}"
        )
    width = c1.width + c2.width
    link = [0] * width
    # Partner j of c1 becomes j + j, partner j of c2 becomes j + (1 + j).
    link[0::2] = map(add, c1.link, c1.link)
    link[1::2] = map(add, c2.link, map((1).__add__, c2.link))
    flip = [False] * width
    flip[0::2] = c1.flip
    flip[1::2] = c2.flip
    return Connector(width, tuple(link), tuple(flip))


def neomerge(n1: Network, n2: Network) -> Network:
    """Layerwise even/odd interleave of two networks of equal width and depth.

    Operands of different depths raise :class:`SortnetError` naming both,
    as in :func:`nmerge`.
    """
    if n1.width != n2.width:
        raise WidthMismatch(
            f"cannot interleave widths {n1.width} and {n2.width}"
        )
    if n1.size != n2.size:
        raise SortnetError(f"cannot interleave depths {n1.size} and {n2.size}")
    layers = tuple(ceomerge(a, b) for a, b in zip(n1.layers, n2.layers))
    return Network(n1.width * 2, layers)


def neodup(n: Network) -> Network:
    """Two interleaved copies of a network: one on even lines, one on odd."""
    return neomerge(n, n)
