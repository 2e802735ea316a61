"""Ways of wiring small connectors and networks into larger ones.

Two gluing schemes recur in all the generators: placing two blocks side
by side (``cmerge`` and friends) and interleaving two blocks onto the
even and odd lines (``ceomerge`` and friends).  Both preserve the connector
invariants by construction, and the constructor revalidates anyway, with
one bulk check of the whole link map (see :class:`~sortnet.core.Connector`).
A glued link map is indexed out of the identity of the result's width,
:func:`~sortnet.core.line_numbers`: the right block's partner ``j``
becomes ``lines[c1.width + j]``, the even and odd blocks' partners
``lines[2j]`` and ``lines[2j + 1]``.  No line number is allocated, the
check meets the identity's own int objects, and neither the gluing nor
the check runs Python code per line.
"""

from operator import itemgetter

from .core import Connector, Network, line_numbers
from .errors import SortnetError, WidthMismatch


def _pick(lines: tuple[int, ...], link: tuple[int, ...]) -> tuple[int, ...]:
    """``lines[j]`` for each entry ``j`` of ``link``, as a tuple."""
    # ``itemgetter`` of one index returns a scalar, and of none raises.
    if len(link) > 1:
        return itemgetter(*link)(lines)
    return tuple(lines[j] for j in link)


def cswap(i: int, j: int, width: int) -> Connector:
    """The connector comparing exactly lines ``i`` and ``j``."""
    return Connector.from_pairs(width, [(i, j)])


def cmerge(c1: Connector, c2: Connector) -> Connector:
    """Place two connectors side by side on ``c1.width + c2.width`` lines.

    Lines below ``c1.width`` follow ``c1``; the rest follow ``c2`` shifted
    up.  Flip flags travel with their source connector.
    """
    width = c1.width + c2.width
    lines = line_numbers(width)
    return Connector(
        width, c1.link + _pick(lines[c1.width :], c2.link), c1.flip + c2.flip
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
    lines = line_numbers(width)
    link = [0] * width
    # Partner j of c1 becomes line 2j, partner j of c2 becomes line 2j + 1.
    link[0::2] = _pick(lines[0::2], c1.link)
    link[1::2] = _pick(lines[1::2], c2.link)
    flip = [False] * width
    flip[0::2] = c1.flip
    flip[1::2] = c2.flip
    return Connector(width, link, flip)


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
