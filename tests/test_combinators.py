"""Side-by-side and even/odd gluing of connectors and networks."""

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import all_bool_tuples, connectors, networks
from sortnet.bitonic import bsort, half_cleaner
from sortnet.combinators import cmerge, ceomerge, cswap, ndup, neodup, neomerge, nmerge
from sortnet.core import Connector, Network
from sortnet.errors import DegeneratePair, IndexOutOfRange, SortnetError, WidthMismatch
from spec import ceomerge_link, cmerge_link, etake, otake

# Width-0 and width-1 operands: gluing indexes the identity of the
# result's width with each link map, and a map of one entry or none is
# where ``itemgetter`` stops returning a tuple.
EMPTY = Connector.identity(0)
ONE = Connector.identity(1)
ONE_FLIPPED = Connector(1, (0,), (True,))


def test_cswap_links_exactly_one_pair():
    assert cswap(0, 1, 2).link == (1, 0)
    assert cswap(0, 2, 3).link == (2, 1, 0)


def test_cswap_applies_minmax():
    assert cswap(0, 1, 2).apply((True, False)) == (False, True)


def test_cswap_validation():
    with pytest.raises(IndexOutOfRange):
        cswap(0, 4, 3)
    with pytest.raises(DegeneratePair):
        cswap(1, 1, 3)


def test_cmerge_examples():
    assert cmerge(cswap(0, 1, 2), Connector.identity(2)).link == (1, 0, 2, 3)
    assert cmerge(Connector.identity(2), cswap(0, 1, 2)).link == (0, 1, 3, 2)
    assert cmerge(half_cleaner(1), half_cleaner(1)).link == (1, 0, 3, 2)
    assert cmerge(EMPTY, EMPTY) == EMPTY
    assert cmerge(ONE, ONE) == Connector.identity(2)
    assert cmerge(ONE, cswap(0, 1, 2)).link == (0, 2, 1)
    assert cmerge(cswap(0, 1, 2), ONE_FLIPPED).flip == (False, False, True)


@given(connectors(max_width=5), connectors(max_width=5))
@example(EMPTY, EMPTY)
@example(EMPTY, ONE)
@example(ONE_FLIPPED, EMPTY)
@example(ONE, ONE_FLIPPED)
@example(ONE, half_cleaner(1))
@example(half_cleaner(2), ONE_FLIPPED)
def test_cmerge_links_follow_the_spec(c1, c2):
    merged = cmerge(c1, c2)
    assert merged.width == c1.width + c2.width
    assert merged.link == cmerge_link(c1, c2)
    assert merged.flip == c1.flip + c2.flip


def test_cmerge_carries_flips_from_each_side():
    left = Connector.from_pairs(2, [(0, 1, True)])
    right = Connector.from_pairs(2, [(0, 1, False)])
    merged = cmerge(left, right)
    assert merged.flip == (True, True, False, False)


def test_nmerge_rejects_unequal_depths():
    n2 = Network(2, (Connector.identity(2),) * 2)
    n3 = Network(3, (Connector.identity(3),) * 3)
    with pytest.raises(ValueError, match="depths 2 and 3"):
        nmerge(n2, n3)
    with pytest.raises(ValueError, match="depths 0 and 3"):
        nmerge(Network(2, ()), n3)
    merged = nmerge(n3, n3)
    assert (merged.width, merged.size) == (6, n3.size)


SMALL_NETWORKS = (
    Network(3, ()),
    Network(2, (cswap(0, 1, 2),)),
    Network(0, (EMPTY, EMPTY)),
    Network(1, (ONE, ONE_FLIPPED)),
)


def test_ndup_preserves_size():
    for net in SMALL_NETWORKS:
        doubled = ndup(net)
        assert (doubled.width, doubled.size) == (2 * net.width, net.size)
        for layer, glued in zip(net.layers, doubled.layers):
            assert glued.link == cmerge_link(layer, layer)
            assert glued.flip == layer.flip + layer.flip


@given(networks(max_width=4, max_depth=4), st.data())
def test_ndup_acts_independently_on_both_halves(net, data):
    w = net.width
    values = tuple(
        data.draw(st.lists(st.integers(-20, 20), min_size=2 * w, max_size=2 * w))
    )
    out = ndup(net).apply(values)
    assert out[:w] == net.apply(values[:w])
    assert out[w:] == net.apply(values[w:])


def test_ceomerge_example():
    merged = ceomerge(cswap(0, 1, 2), Connector.identity(2))
    assert merged.link == (2, 1, 0, 3)
    assert ceomerge(EMPTY, EMPTY) == EMPTY
    assert ceomerge(ONE, ONE_FLIPPED) == Connector(2, (0, 1), (False, True))


def test_ceomerge_of_identities_is_identity():
    for width in (0, 1, 3):
        merged = ceomerge(Connector.identity(width), Connector.identity(width))
        assert merged == Connector.identity(2 * width)


def test_ceomerge_width_mismatch():
    with pytest.raises(WidthMismatch):
        ceomerge(Connector.identity(2), Connector.identity(3))
    with pytest.raises(WidthMismatch):
        neomerge(Network(2, ()), Network(3, ()))


def equal_width_pairs(max_width):
    """Two connectors of one drawn width, 0 to ``max_width``."""
    return st.integers(0, max_width).flatmap(
        lambda w: st.tuples(connectors(width=w), connectors(width=w))
    )


@given(equal_width_pairs(6))
@example((EMPTY, EMPTY))
@example((ONE, ONE_FLIPPED))
def test_ceomerge_preserves_parity(pair):
    merged = ceomerge(*pair)
    for i, j in enumerate(merged.link):
        assert i % 2 == j % 2


@given(equal_width_pairs(5))
@example((EMPTY, EMPTY))
@example((ONE, ONE))
@example((ONE_FLIPPED, ONE))
@example((half_cleaner(1), Connector(2, (1, 0), (True, True))))
def test_ceomerge_links_follow_the_spec(pair):
    c1, c2 = pair
    merged = ceomerge(c1, c2)
    assert merged.link == ceomerge_link(c1, c2)
    assert merged.flip[0::2] == c1.flip
    assert merged.flip[1::2] == c2.flip


def test_neomerge_rejects_unequal_depths():
    with pytest.raises(SortnetError, match="depths 3 and 0"):
        neomerge(bsort(2), Network(4, ()))
    with pytest.raises(SortnetError, match="depths 0 and 3"):
        neomerge(Network(4, ()), bsort(2))
    merged = neomerge(bsort(2), bsort(2))
    assert (merged.width, merged.size) == (8, 3)


def test_neodup_preserves_size():
    for net in SMALL_NETWORKS:
        doubled = neodup(net)
        assert (doubled.width, doubled.size) == (2 * net.width, net.size)
        for layer, glued in zip(net.layers, doubled.layers):
            assert glued.link == ceomerge_link(layer, layer)
            assert glued.flip[0::2] == glued.flip[1::2] == layer.flip


@given(networks(max_width=4, max_depth=4))
@example(Network(0, (EMPTY,)))
@example(Network(1, (ONE_FLIPPED, ONE)))
def test_neodup_routes_even_and_odd_slices(net):
    doubled = neodup(net)
    for values in all_bool_tuples(doubled.width):
        out = doubled.apply(values)
        assert etake(out) == net.apply(etake(values))
        assert otake(out) == net.apply(otake(values))
