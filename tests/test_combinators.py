"""Side-by-side and even/odd gluing of connectors and networks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import all_bool_tuples, connectors, networks
from sortnet.bitonic import bsort, half_cleaner
from sortnet.combinators import cmerge, ceomerge, cswap, ndup, neodup, neomerge, nmerge
from sortnet.core import Connector, Network
from sortnet.errors import DegeneratePair, IndexOutOfRange, SortnetError, WidthMismatch
from spec import etake, otake


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


def test_ndup_preserves_size():
    assert ndup(Network(3, ())).size == 0
    net = Network(2, (cswap(0, 1, 2),))
    assert ndup(net).size == net.size
    assert ndup(net).width == 4


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


def test_ceomerge_of_identities_is_identity():
    merged = ceomerge(Connector.identity(3), Connector.identity(3))
    assert merged == Connector.identity(6)


def test_ceomerge_width_mismatch():
    with pytest.raises(WidthMismatch):
        ceomerge(Connector.identity(2), Connector.identity(3))
    with pytest.raises(WidthMismatch):
        neomerge(Network(2, ()), Network(3, ()))


@given(st.data())
def test_ceomerge_preserves_parity(data):
    c1 = data.draw(connectors(max_width=6))
    c2 = data.draw(connectors(width=c1.width))
    merged = ceomerge(c1, c2)
    for i, j in enumerate(merged.link):
        assert i % 2 == j % 2


def test_neomerge_rejects_unequal_depths():
    with pytest.raises(SortnetError, match="depths 3 and 0"):
        neomerge(bsort(2), Network(4, ()))
    with pytest.raises(SortnetError, match="depths 0 and 3"):
        neomerge(Network(4, ()), bsort(2))
    merged = neomerge(bsort(2), bsort(2))
    assert (merged.width, merged.size) == (8, 3)


def test_neodup_preserves_size():
    assert neodup(Network(2, ())).size == 0
    net = Network(2, (cswap(0, 1, 2),))
    assert neodup(net).size == 1
    assert neodup(net).width == 4


@given(networks(max_width=4, max_depth=4))
def test_neodup_routes_even_and_odd_slices(net):
    doubled = neodup(net)
    for values in all_bool_tuples(doubled.width):
        out = doubled.apply(values)
        assert etake(out) == net.apply(etake(values))
        assert otake(out) == net.apply(otake(values))
