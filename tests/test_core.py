"""Connector and network semantics against the plain min/max reference rule."""

from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    all_bool_tuples,
    connectors,
    networks,
    networks_with_bool_tuples,
    networks_with_int_tuples,
)
from sortnet.bitonic import bsort, half_cleaner
from sortnet.combinators import cswap
from sortnet.core import Connector, Network, map_values
from sortnet.errors import (
    DegeneratePair,
    DuplicateLine,
    IndexOutOfRange,
    InvalidConnector,
    WidthMismatch,
)


def minmax_rule(link, values):
    """Reference semantics for unflipped connectors, written line by line:
    the lower end of every link takes the minimum, the upper the maximum."""
    out = []
    for i, j in enumerate(link):
        if i <= j:
            out.append(min(values[i], values[j]))
        else:
            out.append(max(values[i], values[j]))
    return tuple(out)


def test_from_pairs_single_pair():
    c = Connector.from_pairs(3, [(0, 2)])
    assert c.link == (2, 1, 0)
    assert c.flip == (False, False, False)


def test_from_pairs_empty_is_identity():
    c = Connector.from_pairs(2, [])
    assert c.link == (0, 1)
    assert c == Connector.identity(2)


def test_from_pairs_rejects_reused_line():
    with pytest.raises(DuplicateLine):
        Connector.from_pairs(4, [(0, 1), (0, 3)])


def test_from_pairs_rejects_self_pair():
    with pytest.raises(DegeneratePair):
        Connector.from_pairs(4, [(1, 1)])


def test_from_pairs_rejects_out_of_range():
    with pytest.raises(IndexOutOfRange):
        Connector.from_pairs(4, [(0, 5)])
    with pytest.raises(IndexOutOfRange):
        Connector.from_pairs(4, [(-1, 2)])
    with pytest.raises(IndexOutOfRange):
        Connector.from_pairs(0, [(0, 1)])


def test_from_pairs_order_insensitive():
    assert Connector.from_pairs(3, [(2, 0)]) == Connector.from_pairs(3, [(0, 2)])


def test_raw_constructor_rejects_broken_fields():
    with pytest.raises(InvalidConnector):
        Connector(3, (1, 2, 0), (False,) * 3)  # not an involution
    with pytest.raises(InvalidConnector):
        Connector(2, (1, 0), (True, False))  # flip differs across a pair
    with pytest.raises(InvalidConnector):
        Connector(3, (0, 1), (False,) * 3)  # wrong link length
    with pytest.raises(InvalidConnector):
        Connector(2, (1, 0), (False,))  # wrong flip length
    with pytest.raises(InvalidConnector):
        Connector(2, (1, 3), (False, False))  # link out of range
    with pytest.raises(InvalidConnector):
        Connector(-1, (), ())


def test_identity_connector_passes_through():
    values = (4, 1, 4, 0)
    assert Connector.identity(4).apply(values) == values


def test_apply_swap_example():
    values = (9, 4, 7)
    swap = cswap(0, 2, 3)
    expected = minmax_rule(swap.link, values)
    assert expected == (7, 4, 9)
    assert swap.apply(values) == expected


def test_apply_half_cleaner_example():
    c = half_cleaner(4)
    values = (0, 0, 1, 1, 1, 1, 0, 0)
    expected = minmax_rule(c.link, values)
    assert expected == (0, 0, 0, 0, 1, 1, 1, 1)
    assert c.apply(values) == expected


def test_apply_rejects_wrong_length():
    with pytest.raises(WidthMismatch):
        Connector.identity(3).apply((1, 2))
    with pytest.raises(WidthMismatch):
        Network(3, ()).apply((1, 2, 3, 4))


def test_flip_reverses_the_comparator():
    flipped = Connector.from_pairs(2, [(0, 1, True)])
    assert flipped.apply((False, True)) == (True, False)
    assert flipped.apply((3, 9)) == (9, 3)
    assert flipped.apply((9, 3)) == (9, 3)


@given(connectors(max_width=8, allow_flips=False))
def test_unflipped_apply_matches_minmax_rule(c):
    for values in all_bool_tuples(c.width):
        assert c.apply(values) == minmax_rule(c.link, values)


def test_empty_network_is_identity():
    assert Network(2, ()).apply((3, 1)) == (3, 1)


@given(connectors(max_width=8), st.data())
def test_single_layer_network_equals_connector(c, data):
    values = tuple(
        data.draw(st.lists(st.integers(-50, 50), min_size=c.width, max_size=c.width))
    )
    assert Network(c.width, (c,)).apply(values) == c.apply(values)


def test_network_sorts_like_builtin_sorted():
    values = (3, 1, 0, 2)
    assert bsort(2).apply(values) == tuple(sorted(values))


def test_network_rejects_mismatched_layer():
    with pytest.raises(WidthMismatch):
        Network(4, (Connector.identity(3),))


def test_network_concatenation_checks_width():
    with pytest.raises(WidthMismatch):
        Network(2, ()) + Network(3, ())


def test_map_values_examples():
    assert map_values(lambda x: 2 * x, (1, 3, 2)) == (2, 6, 4)
    assert map_values(lambda x: x, (5, 1)) == (5, 1)
    assert map_values(int, (True, False)) == (1, 0)


@given(connectors(max_width=8), st.data())
def test_connector_output_is_a_permutation(c, data):
    values = tuple(
        data.draw(st.lists(st.integers(-9, 9), min_size=c.width, max_size=c.width))
    )
    assert Counter(c.apply(values)) == Counter(values)


@given(networks_with_int_tuples())
def test_network_output_is_a_permutation(net_values):
    net, values = net_values
    assert Counter(net.apply(values)) == Counter(values)


@given(networks_with_int_tuples())
def test_monotone_map_commutes_over_ints(net_values):
    net, values = net_values
    double = lambda x: 2 * x  # noqa: E731
    assert map_values(double, net.apply(values)) == net.apply(map_values(double, values))


@given(networks_with_bool_tuples())
def test_monotone_map_commutes_bool_to_int(net_values):
    net, values = net_values
    assert map_values(int, net.apply(values)) == net.apply(map_values(int, values))


@given(networks())
def test_identity_layers_change_nothing(net):
    identity_net = Network(net.width, (Connector.identity(net.width),) * net.size)
    values = tuple(range(net.width))
    assert identity_net.apply(values) == values


def test_package_root_exports_the_core_only():
    import sortnet

    assert sorted(sortnet.__all__) == sorted(
        ["Connector", "Network", "VerificationReport", "Counterexample", "NetworkStats"]
        + ["bsort", "bfsort", "knuth_exchange", "batcher"]
        + ["check_sorting_exhaustive", "check_sorting_oracle", "network_stats"]
        + ["SortnetError", "IndexOutOfRange", "DuplicateLine", "DegeneratePair"]
        + ["InvalidConnector", "WidthMismatch", "ZeroWidth", "Overflow"]
        + ["WidthTooLarge"]
    )
    for name in sortnet.__all__:
        assert getattr(sortnet, name).__name__ == name
