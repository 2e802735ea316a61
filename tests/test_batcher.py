"""The odd-even merge layer and the full merge-based sorter."""

import pytest

from conftest import all_bool_tuples
from sortnet.batcher import (
    batcher,
    batcher_merge,
    batcher_merge_rec,
)
from sortnet.combinators import cswap
from sortnet.core import Connector, Network
from sortnet.errors import Overflow, ZeroWidth
from sortnet.index import pow2
from sortnet.verify import check_sorting_exhaustive
from spec import count_false, etake, is_sorted, otake


def test_batcher_merge_links():
    assert batcher_merge(8).link == (0, 2, 1, 4, 3, 6, 5, 7)
    # Width 2: the only odd jump is clamped away, leaving the identity.
    assert batcher_merge(2) == Connector.identity(2)
    assert batcher_merge(4).link == (0, 2, 1, 3)
    with pytest.raises(ZeroWidth):
        batcher_merge(0)


def test_merge_rec_base_and_structure():
    assert batcher_merge_rec(0) == Network(1, ())
    assert batcher_merge_rec(1).layers == (cswap(0, 1, 2),)
    two = batcher_merge_rec(2)
    assert [c.pairs() for c in two.layers] == [
        [(0, 2, False), (1, 3, False)],
        [(1, 2, False)],
    ]


def test_merge_rec_size():
    for m in range(11):
        net = batcher_merge_rec(m)
        assert net.size == m
        assert net.width == pow2(m)


def test_batcher_base_case():
    assert batcher(1).layers == (cswap(0, 1, 2),)


def test_batcher_size():
    for m in range(11):
        net = batcher(m)
        assert net.size == m * (m + 1) // 2
        assert net.width == pow2(m)


def test_batcher_sorts_exhaustively():
    for m in range(5):
        assert check_sorting_exhaustive(batcher(m)).is_sorting


def test_batcher_guard():
    with pytest.raises(Overflow):
        batcher(31)
    with pytest.raises(Overflow):
        batcher_merge_rec(31)


def test_merge_layer_finishes_bounded_gaps():
    for half in range(1, 6):
        width = 2 * half
        layer = batcher_merge(width)
        hit = 0
        for t in all_bool_tuples(width):
            if not (is_sorted(etake(t)) and is_sorted(otake(t))):
                continue
            gap = count_false(etake(t)) - count_false(otake(t))
            if not 0 <= gap <= 2:
                continue
            hit += 1
            assert is_sorted(layer.apply(t))
        assert hit


def test_merge_network_sorts_two_sorted_halves():
    for m in range(1, 5):
        half = pow2(m - 1)
        net = batcher_merge_rec(m)
        halves = [
            (False,) * zeros + (True,) * (half - zeros) for zeros in range(half + 1)
        ]
        for top in halves:
            for bottom in halves:
                assert is_sorted(net.apply(top + bottom))
