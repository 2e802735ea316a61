"""Even/odd slicing, the swap and jump connectors, and the exchange sorter."""

import pytest

from conftest import all_bool_tuples
from sortnet.core import Connector, Network
from sortnet.errors import Overflow, ZeroWidth
from sortnet.index import pow2
from sortnet.knuth import (
    ceswap,
    codd_jump,
    count_false,
    etake,
    knuth_exchange,
    knuth_jump_rec,
    otake,
    uphalf,
)
from sortnet.verify import check_sorting_exhaustive, is_sorted


def slices_sorted(t):
    return is_sorted(etake(t)) and is_sorted(otake(t))


def test_etake_otake_examples():
    assert etake("abcde") == ("a", "c", "e")
    assert otake("abcd") == ("b", "d")
    assert etake(()) == ()
    assert otake(()) == ()


def test_count_false_examples():
    assert count_false((False, False, True)) == 2
    assert count_false(()) == 0
    assert count_false((True, True)) == 0


def test_uphalf():
    assert uphalf(0) == 0
    assert uphalf(1) == 1
    assert uphalf(3) == 2
    assert uphalf(7) == 4
    for n in range(50):
        assert uphalf(n) == (n + 1) // 2


def test_ceswap_links():
    assert ceswap(4).link == (1, 0, 3, 2)
    assert ceswap(5).link == (1, 0, 3, 2, 4)  # last even line unconnected
    assert ceswap(2).link == (1, 0)
    with pytest.raises(ZeroWidth):
        ceswap(0)


def test_codd_jump_even_jump_is_identity():
    for k in (0, 2, 4, 10):
        assert codd_jump(k, 8) == Connector.identity(8)


def test_codd_jump_links():
    assert codd_jump(3, 8).link == (0, 4, 2, 6, 1, 5, 3, 7)
    assert codd_jump(1, 4).link == (0, 2, 1, 3)
    with pytest.raises(ZeroWidth):
        codd_jump(1, 0)


def test_codd_jump_rejects_negative_odd_jumps():
    # Negative even jumps are rejected as well, not read as the identity.
    for k in (-1, -2, -4):
        with pytest.raises(ValueError):
            codd_jump(k, 8)


def test_codd_jump_always_involutive():
    # The constructor would raise if the link map were not an involution.
    for width in range(1, 65):
        for k in range(65):
            codd_jump(k, width)


def test_knuth_jump_rec_layer_count_and_jumps():
    assert knuth_jump_rec(8, 0, 5).size == 0
    net = knuth_jump_rec(16, 3, 7)
    assert net.size == 3
    assert net.layers == (codd_jump(7, 16), codd_jump(3, 16), codd_jump(1, 16))


def test_knuth_exchange_base_case():
    net = knuth_exchange(1)
    assert net.layers == (ceswap(2),)


def test_knuth_exchange_size():
    for m in range(11):
        net = knuth_exchange(m)
        assert net.size == m * (m + 1) // 2
        assert net.width == pow2(m)


def test_knuth_exchange_sorts_exhaustively():
    for m in range(5):
        assert check_sorting_exhaustive(knuth_exchange(m)).is_sorting


def test_knuth_exchange_guard():
    with pytest.raises(Overflow):
        knuth_exchange(31)


def test_eswap_keeps_slices_sorted_and_orders_false_counts():
    for half in range(1, 6):
        width = 2 * half
        layer = ceswap(width)
        hit = 0
        for t in all_bool_tuples(width):
            if not slices_sorted(t):
                continue
            hit += 1
            t1 = layer.apply(t)
            assert slices_sorted(t1)
            assert count_false(otake(t1)) <= count_false(etake(t1))
        assert hit


def test_odd_jump_moves_false_counts_predictably():
    for half in range(1, 6):
        width = 2 * half
        for k in range(1, 14, 2):
            layer = codd_jump(k, width)
            for t in all_bool_tuples(width):
                if not slices_sorted(t):
                    continue
                gap = count_false(etake(t)) - count_false(otake(t))
                if gap < 0 or gap > 2 * uphalf(k):
                    continue
                moved = max(gap - uphalf(k), 0)
                t1 = layer.apply(t)
                assert slices_sorted(t1)
                assert count_false(etake(t1)) == count_false(otake(t1)) + (
                    gap - 2 * moved
                )


def test_sorted_slices_with_tight_gap_mean_sorted():
    for half in range(1, 6):
        for t in all_bool_tuples(2 * half):
            if not slices_sorted(t):
                continue
            gap = count_false(etake(t)) - count_false(otake(t))
            if 0 <= gap <= 1:
                assert is_sorted(t)


def test_jump_recursion_closes_bounded_gaps():
    for half in range(1, 5):
        width = 2 * half
        for k in range(4):
            net = knuth_jump_rec(width, k, pow2(k) - 1)
            for t in all_bool_tuples(width):
                if not slices_sorted(t):
                    continue
                gap = count_false(etake(t)) - count_false(otake(t))
                if 0 <= gap <= pow2(k):
                    assert is_sorted(net.apply(t))
