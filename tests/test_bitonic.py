"""Bitonic predicate, decomposition, half-cleaners, and the two sorters."""

import itertools
import random

import pytest

from conftest import all_bool_tuples
from sortnet import bitonic
from sortnet.bitonic import (
    bfsort,
    bsort,
    half_cleaner,
    half_cleaner_rec,
    rhalf_cleaner,
    rhalf_cleaner_rec,
)
from sortnet.core import Network
from sortnet.errors import Overflow
from sortnet.index import pow2
from sortnet.verify import check_sorting_exhaustive, network_stats
from spec import BitonicDecomposition, bitonic_bool_decomp, is_bitonic, is_sorted


def rotation_split_bitonic(values):
    """Literal reference: scan every rotation and every split point."""
    s = tuple(values)
    n = len(s)
    for r in range(n + 1):
        rotated = s[r:] + s[:r]
        for cut in range(n + 1):
            if is_sorted(rotated[:cut]) and is_sorted(rotated[cut:], descending=True):
                return True
    return False


def three_run_decompositions(values):
    """Every (value, head, mid, tail) normal form matching the sequence."""
    s = tuple(bool(v) for v in values)
    n = len(s)
    found = []
    for value in (False, True):
        for head in range(n + 1):
            for mid in range(n + 1 - head):
                tail = n - head - mid
                if s == (value,) * head + (not value,) * mid + (value,) * tail:
                    found.append((value, head, mid, tail))
    return found


def bitonic_bool_tuples(width):
    """All bitonic boolean tuples of a width, filtered by the predicate."""
    return [t for t in all_bool_tuples(width) if is_bitonic(t)]


def sorted_bool_tuples(width):
    """All nondecreasing boolean tuples of a width."""
    return [
        (False,) * zeros + (True,) * (width - zeros) for zeros in range(width, -1, -1)
    ]


def test_is_bitonic_matches_literal_scan_on_booleans():
    for n in range(9):
        for t in all_bool_tuples(n):
            assert is_bitonic(t) == rotation_split_bitonic(t)


def test_is_bitonic_matches_literal_scan_on_integers():
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(0, 8)
        t = tuple(rng.randint(0, 3) for _ in range(n))
        assert is_bitonic(t) == rotation_split_bitonic(t)


def test_sorted_sequences_are_bitonic():
    assert is_bitonic(())
    assert is_bitonic((1, 2, 2, 5))
    assert is_bitonic((False, False, True))


def test_is_bitonic_examples():
    assert not is_bitonic((True, False, True, False))
    assert is_bitonic((False, False, True, True, False))


def test_decomposition_examples():
    assert bitonic_bool_decomp((False, True, False)) == BitonicDecomposition(
        False, 1, 1, 1
    )
    assert bitonic_bool_decomp((True, True, True)) == BitonicDecomposition(
        True, 3, 0, 0
    )
    assert bitonic_bool_decomp((True, False, True, False)) is None


def test_decomposition_reconstructs_and_is_canonical():
    for n in range(10):
        for t in all_bool_tuples(n):
            got = bitonic_bool_decomp(t)
            candidates = three_run_decompositions(t)
            if got is None:
                assert candidates == []
                continue
            assert got.to_tuple() == t
            assert got.length == n
            # Canonical choice: longest head, then longest middle.
            best = max(candidates, key=lambda c: (c[1], c[2], not c[0]))
            assert (got.value, got.head, got.mid, got.tail) == best


def test_predicate_agrees_with_decomposition():
    for n in range(13):
        for t in all_bool_tuples(n):
            assert is_bitonic(t) == (bitonic_bool_decomp(t) is not None)


def test_reverse_of_bitonic_is_bitonic():
    for n in range(11):
        for t in all_bool_tuples(n):
            assert is_bitonic(t) == is_bitonic(t[::-1])


def test_half_cleaner_links():
    assert half_cleaner(2).link == (2, 3, 0, 1)
    assert half_cleaner(1).link == (1, 0)
    assert half_cleaner(0).link == ()


def test_half_cleaner_flag_sets_every_flip():
    c = half_cleaner(3, flip=True)
    assert c.flip == (True,) * 6
    assert half_cleaner(3).flip == (False,) * 6


def test_rhalf_cleaner_links():
    assert rhalf_cleaner(4).link == (3, 2, 1, 0)
    assert rhalf_cleaner(2).link == (1, 0)
    assert rhalf_cleaner(5).link == (4, 3, 2, 1, 0)  # middle line self-linked


def test_half_cleaner_rec_structure():
    assert half_cleaner_rec(0) == Network(1, ())
    layers = half_cleaner_rec(2).layers
    assert [c.pairs() for c in layers] == [
        [(0, 2, False), (1, 3, False)],
        [(0, 1, False), (2, 3, False)],
    ]


def test_half_cleaner_rec_size():
    for m in range(11):
        assert half_cleaner_rec(m).size == m
        assert half_cleaner_rec(m).width == pow2(m)


def test_rhalf_cleaner_rec_structure():
    assert rhalf_cleaner_rec(0) == Network(1, ())
    assert [c.pairs() for c in rhalf_cleaner_rec(1).layers] == [[(0, 1, False)]]
    for m in range(11):
        assert rhalf_cleaner_rec(m).size == m


def test_half_cleaner_splits_bitonic_inputs():
    # One comparator layer pushes all disorder into a single half.
    for half in range(1, 6):
        for t in bitonic_bool_tuples(2 * half):
            out = half_cleaner(half).apply(t)
            top, bottom = out[:half], out[half:]
            ok_top = top == (False,) * half and is_bitonic(bottom)
            ok_bottom = bottom == (True,) * half and is_bitonic(top)
            assert ok_top or ok_bottom


def test_half_cleaner_rec_sorts_bitonic_inputs():
    for m in range(4):
        net = half_cleaner_rec(m)
        for t in bitonic_bool_tuples(pow2(m)):
            assert is_sorted(net.apply(t))


def test_half_cleaner_rec_sorts_bitonic_inputs_wide():
    # Width 16: enumerate the three-run family instead of filtering all 65536
    # tuples; each candidate is still checked against the rotation predicate,
    # and the family equals the predicate's extension at the widths above.
    net = half_cleaner_rec(4)
    seen = set()
    for value in (False, True):
        for head in range(17):
            for mid in range(17 - head):
                t = BitonicDecomposition(value, head, mid, 16 - head - mid).to_tuple()
                seen.add(t)
    for t in sorted(seen):
        assert is_bitonic(t)
        assert is_sorted(net.apply(t))


def test_three_run_family_is_exactly_the_bitonic_set():
    for n in range(11):
        family = {
            BitonicDecomposition(value, head, mid, n - head - mid).to_tuple()
            for value in (False, True)
            for head in range(n + 1)
            for mid in range(n + 1 - head)
        }
        assert family == set(bitonic_bool_tuples(n))


def test_rhalf_cleaner_rec_sorts_two_sorted_halves():
    for m in range(1, 5):
        half = pow2(m - 1)
        net = rhalf_cleaner_rec(m)
        for top in sorted_bool_tuples(half):
            for bottom in sorted_bool_tuples(half):
                assert is_sorted(net.apply(top + bottom))


def test_bsort_size():
    for m in range(11):
        assert bsort(m).size == m * (m + 1) // 2
        assert bsort(m).width == pow2(m)


def test_bsort_eight_lines_figure():
    stats = network_stats(bsort(3))
    assert stats.layers == 6
    assert stats.comparators == 24


def test_bsort_sorts_exhaustively():
    for m in range(5):
        report = check_sorting_exhaustive(bsort(m))
        assert report.is_sorting
        assert report.inputs_checked == 2 ** pow2(m)


def test_bsort_on_integers():
    rng = random.Random(11)
    for m in range(4):
        net = bsort(m)
        for _ in range(25):
            values = tuple(rng.randint(-99, 99) for _ in range(net.width))
            assert net.apply(values) == tuple(sorted(values))


def test_bfsort_size():
    for m in range(11):
        assert bfsort(False, m).size == m * (m + 1) // 2
        assert bfsort(True, m).size == m * (m + 1) // 2


def test_bfsort_false_sorts_exhaustively():
    for m in range(5):
        assert check_sorting_exhaustive(bfsort(False, m)).is_sorting


def test_bfsort_true_single_comparator():
    net = bfsort(True, 1)
    assert net.size == 1
    assert net.layers[0].pairs() == [(0, 1, True)]
    assert net.apply((False, True)) == (True, False)


def test_bfsort_true_sorts_descending():
    for m in range(4):
        net = bfsort(True, m)
        for t in all_bool_tuples(net.width):
            assert is_sorted(net.apply(t), descending=True)


def test_bfsort_builds_each_level_once(monkeypatch):
    # The opposite-orientation half is derived from the other half, not
    # rebuilt, so bfsort(flip, m) recurses once per level.
    calls = []
    original = bitonic.bfsort

    def counted(flip, m):
        calls.append(m)
        return original(flip, m)

    monkeypatch.setattr(bitonic, "bfsort", counted)
    for m in range(7):
        calls.clear()
        bitonic.bfsort(False, m)
        assert len(calls) == m + 1


def test_generators_reject_oversized_exponents():
    with pytest.raises(Overflow):
        bsort(31)
    with pytest.raises(Overflow):
        bfsort(False, 31)
    with pytest.raises(Overflow):
        half_cleaner_rec(31)
    with pytest.raises(Overflow):
        rhalf_cleaner_rec(31)
