"""Acceptance suite: one test per criterion, each printing a pass line.

All checks are exact combinatorial reproductions; the only tolerances are
the wall-clock budgets attached to the heavyweight enumerations, which
are asserted where stated.  Run with ``pytest tests/test_acceptance.py -v``
(add ``-s`` to see the pass lines as they print).
"""

import itertools
import random
import time

import pytest

from conftest import all_bool_tuples
from sortnet.batcher import batcher, batcher_merge, batcher_merge_rec
from sortnet.bitonic import bfsort, bsort, half_cleaner, half_cleaner_rec
from sortnet.cli import main, parse_text, render_text
from sortnet.core import Connector, Network
from sortnet.errors import (
    DegeneratePair,
    DuplicateLine,
    IndexOutOfRange,
    InvalidConnector,
    WidthMismatch,
)
from sortnet.index import pow2
from sortnet.knuth import ceswap, codd_jump, knuth_exchange, knuth_jump_rec, uphalf
from sortnet.verify import check_sorting_exhaustive, network_stats
from spec import (
    bitonic_bool_decomp,
    count_false,
    etake,
    is_bitonic,
    is_perm_of,
    is_sorted,
    map_values,
    otake,
    random_network,
)


def _ok(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def _sorters(m):
    return [
        ("bsort", bsort(m)),
        ("knuth", knuth_exchange(m)),
        ("batcher", batcher(m)),
        ("bfsort", bfsort(False, m)),
    ]


def _slices_sorted(t):
    return is_sorted(etake(t)) and is_sorted(otake(t))


def test_criterion_1_sorting_correctness():
    started = time.perf_counter()
    for m in range(1, 5):
        for name, net in _sorters(m):
            report = check_sorting_exhaustive(net)
            assert report.is_sorting, (name, m)
            assert report.inputs_checked == 2 ** pow2(m)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _ok(1, f"all four sorters sort every boolean input for m=1..4 ({elapsed:.2f}s)")


def test_criterion_2_size_closed_forms():
    for m in range(11):
        expected = m * (m + 1) // 2
        assert bsort(m).size == expected
        assert knuth_exchange(m).size == expected
        assert batcher(m).size == expected
        assert bfsort(False, m).size == expected
        assert half_cleaner_rec(m).size == m
    _ok(2, "layer counts match m(m+1)/2 (sorters) and m (half_cleaner_rec) for m=0..10")


def test_criterion_3_eight_line_figures():
    stats = network_stats(bsort(3))
    assert stats.layers == 6
    assert stats.comparators == 24
    assert knuth_exchange(3).size == 6
    assert batcher(3).size == 6
    _ok(3, "8-line networks: bsort has 6 layers / 24 comparators, knuth and batcher 6 layers")


def test_criterion_4_bitonic_characterization():
    started = time.perf_counter()
    checked = 0
    for n in range(15):
        for t in all_bool_tuples(n):
            checked += 1
            decomp = bitonic_bool_decomp(t)
            assert is_bitonic(t) == (decomp is not None)
            if decomp is not None:
                assert decomp.to_tuple() == t
    assert checked == 32767
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _ok(4, f"rotation predicate == three-run decomposition on all {checked} sequences of length <= 14 ({elapsed:.2f}s)")


def test_criterion_5_half_cleaner_split():
    for half in range(1, 7):
        hit = 0
        layer = half_cleaner(half)
        for t in all_bool_tuples(2 * half):
            if not is_bitonic(t):
                continue
            hit += 1
            out = layer.apply(t)
            top, bottom = out[:half], out[half:]
            clean_top = top == (False,) * half and is_bitonic(bottom)
            clean_bottom = bottom == (True,) * half and is_bitonic(top)
            assert clean_top or clean_bottom, t
        assert hit > 0
    _ok(5, "half-cleaner pushes all disorder into one half on every bitonic input up to width 12")


def test_criterion_6_slice_and_merge_property_suites():
    started = time.perf_counter()

    # Even-swap layer: slices stay sorted, even slice ends with >= falses.
    hits = 0
    for half in range(1, 7):
        width = 2 * half
        layer = ceswap(width)
        for t in all_bool_tuples(width):
            if not _slices_sorted(t):
                continue
            hits += 1
            t1 = layer.apply(t)
            assert _slices_sorted(t1)
            assert count_false(otake(t1)) <= count_false(etake(t1))
    assert hits > 0

    # Odd-jump layer: the false-count gap shrinks by exactly twice the
    # saturated overshoot past uphalf(k).
    hits = 0
    for half in range(1, 7):
        width = 2 * half
        for k in range(1, 14, 2):
            layer = codd_jump(k, width)
            for t in all_bool_tuples(width):
                if not _slices_sorted(t):
                    continue
                gap = count_false(etake(t)) - count_false(otake(t))
                if gap < 0 or gap > 2 * uphalf(k):
                    continue
                hits += 1
                moved = max(gap - uphalf(k), 0)
                t1 = layer.apply(t)
                assert _slices_sorted(t1)
                assert count_false(etake(t1)) == count_false(otake(t1)) + (
                    gap - 2 * moved
                )
    assert hits > 0

    # Interleave-sortedness: a gap of at most one means sorted outright.
    hits = 0
    for half in range(1, 7):
        for t in all_bool_tuples(2 * half):
            if not _slices_sorted(t):
                continue
            gap = count_false(etake(t)) - count_false(otake(t))
            if 0 <= gap <= 1:
                hits += 1
                assert is_sorted(t)
    assert hits > 0

    # Jump recursion closes any gap bounded by 2**k.
    hits = 0
    for half in range(1, 5):
        width = 2 * half
        for k in range(4):
            net = knuth_jump_rec(width, k, pow2(k) - 1)
            for t in all_bool_tuples(width):
                if not _slices_sorted(t):
                    continue
                gap = count_false(etake(t)) - count_false(otake(t))
                if 0 <= gap <= pow2(k):
                    hits += 1
                    assert is_sorted(net.apply(t))
    assert hits > 0

    # Single merge layer finishes gaps of at most two.
    hits = 0
    for half in range(1, 7):
        width = 2 * half
        layer = batcher_merge(width)
        for t in all_bool_tuples(width):
            if not _slices_sorted(t):
                continue
            gap = count_false(etake(t)) - count_false(otake(t))
            if 0 <= gap <= 2:
                hits += 1
                assert is_sorted(layer.apply(t))
    assert hits > 0

    # Merge network sorts any two sorted halves.
    hits = 0
    for m in range(1, 5):
        half = pow2(m - 1)
        net = batcher_merge_rec(m)
        halves = [
            (False,) * zeros + (True,) * (half - zeros)
            for zeros in range(half + 1)
        ]
        for top in halves:
            for bottom in halves:
                hits += 1
                assert is_sorted(net.apply(top + bottom))
    assert hits > 0

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _ok(6, f"all six slice/merge properties hold with zero violations up to width 12 ({elapsed:.2f}s)")


def test_criterion_7_zero_one_cross_check():
    rng = random.Random(20260810)
    for _ in range(100):
        width = rng.randint(1, 6)
        net = random_network(width, rng.randint(0, 6), rng)
        exhaustive = check_sorting_exhaustive(net).is_sorting
        permutations = all(
            is_sorted(net.apply(p))
            for p in itertools.permutations(range(width))
        )
        assert exhaustive == permutations
    _ok(7, "boolean-exhaustive verdict equals all-permutations verdict on 100 random networks")


def test_criterion_8_structural_invariants():
    rng = random.Random(8128)
    for _ in range(1000):
        width = rng.randint(0, 8)
        net = random_network(width, rng.randint(0, 6), rng)
        values = tuple(rng.randint(-1000, 1000) for _ in range(width))
        out = net.apply(values)
        assert is_perm_of(out, values)
        doubled = map_values(lambda x: 2 * x, values)
        assert net.apply(doubled) == map_values(lambda x: 2 * x, out)

    corpus = [
        (lambda: Connector.from_pairs(4, [(0, 9)]), IndexOutOfRange),
        (lambda: Connector.from_pairs(4, [(-1, 2)]), IndexOutOfRange),
        (lambda: Connector.from_pairs(0, [(0, 1)]), IndexOutOfRange),
        (lambda: Connector.from_pairs(4, [(2, 2)]), DegeneratePair),
        (lambda: Connector.from_pairs(4, [(0, 1), (1, 3)]), DuplicateLine),
        (lambda: Connector.from_pairs(4, [(0, 1), (0, 3)]), DuplicateLine),
        (lambda: Connector(3, (1, 2, 0), (False,) * 3), InvalidConnector),
        (lambda: Connector(2, (1, 0), (True, False)), InvalidConnector),
        (lambda: Connector(3, (0, 1), (False,) * 3), InvalidConnector),
        (lambda: Connector(2, (1, 2), (False, False)), InvalidConnector),
        (lambda: Connector(-1, (), ()), InvalidConnector),
        (lambda: Network(4, (Connector.identity(3),)), WidthMismatch),
    ]
    for build, error in corpus:
        with pytest.raises(error):
            build()
    _ok(8, "permutation and monotone-map invariants on 1000 seeded pairs; constructor rejects the whole negative corpus")


def test_criterion_9_cli_contract(tmp_path, capsys):
    builders = [
        bsort,
        knuth_exchange,
        batcher,
        lambda m: bfsort(False, m),
        lambda m: bfsort(True, m),
    ]
    for build in builders:
        for m in range(7):
            net = build(m)
            assert parse_text(render_text(net)) == net

    assert main(["verify", "bsort", "4", "--exhaustive"]) == 0
    assert main(["gen", "batcher", "3"]) == 0

    failing = tmp_path / "identity.snet"
    failing.write_text("snet 1 2\n")
    assert main(["verify", str(failing)]) == 1

    malformed = tmp_path / "malformed.snet"
    malformed.write_text("snet 1 4\nlayer: 0-7\n")
    assert main(["verify", str(malformed)]) == 2
    assert main(["gen", "bsort", "99"]) == 2

    capsys.readouterr()
    _ok(9, "round-trip identity for m<=6 and documented exit codes 0/1/2 observed")
