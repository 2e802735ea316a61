"""Sorting-property deciders, cross-checked against a plain per-tuple scan."""

import itertools
import random
import tracemalloc

import pytest
from hypothesis import given

from conftest import networks_with_int_tuples
from sortnet import verify
from sortnet.batcher import batcher
from sortnet.bitonic import bfsort, bsort
from sortnet.combinators import cswap, nmerge
from sortnet.core import Connector, Network
from sortnet.errors import WidthTooLarge
from sortnet.knuth import knuth_exchange
from sortnet.verify import check_sorting_exhaustive, check_sorting_oracle, network_stats
from spec import is_perm_of, is_sorted, map_values, random_connector, random_network


def scan_first_unsorted_input(network):
    """Reference for the exhaustive check: plain loop over all boolean
    tuples in lexicographic order, returning the first unsorted one."""
    for values in itertools.product((False, True), repeat=network.width):
        if not is_sorted(network.apply(values)):
            return values
    return None


def input_number(values):
    """Position of a boolean tuple in lexicographic order."""
    return sum(bit << (len(values) - 1 - i) for i, bit in enumerate(values))


def assert_agrees_with_plain_scan(network):
    report = check_sorting_exhaustive(network)
    first = scan_first_unsorted_input(network)
    assert report.mode == "exhaustive"
    if first is None:
        assert report.is_sorting
        assert report.inputs_checked == 2**network.width
        assert report.counterexample is None
    else:
        assert not report.is_sorting
        assert report.counterexample.input == first
        assert report.inputs_checked == input_number(first) + 1
        # Reproducible: re-running the network confirms the failure.
        out = network.apply(report.counterexample.input)
        assert out == report.counterexample.output
        assert not is_sorted(out)


def whole_lane_first_failure(network):
    """The exhaustive evaluator without chunks, as a reference: one lane
    of all ``2**width`` inputs per line.  Returns the number of the first
    unsorted input, or None."""
    width = network.width
    lanes = []
    for i in range(width):
        run = 1 << (width - 1 - i)  # bit b is line i's value for input b
        lanes.append(int(("1" * run + "0" * run) * (1 << i), 2))
    for layer in network.layers:
        for i, j, flipped in layer.pairs():
            lo, hi = lanes[i] & lanes[j], lanes[i] | lanes[j]
            lanes[i], lanes[j] = (hi, lo) if flipped else (lo, hi)
    violations = 0
    for i in range(width - 1):
        violations |= lanes[i] & ~lanes[i + 1]
    if violations == 0:
        return None
    return (violations & -violations).bit_length() - 1


def odd_even_transposition(width):
    """``width`` alternating layers of neighbour comparators; a sorter."""
    return Network(width, tuple(
        Connector.from_pairs(width, [(i, i + 1) for i in range(t % 2, width - 1, 2)])
        for t in range(width)
    ))


def flip_mutants(network):
    """Every network that differs from ``network`` in one comparator's flag."""
    for t, layer in enumerate(network.layers):
        pairs = layer.pairs()
        for k, (i, j, flipped) in enumerate(pairs):
            changed = pairs[:k] + [(i, j, not flipped)] + pairs[k + 1:]
            layers = list(network.layers)
            layers[t] = Connector.from_pairs(network.width, changed)
            yield Network(network.width, tuple(layers))


def sorts_all_permutations(network):
    return all(
        is_sorted(network.apply(p))
        for p in itertools.permutations(range(network.width))
    )


def test_is_sorted_examples():
    assert is_sorted((1, 2, 2, 5))
    assert is_sorted(())
    assert not is_sorted((2, 1))
    assert is_sorted((5, 3, 3, 1), descending=True)
    assert not is_sorted((1, 2), descending=True)


def test_is_perm_of_examples():
    assert is_perm_of((1, 2, 2), (2, 1, 2))
    assert not is_perm_of((1,), (1, 1))
    assert is_perm_of((), ())


def test_exhaustive_empty_network_counterexample():
    report = check_sorting_exhaustive(Network(2, ()))
    assert not report.is_sorting
    assert report.counterexample.input == (True, False)
    assert report.counterexample.output == (True, False)
    assert report.inputs_checked == 3  # (F,F), (F,T), then the failure


def test_exhaustive_single_swap_sorts_two_lines():
    report = check_sorting_exhaustive(Network(2, (cswap(0, 1, 2),)))
    assert report.is_sorting
    assert report.inputs_checked == 4
    assert report.mode == "exhaustive"


def test_exhaustive_bsort3():
    report = check_sorting_exhaustive(bsort(3))
    assert report.is_sorting
    assert report.inputs_checked == 256


def test_exhaustive_zero_width():
    assert check_sorting_exhaustive(Network(0, ())).is_sorting


def test_exhaustive_guard():
    with pytest.raises(WidthTooLarge):
        check_sorting_exhaustive(Network(25, ()))


def test_exhaustive_matches_plain_scan_on_random_networks():
    rng = random.Random(42)
    for _ in range(80):
        width = rng.randint(0, 8)
        assert_agrees_with_plain_scan(random_network(width, rng.randint(0, 6), rng))


@pytest.mark.parametrize("chunk_bits", range(5))
def test_exhaustive_matches_plain_scan_across_chunks(monkeypatch, chunk_bits):
    # Chunks of 1 to 16 inputs put chunk boundaries between the failures.
    monkeypatch.setattr(verify, "_CHUNK_BITS", chunk_bits)
    rng = random.Random(chunk_bits)
    for width in range(10):
        for _ in range(4):
            assert_agrees_with_plain_scan(random_network(width, rng.randint(0, 2 * width), rng))
    for make in (bsort, knuth_exchange, batcher):
        for m in range(4):
            assert_agrees_with_plain_scan(make(m))
            for mutant in flip_mutants(make(m)):
                assert_agrees_with_plain_scan(mutant)


def test_exhaustive_matches_whole_lane_evaluator_at_width_18():
    sorter = odd_even_transposition(18)
    assert whole_lane_first_failure(sorter) is None
    assert check_sorting_exhaustive(sorter).inputs_checked == 2**18
    chunks = set()
    for net in list(flip_mutants(sorter))[::6]:
        first = whole_lane_first_failure(net)
        report = check_sorting_exhaustive(net)
        assert report.inputs_checked == first + 1
        assert input_number(report.counterexample.input) == first
        assert net.apply(report.counterexample.input) == report.counterexample.output
        chunks.add(first >> verify._CHUNK_BITS)
    assert len(chunks) > 1


@pytest.mark.parametrize("width", sorted({17, verify._CHUNK_BITS + 1}))
def test_first_failure_opens_a_chunk(width):
    # Lines 1.. are sorted and line 0 is never touched, so every input
    # with line 0 False passes and the first one with line 0 True fails.
    below = odd_even_transposition(width - 1)
    net = nmerge(Network(1, (Connector.identity(1),) * below.size), below)
    report = check_sorting_exhaustive(net)
    assert report.inputs_checked == 2 ** (width - 1) + 1
    assert report.counterexample.input == (True,) + (False,) * (width - 1)
    assert report.counterexample.output == report.counterexample.input


def test_exhaustive_early_failure_at_width_24():
    net = random_network(24, 60, random.Random(0))
    tracemalloc.start()
    try:
        report = check_sorting_exhaustive(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.inputs_checked == 2
    assert net.apply(report.counterexample.input) == report.counterexample.output
    # One lane of all 2**24 inputs alone would take 2 MB.
    assert peak < 1 << 20


def test_oracle_runs_all_permutations_on_small_widths():
    report = check_sorting_oracle(batcher(2), trials=0)
    assert report.is_sorting
    assert report.inputs_checked == 24
    assert report.mode == "sampled"


def test_oracle_finds_identity_counterexample():
    report = check_sorting_oracle(Network(3, ()), trials=0)
    assert not report.is_sorting
    assert not is_sorted(report.counterexample.output)


def test_oracle_vacuous_beyond_permutation_width():
    report = check_sorting_oracle(Network(9, ()), trials=0)
    assert report.is_sorting
    assert report.inputs_checked == 0


def test_oracle_random_trials_catch_wide_identity():
    report = check_sorting_oracle(Network(9, ()), trials=20, seed=5)
    assert not report.is_sorting
    assert is_perm_of(report.counterexample.output, report.counterexample.input)


def test_oracle_is_deterministic_per_seed():
    rng = random.Random(3)
    net = random_network(7, 3, rng)
    first = check_sorting_oracle(net, trials=50, seed=123)
    second = check_sorting_oracle(net, trials=50, seed=123)
    assert first == second


def test_zero_one_principle_on_random_networks():
    # Boolean exhaustive verdict must equal the all-permutations verdict.
    rng = random.Random(99)
    for _ in range(30):
        width = rng.randint(1, 6)
        net = random_network(width, rng.randint(0, 6), rng)
        assert check_sorting_exhaustive(net).is_sorting == sorts_all_permutations(net)


@given(networks_with_int_tuples())
def test_outputs_are_permutations(net_values):
    net, values = net_values
    assert is_perm_of(net.apply(values), values)


@given(networks_with_int_tuples())
def test_monotone_transport_spot_check(net_values):
    net, values = net_values
    doubled = map_values(lambda x: 2 * x, values)
    assert net.apply(doubled) == map_values(lambda x: 2 * x, net.apply(values))


def test_generated_networks_permute_and_transport():
    rng = random.Random(17)
    for m in range(4):
        nets = (bsort(m), knuth_exchange(m), batcher(m), bfsort(False, m))
        for net in nets:
            for _ in range(25):
                values = tuple(rng.randint(-1000, 1000) for _ in range(net.width))
                out = net.apply(values)
                assert is_perm_of(out, values)
                doubled = map_values(lambda x: 2 * x, values)
                assert net.apply(doubled) == map_values(lambda x: 2 * x, out)


def test_network_stats_examples():
    stats = network_stats(bsort(3))
    assert stats.layers == 6
    assert stats.comparators == 24
    empty = network_stats(Network(5, ()))
    assert empty.layers == 0
    assert empty.comparators == 0


def test_random_connector_is_valid_and_varied():
    rng = random.Random(1)
    saw_pair = saw_flip = False
    for _ in range(100):
        c = random_connector(8, rng)
        assert isinstance(c, Connector)  # constructor revalidated invariants
        if any(i != j for i, j in enumerate(c.link)):
            saw_pair = True
        if any(c.flip):
            saw_flip = True
    assert saw_pair and saw_flip
