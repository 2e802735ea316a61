"""Sorting-property deciders, cross-checked against a plain per-tuple scan."""

import collections
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import networks_with_int_tuples
from sortnet import verify
from sortnet.batcher import batcher
from sortnet.bitonic import bfsort, bsort
from sortnet.cli import main, render_text
from sortnet.combinators import cswap, neomerge, nmerge
from sortnet.core import Connector, Network
from sortnet.errors import SortnetError, WidthTooLarge
from sortnet.knuth import knuth_exchange
from sortnet.verify import check_sorting_exhaustive, check_sorting_oracle, network_stats
from spec import (
    apply_spec,
    block_networks,
    check_sorting_oracle_spec,
    drop_mutants,
    flip_mutants,
    is_perm_of,
    is_sorted,
    map_values,
    odd_even_transposition,
    padded,
    random_block,
    random_connector,
    random_network,
)


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


def input_tuple(number, width):
    """The boolean tuple at position ``number`` in lexicographic order."""
    return tuple(bool(number >> (width - 1 - i) & 1) for i in range(width))


def assert_agrees_with_plain_scan(network):
    report = check_sorting_exhaustive(network)
    if network.width <= 10:
        first = scan_first_unsorted_input(network)
    else:  # the per-tuple scan is too slow here
        number = whole_lane_first_failure(network)
        first = None if number is None else input_tuple(number, network.width)
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


def generator_variants(m):
    """The five generated networks on ``2**m`` lines; one sorts descending."""
    return {
        "bsort": bsort(m),
        "bfsort": bfsort(False, m),
        "bfsort-flip": bfsort(True, m),
        "knuth": knuth_exchange(m),
        "batcher": batcher(m),
    }


def lane_network(width, layers):
    """The network that ``layers`` are on the lanes: a comparator's
    first-named line takes the minimum, or the maximum when flipped."""
    return Network(width, tuple(
        Connector.from_pairs(width, [
            (i, j, f) if i < j else (j, i, not f) for i, j, f in pairs
        ])
        for pairs in layers
    ))


def block_sub_network(layers, lines):
    """The prefix ``layers`` restricted to ``lines``, renamed ``0..c-1``
    in the order listed."""
    position = {line: p for p, line in enumerate(lines)}
    return lane_network(len(lines), [
        [(position[i], position[j], f) for i, j, f in pairs if i in position]
        for pairs in layers
    ])


def chain_order(layers, lines):
    """``lines`` listed from the last that their block's monotone inputs
    fill to the first, found by running those inputs through the block."""
    block, c = block_sub_network(layers, lines), len(lines)
    outputs = [block.apply((False,) * (c - d) + (True,) * d) for d in range(c + 1)]
    filled = [
        next(p for p in range(c) if outputs[d][p] and not outputs[d - 1][p])
        for d in range(1, c + 1)
    ]
    return [lines[p] for p in reversed(filled)]


def depends_on_count_only(network):
    """Whether boolean tuples with the same count of ones leave ``network``
    with the same output, by a plain scan."""
    outputs = {}
    for values in itertools.product((False, True), repeat=network.width):
        out = network.apply(values)
        if outputs.setdefault(sum(values), out) != out:
            return False
    return True


def sorts_per_tuple(network, descending=False):
    """Whether ``network`` sorts every boolean tuple, by a plain scan."""
    return all(
        is_sorted(network.apply(values), descending=descending)
        for values in itertools.product((False, True), repeat=network.width)
    )


def reduction_paths(network):
    """Which parts of the block reduction ``network`` takes."""
    layers = [layer.pairs() for layer in network.layers]
    cut, groups = verify._components(network.width, layers)
    blocks = verify._sorting_blocks(network.width, layers, {})[0]
    paths = set()
    if len(groups) < network.width == len(blocks):
        paths.add("decline")
    if len(blocks) < network.width:
        paths.add("reduced")
        if cut == network.size:
            paths.add("empty suffix")
        for lines in blocks:
            if len(lines) == 1:
                paths.add("single-line block")
            elif sorts_per_tuple(block_sub_network(layers[:cut], lines), descending=True):
                paths.add("descending block")
            elif chain_order(layers[:cut], lines) not in (lines, lines[::-1]):
                paths.add("relabelled block")
            if lines[-1] - lines[0] >= len(lines):
                paths.add("interleaved block")
        split = [lines for lines in groups if len(lines) > 1 and lines not in blocks]
        if split and any(len(lines) > 1 for lines in blocks):
            paths.add("split block")
    return paths


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
    for m in range(4):
        for network in generator_variants(m).values():
            assert_agrees_with_plain_scan(network)
            for mutant in flip_mutants(network):
                assert_agrees_with_plain_scan(mutant)
    for network in block_networks(chunk_bits):
        assert_agrees_with_plain_scan(network)


@pytest.mark.parametrize("m", range(5))
def test_generators_and_flip_mutants_match_plain_scan(m):
    sides = set()
    for network in generator_variants(m).values():
        assert_agrees_with_plain_scan(network)
        layers = [layer.pairs() for layer in network.layers]
        cut = verify._components(network.width, layers)[0]
        for mutant in flip_mutants(network):
            assert_agrees_with_plain_scan(mutant)
            changed = [a != b for a, b in zip(network.layers, mutant.layers)]
            sides.add("before cut" if changed.index(True) < cut else "after cut")
    # From m = 2 on, the flips fall on both sides of the cut.
    expected = [set(), {"after cut"}][m] if m < 2 else {"before cut", "after cut"}
    assert sides == expected


def test_generators_and_flip_mutants_above_the_guard():
    # At width 32 the plain scan cannot run, so the verdicts are held to
    # what can be checked at any width: a counterexample replays unsorted,
    # and seeded random inputs find no failure below it, or none at all
    # under "sorting".  Every one-flip mutant must fail; all 1102 of them
    # take a little over a second.
    rng = random.Random(32)
    variants = generator_variants(5)
    mutants = [
        (name, net) for name, network in variants.items() for net in flip_mutants(network)
    ]
    assert len(mutants) == 1102
    verdicts = {}
    for name, net in list(variants.items()) + mutants:
        first = verify._first_failure(32, [layer.pairs() for layer in net.layers], {})
        if net is variants[name]:
            verdicts[name] = first
        else:
            assert first is not None
        numbers = [rng.getrandbits(32) for _ in range(4)]
        if first is not None:
            assert not is_sorted(net.apply(input_tuple(first, 32)))
            numbers += [rng.randrange(first) for _ in range(4)]
        for number in numbers:
            failed = not is_sorted(net.apply(input_tuple(number, 32)))
            assert not failed or first is not None and number >= first
    assert verdicts == {
        "bsort": None, "bfsort": None, "bfsort-flip": 1, "knuth": None, "batcher": None,
    }


def test_block_networks_match_plain_scan():
    paths = set()
    for network in block_networks("default"):
        assert_agrees_with_plain_scan(network)
        paths |= reduction_paths(network)
    assert paths == {
        "decline", "reduced", "empty suffix", "descending block",
        "relabelled block", "single-line block", "interleaved block", "split block",
    }


def test_block_sorters_at_width_24_skip_the_plain_scan(monkeypatch):
    # Every product of blocks the lanes enumerate, by width and number of
    # elements: at width 24 only the block product may run, never the
    # 2**24 plain inputs.  No lane may outgrow a chunk.
    runs = []
    sorting_blocks, run = verify._sorting_blocks, verify._run

    def counted(width, layers, sorts):
        found = sorting_blocks(width, layers, sorts)
        runs.append((width, math.prod(len(lines) + 1 for lines in found[0])))
        return found

    def narrow(lanes, layers):
        assert max(lanes, default=0).bit_length() <= 1 << verify._CHUNK_BITS
        run(lanes, layers)

    monkeypatch.setattr(verify, "_sorting_blocks", counted)
    monkeypatch.setattr(verify, "_run", narrow)
    half, sorter = odd_even_transposition(12), odd_even_transposition(24)
    # Without comparator 2 of layer 5 the left half does not sort into its
    # chain order, so its twelve lines are blocks of their own beside the
    # sorting right half.  Without its last layer, the suffix leaves twelve
    # ones above twelve zeros unsorted, the input the plain scan meets first.
    layers = list(half.layers)
    pairs = layers[5].pairs()
    layers[5] = Connector.from_pairs(12, pairs[:2] + pairs[3:])
    broken = nmerge(Network(12, tuple(layers)), half)
    cases = (
        (sorter, 3**12, None),
        (nmerge(half, half) + sorter, 13**2, None),
        (broken + sorter, 13 * 2**12, None),
        (broken + Network(24, sorter.layers[:-1]), 13 * 2**12, (True,) * 12 + (False,) * 12),
    )
    for network, product, failing in cases:
        runs.clear()
        report = check_sorting_exhaustive(network)
        assert report.is_sorting == (failing is None)
        if failing is None:
            assert report.inputs_checked == 2**24
        else:
            assert report.counterexample.input == failing
            assert report.inputs_checked == 16_773_121
            assert network.apply(failing) == report.counterexample.output
        assert [size for width, size in runs if width == 24] == [product]


def test_non_sorter_whose_blocks_sort_fails_on_the_product_alone(monkeypatch):
    # Flipping the first layer's last comparator leaves twelve two-line
    # blocks that sort, {22, 23} descending.  The first failing input is
    # the lone zero on line 22: the flip sends it to line 23, which no
    # odd layer touches, and in the 22 layers left it cannot climb to
    # line 0.  That input lies in the last of the 128 chunks of plain
    # inputs; only the chunks of the 3**12 product may run.
    sorter = odd_even_transposition(24)
    first_layer = sorter.layers[0].pairs()[:-1] + [(22, 23, True)]
    mutant = Network(24, (Connector.from_pairs(24, first_layer),) + sorter.layers[1:])
    runs = []
    run = verify._run

    def counted(lanes, layers):
        if len(lanes) == 24:  # not a block's own check
            runs.append([pair for pairs in layers for pair in pairs])
        run(lanes, layers)

    monkeypatch.setattr(verify, "_run", counted)
    report = check_sorting_exhaustive(mutant)
    assert not report.is_sorting
    assert report.counterexample.input == (True,) * 22 + (False, True)
    assert report.inputs_checked == 2**24 - 2
    assert mutant.apply(report.counterexample.input) == report.counterexample.output
    assert not is_sorted(report.counterexample.output)
    chunk = 1
    while chunk * 3 <= 1 << verify._CHUNK_BITS:
        chunk *= 3
    # One chain run of the prefix, then chunks of the layers that run on
    # representatives: the suffix, after the prefix comparators of split
    # blocks, of which there are none here.
    layers = [layer.pairs() for layer in mutant.layers]
    cut = verify._components(24, layers)[0]
    prefix = [pair for pairs in layers[:cut] for pair in pairs]
    suffix = [pair for pairs in layers[cut:] for pair in pairs]
    assert 0 < len(runs) - 1 <= -(-(3**12) // chunk)
    assert runs == [prefix] + [suffix] * (len(runs) - 1)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_kept_blocks_run_no_prefix_comparator_on_a_chunk(monkeypatch, m):
    # Every block of a generated network sorts into its chain order, so
    # after the one chain run of the prefix, the network's own chunks run
    # the suffix alone.  Block checks further down are not counted.
    depth, runs = [], []
    first_failure, run = verify._first_failure, verify._run

    def nested(width, layers, sorts):
        depth.append(width)
        try:
            return first_failure(width, layers, sorts)
        finally:
            depth.pop()

    def counted(lanes, layers):
        if len(depth) == 1:
            runs.append([pair for pairs in layers for pair in pairs])
        run(lanes, layers)

    monkeypatch.setattr(verify, "_first_failure", nested)
    monkeypatch.setattr(verify, "_run", counted)
    for name, network in generator_variants(m).items():
        layers = [layer.pairs() for layer in network.layers]
        cut = verify._components(network.width, layers)[0]
        runs.clear()
        first = verify._first_failure(network.width, layers, {})
        assert (first is None) == (name != "bfsort-flip")
        prefix = [pair for pairs in layers[:cut] for pair in pairs]
        suffix = [pair for pairs in layers[cut:] for pair in pairs]
        assert prefix and suffix
        assert len(runs) > 1
        assert runs == [prefix] + [suffix] * (len(runs) - 1)


def components_by_copy(width, layers):
    """Reference for ``verify._components``: a union-find whose list is
    copied for each layer and kept while two components are left."""

    def root(parent, line):
        while parent[line] != line:
            line = parent[line]
        return line

    parent, count, cut = list(range(width)), width, 0
    for pairs in layers:
        trial, left = parent[:], count
        for i, j, _ in pairs:
            a, b = root(trial, i), root(trial, j)
            if a != b:
                trial[max(a, b)] = min(a, b)
                left -= 1
        if left < 2:
            break
        parent, count, cut = trial, left, cut + 1
    groups = {}
    for line in range(width):
        groups.setdefault(root(parent, line), []).append(line)
    return cut, list(groups.values())


def test_components_match_a_union_find_copied_per_layer():
    rng = random.Random(99)
    networks = block_networks(99) + [
        random_network(width, rng.randint(0, 6), rng)
        for width in range(13) for _ in range(6)
    ]
    networks += [Network(2, (cswap(0, 1, 2),)), odd_even_transposition(9)]
    networks += [generator_variants(m)["bfsort"] for m in range(5)]
    cuts = collections.Counter()
    for network in networks:
        layers = [layer.pairs() for layer in network.layers]
        cut, groups = verify._components(network.width, layers)
        assert (cut, groups) == components_by_copy(network.width, layers)
        # Where the first layer that would leave one component, and so is
        # undone, was met: first, after others, or nowhere.
        cuts["none" if cut == len(layers) else "first" if cut == 0 else "later"] += 1
    assert cuts.keys() == {"none", "first", "later"}


@pytest.mark.parametrize(
    "name, bound",
    [("bsort", 3), ("knuth", 3), ("batcher", 3), ("bfsort", 6), ("bfsort-flip", 6)],
    ids=["bsort", "knuth_exchange", "batcher", "bfsort", "bfsort-flip"],
)
def test_identical_blocks_are_decided_once(monkeypatch, name, bound):
    # ndup copies and neodup parity classes repeat a block, so each level
    # below the whole network needs one decision.  bfsort's blocks recur
    # at other levels too, which the one memo of a check catches.
    widths = []
    first_failure = verify._first_failure

    def counted(width, layers, sorts):
        widths.append(width)
        return first_failure(width, layers, sorts)

    monkeypatch.setattr(verify, "_first_failure", counted)
    report = check_sorting_exhaustive(generator_variants(4)[name])
    assert report.is_sorting == (name != "bfsort-flip")  # that one sorts descending
    assert widths[0] == 16
    assert len([width for width in widths[1:] if width > 1]) <= bound


def test_blocks_are_read_in_chain_order_and_kept_when_their_count_decides(monkeypatch):
    # The block sub-networks that _sorting_blocks hands to _first_failure,
    # not those decided further down the recursion.
    subs, active = [], []
    first_failure = verify._first_failure

    def captured(width, layers, sorts):
        if not active:
            subs.append(lane_network(width, layers))
        active.append(width)
        try:
            return first_failure(width, layers, sorts)
        finally:
            active.pop()

    monkeypatch.setattr(verify, "_first_failure", captured)
    rng = random.Random(2024)
    seen = collections.Counter()
    for _ in range(150):
        c = rng.randint(2, 8)
        a, b = random_block(rng, c), random_block(rng, c)
        depth = max(a.size, b.size)
        network = rng.choice([nmerge, neomerge])(padded(a, depth), padded(b, depth))
        layers = [layer.pairs() for layer in network.layers]
        cut, groups = verify._components(network.width, layers)
        blocks, block_subs, source = [], set(), list(range(network.width))
        split = []
        for lines in groups:
            order = chain_order(layers[:cut], lines)
            kept = depends_on_count_only(block_sub_network(layers[:cut], lines))
            sub = block_sub_network(layers[:cut], order)
            # A block's count of ones decides its output exactly when it
            # sorts into its chain order; otherwise it becomes its lines.
            assert sorts_per_tuple(sub) == kept
            block_subs.add(sub)
            if kept:
                blocks.append(lines)
                # The block's prefix output: its input in chain order.
                for line, start in zip(order, lines):
                    source[line] = start
            else:
                blocks += [[line] for line in lines]
                split += lines
            if len(lines) > 1:
                seen[
                    "split" if not kept
                    else "forwards" if order == lines
                    else "backwards" if order == lines[::-1]
                    else "relabelled"
                ] += 1
        subs.clear()
        found = verify._sorting_blocks(network.width, layers, {})
        assert found[:2] == (blocks, source)
        # Representatives run the split blocks' prefix comparators, then
        # the suffix.
        assert [pair for pairs in found[2] for pair in pairs] == [
            pair for pairs in layers[:cut] for pair in pairs if pair[0] in split
        ] + [pair for pairs in layers[cut:] for pair in pairs]
        assert set(subs) == block_subs
    assert seen.keys() == {"forwards", "backwards", "relabelled", "split"}


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


#: Flags that are not bools, with their truth: a flag is set when it is true.
FLAGS = {None: False, 0: False, "": False, 1: True, 2: True, "x": True}


def with_flags(network, rng):
    """``network`` with every flag replaced by one of ``FLAGS``: each
    comparator's by one of the same truth, each free line's by any."""
    layers = []
    for layer in network.layers:
        flip = [rng.choice(list(FLAGS)) for _ in range(network.width)]
        for i, j, flipped in layer.pairs():
            flip[i] = flip[j] = rng.choice([f for f in FLAGS if FLAGS[f] == flipped])
        layers.append(Connector(network.width, layer.link, flip))
    return Network(network.width, layers)


def assert_verdicts_agree_and_replay(network):
    """The exhaustive and the sampled verdicts agree, permutations deciding
    up to ``MAX_PERMUTATION_WIDTH``, and each counterexample replays."""
    reports = check_sorting_exhaustive(network), check_sorting_oracle(network, 0)
    assert reports[0].is_sorting == reports[1].is_sorting
    for report in reports:
        if not report.is_sorting:
            counterexample = report.counterexample
            assert network.apply(counterexample.input) == counterexample.output
            assert not is_sorted(counterexample.output)
    return reports[0]


@pytest.mark.parametrize("flag", list(FLAGS), ids=repr)
def test_a_comparator_flag_is_read_by_its_truth(flag):
    network = Network(2, [Connector(2, (1, 0), (flag, flag))])
    report = assert_verdicts_agree_and_replay(network)
    assert report.is_sorting is not FLAGS[flag]
    out = (1, 0) if FLAGS[flag] else (0, 1)
    assert network.apply((0, 1)) == network.apply((1, 0)) == out


def test_random_networks_read_their_flags_by_truth():
    rng = random.Random(21)
    for _ in range(60):
        width = rng.randint(0, 8)
        plain = random_network(width, rng.randint(0, 2 * width), rng)
        mixed = with_flags(plain, rng)
        assert_verdicts_agree_and_replay(mixed)
        assert check_sorting_exhaustive(mixed) == check_sorting_exhaustive(plain)
        oracle = check_sorting_oracle(mixed, 5, 1)
        assert oracle == check_sorting_oracle(plain, 5, 1)
        assert oracle == check_sorting_oracle_spec(mixed, 5, 1)


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
    # A negative count is refused, not read as a vacuous check.
    with pytest.raises(SortnetError, match="trials must be nonnegative, got -3"):
        check_sorting_oracle(bsort(4), -3)


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


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_matches_the_per_tuple_oracle(seed):
    # Widths up to 8 run every permutation before the random trials.
    rng = random.Random(seed)
    for width in range(11):
        trials = rng.randint(0, 30)
        for net in (
            random_network(width, rng.randint(0, 8), rng),
            odd_even_transposition(width),
        ):
            report = check_sorting_oracle(net, trials, seed)
            assert report == check_sorting_oracle_spec(net, trials, seed)


@pytest.mark.parametrize(
    "net",
    [bsort(3), bfsort(False, 3), bfsort(True, 3), knuth_exchange(3), batcher(3)],
    ids=["bsort", "bfsort", "bfsort-flip", "knuth", "batcher"],
)
def test_oracle_matches_the_per_tuple_oracle_on_generators(net):
    report = check_sorting_oracle(net, 30, 11)
    assert report == check_sorting_oracle_spec(net, 30, 11)


def test_oracle_matches_the_per_tuple_oracle_on_wide_drop_mutants():
    # A mutant missing one comparator fails few random tuples, so its
    # first failing tuple lies anywhere among the 100, often in the second
    # batch, and is the one the report must name.
    firsts = collections.Counter()
    for width in range(9, 13):
        for seed in range(3):
            for mutant in drop_mutants(odd_even_transposition(width)):
                report = check_sorting_oracle(mutant, 100, seed)
                assert report == check_sorting_oracle_spec(mutant, 100, seed)
                if not report.is_sorting:
                    firsts[report.inputs_checked > 1, report.inputs_checked > 64] += 1
    assert firsts[True, False] and firsts[True, True]


def small_oracle_corpus():
    """Networks of widths 0 to 8: the generated ones at m = 3 with their
    one-flip mutants, the one-drop mutants of two of them, and seeded
    random networks with and without a sorter after them, flags mixed."""
    rng = random.Random(26)
    yield Network(0, ())
    yield Network(1, ())
    for net in generator_variants(3).values():
        yield net
        yield from flip_mutants(net)
    yield from drop_mutants(bsort(3))
    yield from drop_mutants(batcher(3))
    for width in range(2, 9):
        prefix = random_network(width, rng.randint(0, 2 * width), rng)
        yield with_flags(prefix, rng)
        sorter = odd_even_transposition(width)
        yield with_flags(Network(width, prefix.layers + sorter.layers), rng)


def test_oracle_matches_the_per_tuple_oracle_on_small_sorters_and_mutants():
    # Sorters take the 0-1 check's verdict and every other network runs
    # the loop; the reports must not tell them apart.
    for index, net in enumerate(small_oracle_corpus()):
        trials = (0, 7, 30)[index % 3]
        report = check_sorting_oracle(net, trials, index)
        assert report == check_sorting_oracle_spec(net, trials, index)


def test_oracle_runs_no_tuple_through_a_small_sorter(monkeypatch):
    def refuse(network, lanes, count):
        raise AssertionError(f"a batch of {count} ran")

    monkeypatch.setattr(verify, "_run_packed", refuse)
    report = check_sorting_oracle(batcher(3), 100)
    assert report == verify.VerificationReport(
        width=8, inputs_checked=40320 + 100, mode="sampled", is_sorting=True,
        seed=0, trials=100,
    )
    # A network that fails, or is wider than 8, still runs its cases, in
    # batches up to the one holding the first that fails, and only that
    # one is replayed, once, through ``Network.apply``.
    monkeypatch.undo()
    run_packed, apply, batches, runs = verify._run_packed, Network.apply, [], []

    def count_cases(network, lanes, count):
        batches.append(count)
        return run_packed(network, lanes, count)

    def count_runs(network, values):
        runs.append(values)
        return apply(network, values)

    monkeypatch.setattr(verify, "_run_packed", count_cases)
    monkeypatch.setattr(Network, "apply", count_runs)
    mutant = next(drop_mutants(batcher(3)))
    report = check_sorting_oracle(mutant, 100)
    assert not report.is_sorting and report.inputs_checked == 5041
    assert sum(batches[:-1]) < 5041 <= sum(batches) and len(runs) == 1
    assert report == check_sorting_oracle_spec(mutant, 100)
    batches.clear()
    runs.clear()
    report = check_sorting_oracle(odd_even_transposition(9), 5)
    assert report.is_sorting and report.inputs_checked == 5
    assert batches == [5] and not runs


def test_oracle_runs_no_small_generated_sorter(monkeypatch):
    # The 0-1 check's verdict stands: no batch runs and nothing replays.
    def refuse(network, *args):
        raise AssertionError(f"width-{network.width} network ran")

    monkeypatch.setattr(verify, "_run_packed", refuse)
    monkeypatch.setattr(Network, "apply", refuse)
    for name, net in generator_variants(3).items():
        if name != "bfsort-flip":  # it sorts descending
            report = check_sorting_oracle(net, 20)
            assert report.is_sorting and report.inputs_checked == 40320 + 20


def test_oracle_reads_at_most_one_batch_ahead(monkeypatch):
    # The fields are read a batch at a time, just before the batch runs,
    # and the replay reads the fields up to the failing case's own.
    random_fields, run_packed, streams, runs = (
        verify._random_fields, verify._run_packed, [], []
    )

    def count_fields(rng):
        streams.append(0)
        for field in random_fields(rng):
            streams[-1] += 1
            yield field

    def count_runs(network, lanes, count):
        runs.append((streams[-1], count))
        return run_packed(network, lanes, count)

    monkeypatch.setattr(verify, "_random_fields", count_fields)
    monkeypatch.setattr(verify, "_run_packed", count_runs)
    assert check_sorting_oracle(odd_even_transposition(9), 200).is_sorting
    assert runs == [(9 * 64, 64), (9 * 128, 64), (9 * 192, 64), (9 * 200, 8)]
    assert streams == [9 * 200]
    streams.clear()
    runs.clear()
    mutant = list(drop_mutants(odd_even_transposition(10)))[1]
    report = check_sorting_oracle(mutant, 200)
    assert report == check_sorting_oracle_spec(mutant, 200)
    failing = report.inputs_checked - 1
    assert 64 <= failing < 128 and [count for _, count in runs] == [64, 64]
    assert streams == [10 * 128, (failing + 1) * 10]


def test_oracle_takes_any_number_of_trials(tmp_path, capsys):
    # ``trials * width`` fields may pass ``sys.maxsize``; the first random
    # tuple still fails a descending sorter.
    net = bfsort(True, 4)
    report = check_sorting_oracle(net, 10**30)
    assert not report.is_sorting and report.inputs_checked == 1
    path = tmp_path / "descending.snet"
    path.write_text(render_text(net))
    assert main(["verify", str(path), "--oracle", str(10**20)]) == 1
    captured = capsys.readouterr()
    assert "result: counterexample" in captured.out
    assert "Traceback" not in captured.out + captured.err


INT64_EXTREMES = (-(2**63), -1, 0, 2**63 - 1)


@settings(deadline=None)
@given(
    width=st.integers(0, 40),
    count=st.sampled_from([1, 63, 64, 65, 129]),
    kind=st.sampled_from(["random", "sorter", "mutant"]),
    constant=st.sampled_from([0, 62, 63, 64, 65, 127, 128]) | st.integers(0, 128),
    tied_share=st.sampled_from([0.0, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_runner_matches_per_case_evaluate(
    width, count, kind, constant, tied_share, seed
):
    # Constant tuples pass every network, so up to ``constant`` of them in
    # front move the first failing case across the batch edges.  The
    # values are 64-bit, from a small range with the extremes (ties) or not.
    rng = random.Random(seed)
    net = random_network(width, rng.randint(0, 6), rng)
    if kind != "random":
        sorter = odd_even_transposition(width)
        if kind == "mutant" and width > 1:
            sorter = rng.choice(list(drop_mutants(sorter)))
        net = Network(width, net.layers + sorter.layers)
    net = with_flags(net, rng)
    pool = INT64_EXTREMES + (1, 2)

    def value():
        if rng.random() < tied_share:
            return rng.choice(pool)
        return rng.randint(-(2**63), 2**63 - 1)

    cases = [(value(),) * width for _ in range(min(constant, count - 1))]
    cases += [tuple(value() for _ in range(width)) for _ in range(count - len(cases))]
    # The expected case comes from the spec's loop, not from
    # ``Network.apply``, whose loop has the packed runner's shape.
    expected = next(
        (k for k, case in enumerate(cases) if not is_sorted(apply_spec(net, case))),
        None,
    )
    fields = itertools.chain.from_iterable(map(verify._field, case) for case in cases)
    assert verify._first_unsorted(net, fields) == expected
    if expected is not None:
        assert not is_sorted(net.apply(cases[expected]))


def test_random_fields_follow_randint():
    # Half the draws are kept, so 2 * _DRAWS fields take about four refills.
    class CountingRandom(random.Random):
        refills = 0

        def getrandbits(self, k):
            self.refills += 1
            return super().getrandbits(k)

    for seed in range(20):
        expected, rng = random.Random(seed), CountingRandom(seed)
        fields = verify._random_fields(rng)
        for field in itertools.islice(fields, 2 * verify._DRAWS):
            value = int.from_bytes(field, "little") - 2**63
            assert value == expected.randint(-(2**63), 2**63 - 1)
        assert rng.refills >= 3


def test_oracle_draws_no_random_tuple_up_to_the_permutation_width(monkeypatch):
    # A network that fails a boolean input fails a permutation, so up to
    # width 8 the permutations name every counterexample and no random
    # tuple is drawn, not even for a network that fails.
    def refuse(seed):
        raise AssertionError(f"random.Random({seed}) was built")

    rng = random.Random(27)
    corpus = [*small_oracle_corpus()] + [
        random_network(width, rng.randint(0, 2 * width), rng)
        for width in range(9) for _ in range(6)
    ]
    failed = 0
    for index, net in enumerate(corpus):
        trials = (0, 7, 30)[index % 3]
        with monkeypatch.context() as patch:
            patch.setattr(verify.random, "Random", refuse)
            report = check_sorting_oracle(net, trials, index)
        assert report == check_sorting_oracle_spec(net, trials, index)
        if not report.is_sorting:
            failed += 1
            assert sorted(report.counterexample.input) == list(range(net.width))
            assert report.inputs_checked <= math.factorial(net.width)
    assert 0 < failed < len(corpus)


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
    rng = random.Random(4)
    for width in range(10):
        net = random_network(width, 4, rng)
        pairs = sum(len(layer.pairs()) for layer in net.layers)
        assert network_stats(net).comparators == pairs


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
