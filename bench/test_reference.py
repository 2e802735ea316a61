"""Tests of the benchmark's own reference and output checks.

Run with ``python3 -m pytest bench``.  Apart from the tracer test, nothing
here imports ``sortnet``: these tests pin the yardstick, not the program.
"""

import os
import random
import sys

import pytest

import reference as ref
import workloads

# The README's `sortnet gen bsort 2`, worked by hand.
BSORT2 = "snet 1 4\nlayer: 0-1 2-3\nlayer: 0-3 1-2\nlayer: 0-1 2-3\n"
# Compares lines 0-1, then 1-2: input 1,1,0 leaves 1,0,1.  Of the eight
# boolean inputs in order 000, 001, ..., 111, that is number 6 (binary
# 110), the first one left unsorted.
NON_SORTER3 = "snet 1 3\nlayer: 0-1\nlayer: 1-2\n"


def brute_first_counterexample(width, layers):
    for number in range(1 << width):
        out = ref.apply(layers, ref.bool_input(number, width))
        if out != sorted(out):
            return number
    return None


def test_bsort2_by_hand():
    width, layers = ref.parse_snet(BSORT2)
    assert width == 4
    assert layers == [[(0, 1, False), (2, 3, False)], [(0, 3, False), (1, 2, False)],
                      [(0, 1, False), (2, 3, False)]]
    assert ref.apply(layers, [3, 1, 0, 2]) == [0, 1, 2, 3]
    assert ref.sorts_all_booleans(width, layers)
    assert ref.first_counterexample(width, layers) is None
    assert ref.render_snet(width, layers) == BSORT2


def test_three_line_non_sorter_by_hand():
    width, layers = ref.parse_snet(NON_SORTER3)
    assert ref.apply(layers, [1, 1, 0]) == [1, 0, 1]
    assert ref.apply(layers, [3, 2, 1]) == [2, 1, 3]
    assert not ref.sorts_all_booleans(width, layers)
    assert ref.first_counterexample(width, layers) == 6
    assert ref.bool_input(6, 3) == (1, 1, 0)


def test_flipped_comparator_sends_the_maximum_up():
    width, layers = ref.parse_snet("snet 1 2\nlayer: 0-1!\n")
    assert layers == [[(0, 1, True)]]
    assert ref.apply(layers, [1, 2]) == [2, 1]
    assert ref.apply(layers, [2, 1]) == [2, 1]
    assert ref.sorts_all_booleans(width, layers, descending=True)
    assert not ref.sorts_all_booleans(width, layers)


@pytest.mark.parametrize("text", [
    "", "snet 2 4\n", "snet 1 4\nlayer: 0-4\n", "snet 1 4\nlayer: 0-1 1-2\n",
    "snet 1 4\nlayer: 2-2\n", "snet 1 4\nlayer: 0-²\n", "snet 1 4\nlayers: 0-1\n",
])
def test_parse_refuses_malformed_text(text):
    with pytest.raises(ValueError):
        ref.parse_snet(text)


def test_constructions_sort():
    for n in range(1, 13):
        assert ref.sorts_all_booleans(n, ref.odd_even_transposition(n)), n
        assert ref.sorts_all_booleans(n, ref.merge_exchange(n)), n
    for n in range(9, 17):
        assert ref.sorts_all_booleans(n, ref.block_sorter(n, block=8)), n


def test_block_sorter_prefix_stays_inside_the_blocks():
    layers = ref.block_sorter(20)
    prefix = len(ref.merge_exchange(16))
    for layer in layers[:prefix]:
        assert all((lo < 16) == (hi < 16) for lo, hi, _ in layer)


def test_verdicts_agree_with_brute_force():
    rng = random.Random(5)
    for _ in range(60):
        width = rng.randint(2, 8)
        layers = [
            [(a, b, rng.random() < 0.2) for a, b in _matching(rng, width)]
            for _ in range(rng.randint(0, 8))
        ]
        expected = brute_first_counterexample(width, layers)
        assert ref.first_counterexample(width, layers) == expected
        assert ref.first_counterexample(width, layers, chunk_bits=width - 1) == expected
        assert ref.sorts_all_booleans(width, layers) == (expected is None)


def _matching(rng, width):
    lines = list(range(width))
    rng.shuffle(lines)
    count = rng.randint(0, width // 2)
    return [tuple(sorted(lines[2 * t:2 * t + 2])) for t in range(count)]


def test_closed_forms_by_hand():
    assert workloads.expected_comparators("bsort", 2) == 6
    assert workloads.expected_comparators("batcher", 2) == 5
    assert workloads.expected_comparators("knuth", 3) == 19
    # bfsort(False, 2): the lower half sorts descending (1 flipped), the
    # final half-cleaners are plain; bfsort(True, 2) flips the other 5.
    assert workloads.expected_flipped("bfsort", 2, False) == 1
    assert workloads.expected_flipped("bfsort", 2, True) == 5
    assert workloads.expected_flipped("bsort", 5, False) == 0


# Each workload's check must pass the right output and fail a wrong one.


def _gen_op(tmp_path, text, fmt="text", algo="bsort", m=2, flip=False):
    path = tmp_path / f"out.{fmt}"
    path.write_text(text, encoding="utf-8")
    check = {"type": f"gen-{fmt}", "path": str(path), "algo": algo, "m": m, "flip": flip,
             "tuples": [[5, -3, 9, 0]]}
    return {"label": "test", "check": check}


def test_gen_text_check(tmp_path):
    assert workloads.check_output(_gen_op(tmp_path, BSORT2), 0, "", "")
    wrong = BSORT2.replace("layer: 0-3 1-2", "layer: 0-2 1-3")
    assert not workloads.check_output(_gen_op(tmp_path, wrong), 0, "", "")
    assert not workloads.check_output(_gen_op(tmp_path, BSORT2, flip=True), 0, "", "")
    assert not workloads.check_output(_gen_op(tmp_path, BSORT2), 2, "", "")
    missing = _gen_op(tmp_path, BSORT2)
    missing["check"]["path"] = str(tmp_path / "not-written.txt")
    assert not workloads.check_output(missing, 0, "", "")


def _svg(links, arrows=0, wires=4):
    rows = ['<svg xmlns="http://www.w3.org/2000/svg">']
    rows += ['<line class="wire"/>'] * wires
    rows += ['<line class="link" marker-end="url(#a)"/>'] * arrows
    rows += ['<line class="link"/>'] * (links - arrows)
    return "\n".join(rows + ["</svg>"])


def test_gen_svg_check(tmp_path):
    assert workloads.check_output(_gen_op(tmp_path, _svg(6), "svg"), 0, "", "")
    assert not workloads.check_output(_gen_op(tmp_path, _svg(5), "svg"), 0, "", "")
    assert not workloads.check_output(_gen_op(tmp_path, _svg(6, arrows=1), "svg"), 0, "", "")
    assert not workloads.check_output(_gen_op(tmp_path, "<svg", "svg"), 0, "", "")


def test_verify_check():
    width, layers = ref.parse_snet(NON_SORTER3)
    op = {"label": "test", "check": {"type": "verdict", "width": 3, "first": 6,
                                     "input": [1, 1, 0], "output": [1, 0, 1]}}
    right = ("mode: exhaustive\nwidth: 3\ninputs checked: 7\nresult: counterexample\n"
             "input: 1,1,0\noutput: 1,0,1\n")
    assert workloads.check_output(op, 1, right, "")
    assert not workloads.check_output(op, 0, right, "")
    assert not workloads.check_output(op, 1, right.replace("output: 1,0,1", "output: 0,1,1"), "")
    sorter = {"label": "test", "check": {"type": "verdict", "width": 4, "first": None}}
    right = "mode: exhaustive\nwidth: 4\ninputs checked: 16\nresult: sorting\n"
    assert workloads.check_output(sorter, 0, right, "")
    assert not workloads.check_output(sorter, 0, right.replace("16", "15"), "")


def test_read_apply_checks():
    apply = {"label": "t", "check": {"type": "apply", "values": [3, -1, 2]}}
    assert workloads.check_output(apply, 0, "-1,2,3\n", "")
    assert not workloads.check_output(apply, 0, "-1,3,2\n", "")
    stats = {"label": "t", "check": {"type": "stats", "width": 4, "layers": 3, "comparators": 6}}
    assert workloads.check_output(stats, 0, "layers: 3\ncomparators: 6\nwidth: 4\n", "")
    assert not workloads.check_output(stats, 0, "layers: 3\ncomparators: 5\nwidth: 4\n", "")
    oracle = {"label": "t", "check": {"type": "oracle", "width": 8, "trials": 5, "seed": 9,
                                      "inputs": 40325}}
    right = ("mode: sampled\nseed: 9\ntrials: 5\nwidth: 8\ninputs checked: 40325\n"
             "result: sorting\n")
    assert workloads.check_output(oracle, 0, right, "")
    assert not workloads.check_output(oracle, 0, right.replace("40325", "5"), "")
    bad = {"label": "t", "check": {"type": "malformed"}}
    assert workloads.check_output(bad, 2, "", "error: line 1: bad header\n")
    assert not workloads.check_output(bad, 1, "", "error: line 1: bad header\n")
    assert not workloads.check_output(bad, 2, "", "Traceback (most recent call last):\n")


def test_rounds_depend_only_on_the_seed(tmp_path):
    first = workloads.prepare("read-apply", 3, str(tmp_path))
    again = workloads.prepare("read-apply", 3, str(tmp_path))
    other = workloads.prepare("read-apply", 4, str(tmp_path))
    assert first == again
    assert first != other
    shape = lambda ops: sorted((op["kind"], op["label"]) for op in ops)  # noqa: E731
    assert shape(first) == shape(other)


def test_tracer_counts_and_restores():
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    from sortnet import bitonic, cli, combinators
    from tracer import Tracer

    originals = (cli.main, bitonic.bsort, combinators.cmerge, cli.bsort)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.main(["gen", "bsort", "3", "--out", os.devnull]) == 0
    finally:
        tracer.uninstall()
    assert (cli.main, bitonic.bsort, combinators.cmerge, cli.bsort) == originals
    values = tracer.values
    assert values["bitonic.bsort_s"] > 0 and values["cli.render_text_s"] > 0
    assert 0 < values["cli.self_s"] < values["cli.main_s"]
    # bsort(3) = ndup(bsort(2)) + rhalf_cleaner_rec(3).  Gluing copies side
    # by side takes one cmerge per layer: 2 inside bsort(2), 3 to double
    # it, and 3 inside rhalf_cleaner_rec(3) (1 + 2 for its halves).
    assert values["combinators.cmerge_calls"] == 8
    assert values["verify.exhaustive_sorting_s"] == 0
