"""Connector and network semantics against the plain min/max reference rule."""

import ast
import operator
import pathlib
import sys
import threading
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    all_bool_tuples,
    connectors,
    networks,
    networks_with_bool_tuples,
    networks_with_int_tuples,
)
from sortnet import batcher, bfsort, bsort, core, knuth_exchange
from sortnet.bitonic import half_cleaner
from sortnet.cli import parse_text, render_text
from sortnet.combinators import cswap
from sortnet.core import Connector, Network, line_numbers
from sortnet.errors import (
    DegeneratePair,
    DuplicateLine,
    IndexOutOfRange,
    InvalidConnector,
    WidthMismatch,
)
from spec import check_connector_fields, map_values


def minmax_rule(link, values, flip=None):
    """Reference semantics of one connector, written line by line: the
    lower end of every link takes the minimum, the upper the maximum, and
    a true flip flag exchanges the two."""
    flip = flip or (False,) * len(link)
    out = []
    for i, j in enumerate(link):
        if (i <= j) != bool(flip[i]):
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
    with pytest.raises(DuplicateLine, match="^line 0 appears"):
        Connector.from_pairs(4, [(0, 1), (0, 3)])
    with pytest.raises(DuplicateLine, match="^line 1 appears"):
        Connector.from_pairs(4, [(0, 1), (3, 1)])
    with pytest.raises(DuplicateLine, match="^line 1 appears"):
        Connector.from_pairs(4, [(0, 1), (1, 0)])


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
    with pytest.raises(InvalidConnector, match="^width must be nonnegative, got -1$"):
        Connector.from_pairs(-1, [(0, 1)])
    with pytest.raises(InvalidConnector, match=r"^pair \(0,\) is not"):
        Connector.from_pairs(4, [(0,)])
    with pytest.raises(InvalidConnector, match=r"^pair \(0, 1, True, 2\) is not"):
        Connector.from_pairs(4, [(0, 1, True, 2)])


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


@pytest.mark.parametrize("flags", [(2, True), (None, 0), ("x", 1)])
def test_partner_flags_of_the_same_truth_are_accepted(flags):
    assert Connector(2, (1, 0), flags).flip == flags


def test_partner_flags_of_different_truth_are_rejected():
    with pytest.raises(InvalidConnector) as raised:
        Connector(2, (1, 0), (0, True))
    assert str(raised.value) == "flip differs across linked lines 0 and 1"


@st.composite
def connector_fields(draw):
    """Raw ``(width, link, flip)`` for widths 0..9: a valid connector, or a
    random map, with up to three entries, flags or lengths then changed.
    Entries are drawn from -12..12, so they can be negative or too large."""
    width = draw(st.integers(0, 9))
    base = draw(connectors(width=width))
    link, flip = list(base.link), list(base.flip)
    if draw(st.booleans()):
        link = draw(st.lists(st.integers(-12, 12), min_size=width, max_size=width))
    for _ in range(draw(st.integers(0, 3))):
        change = draw(st.sampled_from(("entry", "flag", "link length", "flip length")))
        if change == "entry" and link:
            link[draw(st.integers(0, len(link) - 1))] = draw(st.integers(-12, 12))
        elif change == "flag" and flip:
            line = draw(st.integers(0, len(flip) - 1))
            flip[line] = not flip[line]
        elif change == "link length":
            link = link[:-1] if draw(st.booleans()) else [*link, draw(st.integers(-12, 12))]
        elif change == "flip length":
            flip = flip[:-1] if draw(st.booleans()) else [*flip, draw(st.booleans())]
    return width, tuple(link), tuple(flip)


@settings(max_examples=500)
@given(connector_fields())
@example((3, (-1, 1, 0), (False,) * 3))  # a negative entry
@example((3, (2, 1, -3), (False,) * 3))  # link[link[2]] == 2 under Python indexing
@example((4, (1, 0, 4, 3), (False,) * 4))  # an entry equal to the width
@example((1, (0,), (True,)))  # width 1: the bulk gather is a scalar; the loop decides
@example((1, (1,), (False,)))
@example((0, (), ()))
@example((2, (1, 0), (True, False)))  # flags differ across a pair
@example((4, (2, 3, 0, 1), (True,) * 4))  # uniform flags: valid, all set
@example((3, (1, 2, 0), (True,) * 3))  # uniform flags, not involutive
@example((3, (0, 3, 2), (True,) * 3))  # uniform flags, an entry out of range
@example((3, (-1, 1, 0), (True,) * 3))  # uniform flags, a negative entry
@example((3, (2, 1, -3), (True,) * 3))  # uniform flags, negative and looping back
@example((4, (0, 1, 3, 2), (False, False, True, False)))  # one flag off on a pair
@example((4, (1, 0, 2, 3), (False, False, True, False)))  # one flag off, unlinked line
def test_connector_check_matches_the_per_line_oracle(fields):
    try:
        check_connector_fields(*fields)
    except InvalidConnector as exc:
        expected = exc
    else:
        expected = None
    if expected is None:
        connector = Connector(*fields)
        assert (connector.width, connector.link, connector.flip) == fields
    else:
        with pytest.raises(InvalidConnector) as raised:
            Connector(*fields)
        assert type(raised.value) is type(expected)
        assert str(raised.value) == str(expected)


def test_line_numbers_share_their_ints_up_to_the_guard(monkeypatch):
    monkeypatch.setattr(core, "_lines", ())
    low, high = line_numbers(300), line_numbers(600)
    assert low == tuple(range(300)) and high == tuple(range(600))
    assert all(map(operator.is_, low, high))
    # Past 2**MAX_EXPONENT lines, and below 0, a width gets its own tuple:
    # the store keeps what it holds.
    monkeypatch.setattr(core, "MAX_EXPONENT", 9)
    for width in (700, 512, 0, -1, -300, -600, -700):
        assert line_numbers(width) == tuple(range(width))
    assert len(core._lines) == 600


def test_a_record_stores_exactly_one_value_per_field():
    class Pair(core._Record):
        __slots__ = ("low", "high")

    pair = Pair(1, 2)
    assert (pair.low, pair.high) == (1, 2) and Pair.__match_args__ == ("low", "high")
    for values in [(), (1,), (1, 2, 3)]:
        with pytest.raises(ValueError):
            Pair(*values)


def test_line_numbers_from_racing_threads(monkeypatch):
    monkeypatch.setattr(core, "_lines", ())
    wrong = []

    def grow(first):
        # Each pass empties the store, so the threads keep growing it
        # over one another.
        for _ in range(50):
            core._lines = ()
            for width in range(first, 600, 8):
                if line_numbers(width) != tuple(range(width)):
                    wrong.append(width)

    threads = [threading.Thread(target=grow, args=(k,)) for k in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []


def test_built_and_parsed_links_hold_the_shared_line_numbers():
    lines = set(map(id, line_numbers(1 << 9)))
    networks = [bsort(9), bfsort(True, 9), knuth_exchange(9), batcher(9)]
    networks.append(parse_text(render_text(networks[1])))
    for network in networks:
        for layer in network.layers:
            assert set(map(id, layer.link)) <= lines


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


def test_ties_are_exchanged_only_by_a_flipped_comparator():
    x, y = [0], [0]  # equal, but distinct objects
    plain = Connector.from_pairs(2, [(0, 1)])
    flipped = Connector.from_pairs(2, [(0, 1, True)])
    for apply in (plain.apply, Network(2, (plain, plain)).apply):
        out = apply((x, y))
        assert out[0] is x and out[1] is y
    out = flipped.apply((x, y))
    assert out[0] is y and out[1] is x


@given(networks(), st.data())
def test_network_apply_matches_layer_by_layer_rule(net, data):
    values = tuple(
        data.draw(st.lists(st.integers(0, 3), min_size=net.width, max_size=net.width))
    )
    expected = values
    for layer in net.layers:
        expected = minmax_rule(layer.link, expected, layer.flip)
    assert net.apply(values) == expected


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
    with pytest.raises(WidthMismatch):
        Network(-1, ())


def test_network_concatenation_checks_width():
    with pytest.raises(WidthMismatch):
        Network(2, ()) + Network(3, ())
    with pytest.raises(TypeError):  # by way of NotImplemented
        Network(2, ()) + 1


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


def test_every_public_definition_in_src_is_reachable():
    # Test-only helpers belong in tests/spec.py.  A public top-level function
    # or class must be reachable from the root's exports or ``cli.main``
    # through names used in code; docstrings hold no names.
    import sortnet

    def used(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} | {
            n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)
        }

    definitions = {}  # name -> module
    uses = {}  # name -> names used in its body
    todo = set(sortnet.__all__) | {"main"}
    for path in sorted(pathlib.Path(sortnet.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in definitions, node.name
                definitions[node.name] = path.stem
                uses[node.name] = used(node)
            else:  # module-level code runs on import
                todo |= used(node)
    reached = set()
    while todo:
        name = todo.pop()
        if name in definitions and name not in reached:
            reached.add(name)
            todo |= uses[name]
    unreached = [
        f"{module}.{name}"
        for name, module in definitions.items()
        if not name.startswith("_") and name not in reached
    ]
    assert unreached == []
