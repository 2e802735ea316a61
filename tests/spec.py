"""The paper's specification predicates, the connector check one line at a
time, the link maps of the two gluing schemes, the per-token parser,
the per-tuple evaluator and sampled oracle, and the suite's random
networks, sorters and mutants.

The paper proves its four constructions correct against these
predicates: sortedness, permutation, bitonicity, the even/odd slices and
their false counts.  Here they state the same lemmas and serve as the
test suite's oracle; the program itself never calls them.  The parser,
evaluator and oracle are the plain loops the program's table-decoded
parser and compiled evaluator must agree with.

``random_network`` draws from its ``rng`` in a fixed order (per layer:
shuffle, pair count, then one flip draw per pair).  Seeded tests depend
on the networks it returns, so that call order must not change.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import chain, groupby, permutations
from typing import Callable, Sequence, TypeVar

from sortnet.cli import NetworkParseError
from sortnet.combinators import neomerge, nmerge
from sortnet.core import Connector, Network
from sortnet.errors import InvalidConnector, SortnetError
from sortnet.index import MAX_EXPONENT
from sortnet.verify import (
    _INT64_MAX,
    _INT64_MIN,
    MAX_PERMUTATION_WIDTH,
    Counterexample,
    VerificationReport,
)

V = TypeVar("V")
W = TypeVar("W")


def is_sorted(values: Sequence, descending: bool = False) -> bool:
    """Whether adjacent entries are nondecreasing (or nonincreasing)."""
    if descending:
        return all(a >= b for a, b in zip(values, values[1:]))
    return all(a <= b for a, b in zip(values, values[1:]))


def is_perm_of(s1: Sequence, s2: Sequence) -> bool:
    """Multiset equality of two sequences."""
    return Counter(s1) == Counter(s2)


def map_values(func: Callable[[V], W], values: Sequence[V]) -> tuple[W, ...]:
    """Apply ``func`` to every entry of a value tuple.

    When ``func`` is strictly monotone this commutes with connector and
    network application, which is what lets boolean verdicts transfer to
    arbitrary ordered domains.
    """
    return tuple(func(v) for v in values)


def etake(values: Sequence) -> tuple:
    """Entries at even positions."""
    return tuple(values[::2])


def otake(values: Sequence) -> tuple:
    """Entries at odd positions."""
    return tuple(values[1::2])


def count_false(values: Sequence) -> int:
    """Number of falsy entries; the bookkeeping quantity of the jump layers."""
    return sum(1 for v in values if not v)


def is_bitonic(values: Sequence) -> bool:
    """Whether some rotation splits into a rising prefix and falling suffix.

    Equivalently (Knuth, TAOCP vol. 3, 5.3.4), read cyclically with the
    last element followed by the first, the strict steps change direction
    at most twice: once at the peak and once at the trough.
    """
    s = tuple(values)
    steps = [a < b for a, b in zip(s, s[1:] + s[:1]) if a != b]
    return sum(x != y for x, y in zip(steps, steps[1:] + steps[:1])) <= 2


@dataclass(frozen=True)
class BitonicDecomposition:
    """Three-run normal form of a bitonic boolean sequence.

    Reconstructs ``head`` copies of ``value``, then ``mid`` copies of its
    negation, then ``tail`` copies of ``value`` again.
    """

    value: bool
    head: int
    mid: int
    tail: int

    @property
    def length(self) -> int:
        return self.head + self.mid + self.tail

    def to_tuple(self) -> tuple[bool, ...]:
        return (
            (self.value,) * self.head
            + (not self.value,) * self.mid
            + (self.value,) * self.tail
        )


def bitonic_bool_decomp(values: Sequence) -> BitonicDecomposition | None:
    """Three-run decomposition of a boolean sequence, or None.

    The maximal runs are the decomposition when there are at most three,
    and the first run is the head, so the result is canonical (longest
    head, then longest middle): constant sequences report their full
    length as the head.  Returns None exactly when the sequence is not
    bitonic.
    """
    runs = [(v, len(list(g))) for v, g in groupby(map(bool, values))]
    if len(runs) > 3:
        return None
    value = runs[0][0] if runs else False
    head, mid, tail = [n for _, n in runs] + [0] * (3 - len(runs))
    return BitonicDecomposition(value, head, mid, tail)


def random_connector(width: int, rng: random.Random) -> Connector:
    """A connector from a random partial matching of the lines.

    Invariants hold by construction: a shuffled prefix of the lines is
    paired off two at a time, everything else stays unconnected.  Each
    comparator is flipped with probability one half.
    """
    lines = list(range(width))
    rng.shuffle(lines)
    pair_count = rng.randint(0, width // 2)
    pairs = []
    for t in range(pair_count):
        a, b = lines[2 * t], lines[2 * t + 1]
        pairs.append((a, b, rng.random() < 0.5))
    return Connector.from_pairs(width, pairs)


def random_network(width: int, depth: int, rng: random.Random) -> Network:
    """A network of ``depth`` random connectors; see :func:`random_connector`."""
    return Network(
        width, tuple(random_connector(width, rng) for _ in range(depth))
    )


def odd_even_transposition(width):
    """A sorter on any width: ``width`` rounds of neighbour comparators,
    one more on odd widths, starting on line 0 and line 1 in turn."""
    return Network(
        width,
        tuple(
            Connector.from_pairs(width, [(i, i + 1) for i in range(s, width - 1, 2)])
            for s in [0, 1] * ((width + 1) // 2)
        ),
    )


def flip_mutants(network):
    """Every network that differs from ``network`` in one comparator's flag."""
    for t, layer in enumerate(network.layers):
        pairs = layer.pairs()
        for k, (i, j, flipped) in enumerate(pairs):
            changed = pairs[:k] + [(i, j, not flipped)] + pairs[k + 1:]
            layers = list(network.layers)
            layers[t] = Connector.from_pairs(network.width, changed)
            yield Network(network.width, tuple(layers))


def drop_mutants(network):
    """Every network that lacks one comparator of ``network``."""
    for t, layer in enumerate(network.layers):
        pairs = layer.pairs()
        for k in range(len(pairs)):
            layers = list(network.layers)
            layers[t] = Connector.from_pairs(network.width, pairs[:k] + pairs[k + 1:])
            yield Network(network.width, tuple(layers))


def padded(network, depth):
    """``network`` followed by identity layers up to ``depth`` layers."""
    extra = (Connector.identity(network.width),) * (depth - network.size)
    return Network(network.width, network.layers + extra)


def random_block(rng, width):
    """A sorter either way round, a random network, or a block network."""
    kind = rng.choice(["up", "down", "random", "blocks"][: 4 if width >= 3 else 3])
    if kind == "random":
        return random_network(width, rng.randint(0, 3), rng)
    if kind == "blocks":
        return random_block_network(rng, width)
    sorter = odd_even_transposition(width)
    if kind == "up":
        return sorter
    return Network(width, tuple(
        Connector.from_pairs(width, [(i, j, True) for i, j, _ in layer.pairs()])
        for layer in sorter.layers
    ))


def random_block_network(rng, width):
    """Two blocks side by side (``nmerge``) or interleaved (``neomerge``),
    then an empty, random or sorting suffix."""
    if width >= 2 and width % 2 == 0 and rng.random() < 0.4:
        a, b = random_block(rng, width // 2), random_block(rng, width // 2)
        glue = neomerge
    else:
        left = rng.randint(0, width)
        a, b = random_block(rng, left), random_block(rng, width - left)
        glue = nmerge
    depth = max(a.size, b.size)
    prefix = glue(padded(a, depth), padded(b, depth))
    suffix = rng.choice([
        Network(width, ()),
        random_network(width, rng.randint(1, 4), rng),
        odd_even_transposition(width),
    ])
    return prefix + suffix


def block_networks(seed):
    """88 seeded block networks, 8 of each width 0 to 10."""
    rng = random.Random(seed)
    return [random_block_network(rng, width) for width in range(11) for _ in range(8)]


def cmerge_link(c1: Connector, c2: Connector) -> tuple[int, ...]:
    """The side-by-side link map: ``c1``'s partners, then each partner
    ``j`` of ``c2`` shifted up to ``j + c1.width``."""
    return c1.link + tuple(j + c1.width for j in c2.link)


def ceomerge_link(c1: Connector, c2: Connector) -> tuple[int, ...]:
    """The even/odd link map: line ``2x`` links to ``2j`` where ``j`` is
    ``x``'s partner in ``c1``, line ``2x + 1`` to ``2j + 1`` where ``j``
    is its partner in ``c2``."""
    link = []
    for j1, j2 in zip(c1.link, c2.link):
        link += [2 * j1, 2 * j2 + 1]
    return tuple(link)


def check_connector_fields(width: int, link: Sequence, flip: Sequence) -> None:
    """The connector invariants checked one line at a time.

    Raises :class:`InvalidConnector` naming the first fault, with the
    class and message that :class:`Connector` gives; returns None when the
    fields form a connector.  ``Connector`` checks the whole map at once
    and must accept exactly what this accepts.
    """
    if width < 0:
        raise InvalidConnector(f"width must be nonnegative, got {width}")
    if len(link) != width:
        raise InvalidConnector(f"link has {len(link)} entries for width {width}")
    if len(flip) != width:
        raise InvalidConnector(f"flip has {len(flip)} entries for width {width}")
    for i, j in enumerate(link):
        if not 0 <= j < width:
            raise InvalidConnector(f"link[{i}] = {j} not in [0, {width})")
        if link[j] != i:
            raise InvalidConnector(
                f"link is not involutive at line {i}: {i} -> {j} -> {link[j]}"
            )
        if bool(flip[j]) != bool(flip[i]):
            raise InvalidConnector(f"flip differs across linked lines {i} and {j}")


def parse_text_spec(text: str) -> Network:
    """The ``snet`` text format read token by token, every comparator
    through :meth:`Connector.from_pairs`; raises the
    :class:`NetworkParseError` that ``parse_text`` must raise."""
    rows = text.splitlines()
    if not rows:
        raise NetworkParseError(1, "empty file, expected header 'snet 1 <width>'")
    header = rows[0].split()
    if (
        len(header) != 3
        or header[0] != "snet"
        or header[1] != "1"
        or not header[2].isascii()
        or not header[2].isdigit()
    ):
        raise NetworkParseError(
            1, f"expected header 'snet 1 <width>', got {rows[0]!r}"
        )
    try:
        width = int(header[2])
    except ValueError:
        raise NetworkParseError(1, "header width has too many digits") from None
    if width > 1 << MAX_EXPONENT:
        raise NetworkParseError(1, f"width {width} exceeds 2**{MAX_EXPONENT}")
    layers = []
    for number, row in enumerate(rows[1:], start=2):
        if not row.strip():
            continue
        if not row.startswith("layer:"):
            raise NetworkParseError(number, f"expected 'layer:' record, got {row!r}")
        pairs = []
        for token in row[len("layer:") :].split():
            flipped = token.endswith("!")
            body = token[:-1] if flipped else token
            low_text, dash, high_text = body.partition("-")
            if (
                not dash
                or not body.isascii()
                or not low_text.isdigit()
                or not high_text.isdigit()
            ):
                raise NetworkParseError(number, f"bad comparator token {token!r}")
            try:
                pairs.append((int(low_text), int(high_text), flipped))
            except ValueError:
                raise NetworkParseError(
                    number, "comparator index has too many digits"
                ) from None
        try:
            layers.append(Connector.from_pairs(width, pairs))
        except SortnetError as exc:
            raise NetworkParseError(number, str(exc)) from exc
    return Network(width, tuple(layers))


def apply_spec(network: Network, values: Sequence[V]) -> tuple[V, ...]:
    """``network`` run on ``values`` layer by layer, visiting every line:
    a comparator swaps its two values when ``a <= b`` and its flag have
    the same truth."""
    out = list(values)
    for layer in network.layers:
        for i, j in enumerate(layer.link):
            if i < j:
                a, b = out[i], out[j]
                if bool(a <= b) == bool(layer.flip[i]):
                    out[i], out[j] = b, a
    return tuple(out)


def check_sorting_oracle_spec(
    network: Network, trials: int, seed: int = 0
) -> VerificationReport:
    """The sampled oracle one tuple at a time through :func:`apply_spec`:
    every permutation of ``range(width)`` when the width allows, then
    ``trials`` seeded random signed 64-bit tuples, drawn in the order
    ``check_sorting_oracle`` draws them on wider networks.  Up to that
    width it runs the random tuples too, which the 0-1 principle says
    cannot fail after every permutation has passed."""
    width = network.width
    rng = random.Random(seed)
    inputs = []
    if width <= MAX_PERMUTATION_WIDTH:
        inputs.append(permutations(range(width)))
    inputs.append(
        tuple(rng.randint(_INT64_MIN, _INT64_MAX) for _ in range(width))
        for _ in range(trials)
    )
    checked = 0
    for values in chain.from_iterable(inputs):
        checked += 1
        out = apply_spec(network, values)
        if list(out) != sorted(values):
            return VerificationReport(
                width=width,
                inputs_checked=checked,
                mode="sampled",
                is_sorting=False,
                counterexample=Counterexample(tuple(values), out),
                seed=seed,
                trials=trials,
            )
    return VerificationReport(
        width=width,
        inputs_checked=checked,
        mode="sampled",
        is_sorting=True,
        seed=seed,
        trials=trials,
    )
