"""Connector and network representations and their application semantics.

A connector is one parallel layer of disjoint two-line comparators over a
fixed number of lines, a network is an ordered sequence of such layers,
and application threads a tuple of values through the comparators.  All
three are immutable; sharing them across threads or processes needs no
synchronization.

These records and the checkers' results in :mod:`.verify` are immutable
slotted value classes that compare, hash and print by their fields.  They
are not dataclasses, which keeps importing the package cheap, so
``dataclasses.replace``, ``fields`` and ``asdict`` do not apply.  Pickling
and copying rebuild a record through its constructor and its check.
"""

from __future__ import annotations

from operator import attrgetter, itemgetter
from typing import Iterable, Sequence, TypeVar

from .errors import (
    DegeneratePair,
    DuplicateLine,
    IndexOutOfRange,
    InvalidConnector,
    WidthMismatch,
)
from .index import MAX_EXPONENT

V = TypeVar("V")

#: The line numbers ``0 .. len - 1`` handed out by :func:`line_numbers`.
_lines: tuple[int, ...] = ()


def line_numbers(width: int) -> tuple[int, ...]:
    """The identity tuple ``(0, 1, ..., width - 1)``, from one shared store.

    Widths 0 to ``2**MAX_EXPONENT`` get a slice of one module-level
    tuple, so line ``i`` is the same int object in all of them.  Link maps
    built by indexing these tuples allocate no line numbers, and the
    connector check meets identical objects.  The store grows to the
    widest width asked for (at most about 2.5 MB with its ints); any other
    width, a negative one too, gets a ``tuple(range(width))`` of its own.
    """
    global _lines
    if not 0 <= width <= 1 << MAX_EXPONENT:
        return tuple(range(width))
    # Slice the tuple read or built here: another thread may replace the
    # store in between, with an equal or a shorter one.
    lines = _lines
    if width > len(lines):
        lines = _lines = lines + tuple(range(len(lines), width))
    return lines[:width]


class _Record:
    """Base of the record types: equality, hash, repr, immutability, and
    pickling and copying through the constructor.

    A subclass names its fields, two or more, in ``__slots__``, also its
    ``__match_args__``.  Its ``__init__`` hands their values, in that
    order, to ``_Record.__init__`` before any check, and ``_setters``, the
    slots' own, store them.  The rest reads them through ``_values``:
    records of one class compare and hash as their field tuples.  A
    subclass of a record with empty ``__slots__`` adds no field and keeps
    its parent's ``__match_args__``, ``_values`` and ``_setters``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        if not cls.__slots__:
            return
        cls.__match_args__ = cls.__slots__
        cls._values = property(attrgetter(*cls.__slots__))
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values):
        for setter, value in zip(self._setters, values, strict=True):
            setter(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self):
        return hash(self._values)

    def __repr__(self):
        fields = map("{}={!r}".format, self.__match_args__, self._values)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values


class Connector(_Record):
    """One parallel layer of disjoint comparators over ``width`` lines.

    ``link[i]`` names the partner of line ``i``; ``link[i] == i`` leaves the
    line untouched.  The map must be an involution, which is exactly the
    statement that the comparator pairs are disjoint.  ``flip[i]`` selects
    the orientation of the comparator on ``{i, link[i]}``: clear means the
    lower-numbered line receives the minimum (the usual downward
    comparator), set means it receives the maximum; a flag is set when it
    is true.  Partner lines always carry flags of the same truth.

    There is no unchecked way to build one of these: the constructor
    stores both maps as tuples and revalidates every invariant, so any
    reachable instance is sound.  It checks the whole map at once: with
    ``partner = itemgetter(*link)``, it accepts when ``partner(link)``
    equals ``line_numbers(width)`` and, unless all flags are equal,
    ``partner(flip)`` equals ``flip``: uniform flags agree across every
    pair by definition.  A map indexed out of :func:`line_numbers` holds
    the identity's own int objects, so most entries compare by identity
    alone.  The check also keeps every entry in range.  An entry of
    ``width`` or more fails to index.  A negative entry ``j = link[k]``
    would index from the end, so ``link[width + j] == k``, and then
    ``link[link[width + j]] == j`` differs from ``width + j``.  A map that
    fails the check, or has fewer than two entries, goes through the
    per-line loop, which accepts partner flags that differ but have the
    same truth, such as ``2`` and ``True``, and names the first fault.
    """

    __slots__ = ("width", "link", "flip")

    def __init__(self, width: int, link: Iterable[int], flip: Iterable[bool]):
        link, flip = tuple(link), tuple(flip)
        super().__init__(width, link, flip)
        if width < 0:
            raise InvalidConnector(f"width must be nonnegative, got {width}")
        if len(link) != width:
            raise InvalidConnector(f"link has {len(link)} entries for width {width}")
        if len(flip) != width:
            raise InvalidConnector(f"flip has {len(flip)} entries for width {width}")
        try:
            partner = itemgetter(*link)
            if partner(link) == line_numbers(width) and (
                flip.count(flip[0]) == width or partner(flip) == flip
            ):
                return
        except (IndexError, TypeError):
            pass
        for i, j in enumerate(link):
            if not 0 <= j < width:
                raise InvalidConnector(f"link[{i}] = {j} not in [0, {width})")
            if link[j] != i:
                raise InvalidConnector(
                    f"link is not involutive at line {i}: {i} -> {j} -> {link[j]}"
                )
            if (not flip[j]) is not (not flip[i]):
                raise InvalidConnector(
                    f"flip differs across linked lines {i} and {j}"
                )

    @classmethod
    def from_pairs(
        cls, width: int, pairs: Iterable[tuple[int, int] | tuple[int, int, bool]]
    ) -> "Connector":
        """Build a connector from disjoint comparator pairs.

        Each pair is ``(low, high)`` or ``(low, high, flipped)``; the two
        indices may come in either order but must differ.  Lines not
        mentioned stay unconnected with a clear flip flag.
        """
        if width < 0:
            raise InvalidConnector(f"width must be nonnegative, got {width}")
        link = list(line_numbers(width))
        flip = [False] * width
        for pair in pairs:
            if len(pair) not in (2, 3):
                raise InvalidConnector(
                    f"pair {pair!r} is not (low, high) or (low, high, flipped)"
                )
            a, b, *flipped = pair
            for idx in (a, b):
                if not 0 <= idx < width:
                    raise IndexOutOfRange(f"line {idx} not in [0, {width})")
            if a == b:
                raise DegeneratePair(f"pair links line {a} to itself")
            if link[a] != a or link[b] != b:
                dup = a if link[a] != a else b
                raise DuplicateLine(f"line {dup} appears in more than one pair")
            # Both entries are still their own line numbers: swapping them
            # keeps the shared int objects of ``line_numbers``.
            link[a], link[b] = link[b], link[a]
            flip[a] = flip[b] = any(flipped)
        return cls(width, link, flip)

    @classmethod
    def identity(cls, width: int) -> "Connector":
        """The connector with no comparators: every line passes through."""
        return cls.from_pairs(width, ())

    def pairs(self) -> list[tuple[int, int, bool]]:
        """Comparator pairs as ``(low, high, flipped)``, ascending by low line."""
        return [
            (i, j, self.flip[i]) for i, j in enumerate(self.link) if i < j
        ]

    def apply(self, values: Sequence[V]) -> tuple[V, ...]:
        """Run the layer: each comparator sorts (or flip-sorts) its two lines.

        For a pair ``(i, j)`` with ``i < j``, line ``i`` receives the
        minimum and line ``j`` the maximum of the two input values; a set
        flip flag exchanges those roles.  Unconnected lines pass through.
        """
        return Network(self.width, (self,)).apply(values)


class Network(_Record):
    """An ordered sequence of connectors over a fixed number of lines."""

    __slots__ = ("width", "layers")

    def __init__(self, width: int, layers: Iterable[Connector]):
        layers = tuple(layers)
        super().__init__(width, layers)
        if width < 0:
            raise WidthMismatch(f"width must be nonnegative, got {width}")
        for pos, layer in enumerate(layers):
            if layer.width != width:
                raise WidthMismatch(
                    f"layer {pos} has width {layer.width}, network has {width}"
                )

    @property
    def size(self) -> int:
        """Number of layers."""
        return len(self.layers)

    def apply(self, values: Sequence[V]) -> tuple[V, ...]:
        """Thread a tuple through every layer in order.

        This is the one evaluator for ordered values: each layer runs its
        comparators, the lines ``i`` with ``link[i] > i``, in ascending
        order on one working list.  The low line receives the minimum, or
        the maximum under a true flag: a pair swaps when ``a <= b`` and
        its flag have the same truth, so a plain comparator leaves two
        equal values where they are and a flipped one acts as the plain
        one followed by exchanging its two lines.
        """
        if len(values) != self.width:
            raise WidthMismatch(
                f"tuple of length {len(values)} applied to width {self.width}"
            )
        out = list(values)
        for layer in self.layers:
            flip = layer.flip
            for i, j in enumerate(layer.link):
                if i < j:
                    a, b = out[i], out[j]
                    if (not a <= b) is (not flip[i]):
                        out[i], out[j] = b, a
        return tuple(out)

    def __add__(self, other: "Network") -> "Network":
        if not isinstance(other, Network):
            return NotImplemented
        if self.width != other.width:
            raise WidthMismatch(
                f"cannot concatenate widths {self.width} and {other.width}"
            )
        return Network(self.width, self.layers + other.layers)
