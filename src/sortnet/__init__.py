"""Comparator sorting networks: construction, execution, verification.

The package builds four recursive sorting networks over power-of-two
line counts: ``bsort`` (the bitonic sorter), ``bfsort`` (the oriented
bitonic sorter), ``knuth_exchange`` (the exchange sorter) and ``batcher``
(the odd-even merge sorter).  It applies them to tuples over any ordered
domain and decides the sorting property by exhaustive boolean
enumeration or a sampled integer oracle.  A small CLI (``sortnet``)
fronts the same operations and serializes networks as text or SVG.

The root exports the generators, data types, checkers and errors;
building blocks stay in their submodules.  The paper's specification
predicates (sortedness, permutation, bitonicity) are the test suite's
oracle and are not part of the package.
"""

from .batcher import batcher
from .bitonic import bfsort, bsort
from .core import Connector, Network
from .errors import (
    DegeneratePair,
    DuplicateLine,
    IndexOutOfRange,
    InvalidConnector,
    Overflow,
    SortnetError,
    WidthMismatch,
    WidthTooLarge,
    ZeroWidth,
)
from .knuth import knuth_exchange
from .verify import (
    Counterexample,
    NetworkStats,
    VerificationReport,
    check_sorting_exhaustive,
    check_sorting_oracle,
    network_stats,
)

__version__ = "0.1.0"

__all__ = [
    "Connector",
    "Counterexample",
    "DegeneratePair",
    "DuplicateLine",
    "IndexOutOfRange",
    "InvalidConnector",
    "Network",
    "NetworkStats",
    "Overflow",
    "SortnetError",
    "VerificationReport",
    "WidthMismatch",
    "WidthTooLarge",
    "ZeroWidth",
    "batcher",
    "bfsort",
    "bsort",
    "check_sorting_exhaustive",
    "check_sorting_oracle",
    "knuth_exchange",
    "network_stats",
]
