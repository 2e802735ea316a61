"""Comparator sorting networks: construction, execution, verification.

The package builds three classic recursive sorting networks over
power-of-two line counts (the bitonic sorter, an exchange sorter, and the
odd-even merge sorter), applies them to tuples over any ordered domain,
and decides the sorting property by exhaustive boolean enumeration or a
sampled integer oracle.  A small CLI (``sortnet``) fronts the same
operations and serializes networks as text or SVG.
"""

from .batcher import batcher, batcher_merge, batcher_merge_rec, batcher_merge_rec_aux
from .bitonic import (
    BitonicDecomposition,
    bfsort,
    bitonic_bool_decomp,
    bsort,
    half_cleaner,
    half_cleaner_rec,
    is_bitonic,
    rhalf_cleaner,
    rhalf_cleaner_rec,
)
from .combinators import cmerge, ceomerge, cswap, ndup, neodup, neomerge, nmerge
from .core import Connector, Network, map_values
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
from .index import MAX_EXPONENT, pow2
from .knuth import (
    ceswap,
    codd_jump,
    count_false,
    etake,
    knuth_exchange,
    knuth_jump_rec,
    otake,
    uphalf,
)
from .verify import (
    Counterexample,
    NetworkStats,
    VerificationReport,
    check_sorting_exhaustive,
    check_sorting_oracle,
    is_perm_of,
    is_sorted,
    network_stats,
    random_connector,
    random_network,
)

__version__ = "0.1.0"

__all__ = [
    "BitonicDecomposition",
    "Connector",
    "Counterexample",
    "DegeneratePair",
    "DuplicateLine",
    "IndexOutOfRange",
    "InvalidConnector",
    "MAX_EXPONENT",
    "Network",
    "NetworkStats",
    "Overflow",
    "SortnetError",
    "VerificationReport",
    "WidthMismatch",
    "WidthTooLarge",
    "ZeroWidth",
    "batcher",
    "batcher_merge",
    "batcher_merge_rec",
    "batcher_merge_rec_aux",
    "bfsort",
    "bitonic_bool_decomp",
    "bsort",
    "ceomerge",
    "ceswap",
    "check_sorting_exhaustive",
    "check_sorting_oracle",
    "cmerge",
    "codd_jump",
    "count_false",
    "cswap",
    "etake",
    "half_cleaner",
    "half_cleaner_rec",
    "is_bitonic",
    "is_perm_of",
    "is_sorted",
    "knuth_exchange",
    "knuth_jump_rec",
    "map_values",
    "ndup",
    "neodup",
    "neomerge",
    "network_stats",
    "nmerge",
    "otake",
    "pow2",
    "random_connector",
    "random_network",
    "rhalf_cleaner",
    "rhalf_cleaner_rec",
    "uphalf",
]
