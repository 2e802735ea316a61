"""The power-of-two line count and its exponent guard."""

import pytest

from sortnet.errors import Overflow, SortnetError
from sortnet.index import MAX_EXPONENT, pow2


def test_pow2_values():
    assert pow2(0) == 1
    assert pow2(3) == 8
    assert pow2(5) == 32


def test_pow2_doubling():
    for m in range(MAX_EXPONENT):
        assert pow2(m + 1) == pow2(m) + pow2(m)


def test_pow2_guard():
    assert pow2(MAX_EXPONENT) == 2**MAX_EXPONENT
    with pytest.raises(Overflow, match=f"^m must be at most {MAX_EXPONENT}$"):
        pow2(MAX_EXPONENT + 1)
    with pytest.raises(SortnetError, match="^m must be nonnegative$"):
        pow2(-1)
