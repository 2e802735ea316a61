"""Line counts of the power-of-two generators and their size guard."""

from .errors import Overflow

#: Largest exponent accepted by :func:`pow2` and all power-of-two-width
#: network generators, and the bound ``2**MAX_EXPONENT`` on the width of a
#: parsed file.  ``sortnet gen ALGO 16 --out FILE`` takes 1.7 to 3.7 s and
#: 0.31 to 0.37 GB peak RSS on one Xeon core (``bfsort`` is the largest);
#: every step up doubles both.
MAX_EXPONENT = 16


def pow2(exponent: int) -> int:
    """2**exponent, the line count of the recursive generators.

    Doubling semantics: ``pow2(m + 1) == pow2(m) + pow2(m)`` for every
    admissible ``m``, which is what lets half-width constructions glue
    back together without padding.
    """
    if exponent < 0:
        raise ValueError(f"exponent must be nonnegative, got {exponent}")
    if exponent > MAX_EXPONENT:
        raise Overflow(f"exponent {exponent} exceeds guard {MAX_EXPONENT}")
    return 1 << exponent
