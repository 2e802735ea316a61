"""Line counts of the power-of-two generators and their size guard."""

from .errors import Overflow, SortnetError

#: Largest exponent accepted by :func:`pow2` and all power-of-two-width
#: network generators, and the bound ``2**MAX_EXPONENT`` on the width of a
#: parsed file.  ``sortnet gen ALGO 16 --out FILE`` takes 1.7 to 3.7 s and
#: 0.31 to 0.37 GB peak RSS on one Xeon core (``bfsort`` is the largest);
#: every step up doubles both.
MAX_EXPONENT = 16


def pow2(exponent: int) -> int:
    """2**exponent, the line count of the recursive generators.

    Every generator hands its ``m`` here before it builds anything, so
    this is the one place a bad ``m`` is refused, in the words the CLI
    prints: ``SortnetError("m must be nonnegative")`` below 0 and
    ``Overflow("m must be at most 16")`` above :data:`MAX_EXPONENT`.

    Doubling semantics: ``pow2(m + 1) == pow2(m) + pow2(m)`` for every
    admissible ``m``, which is what lets half-width constructions glue
    back together without padding.
    """
    if exponent < 0:
        raise SortnetError("m must be nonnegative")
    if exponent > MAX_EXPONENT:
        raise Overflow(f"m must be at most {MAX_EXPONENT}")
    return 1 << exponent
