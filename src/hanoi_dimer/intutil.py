"""Small integer helpers shared by the evolution and entropy layers."""

from __future__ import annotations


def digit_count(m: int) -> int:
    """Number of decimal digits of |m|, without a str() conversion.

    str() on multi-thousand-digit counts would trip CPython's integer
    string-conversion limit; the bit-length estimate below is exact after
    at most two power-of-ten comparisons.
    """
    if m == 0:
        return 1
    m = abs(m)
    digits = (m.bit_length() - 1) * 30103 // 100000 + 1
    while m >= 10**digits:
        digits += 1
    return digits


def ceil_div(a: int, b: int) -> int:
    return -((-a) // b)
