"""Exact rational scalars and the square predicates everything else uses.

The scalar type is :class:`fractions.Fraction`: arbitrary precision, always
reduced, denominator always positive, structural equality. No floating point
enters any computation in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Sequence

from .errors import NotASquare


def _is_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer "p") into a reduced rational.

    Only an optional sign, ASCII digits and optionally "/" and more digits
    are read, with surrounding whitespace ignored: decimal points, exponents
    and underscores, which Fraction itself accepts, are refused, as is a zero
    denominator. Unreduced input such as "6/4" is accepted and canonicalized.
    """
    numerator, slash, denominator = text.strip().partition("/")
    unsigned = numerator[1:] if numerator[:1] in ("+", "-") else numerator
    if _is_digits(unsigned) and (_is_digits(denominator) or not slash):
        try:
            return Fraction(int(numerator), int(denominator or 1))
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"not a rational: {text!r}")


def format_rational(value: Fraction) -> str:
    """Render a rational as "p/q", or "p" when the denominator is 1."""
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return str(value)


def _integer_field(record: dict, name: str, default: int | None = None) -> int:
    """record[name], or default when it is absent and there is one. Only a
    JSON integer is accepted: a float, a boolean or a string is refused, not
    truncated or parsed."""
    value = record[name] if default is None else record.get(name, default)
    if type(value) is not int:
        raise TypeError(f"{name} must be an integer, got {value!r}")
    return value


def _rational_field(record: dict, name: str) -> Fraction:
    """record[name] as an exact rational: only a JSON integer or "p/q" text
    is accepted. A float, a boolean or null is refused, not read from its
    repr."""
    value = record[name]
    if type(value) is int:
        return Fraction(value)
    if type(value) is not str:
        raise TypeError(f"{name} must be an integer or a rational, got {value!r}")
    return parse_rational(value)


def is_square_int(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def is_square(r: Fraction | int) -> bool:
    """True iff r is the square of a rational.

    Equivalently: r >= 0 and both the numerator and the denominator of the
    reduced form are perfect squares.
    """
    if not isinstance(r, Fraction):
        r = Fraction(r)
    return is_square_int(r.numerator) and is_square_int(r.denominator)


def sqrt_exact(r: Fraction | int) -> Fraction:
    """Exact non-negative square root of a square rational.

    Raises NotASquare when no exact root exists.
    """
    if not isinstance(r, Fraction):
        r = Fraction(r)
    if r.numerator < 0:
        raise NotASquare(f"{r} is negative")
    num_root = isqrt(r.numerator)
    den_root = isqrt(r.denominator)
    if num_root * num_root != r.numerator or den_root * den_root != r.denominator:
        raise NotASquare(f"{r} is not the square of a rational")
    return Fraction(num_root, den_root)


def primitive_integer_scaling(values: Sequence[Fraction | int]) -> list[int]:
    """Scale non-negative rationals to proportional integers with gcd 1.

    All pairwise ratios are preserved exactly; the output is invariant under
    pre-multiplying the input by any positive rational. Integer input is
    divided by its gcd as it is, with no common denominator formed.
    """
    if not all(isinstance(v, int) for v in values):
        fractions = [Fraction(v) for v in values]
        common = lcm(*(v.denominator for v in fractions))
        values = [v.numerator * (common // v.denominator) for v in fractions]
    if any(v < 0 for v in values):
        raise ValueError("primitive scaling requires non-negative values")
    if not any(values):
        raise ValueError("primitive scaling requires at least one positive value")
    g = gcd(*values)
    return [v // g for v in values]


# ceil(log10(2) 2^64): log10(2) = 0.30102999566398119521373889..., so this
# exceeds 2^64 log10(2) by less than 1.
_LOG10_2_CEILING = 5553023288523357133


def decimal_digits(n: int) -> int:
    """Length of a positive integer written in base 10, counted in integers
    with no conversion to text, so it holds past the int <-> str limit.

    For n of bit length b, 2^(b-1) <= n < 2^b, so its length is f0 + 1 or
    f1 + 1 for f0 = floor((b - 1) log10 2) and f1 = floor(b log10 2), and f1
    - f0 is 0 or 1. For log10 2 <= L <= log10 2 + (1 - log10 2)/b, e =
    floor(b L) lies between f1 and floor(b log10 2 + 1 - log10 2) = f0 + 1.
    So if f1 = f0 + 1, e = f1 and the length is e or e + 1; if f1 = f0, the
    length is f1 + 1 and e is f1 or f1 + 1. Either way the length is e + 1
    exactly when n >= 10^e. L = _LOG10_2_CEILING/2^64 exceeds log10 2 by
    less than 2^-64, so it is in range for every b below 10^19.
    """
    e = n.bit_length() * _LOG10_2_CEILING >> 64
    return e + (n >= 10**e)
