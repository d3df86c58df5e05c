"""Exact rational scalars and the square predicates everything else uses.

The scalar type is :class:`fractions.Fraction`: arbitrary precision, always
reduced, denominator always positive, structural equality. No floating point
enters any computation in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

from .errors import NotASquare


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer "p") into a reduced rational.

    Unreduced input such as "6/4" is accepted and canonicalized.
    """
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational: {text!r}") from exc


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


def max_decimal_digits(values: Iterable[int]) -> int:
    """Length of the longest entry written in base 10 (sign ignored).

    Only the entry of largest magnitude is converted to a string.
    """
    return len(str(max(abs(v) for v in values)))
