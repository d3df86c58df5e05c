"""Exact rational scalars and the square predicates everything else uses.

The scalar type is :class:`fractions.Fraction`: arbitrary precision, always
reduced, denominator always positive, structural equality. No floating point
enters any computation in this package.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod
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


def _squares_mod(p: int) -> frozenset[int]:
    return frozenset(i * i % p for i in range(p))


# The sieve of is_square_int: ten primes, in the order they are tried, split
# into two moduli below 2^30, so that each remainder of a long integer takes
# CPython's one-digit division.
_SIEVE_PRIMES = (19, 43, 41, 31, 47, 53, 59, 61, 67, 71)
_FIRST_MODULUS, _SECOND_MODULUS = prod(_SIEVE_PRIMES[:5]), prod(_SIEVE_PRIMES[5:])
_SIEVE_TABLES = tuple(map(_squares_mod, _SIEVE_PRIMES))
_Q19, _Q43, _Q41, _Q31, _Q47, _Q53, _Q59, _Q61, _Q67, _Q71 = _SIEVE_TABLES


def is_square_int(n: int) -> bool:
    """True iff n is the square of an integer.

    Most non-squares are refused before isqrt by their residues modulo ten
    primes from 19 to 71, each looked up in its table of squares {i^2 mod p};
    only the survivors take the root. The textbook pre-test moduli 64, 63,
    65 and 11 (Cohen, A Course in Computational Algebraic Number Theory,
    Alg. 1.7.3) sieve nothing here: the d_ab_sq = a^2 + b^2 of the sweep's
    cuboids are squares modulo 64, 63 and 11 in 99-100% of cases and
    modulo 65 in 81%. Modulo 19, 43, 41, 31 and 47 they are in 51%, 52%,
    70%, 76% and 75%; 8.4% pass those five, and so take the second
    remainder, and 1.3% pass all ten (the 2,096 cuboids of one benchmark
    sweep pass).
    """
    if n < 0:
        return False
    r = n % _FIRST_MODULUS
    if r % 19 in _Q19 and r % 43 in _Q43 and r % 41 in _Q41 and r % 31 in _Q31 and r % 47 in _Q47:
        r = n % _SECOND_MODULUS
        if (r % 53 in _Q53 and r % 59 in _Q59 and r % 61 in _Q61 and r % 67 in _Q67
                and r % 71 in _Q71):
            return isqrt(n) ** 2 == n
    return False


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
