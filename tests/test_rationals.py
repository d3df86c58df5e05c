import sys
from fractions import Fraction
from math import isqrt, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from npcuboid import (
    NotASquare,
    format_rational,
    is_square,
    parse_rational,
    primitive_integer_scaling,
    sqrt_exact,
)
from npcuboid.rationals import (
    _FIRST_MODULUS,
    _SECOND_MODULUS,
    _SIEVE_PRIMES,
    _SIEVE_TABLES,
    _parse_integer,
    decimal_digits,
    is_square_int,
)

nonzero_fractions = st.fractions(
    min_value=Fraction(-10_000), max_value=Fraction(10_000), max_denominator=500
).filter(lambda r: r != 0)


def bisect_isqrt(n):
    """Independent integer square root for cross-checking sqrt_exact."""
    lo, hi = 0, n + 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid * mid <= n:
            lo = mid
        else:
            hi = mid
    return lo


class TestIsSquare:
    def test_product_of_golden_pair_abscissae(self):
        assert is_square(Fraction(42025, 576))

    def test_zero(self):
        assert is_square(Fraction(0))

    def test_negative(self):
        assert not is_square(Fraction(-25))

    @pytest.mark.parametrize("value", [Fraction(2), Fraction(1, 2), Fraction(8, 9), Fraction(9, 8)])
    def test_non_squares(self, value):
        assert not is_square(value)

    @given(nonzero_fractions, nonzero_fractions)
    def test_squares_multiply_to_squares(self, r, s):
        assert is_square(r * r * s * s)


def reference_is_square_int(n):
    return n >= 0 and isqrt(n) ** 2 == n


class TestIsSquareInt:
    """The residue sieve before isqrt refuses only non-squares."""

    def test_zero_and_negatives(self):
        assert is_square_int(0)
        assert not any(is_square_int(n) for n in range(-5000, 0))
        assert not is_square_int(-(2**400))

    def test_squares_and_their_neighbours(self):
        # k up to 5000 meets every residue class of every sieve prime.
        for k in range(5000):
            for n in (k * k - 1, k * k, k * k + 1):
                assert is_square_int(n) is reference_is_square_int(n), n

    @given(st.integers(min_value=-(2**10_000), max_value=2**10_000))
    @settings(max_examples=300)
    def test_any_integer_up_to_ten_thousand_bits(self, n):
        assert is_square_int(n) is reference_is_square_int(n)

    @given(st.integers(min_value=0, max_value=2**5000), st.sampled_from([-1, 0, 1]))
    @settings(max_examples=300)
    def test_large_squares_and_their_neighbours(self, k, offset):
        n = k * k + offset
        assert is_square_int(n) is reference_is_square_int(n)

    def test_each_table_holds_the_squares_modulo_its_prime(self):
        assert len(_SIEVE_TABLES) == len(_SIEVE_PRIMES) == 10
        for p, table in zip(_SIEVE_PRIMES, _SIEVE_TABLES):
            assert set(table) == {i * i % p for i in range(p)}, p

    def test_the_moduli_are_one_digit_products_of_the_primes(self):
        assert _FIRST_MODULUS * _SECOND_MODULUS == prod(_SIEVE_PRIMES)
        assert _FIRST_MODULUS == prod(_SIEVE_PRIMES[:5])
        assert max(_FIRST_MODULUS, _SECOND_MODULUS) < 2**30


class TestSqrtExact:
    def test_golden_product(self):
        root = sqrt_exact(Fraction(42025, 576))
        assert root == Fraction(bisect_isqrt(42025), bisect_isqrt(576))
        assert root == Fraction(205, 24)

    def test_identity(self):
        assert sqrt_exact(Fraction(1)) == 1

    def test_zero(self):
        assert sqrt_exact(Fraction(0)) == 0

    def test_two_is_not_a_square(self):
        with pytest.raises(NotASquare):
            sqrt_exact(Fraction(2))

    def test_negative_rejected(self):
        with pytest.raises(NotASquare):
            sqrt_exact(Fraction(-4))

    @given(nonzero_fractions)
    def test_round_trip(self, r):
        root = sqrt_exact(r * r)
        assert root == abs(r)
        assert root * root == r * r


class TestPrimitiveIntegerScaling:
    def test_clear_denominators(self):
        assert primitive_integer_scaling([Fraction(1, 2), Fraction(1, 3)]) == [3, 2]

    def test_gcd_removal(self):
        assert primitive_integer_scaling([3, 6, 9]) == [1, 2, 3]

    def test_first_parametrization_ratio_list(self):
        # Ratios of the known N=5 first-parametrization cuboid to its space
        # diagonal; scaling must reproduce the published integer tuple.
        ratios = [
            Fraction(1968, 2257),
            Fraction(781, 2581),
            Fraction(2242044, 5825317),
            Fraction(2852005, 5825317),
            Fraction(5552220, 5825317),
            Fraction(1),
        ]
        assert primitive_integer_scaling(ratios) == [
            5079408, 1762717, 2242044, 2852005, 5552220, 5825317,
        ]

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            primitive_integer_scaling([Fraction(0), Fraction(0)])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            primitive_integer_scaling([Fraction(-1), Fraction(2)])

    def test_keeps_zero_entries(self):
        assert primitive_integer_scaling([Fraction(0), Fraction(1, 2), Fraction(1)]) == [0, 1, 2]

    def test_integer_input_is_checked_and_kept_as_rationals_are(self):
        # Integer input skips the common denominator, not the checks.
        assert primitive_integer_scaling([0, 4, 8]) == [0, 1, 2]
        with pytest.raises(ValueError, match="at least one positive"):
            primitive_integer_scaling([0, 0])
        with pytest.raises(ValueError, match="non-negative"):
            primitive_integer_scaling([-1, 2])

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=Fraction(1000), max_denominator=100),
            min_size=2,
            max_size=6,
        ).filter(lambda vs: any(v > 0 for v in vs)),
        st.fractions(min_value=0, max_value=Fraction(100), max_denominator=50).filter(
            lambda f: f > 0
        ),
    )
    @settings(max_examples=60)
    def test_invariant_under_positive_scaling(self, values, factor):
        assert primitive_integer_scaling(values) == primitive_integer_scaling(
            [factor * v for v in values]
        )

    @given(
        st.lists(
            st.fractions(min_value=0, max_value=1000, max_denominator=100).filter(
                lambda v: v > 0
            ),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=60)
    def test_output_ratios_match_input_ratios(self, values):
        ints = primitive_integer_scaling(values)
        base = next(i for i, v in enumerate(values) if v > 0)
        for i, v in enumerate(values):
            assert Fraction(ints[i], ints[base]) == v / values[base]


def str_length(n):
    """len(str(n)), with the int <-> str digit limit lifted for the call."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return len(str(n))
    finally:
        sys.set_int_max_str_digits(limit)


class TestDecimalDigits:
    @given(st.integers(1, 20_000).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1)))
    @example(1)
    @settings(max_examples=300)
    def test_matches_str_length(self, n):
        assert decimal_digits(n) == str_length(n)

    @given(st.integers(1, 5000), st.sampled_from((-1, 0, 1)))
    @example(1, -1)
    @example(5000, -1)
    @example(5000, 0)
    @example(5000, 1)
    def test_powers_of_ten_and_their_neighbours_match_str_length(self, k, offset):
        assert decimal_digits(10**k + offset) == str_length(10**k + offset)

    def test_every_power_of_ten_to_5000_and_its_neighbours(self):
        assert decimal_digits(1) == 1
        for k in range(1, 5001):
            power = 10**k
            assert decimal_digits(power - 1) == k
            assert decimal_digits(power) == decimal_digits(power + 1) == k + 1

    def test_every_bit_length_to_4000_at_both_ends(self):
        # The estimate changes with the bit length; both ends of each length
        # must land between the powers of ten that bound their length.
        for b in range(1, 4001):
            for n in ((1 << (b - 1)), (1 << b) - 1):
                digits = decimal_digits(n)
                assert 10 ** (digits - 1) <= n < 10**digits

    def test_counts_past_the_int_str_limit_without_lifting_it(self):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            n = 7 * 10**5000 + 3
            with pytest.raises(ValueError, match="4300"):
                str(n)
            assert decimal_digits(n) == 5001
            assert decimal_digits(10**4300) == 4301
        finally:
            sys.set_int_max_str_digits(limit)


class TestSerialization:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("25/4", Fraction(25, 4)),
            ("-62279/1728", Fraction(-62279, 1728)),
            ("42", Fraction(42)),
            ("6/4", Fraction(3, 2)),
            (" 75/8 ", Fraction(75, 8)),
            ("+7/3", Fraction(7, 3)),
            ("-0", Fraction(0)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_rational(text) == expected

    @pytest.mark.parametrize(
        "text",
        [
            "25//4", "1/0", "", "-", "/4", "4/", "1/-2", "--3", "3 / 4", "1/2/3",
            # Fraction reads each of these; none is "p/q" text.
            "672.0", "1.53e2", "1_000", ".5", "1e-3", "1/2_0", "inf", "nan", "\u0663",
        ],
    )
    def test_parse_rejects_junk(self, text):
        with pytest.raises(ValueError, match="^not a rational: "):
            parse_rational(text)

    @pytest.mark.parametrize(
        "text",
        ["42", "-0", "+7", " 75 ", "", "-", "--3", "672.0", "1_000", "1e3", "\u0663", "0x10"],
    )
    def test_integer_text_is_a_numerator(self, text):
        # Integer flags read text as parse_rational reads a numerator alone.
        try:
            expected = parse_rational(text)
        except ValueError:
            with pytest.raises(ValueError, match="^not an integer: "):
                _parse_integer(text)
        else:
            assert _parse_integer(text) == expected

    @given(nonzero_fractions)
    def test_round_trip(self, r):
        assert parse_rational(format_rational(r)) == r

    def test_format_reduced(self):
        assert format_rational(Fraction(6, 4)) == "3/2"
        assert format_rational(Fraction(-8, 2)) == "-4"
