from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from npcuboid import (
    NotASquare,
    format_rational,
    is_square,
    parse_rational,
    primitive_integer_scaling,
    sqrt_exact,
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

    @given(nonzero_fractions)
    def test_round_trip(self, r):
        assert parse_rational(format_rational(r)) == r

    def test_format_reduced(self):
        assert format_rational(Fraction(6, 4)) == "3/2"
        assert format_rational(Fraction(-8, 2)) == "-4"
