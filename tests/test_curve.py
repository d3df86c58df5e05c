import dataclasses
import functools
import json
import pickle
import re
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from npcuboid import (
    CongruentCurve,
    CurveMismatch,
    CurvePoint,
    DegeneratePair,
    InvalidSeed,
    NpcuboidError,
    SolutionPair,
    SquareCheckFailed,
    TrivialInput,
    VerticalSecant,
    is_square,
    kummer_map,
    load_seeds,
    point_from_json,
    point_to_json,
    same_parity_pair,
    secant_y_intercept,
    sqrt_exact,
)

import npcuboid.curve as curve_module
from npcuboid.cuboids import PARAMETRIZATIONS, build_npc
from npcuboid.curve import (
    _chain_elements,
    _multiples,
    _reduced,
    _secant_element,
)

from helpers import (
    element_pair,
    generated_pairs,
    pair_elements,
    point_above,
    reference_add,
    reference_chain,
    reference_elements,
    reference_pair_checks,
    reference_secant_image,
    triangle_seeds,
)


@pytest.fixture
def p5(curve5):
    return curve5.point(-4, 6)


# (N, x, y, element): a curve point, and a point off the curve whose element
# is not coprime, as (1/2, 1/2) = (8/4^2, 32/4^3).
VALUE_CASES = [
    (5, Fraction(25, 4), Fraction(-75, 8), (25, 2, -75)),
    (5, Fraction(1, 2), Fraction(1, 2), (8, 4, 32)),
]


class TestElementBackedPoints:
    """A point holds its element (a, d, b); equality, hash, repr, str, neg
    and pickling go by the values x and y, as when it held two Fractions."""

    @pytest.mark.parametrize("n, x, y, element", VALUE_CASES)
    def test_fraction_and_element_points_agree(self, n, x, y, element):
        curve = CongruentCurve(n)
        built = curve.point(x, y)
        assert built.element == element
        from_element = CurvePoint(curve, element=element)
        for point in (built, from_element):
            assert point == built and hash(point) == hash(built)
            assert (point.x, point.y) == (x, y)
            assert type(point.x) is type(point.y) is Fraction
            assert repr(point) == f"CurvePoint(curve=CongruentCurve(N={n}), x={x!r}, y={y!r})"
            assert str(point) == f"({x}, {y}) on N={n}"
            assert point.neg() == curve.point(x, -y) and point.neg() != point
            clone = pickle.loads(pickle.dumps(point))
            assert clone == point and hash(clone) == hash(point) and repr(clone) == repr(point)
            assert clone.element == point.element
        assert built != CongruentCurve(n + 1).point(x, y)
        assert built != (x, y)

    def test_infinity(self, curve5):
        infinity = curve5.infinity()
        assert infinity == CurvePoint(curve5, None, None) == CurvePoint(curve5)
        assert infinity != curve5.point(0, 0)
        assert hash(infinity) == hash(CurvePoint(curve5))
        assert (infinity.element, infinity.x, infinity.y) == (None, None, None)
        assert repr(infinity) == "CurvePoint(curve=CongruentCurve(N=5), x=None, y=None)"
        assert str(infinity) == "O(N=5)"
        assert infinity.neg() is infinity
        clone = pickle.loads(pickle.dumps(infinity))
        assert clone == infinity and clone.is_infinity and infinity != CongruentCurve(6).infinity()

    def test_points_are_frozen(self, p5):
        with pytest.raises(dataclasses.FrozenInstanceError):
            p5.element = (1, 1, 1)


class TestOnCurve:
    def test_hand_checkable(self, curve5, p5):
        # (-4)^3 - 25*(-4) = 36 = 6^2
        assert p5.on_curve()

    def test_golden_point(self, curve5):
        assert curve5.point(Fraction(25, 4), Fraction(75, 8)).on_curve()

    def test_off_curve(self, curve5):
        assert not curve5.point(1, 1).on_curve()

    def test_infinity(self, curve5):
        assert curve5.infinity().on_curve()

    def test_trivial_points(self, curve5):
        for x in (0, 5, -5):
            point = curve5.point(x, 0)
            assert point.on_curve()
            assert point.is_trivial

    def test_rejects_bad_curve_parameter(self):
        with pytest.raises(ValueError):
            CongruentCurve(0)
        with pytest.raises(ValueError):
            CongruentCurve(-3)


class TestGroupLaw:
    def test_identity_element(self, curve5, p5):
        infinity = curve5.infinity()
        assert p5.add(infinity) == p5
        assert infinity.add(p5) == p5
        assert infinity.add(infinity) == infinity

    def test_inverse_pair(self, curve5, p5):
        assert p5.add(p5.neg()) == curve5.infinity()

    def test_secant_through_two_torsion(self, curve5, p5):
        # The sum with (0,0) shares its abscissa with the first reflected
        # point and negates its ordinate (the reflection IS the third
        # intersection; the group law reflects it).
        total = p5.add(curve5.point(0, 0))
        assert total == curve5.point(Fraction(25, 4), Fraction(75, 8))
        assert total == p5.reflect_first().neg()

    def test_double_golden(self, curve5, p5):
        doubled = p5.double()
        assert doubled.x == Fraction(1681, 144)
        assert doubled.y == Fraction(-62279, 1728)

    def test_two_torsion_doubles_to_infinity(self, curve5):
        assert curve5.point(0, 0).double() == curve5.infinity()
        assert curve5.point(5, 0).double() == curve5.infinity()

    def test_tangent_abscissa_is_a_square(self, curve5, p5):
        n = curve5.N
        for k in range(1, 5):
            point = p5.mul(k)
            expected = ((point.x ** 2 + n * n) / (2 * point.y)) ** 2
            assert point.double().x == expected

    def test_commutative(self, p5):
        q = p5.double()
        assert p5.add(q) == q.add(p5)

    def test_associative(self, p5):
        points = [p5.mul(k) for k in (1, 2, 3)]
        a, b, c = points
        assert a.add(b).add(c) == a.add(b.add(c))

    def test_curve_mismatch(self, p5):
        with pytest.raises(CurveMismatch):
            p5.add(CongruentCurve(6).point(-3, 9))

    def test_results_stay_on_curve(self, p5):
        for k in range(1, 9):
            assert p5.mul(k).on_curve()


class TestMul:
    def test_one(self, p5):
        assert p5.mul(1) == p5

    def test_two_matches_double(self, curve5, p5):
        assert p5.mul(2) == curve5.point(Fraction(1681, 144), Fraction(-62279, 1728))

    def test_four_is_double_double(self, p5):
        assert p5.mul(4) == p5.double().double()

    def test_zero_is_infinity(self, curve5, p5):
        assert p5.mul(0) == curve5.infinity()

    def test_negative(self, p5):
        assert p5.mul(-3) == p5.mul(3).neg()

    def test_additivity(self, p5):
        for k in range(-3, 4):
            for m in range(-3, 4):
                assert p5.mul(k + m) == p5.mul(k).add(p5.mul(m))

    def test_operator_sugar(self, p5):
        assert 2 * p5 == p5.double()
        assert p5 + (-p5) == p5.curve.infinity()


class TestAgainstSympy:
    @staticmethod
    def as_fractions(point):
        return tuple(Fraction(int(v.numerator), int(v.denominator)) for v in (point.x, point.y))

    def test_multiples_match_sympy_elliptic_curve(self, seeds):
        # An independent group law: sympy's chord-and-tangent arithmetic on
        # y^2 = x^3 - N^2 x over the rationals.
        elliptic = pytest.importorskip("sympy.ntheory.elliptic_curve")
        for seed in seeds:
            n = seed.curve.N
            base = elliptic.EllipticCurve(-n * n, 0)(seed.x, seed.y)
            added, expected = seed, base
            multiples = _multiples(seed, 12)
            for k in range(1, 13):
                assert (added.x, added.y) == self.as_fractions(expected)
                assert seed.mul(k) == added
                a, d, b = multiples[k - 1]
                assert (Fraction(a, d * d), Fraction(b, d ** 3)) == self.as_fractions(expected)
                added, expected = added.add(seed), expected + base


class TestSecantIntercept:
    def test_three_point_product_identity(self, p5):
        doubled = p5.double()
        tripled = p5.add(doubled)
        d = secant_y_intercept(p5, doubled)
        assert p5.x * doubled.x * tripled.x == d * d

    def test_axis_points(self, curve5):
        assert secant_y_intercept(curve5.point(0, 0), curve5.point(5, 0)) == 0

    def test_vertical_rejected(self, curve5, p5):
        with pytest.raises(VerticalSecant):
            secant_y_intercept(p5, curve5.point(-4, -6))
        with pytest.raises(VerticalSecant):
            secant_y_intercept(p5, curve5.infinity())

    def test_points_on_two_curves_rejected(self, p5):
        # As CurvePoint.add refuses them: no line meets points of two curves.
        other = CongruentCurve(6).point(-3, 9)
        for p, q in ((p5, other), (other, p5), (p5, CongruentCurve(6).infinity())):
            with pytest.raises(CurveMismatch, match=r"^no secant through points on "):
                secant_y_intercept(p, q)

    def test_identity_across_seed_curves(self, seeds):
        for seed in seeds:
            for k in (1, 2, 3):
                p = seed.mul(k)
                q = p.double()
                d = secant_y_intercept(p, q)
                assert p.x * q.x * p.add(q).x == d * d


class TestReflections:
    def test_first_golden(self, curve5, p5):
        assert p5.reflect_first() == curve5.point(Fraction(25, 4), Fraction(-75, 8))

    def test_first_is_involution_on_x(self, curve5, p5):
        image = p5.reflect_first()
        assert image.reflect_first().x == p5.x

    def test_second_direct_substitution(self, curve5, p5):
        assert p5.reflect_second() == curve5.point(Fraction(-5, 9), Fraction(100, 27))

    def test_second_matches_inversion_pair(self):
        # On N=34 the second reflection carries 833/16 to 162: the third
        # recovered pair of the 672/153/104 cuboid.
        point = point_above(CongruentCurve(34), Fraction(833, 16))
        assert point.reflect_second().x == 162

    def test_third_matches_inversion_pair(self):
        point = point_above(CongruentCurve(34), Fraction(833, 16))
        assert point.reflect_third().x == Fraction(-578, 81)

    def test_third_is_involution_on_x(self, seeds):
        for seed in seeds:
            for k in (1, 2, 3):
                point = seed.mul(k)
                assert point.reflect_third().reflect_third().x == point.x

    def test_composition_of_first_and_second(self, p5):
        composed = p5.reflect_first().reflect_second()
        assert composed.x == p5.reflect_third().x

    def test_images_stay_on_curve(self, seeds):
        for seed in seeds:
            for image in (seed.reflect_first(), seed.reflect_second(), seed.reflect_third()):
                assert image.on_curve()

    def test_poles_rejected(self, curve5):
        with pytest.raises(TrivialInput):
            curve5.point(0, 0).reflect_first()
        with pytest.raises(TrivialInput):
            curve5.point(5, 0).reflect_second()
        with pytest.raises(TrivialInput):
            curve5.point(-5, 0).reflect_third()


# Each reflection with the abscissa e/N of its 2-torsion point and its pole
# message.
REFLECTIONS = [
    ("reflect_first", 0, "first reflection is undefined at x = 0"),
    ("reflect_second", 1, "second reflection is undefined at x = N"),
    ("reflect_third", -1, "third reflection is undefined at x = -N"),
]


class TestSecantMapAgainstGroupLaw:
    """The secant through P and (e, 0) meets the curve again at -(P + (e, 0)):
    an oracle from the chord-and-tangent law, independent of the closed form."""

    @pytest.mark.parametrize("reflect, sign, message", REFLECTIONS)
    def test_reflection_is_minus_the_sum_with_its_torsion_point(
        self, seeds, reflect, sign, message
    ):
        for seed in seeds:
            torsion = seed.curve.point(sign * seed.curve.N, 0)
            point = seed
            for _ in range(8):  # kP for k = 1, ..., 8
                assert getattr(point, reflect)() == point.add(torsion).neg()
                point = point.add(seed)

    @pytest.mark.parametrize("reflect, sign, message", REFLECTIONS)
    def test_pole_keeps_its_message(self, seeds, reflect, sign, message):
        for seed in seeds:
            curve = seed.curve
            for pole in (curve.point(sign * curve.N, 0), curve.infinity()):
                with pytest.raises(TrivialInput, match=f"^{re.escape(message)}$"):
                    getattr(pole, reflect)()


class TestSameParityPair:
    def test_even_pair(self, p5):
        pair = same_parity_pair(p5, 2, 4)
        assert is_square(pair.P.x * pair.Q.x)

    def test_odd_pair(self, p5):
        pair = same_parity_pair(p5, 1, 3)
        assert is_square(pair.P.x * pair.Q.x)

    def test_parity_mismatch(self, p5):
        with pytest.raises(DegeneratePair):
            same_parity_pair(p5, 1, 2)

    def test_equal_or_zero_multipliers(self, p5):
        with pytest.raises(DegeneratePair):
            same_parity_pair(p5, 3, 3)
        with pytest.raises(DegeneratePair):
            same_parity_pair(p5, 0, 2)

    def test_opposite_multipliers_share_abscissa(self, p5):
        with pytest.raises(DegeneratePair):
            same_parity_pair(p5, -2, 2)

    def test_trivial_base_point(self, curve5):
        with pytest.raises(DegeneratePair):
            same_parity_pair(curve5.point(0, 0), 1, 3)

    def test_multiple_at_infinity_off_the_curve(self, curve5):
        # Off the curve, the tangent at (3, 1/3) has slope (27 - 25)/(2/3) = 3,
        # whose square is 3x: 2P = (3, -1/3) = -P, so 3P is infinity. The
        # base point is refused before its multiples are built.
        p = curve5.point(3, Fraction(1, 3))
        assert p.mul(3) == curve5.infinity()
        with pytest.raises(DegeneratePair, match=f"^base point {re.escape(str(p))} is not on its"):
            same_parity_pair(p, 1, 3)

    def test_bad_chain_fails_the_square_check(self, monkeypatch, curve5, p5):
        # (45, 300) is on the curve but is not 3P: its x-product with P is -180.
        planted, mul = curve5.point(45, 300), CurvePoint.mul
        monkeypatch.setattr(CurvePoint, "mul", lambda p, k: planted if k == 3 else mul(p, k))
        message = "(1P, 3P) is refused: x-product -180 is not a rational square;"
        with pytest.raises(SquareCheckFailed, match=re.escape(message)):
            same_parity_pair(p5, 1, 3)

    @pytest.mark.parametrize("x, y", [(1, 1), (2, 1), (9, 2)])
    def test_base_point_off_the_curve(self, curve5, x, y):
        # Off the curve the multiples have no square x-product, and no group
        # law is at fault: the base point is refused, after the multiplier
        # check that the sweep runs.
        p = curve5.point(x, y)
        with pytest.raises(DegeneratePair, match=f"^base point {re.escape(str(p))} is not on its"):
            same_parity_pair(p, 1, 3)

    def test_square_products_for_all_parity_pairs(self, p5):
        # 1 <= k < m <= 8, same parity: twelve pairs, all square products.
        checked = 0
        for k in range(1, 8):
            for m in range(k + 2, 9, 2):
                pair = same_parity_pair(p5, k, m)
                assert is_square(pair.P.x * pair.Q.x)
                checked += 1
        assert checked == 12


class TestSolutionPair:
    def test_rejects_non_square_product(self, curve5, p5):
        with pytest.raises(DegeneratePair):
            SolutionPair(p5, p5.double())  # product is negative

    def test_rejects_trivial_points(self, curve5, p5):
        with pytest.raises(DegeneratePair):
            SolutionPair(p5, curve5.point(0, 0))

    def test_rejects_equal_abscissae(self, p5):
        with pytest.raises(DegeneratePair):
            SolutionPair(p5, p5.neg())

    def test_rejects_off_curve_points(self, curve5):
        with pytest.raises(DegeneratePair):
            SolutionPair(curve5.point(1, 1), curve5.point(4, 2))

    def test_rejects_curve_mismatch(self, p5):
        with pytest.raises(CurveMismatch):
            SolutionPair(p5, CongruentCurve(6).point(-3, 9))


class TestChainElements:
    """The element (a, d, b, r, c) of each chain point: x = a/d^2, y = b/d^3,
    and r^2 = a c for the x numerator c of the first point of its parity."""

    def test_elements_of_the_packaged_chains(self, seeds):
        for seed in seeds:
            chain = [seed.mul(j) for j in range(1, 10)]
            multiples = _multiples(seed, 9)
            n = seed.curve.N
            images = [_secant_element(n, n, e, j) for j, e in enumerate(multiples, 1)]
            for points, triples in (
                (chain, multiples), ([p.reflect_second() for p in chain], images)
            ):
                elements = _chain_elements(triples)
                for j, (point, (a, d, b, r, c)) in enumerate(zip(points, elements)):
                    # A curve point's own numerators, over d^2 and d^3.
                    assert (a, d * d, b, d ** 3) == (
                        point.x.numerator, point.x.denominator,
                        point.y.numerator, point.y.denominator,
                    )
                    assert c == elements[j % 2][0] and r * r == a * c and r >= 0

    def test_denominators_form_a_strong_divisibility_sequence(self, seeds):
        # gcd(d_k, d_m) = d_gcd(k, m) for the chain's d (Ward, Amer. J. Math.
        # 70, 1948), over 12 seeds and 1 <= k < m <= 30. The second-reflected
        # images' denominators are no such sequence.
        for seed in list(seeds) + list(triangle_seeds(8)):
            d = [None] + [element[1] for element in _multiples(seed, 30)]
            for m in range(2, 31):
                for k in range(1, m):
                    assert gcd(d[k], d[m]) == d[gcd(k, m)], (seed, k, m)

    @pytest.mark.parametrize(
        "x, y", [(Fraction(25, 2), 1), (2, Fraction(1, 3)), (Fraction(3, 4), Fraction(5, 4))]
    )
    def test_off_curve_points_are_scaled_exactly(self, curve5, x, y):
        a, d, b = curve5.point(x, y).element
        assert d > 0 and Fraction(a, d * d) == x and Fraction(b, d ** 3) == y

    def test_planted_point_fails_the_class_check(self, curve5, p5):
        # (45, 300) is on the curve but is not 3P: 45 * (-4) is no square.
        chain = reference_elements([p5, p5.double(), curve5.point(45, 300)])
        with pytest.raises(SquareCheckFailed, match="^x of chain point 3 is not in the square"):
            _chain_elements(chain)

    @pytest.mark.parametrize(
        "triple, content, element",
        [((1681, 62279, 12), 1, (1681, 12, 62279)),
         # (2^2 a, 2^3 b, 2 d) and (a, -b, -d) stand for the point (a, d, b).
         ((4 * 1681, 8 * 62279, 24), 4, (1681, 12, 62279)),
         ((1681, -62279, -12), 1, (1681, 12, 62279))],
    )
    def test_reduction_divides_out_the_content(self, triple, content, element):
        assert _reduced(*triple, content, 2) == element

    @pytest.mark.parametrize(
        "triple, content", [((2, 1, 4), 2), ((9, 1, 0), 9)], ids=["content-2", "infinity"]
    )
    def test_reduction_refuses_a_broken_triple(self, triple, content):
        with pytest.raises(SquareCheckFailed, match="^chain point 4 has no integer element"):
            _reduced(*triple, content, 4)


def pair_root(pair):
    """The root r = isqrt(a1 a2) that the build takes for an admitted pair
    from its elements, with sqrt(XZ) = r/(d1 d2)."""
    return pair_elements(pair)[0][3]


class TestPairRoot:
    """The build's integer root of a standalone pair, isqrt(a1 a2) of the
    x numerators of the points' elements."""

    def test_root_over_generated_pairs(self, seeds):
        pairs = generated_pairs(seeds, max_multiple=6)
        assert len(pairs) >= 20
        for pair in pairs:
            (_, d1, *_), (_, d2, *_) = pair_elements(pair)
            assert pair_root(pair) == sqrt_exact(pair.P.x * pair.Q.x) * d1 * d2

    @pytest.mark.parametrize(
        "x, z, root",
        [(-4, 45, None), (Fraction(25, 4), Fraction(-5, 9), None), (-4, Fraction(-5, 9), None),
         (Fraction(25, 4), Fraction(1681, 144), 205), (Fraction(1681, 144), Fraction(25, 4), 205),
         (-4, Fraction(-2439844, 5094049), 2 * 1562)],
    )
    def test_root_of_chosen_abscissae(self, curve5, x, z, root):
        # Points of the N = 5 curve: P = (-4, 6), its 2-torsion translates,
        # 2P and 3P. No pair has an x-product that is no square.
        p, q = (curve5.point(v, sqrt_exact(curve5.rhs(v))) for v in (x, z))
        if root is None:
            message = f"^x-product {x * z} is not a rational square$"
            with pytest.raises(DegeneratePair, match=message):
                SolutionPair(p, q)
        else:
            assert pair_root(SolutionPair(p, q)) == root

    def test_golden_root(self, golden_pair):
        # sqrt(XZ) = (5 * 41)/(2 * 12), over d1 d2 = 2 * 12.
        assert pair_root(golden_pair) == 5 * 41

    def test_a_pair_holds_only_its_points(self, seeds, golden_pair):
        p, q = golden_pair.P, golden_pair.Q
        elements = p.element, q.element
        pairs = [
            SolutionPair(p, q),
            element_pair(p.curve, *elements),
            same_parity_pair(seeds[0], 1, 3),
        ]
        assert [f.name for f in dataclasses.fields(SolutionPair)] == ["P", "Q"]
        for pair in pairs:
            assert set(vars(pair)) == {"P", "Q"}
            for parametrization in PARAMETRIZATIONS:
                build_npc(pair, parametrization)
            assert set(vars(pair)) == {"P", "Q"}


class TestKummerMap:
    def test_golden_pair(self, golden_pair):
        xi, zeta, eta = kummer_map(golden_pair)
        assert (xi, zeta) == (Fraction(5, 4), Fraction(1681, 720))
        assert eta == Fraction(62279, 23040)
        assert eta * eta == xi * zeta * (xi * xi - 1) * (zeta * zeta - 1)

    def test_identity_over_generated_pairs(self, seeds):
        count = 0
        for pair in generated_pairs(seeds, max_multiple=6):
            xi, zeta, eta = kummer_map(pair)
            assert eta * eta == xi * zeta * (xi * xi - 1) * (zeta * zeta - 1)
            assert eta != 0 and xi != zeta
            count += 1
        assert count >= 20


class TestSerialization:
    def test_point_round_trip(self, p5):
        assert point_from_json(point_to_json(p5)) == p5

    def test_infinity_round_trip(self, curve5):
        record = point_to_json(curve5.infinity())
        assert record == {"N": 5, "infinity": True}
        assert point_from_json(record) == curve5.infinity()

    def test_default_seeds(self, seeds):
        assert [s.curve.N for s in seeds] == [5, 6, 7, 34]
        for seed in seeds:
            assert seed.on_curve() and not seed.is_trivial

    def test_seed_file_loading(self, tmp_path):
        path = tmp_path / "seeds.jsonl"
        path.write_text(json.dumps({"N": 5, "x": "-4", "y": "6"}) + "\n")
        assert load_seeds(path)[0].x == -4

    def test_invalid_seed_rejected(self, tmp_path):
        path = tmp_path / "seeds.jsonl"
        path.write_text(json.dumps({"N": 5, "x": "1", "y": "1"}) + "\n")
        with pytest.raises(InvalidSeed):
            load_seeds(path)

    def test_malformed_seed_rejected(self, tmp_path):
        path = tmp_path / "seeds.jsonl"
        path.write_text('{"N": 5}\n')
        with pytest.raises(InvalidSeed):
            load_seeds(path)

    @pytest.mark.parametrize("n", [5.9, 5.0, "5", True, None])
    def test_non_integer_curve_parameter_rejected(self, tmp_path, n):
        # A float was truncated: N = 5.9 loaded the seed onto the curve N = 5.
        path = tmp_path / "seeds.jsonl"
        path.write_text(json.dumps({"N": n, "x": "-4", "y": "6"}) + "\n")
        with pytest.raises(InvalidSeed, match="N must be an integer"):
            load_seeds(path)


# The Fraction curve equation that the integer form in curve.py replaced,
# kept as its oracle. The Fraction group law, reference_add, and the Fraction
# secant map, reference_secant_image, are in helpers.


def reference_contains(curve, x, y):
    return y * y == x ** 3 - curve.N ** 2 * x


def outcome(operation, *args):
    """The resulting point with the types of its coordinates, or the error's
    type and message."""
    try:
        point = operation(*args)
    except (NpcuboidError, ValueError) as exc:
        return type(exc), str(exc)
    except ZeroDivisionError:
        # A Fraction with denominator 0; its message quotes a numerator that
        # depends on how the quotient was formed.
        return (ZeroDivisionError,)
    return point, type(point.x), type(point.y)


ORACLE_SEEDS = tuple(load_seeds()) + triangle_seeds(8)


@functools.cache
def oracle_operands(index):
    """Infinity, the three 2-torsion points and +-kP for k = 1, ..., 8 of one
    seed, with the multiples taken by the reference group law."""
    seed = ORACLE_SEEDS[index]
    curve = seed.curve
    multiples = reference_chain(seed, 8)
    torsion = [curve.point(e, 0) for e in (0, curve.N, -curve.N)]
    return [curve.infinity(), *torsion, *multiples, *(p.neg() for p in multiples)]


seed_indices = st.integers(0, len(ORACLE_SEEDS) - 1)
operand_indices = st.integers(0, 19)


class TestIntegerGroupLawAgainstFractionReference:
    @given(seed_indices, operand_indices, operand_indices, st.sampled_from(["any", "same", "neg"]))
    @settings(max_examples=300, deadline=None)
    def test_add_matches_reference(self, seed, i, j, relation):
        operands = oracle_operands(seed)
        p = operands[i]
        q = {"any": operands[j], "same": p, "neg": p.neg()}[relation]
        assert outcome(p.add, q) == outcome(reference_add, p, q)

    @pytest.mark.parametrize("seed", range(len(ORACLE_SEEDS)))
    def test_special_operands(self, seed):
        operands = oracle_operands(seed)
        infinity = operands[0]
        for p in operands:
            for q in (p, p.neg(), infinity, *operands[1:4]):
                assert outcome(p.add, q) == outcome(reference_add, p, q)
                assert outcome(q.add, p) == outcome(reference_add, q, p)

    @given(seed_indices, seed_indices, operand_indices, operand_indices)
    @settings(max_examples=100, deadline=None)
    def test_curve_mismatch_matches_reference(self, first, second, i, j):
        assume(ORACLE_SEEDS[first].curve != ORACLE_SEEDS[second].curve)
        p, q = oracle_operands(first)[i], oracle_operands(second)[j]
        expected = outcome(reference_add, p, q)
        assert expected[0] is CurveMismatch
        assert outcome(p.add, q) == expected

    @given(seed_indices, operand_indices, st.sampled_from(REFLECTIONS))
    @settings(max_examples=200, deadline=None)
    def test_secant_map_matches_reference(self, seed, i, reflection):
        reflect, sign, message = reflection
        p = oracle_operands(seed)[i]
        e = sign * p.curve.N
        assert outcome(getattr(p, reflect)) == outcome(reference_secant_image, p, e, message)

    @given(
        seed_indices,
        st.integers(1, 19),
        st.fractions(max_denominator=50),
        st.fractions(max_denominator=50),
    )
    @settings(max_examples=300, deadline=None)
    def test_contains_matches_reference(self, seed, i, dx, dy):
        p = oracle_operands(seed)[i]
        curve = p.curve
        for x, y in ((p.x, p.y), (p.x + dx, p.y), (p.x, p.y + dy), (dx, dy)):
            assert curve.contains(x, y) == reference_contains(curve, x, y)
        assert curve.contains(p.x, p.y)

    def test_contains_takes_integers(self, curve5):
        for x, y in ((-4, 6), (-4, -6), (0, 0), (5, 0), (1, 1), (45, 300), (45, 301)):
            assert curve5.contains(x, y) == reference_contains(curve5, Fraction(x), Fraction(y))

    @given(
        st.sampled_from([5, 6, 34]),
        st.fractions(max_denominator=50),
        st.fractions(max_denominator=50),
        st.fractions(max_denominator=50),
        st.fractions(max_denominator=50),
        st.sampled_from(["any", "same x", "same", "neg", "zero y", "other curve", "infinity"]),
    )
    @settings(max_examples=400, deadline=None)
    def test_off_curve_operands_match_reference(self, n, x1, y1, x2, y2, relation):
        # CurvePoint does not validate its points, so the law must agree with
        # the reference on any rational pair: at a shared abscissa it takes
        # the tangent at the first point, vertical when that point has y = 0.
        curve = CongruentCurve(n)
        p = curve.point(x1, y1)
        q = {
            "any": curve.point(x2, y2),
            "same x": curve.point(x1, y2),
            "same": p,
            "neg": p.neg(),
            "zero y": curve.point(x1, 0),
            "other curve": CongruentCurve(n + 1).point(x2, y2),
            "infinity": curve.infinity(),
        }[relation]
        for first, second in ((p, q), (q, p)):
            assert outcome(first.add, second) == outcome(reference_add, first, second)

    @pytest.mark.parametrize("x", [Fraction(0), Fraction(1), Fraction(-7, 3), Fraction(5)])
    def test_vertical_tangent_off_the_curve_divides_by_zero(self, curve5, x):
        # (x, 0) + (x, 2): the tangent at (x, 0) has slope (3x^2 - N^2)/0.
        p, q = curve5.point(x, 0), curve5.point(x, 2)
        assert outcome(p.add, q) == outcome(reference_add, p, q) == (ZeroDivisionError,)
        sum_ = outcome(q.add, p)
        assert sum_ == outcome(reference_add, q, p) and sum_[1] is Fraction


def reference_same_parity_pair(p, k, m, chain):
    """same_parity_pair on Fraction points, its checks in order with their
    messages, for chain = [P, 2P, ...] by reference_add, which covers |k|
    and |m|."""
    if k == m or k == 0 or m == 0:
        raise DegeneratePair("multipliers must be distinct and nonzero")
    if (k - m) % 2 != 0:
        raise DegeneratePair(f"multipliers {k} and {m} have different parity")
    if p.is_trivial:
        raise DegeneratePair("base point must be nontrivial")
    if k == -m:
        raise DegeneratePair(f"{k}P and {m}P share an abscissa")
    if not p.on_curve():
        raise DegeneratePair(f"base point {p} is not on its curve")
    kp, mp = (chain[j - 1] if j > 0 else chain[-j - 1].neg() for j in (k, m))
    if not is_square(kp.x * mp.x):
        raise SquareCheckFailed(
            f"({k}P, {m}P) is refused: x-product {kp.x * mp.x} is not a rational square;"
            " group law is broken"
        )
    return SolutionPair(kp, mp)


class TestSameParityPairAgainstReference:
    @pytest.mark.parametrize("seed", range(len(ORACLE_SEEDS)))
    def test_small_multipliers(self, monkeypatch, seed):
        # -10 <= k, m <= 10 on the seed and on the 2-torsion point (N, 0); one
        # call of the sweep's multiplier check per pair.
        calls = []
        check = curve_module._multiplier_defect

        def counting_check(k, m):
            calls.append((k, m))
            return check(k, m)

        monkeypatch.setattr(curve_module, "_multiplier_defect", counting_check)
        seed = ORACLE_SEEDS[seed]
        multipliers = range(-10, 11)
        for p in (seed, seed.curve.point(seed.curve.N, 0)):
            chain = reference_chain(p, 10)
            for k in multipliers:
                for m in multipliers:
                    expected = pair_outcome(reference_same_parity_pair, p, k, m, chain)
                    assert pair_outcome(same_parity_pair, p, k, m) == expected
        assert calls == [(k, m) for k in multipliers for m in multipliers] * 2


class TestSecantMapOnElements:
    """The one secant map, _secant_element on elements (a, d, b), against
    the three reflections and against the Fraction secant map."""

    @pytest.mark.parametrize("seed", range(len(ORACLE_SEEDS)))
    @pytest.mark.parametrize("reflect, sign, message", REFLECTIONS)
    def test_element_image_of_each_multiple(self, seed, reflect, sign, message):
        # +-kP for k = 1, ..., 8.
        for point in oracle_operands(seed)[4:]:
            e = sign * point.curve.N
            image = _secant_element(point.curve.N, e, point.element)
            assert image == getattr(point, reflect)().element
            assert image == reference_secant_image(point, e, message).element

    @given(
        seed_indices,
        st.integers(1, 19),
        st.sampled_from(REFLECTIONS),
        st.fractions(max_denominator=50),
        st.fractions(max_denominator=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_points_off_the_curve_map_as_the_reference_does(
        self, seed, i, reflection, dx, dy
    ):
        # Their elements need not be coprime; the reflections reduce by Fraction.
        reflect, sign, message = reflection
        p = oracle_operands(seed)[i]
        e = sign * p.curve.N
        for q in (p.curve.point(p.x + dx, p.y), p.curve.point(p.x, p.y + dy)):
            assert outcome(getattr(q, reflect)) == outcome(reference_secant_image, q, e, message)


class TestPairElementsOfAdmittedPairs:
    """_pair_elements on the pairs that SolutionPair admits."""

    @given(seed_indices, st.integers(4, 19), st.integers(4, 19), st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_root_squares_to_the_numerator_product(self, seed, i, j, translate):
        # P is a multiple +-iP and Q a multiple +-jP moved by infinity or a
        # 2-torsion point; a pair that SolutionPair refuses, the Fraction
        # checks refuse with the same error.
        operands = oracle_operands(seed)
        p, q = operands[i], operands[j].add(operands[translate])
        try:
            pair = SolutionPair(p, q)
        except NpcuboidError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                reference_pair_checks(p, q)
            return
        first, second = pair_elements(pair)
        for point, (a, d, b, *_) in zip((p, q), (first, second)):
            assert (Fraction(a, d * d), Fraction(b, d ** 3)) == (point.x, point.y) and d > 0
        (a1, _, _, r, c), (a2, _, _, r2, c2) = first, second
        assert c == c2 == a2 and r2 == abs(a2)
        assert r > 0 and r * r == a1 * a2 and is_square(p.x * q.x)


def pair_outcome(construct, *args):
    """The pair and its root, or the error's type and message."""
    try:
        pair = construct(*args)
    except (NpcuboidError, ValueError) as exc:
        return type(exc), str(exc)
    return pair, pair_root(pair)


class TestPairChecksOnElements:
    """SolutionPair's checks, run on elements, against the Fraction checks;
    a pair of points made from their elements raises what the pair of the
    points made from Fractions raises."""

    @pytest.mark.parametrize(
        "p, q, message",
        [
            ((5, 0), (45, 300), "requires points with y != 0"),
            ((-4, 6), (0, 0), "requires points with y != 0"),
            ((-4, 6), (-4, -6), "requires distinct abscissae"),
            # Off the curve, with elements (2, 1, 1) and (8, 2, 4): x = 2 twice.
            ((2, 1), (2, Fraction(1, 2)), "requires distinct abscissae"),
            ((1, 1), (4, 2), "must satisfy the curve equation"),
            ((-4, 6), (Fraction(25, 4), 1), "must satisfy the curve equation"),
            ((-4, 6), (45, 300), "x-product -180 is not a rational square"),
            ((-4, 6), (Fraction(1681, 144), Fraction(-62279, 1728)), "x-product -1681/36 is"),
            ((Fraction(25, 4), Fraction(75, 8)), (Fraction(1681, 144), Fraction(62279, 1728)),
             None),
        ],
    )
    def test_failing_cases_keep_their_messages(self, curve5, p, q, message):
        p, q = curve5.point(*p), curve5.point(*q)
        elements = p.element, q.element
        if message is None:
            reference_pair_checks(p, q)
            expected = pair_outcome(SolutionPair, p, q)
            assert expected[1] == sqrt_exact(p.x * q.x) * elements[0][1] * elements[1][1]
        else:
            expected = pair_outcome(reference_pair_checks, p, q)
            assert expected[0] is DegeneratePair and message in expected[1]
            assert pair_outcome(SolutionPair, p, q) == expected
        assert pair_outcome(element_pair, curve5, *elements) == expected

    def test_element_pairs_of_generated_pairs(self, seeds):
        for pair in generated_pairs(list(seeds) + list(triangle_seeds(8)), max_multiple=6):
            elements = pair.P.element, pair.Q.element
            built = element_pair(pair.curve, *elements)
            assert built == pair and pair_root(built) == pair_root(pair)
            for point, twin in ((built.P, pair.P), (built.Q, pair.Q)):
                assert (point.x, point.y) == (twin.x, twin.y)
                assert type(point.x) is type(point.y) is Fraction
