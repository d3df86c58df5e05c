import re
from fractions import Fraction
from itertools import permutations, product
from math import gcd, isqrt, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from npcuboid import (
    FAMILIES,
    FAMILY_OF_PARAMETRIZATION,
    PARAMETRIZATIONS,
    CongruentCurve,
    Cuboid,
    CuboidSource,
    CurveMismatch,
    DegeneratePair,
    NpcuboidError,
    SolutionPair,
    SquareCheckFailed,
    TrivialParameter,
    build_npc,
    cuboid_from_json,
    cuboid_to_json,
    is_square,
    kummer_map,
    load_seeds,
    pc_condition,
    pc_equation_residual,
    primitive_integer_scaling,
    same_parity_pair,
    second_parameter_from_third,
    sqrt_exact,
    verify_npc,
)

import npcuboid.curve as curve_module
from npcuboid.cuboids import (
    _conic_point,
    _family_terms,
    _npc_entries,
    _primitive_conic_point,
)
from npcuboid.curve import _TRIVIAL_PAIR, _chain_elements, _multiples, _secant_element

from helpers import (
    generated_pairs,
    pair_elements,
    reference_chain,
    reference_verify_npc,
    triangle_seeds,
)

# The five integer cuboids produced by the N=5 pair (25/4, 1681/144), in
# field order (a, b, c, d_bc, d_ac, d_s).
GOLDEN_CUBOIDS = {
    "invariant": (9840, 4557, 3124, 5525, 10324, 11285),
    "first": (5079408, 1762717, 2242044, 2852005, 5552220, 5825317),
    "first_reflected": (5035485, 7050868, 8968176, 11408020, 10285149, 12469925),
    "second": (863005, 2242044, 1537008, 2718300, 1762717, 2852005),
    "second_reflected": (8063044, 11210220, 3559017, 11761617, 8813585, 14260025),
}


def _ratios_invariant(n, x, z, yw, root):
    half = 2 * root
    return (
        Fraction(1),
        yw / (2 * x * z * n),
        (x - z) / half,
        (n * n - x * z) / (n * half),
        (x + z) / half,
        (n * n + x * z) / (n * half),
    )


def _ratios_first(n, x, z, yw, root):
    s = x * z + n * n
    t = x + z
    return (
        2 * n * root / s,
        (x - z) / t,
        2 * yw / (s * t),
        (x * z - n * n) / s,
        2 * root / t,
        Fraction(1),
    )


def _ratios_first_reflected(n, x, z, yw, root):
    s = x * z + n * n
    u = x * z - n * n
    return (
        yw / (s * root),
        n * (z - x) / u,
        2 * n * yw / (u * s),
        n * (x + z) / s,
        yw / (u * root),
        Fraction(1),
    )


def _ratios_second(n, x, z, yw, root):
    d = x - z
    u = n * n - x * z
    return (
        Fraction(1),
        2 * yw / (d * u),
        2 * n * root / u,
        2 * root / d,
        (n * n + x * z) / u,
        (x + z) / d,
    )


def _ratios_second_reflected(n, x, z, yw, root):
    t = x + z
    u = x * z - n * n
    return (
        Fraction(1),
        2 * yw / (n * (z * z - x * x)),
        yw / (n * t * root),
        yw / (n * (z - x) * root),
        (x * z + n * n) / (n * t),
        u / (n * (z - x)),
    )


# Signed ratios (a, b, c, d_bc, d_ac, d_s) of each parametrization in closed
# form, written in the pair's own abscissae: an oracle independent of the
# second reflection through which build_npc derives the reflected cuboids.
CLOSED_FORM_RATIOS = {
    "invariant": _ratios_invariant,
    "first": _ratios_first,
    "first_reflected": _ratios_first_reflected,
    "second": _ratios_second,
    "second_reflected": _ratios_second_reflected,
}


def _reference_variables(pair, family):
    """alpha, beta and the gamma condition in Fraction arithmetic."""
    n = pair.curve.N
    x, z = pair.P.x, pair.Q.x
    yw = pair.P.y * pair.Q.y
    if family == "first" and x + z == 0:
        raise DegeneratePair("X = -Z vanishes the first-family denominator")
    if family == "second" and (x == z or x * z == n * n):
        raise DegeneratePair("X = Z or XZ = N^2 vanishes the second-family denominator")
    root = sqrt_exact(x * z)
    if root == 0:
        raise DegeneratePair("XZ = 0 leaves no ratio of the abscissae")
    if family == "first":
        return root / n, root / abs(z), yw / ((x * z + n * n) * (x + z))
    if family == "second":
        return root / abs(x), root / n, yw / ((x - z) * (n * n - x * z))
    return root / n, root / abs(x), yw / (x * z * n)


# Each family's conic and its positive point at t: (|1-t^2|, |2t|)/(1+t^2)
# on x^2 + y^2 = 1, and (1+t^2, |2t|)/|1-t^2| or (1+t^2, |1-t^2|)/|2t| on
# x^2 - y^2 = 1.
_REFERENCE_CONICS = {
    "first": ("circle", lambda t: (abs(1 - t * t) / (1 + t * t), abs(2 * t) / (1 + t * t))),
    "second": ("hyperbola", lambda t: ((1 + t * t) / abs(1 - t * t), abs(2 * t) / abs(1 - t * t))),
    "third": ("hyperbola", lambda t: ((1 + t * t) / abs(2 * t), abs(1 - t * t) / abs(2 * t))),
}


def reference_conic_point(family, t):
    """The family's conic point at t in Fraction arithmetic."""
    conic, point = _REFERENCE_CONICS[family]
    if t in (0, 1, -1):
        raise TrivialParameter(f"{conic} parameter {t} degenerates")
    return point(t)


def conic_fractions(family, t):
    """_conic_point at t as the two Fractions x/denominator and y/denominator."""
    x, y, denominator = _conic_point(family, t.numerator, t.denominator)
    return Fraction(x, denominator), Fraction(y, denominator)


def as_fractions(terms):
    """Integer fractions (p, q) as Fractions."""
    return tuple(Fraction(*term) for term in terms)


def family_terms(pair, family):
    """_family_terms of a standalone pair: alpha, beta and the gamma condition."""
    return as_fractions(_family_terms(pair.curve.N, *pair_elements(pair), family))


def reference_build_npc(pair, parametrization):
    """The Fraction construction that build_npc replaced: conic points of
    alpha and beta as rationals, scaled to integers at the end. An oracle
    for the integer construction, exceptions and their messages included."""
    if parametrization not in FAMILY_OF_PARAMETRIZATION:
        raise ValueError(f"unknown parametrization {parametrization!r}")
    family = FAMILY_OF_PARAMETRIZATION[parametrization]
    if pair.P.is_trivial or pair.Q.is_trivial:
        raise DegeneratePair("solution pair holds a trivial point")
    source = CuboidSource(
        N=pair.curve.N, X=pair.P.x, Z=pair.Q.x, parametrization=parametrization
    )
    if parametrization.endswith("_reflected"):
        pair = SolutionPair(pair.P.reflect_second(), pair.Q.reflect_second())
    alpha, beta, gamma_condition = _reference_variables(pair, family)
    try:
        (ax, ay), (bx, by) = (reference_conic_point(family, t) for t in (alpha, beta))
    except TrivialParameter as exc:
        raise DegeneratePair(str(exc)) from exc
    g = abs(gamma_condition)
    if family == "first":
        entries = (ay, bx, 2 * g, ax, by, 1)
    elif family == "second":
        entries = (1, 2 * g, by, ay, bx, ax)
    else:
        entries = (1, g / 2, by, ay, bx, ax)
    a, b, c, d_bc, d_ac, d_s = map(Fraction, primitive_integer_scaling(entries))
    return Cuboid(a, b, c, d_bc, d_ac, d_s, d_ab_sq=a * a + b * b, source=source)


def _lowest(p, q):
    g = gcd(p, q)
    if q < 0:
        g = -g
    return p // g, q // g


def reference_family_parameters(pair, family):
    """The pair-root construction that the element path replaced: alpha, beta
    and the gamma condition read off the numerators and denominators of X, Z,
    YW and N, with sqrt(XZ) from one isqrt of xn zn xd zd. An oracle for
    _family_terms, exceptions and their messages included."""
    n = pair.curve.N
    x, z = pair.P.x, pair.Q.x
    xn, xd, zn, zd = x.numerator, x.denominator, z.numerator, z.denominator
    xz_num, xz_den = xn * zn, xd * zd
    yw_num = pair.P.y.numerator * pair.Q.y.numerator
    yw_den = pair.P.y.denominator * pair.Q.y.denominator
    if family == "first":
        total = xn * zd + zn * xd
        if total == 0:
            raise DegeneratePair("X = -Z vanishes the first-family denominator")
    elif family == "second":
        difference = xn * zd - zn * xd
        gap = n * n * xz_den - xz_num
        if difference == 0 or gap == 0:
            raise DegeneratePair("X = Z or XZ = N^2 vanishes the second-family denominator")
    product = xz_num * xz_den
    whole = isqrt(max(product, 0))
    if whole * whole != product:
        sqrt_exact(x * z)
    if whole == 0:
        raise DegeneratePair("XZ = 0 leaves no ratio of the abscissae")
    rn, rd = _lowest(whole, xz_den)
    common = gcd(rn, n)
    over_n = rn // common, rd * (n // common)
    if family == "first":
        over_z = _lowest(rn * zd, rd * abs(zn))
        gamma = yw_num * xz_den * xz_den, yw_den * (xz_num + n * n * xz_den) * total
        return over_n, over_z, _lowest(*gamma)
    over_x = _lowest(rn * xd, rd * abs(xn))
    if family == "second":
        gamma = yw_num * xz_den * xz_den, yw_den * difference * gap
        return over_x, over_n, _lowest(*gamma)
    return over_n, over_x, _lowest(yw_num * xz_den, yw_den * xz_num * n)


def reference_npc_entries(pair, family):
    """The entries that the pair-root construction built: an oracle for
    _npc_entries on the element path."""
    alpha, beta, (gn, gd) = reference_family_parameters(pair, family)
    try:
        ax, ay, a_den = _conic_point(family, *alpha)
        bx, by, b_den = _conic_point(family, *beta)
    except TrivialParameter as exc:
        raise DegeneratePair(str(exc)) from exc
    one = lcm(a_den, b_den, gd)
    g = abs(gn) * (one // gd)
    ax, ay = ax * (one // a_den), ay * (one // a_den)
    bx, by = bx * (one // b_den), by * (one // b_den)
    if family == "first":
        entries = (ay, bx, 2 * g, ax, by, one)
    elif family == "second":
        entries = (one, 2 * g, by, ay, bx, ax)
    else:
        entries = (2 * one, g, 2 * by, 2 * ay, 2 * bx, 2 * ax)
    entries = tuple(primitive_integer_scaling(entries))
    for name, value in zip(("a", "b", "c", "d_bc", "d_ac", "d_s"), entries):
        if value <= 0:
            raise ValueError(f"cuboid entry {name} must be positive")
    return entries


def content_factors(n, first, second, family):
    """The factors of _npc_entries' closed-form content, recomputed from the
    unreduced parameters: u = gcd(p, q) and e (2 when p/u and q/u are both
    odd) of alpha (u1, e1) and beta (u2, e2), then h and r in the first two
    families, and gcd(A, B) in the third."""
    alpha, beta, (gn, _) = _family_terms(n, first, second, family)
    factors, denominators = {}, []
    for side, (p, q) in (("1", alpha), ("2", beta)):
        u = gcd(p, q)
        e = 2 if (p // u) % 2 and (q // u) % 2 else 1
        factors["u" + side], factors["e" + side] = u, e
        denominators.append(_conic_point(family, p // u, q // u)[2] // e)
    scales = [factors[f"u{side}"] ** 2 * factors[f"e{side}"] for side in "12"]
    c = abs(first[4])
    if family == "third":
        factors["gcd(A, B)"] = gcd(c * scales[0], n * scales[1])
    else:
        twice_g = 2 * c * abs(gn)
        factors["h"] = gcd(scales[0] * scales[1], twice_g)
        factors["r"] = gcd(*denominators, twice_g // factors["h"])
    return factors


def outcome(function, *args):
    """function(*args), or the type and message of the error it raises."""
    try:
        return function(*args)
    except (NpcuboidError, ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


PACKAGED_SEEDS = load_seeds()
SAME_PARITY_MULTIPLES = [(k, m) for k in range(1, 10) for m in range(k + 2, 10, 2)]

# Abscissae of pairs off the N = 5 curve, with y = 1 (y = 0 at the 2-torsion
# abscissa 5), each at a degeneracy of the build's formulas that no pair of
# curve points reaches.
OFF_CURVE = "solution pair points must satisfy the curve equation"
DEGENERATE_ABSCISSAE = [
    (2, Fraction(25, 2), OFF_CURVE),  # XZ = N^2
    (2, -2, OFF_CURVE),  # X = -Z
    (0, 4, OFF_CURVE),  # XZ = 0
    # X = Z: (X - Z)(N^2 - XZ) vanishes, also after the second reflection.
    (-4, -4, "solution pair requires distinct abscissae"),
    (1, 25, OFF_CURVE),  # XZ = N^2 again: alpha = 1 on the first conic
    (4, Fraction(25, 4), OFF_CURVE),  # XZ = N^2, reflected: X' + Z' = 0
    (2, 3, OFF_CURVE),  # XZ not a square
    (5, 45, _TRIVIAL_PAIR),  # a 2-torsion point, of square x-product 225
]

# Point pairs that SolutionPair refuses, with the error it raises: the
# degenerate abscissae above, square x-products with y denominators that are
# no cube of x's root, a pair with infinity and a pair on two curves. No
# build can be given them.
CURVE5 = CongruentCurve(5)
REFUSED_PAIRS = [
    (CURVE5.point(x, 0 if x == 5 else 1), CURVE5.point(z, 1), DegeneratePair, message)
    for x, z, message in DEGENERATE_ABSCISSAE
] + [
    (
        CURVE5.point(Fraction(25, 4), Fraction(1, 3)),
        CURVE5.point(Fraction(1681, 144), Fraction(7, 2)),
        DegeneratePair,
        OFF_CURVE,
    ),
    (CURVE5.point(Fraction(9, 2), 1), CURVE5.point(2, Fraction(1, 5)), DegeneratePair, OFF_CURVE),
    (CURVE5.infinity(), CURVE5.point(-4, 6), DegeneratePair, _TRIVIAL_PAIR),
    (
        CURVE5.point(-4, 6),
        CongruentCurve(6).point(-3, 9),
        CurveMismatch,
        "solution pair must live on one curve",
    ),
]


class TestConicPoints:
    # _conic_point gives (x, y, denominator): the circle's (3, 4, 5) is the
    # point (3/5, 4/5).
    def test_circle_half(self):
        assert _conic_point("first", 1, 2) == (3, 4, 5)

    def test_circle_two(self):
        assert _conic_point("first", 2, 1) == (3, 4, 5)

    def test_hyperbola_a(self):
        assert _conic_point("second", 1, 2) == (5, 4, 3)

    def test_hyperbola_b(self):
        assert _conic_point("third", 1, 2) == (5, 3, 4)

    @given(st.fractions())
    def test_integer_forms_match_textbook_formulas(self, t):
        assume(t not in (0, 1, -1))
        for family, (_, point) in _REFERENCE_CONICS.items():
            assert conic_fractions(family, t) == point(t)

    @given(
        st.sampled_from(FAMILIES),
        st.integers(1, 10**6),
        st.integers(1, 10**6),
        st.integers(1, 10**4),
    )
    @settings(max_examples=200)
    def test_primitive_point_times_its_factor_is_the_unreduced_point(self, family, p, q, u):
        # u^2 e with u = gcd(p, q), and e = 2 when p/u and q/u are both odd.
        p, q = p * u, q * u
        assume(p != q)
        x, y, denominator, factor = _primitive_conic_point(family, p, q)
        assert gcd(x, y, denominator) == 1
        assert tuple(factor * v for v in (x, y, denominator)) == _conic_point(family, p, q)
        u = gcd(p, q)
        assert factor == (2 if (p // u) % 2 and (q // u) % 2 else 1) * u * u

    @pytest.mark.parametrize("t", [Fraction(1, 3), Fraction(7, 5), Fraction(-9, 2)])
    def test_points_satisfy_their_conics(self, t):
        x, y = conic_fractions("first", t)
        assert x * x + y * y == 1 and x > 0 and y > 0
        x, y = conic_fractions("second", t)
        assert x * x - y * y == 1 and x > 0 and y > 0
        x, y = conic_fractions("third", t)
        assert x * x - y * y == 1 and x > 0 and y > 0


class TestResidual:
    def test_third_family_constructed_zero(self):
        # beta = 1 kills its term, so gamma = alpha solves the equation.
        for alpha in (Fraction(2), Fraction(5, 3), Fraction(-7, 2)):
            assert pc_equation_residual("third", alpha, Fraction(1), alpha) == 0

    def test_third_family_reciprocal_zero(self):
        # gamma = 1 kills its term and beta = -1/alpha mirrors alpha's.
        alpha = Fraction(3, 2)
        assert pc_equation_residual("third", alpha, -1 / alpha, Fraction(1)) == 0

    def test_first_family_generic_nonzero(self):
        assert pc_equation_residual(
            "first", Fraction(2), Fraction(3), Fraction(5)
        ) != 0

    def test_second_family_generic_nonzero(self):
        assert pc_equation_residual(
            "second", Fraction(2), Fraction(3), Fraction(5)
        ) != 0

    def test_second_family_rejects_unit_parameters(self):
        with pytest.raises(TrivialParameter):
            pc_equation_residual("second", Fraction(1), Fraction(2), Fraction(3))

    def test_third_family_rejects_zero_parameter(self):
        with pytest.raises(TrivialParameter):
            pc_equation_residual("third", Fraction(2), Fraction(0), Fraction(3))

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            pc_equation_residual("fourth", Fraction(2), Fraction(3), Fraction(5))


def reference_pc_equation_residual(family, alpha, beta, gamma):
    """The three-branch residual that the term table replaced: an oracle for
    its values, exceptions and their messages included."""
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)

    if family == "first":
        def term(t):
            return (2 * t / (1 + t * t)) ** 2
        return term(alpha) + term(gamma) - term(beta)
    if family == "second":
        for t in (alpha, beta, gamma):
            if t * t == 1:
                raise TrivialParameter(f"parameter {t} vanishes a denominator")
        def term(t):
            return (2 * t / (1 - t * t)) ** 2
        return term(gamma) + term(beta) - term(alpha)
    if family == "third":
        for t in (alpha, beta, gamma):
            if t == 0:
                raise TrivialParameter("parameter 0 vanishes a denominator")
        def term(t):
            return ((1 - t * t) / (2 * t)) ** 2
        return term(gamma) + term(beta) - term(alpha)
    raise ValueError(f"unknown family {family!r}")


def residual_outcome(residual, family, parameters):
    """The residual, or the error's type and message."""
    try:
        return residual(family, *parameters)
    except (NpcuboidError, ValueError) as exc:
        return type(exc), str(exc)


# The parameters at which some family's term has a vanishing denominator.
SPECIAL_PARAMETERS = (Fraction(0), Fraction(1), Fraction(-1))


class TestResidualReference:
    @pytest.mark.parametrize("family", FAMILIES + ("fourth",))
    @given(st.fractions(), st.fractions(), st.fractions())
    @settings(max_examples=60, deadline=None)
    def test_table_matches_reference(self, family, alpha, beta, gamma):
        parameters = (alpha, beta, gamma)
        assert residual_outcome(pc_equation_residual, family, parameters) == residual_outcome(
            reference_pc_equation_residual, family, parameters
        )

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("slot", range(3))
    @pytest.mark.parametrize("special", SPECIAL_PARAMETERS, ids=str)
    @given(st.fractions(), st.fractions())
    @settings(max_examples=20, deadline=None)
    def test_special_parameter_in_each_slot(self, family, slot, special, first, second):
        parameters = [first, second]
        parameters.insert(slot, special)
        assert residual_outcome(pc_equation_residual, family, parameters) == residual_outcome(
            reference_pc_equation_residual, family, parameters
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_first_degenerate_parameter_is_named(self, family):
        # Several degenerate slots: the message names the first in the order
        # alpha, beta, gamma.
        for parameters in product(SPECIAL_PARAMETERS + (Fraction(2),), repeat=3):
            assert residual_outcome(pc_equation_residual, family, parameters) == residual_outcome(
                reference_pc_equation_residual, family, parameters
            )


class TestBirationalEquivalence:
    def test_parameter_map_identity(self):
        # (1-t^2)/(2t) of the source equals 2u/(1-u^2) of the image.
        for t in (Fraction(2), Fraction(1, 3), Fraction(-7, 4), Fraction(5)):
            u = second_parameter_from_third(t)
            assert (1 - t * t) / (2 * t) == 2 * u / (1 - u * u)

    def test_zeros_map_to_zeros(self):
        for alpha in (Fraction(2), Fraction(5, 3), Fraction(7, 2)):
            triple = (alpha, Fraction(1), alpha)
            assert pc_equation_residual("third", *triple) == 0
            image = tuple(second_parameter_from_third(t) for t in triple)
            assert pc_equation_residual("second", *image) == 0

    def test_pole_rejected(self):
        with pytest.raises(TrivialParameter):
            second_parameter_from_third(Fraction(-1))


class TestFamilyTerms:
    def test_third_family_golden(self, golden_pair):
        alpha, beta, gamma_condition = family_terms(golden_pair, "third")
        assert alpha == Fraction(41, 24)
        assert beta == Fraction(41, 30)
        assert kummer_map(golden_pair)[2] == Fraction(62279, 23040)
        assert gamma_condition == Fraction(62279, 67240)

    def test_first_family_golden(self, golden_pair):
        alpha, beta, _ = family_terms(golden_pair, "first")
        assert alpha == Fraction(41, 24)
        assert beta == Fraction(30, 41)
        # alpha*beta = X/N and alpha/beta = Z/N
        assert alpha * beta == Fraction(5, 4)
        assert alpha / beta == Fraction(1681, 720)

    def test_second_family_golden(self, golden_pair):
        alpha, beta, _ = family_terms(golden_pair, "second")
        assert alpha == Fraction(41, 30)
        assert beta == Fraction(41, 24)
        # beta/alpha = X/N and beta*alpha = Z/N
        assert beta / alpha == Fraction(5, 4)
        assert beta * alpha == Fraction(1681, 720)

    def test_gamma_condition_closed_forms(self, seeds):
        for pair in generated_pairs(seeds, max_multiple=4):
            n = pair.curve.N
            x, z = pair.P.x, pair.Q.x
            yw = pair.P.y * pair.Q.y
            assert family_terms(pair, "first")[2] == yw / ((x * z + n * n) * (x + z))
            assert family_terms(pair, "second")[2] == yw / ((x - z) * (n * n - x * z))
            assert family_terms(pair, "third")[2] == yw / (x * z * n)

    def test_gamma_condition_determines_conditional_diagonal(self, seeds):
        # The conditional diagonal of each parametrization's cuboid is fixed
        # by its family's always-rational gamma condition:
        #   invariant: (d_ab/a)^2   = 1 + (g/2)^2
        #   first:     (d_ab/d_s)^2 = 1 - (2g)^2
        #   second:    (d_ab/a)^2   = 1 + (2g)^2
        from npcuboid import FAMILY_OF_PARAMETRIZATION

        relations = {
            "invariant": lambda cu, g: cu.d_ab_sq / cu.a ** 2 == 1 + (g / 2) ** 2,
            "first": lambda cu, g: cu.d_ab_sq / cu.d_s ** 2 == 1 - (2 * g) ** 2,
            "second": lambda cu, g: cu.d_ab_sq / cu.a ** 2 == 1 + (2 * g) ** 2,
        }
        for pair in generated_pairs(seeds, max_multiple=4):
            for parametrization, holds in relations.items():
                family = FAMILY_OF_PARAMETRIZATION[parametrization]
                g = family_terms(pair, family)[2]
                assert holds(build_npc(pair, parametrization), g)


class TestBuildNpc:
    @pytest.mark.parametrize("parametrization", sorted(GOLDEN_CUBOIDS))
    def test_golden_cuboids(self, golden_pair, parametrization):
        cuboid = build_npc(golden_pair, parametrization)
        assert tuple(int(v) for v in cuboid.rational_entries()) == GOLDEN_CUBOIDS[
            parametrization
        ]
        assert cuboid.d_ab_sq == cuboid.a ** 2 + cuboid.b ** 2
        assert verify_npc(cuboid) == []
        assert not pc_condition(cuboid)
        assert cuboid.source.N == 5
        assert cuboid.source.parametrization == parametrization

    def test_invariant_conditional_diagonal_square(self, golden_pair):
        assert build_npc(golden_pair, "invariant").d_ab_sq == 117591849

    def test_ordinate_signs_are_irrelevant(self, curve5, golden_pair):
        flipped = SolutionPair(golden_pair.P, golden_pair.Q.neg())
        for parametrization in GOLDEN_CUBOIDS:
            assert build_npc(flipped, parametrization) == build_npc(
                golden_pair, parametrization
            )

    def test_pair_order_is_irrelevant(self, golden_pair):
        swapped = SolutionPair(golden_pair.Q, golden_pair.P)
        for parametrization in GOLDEN_CUBOIDS:
            assert build_npc(swapped, parametrization) == build_npc(
                golden_pair, parametrization
            )

    def test_every_generated_pair_verifies(self, seeds):
        for pair in generated_pairs(seeds, max_multiple=5):
            for parametrization in GOLDEN_CUBOIDS:
                cuboid = build_npc(pair, parametrization)
                assert verify_npc(cuboid) == []

    def test_unnormalized_closed_forms_scale_to_same_cuboid(self, seeds):
        # Each parametrization's closed-form ratios scale to its cuboid. The
        # invariant family also has closed forms without any normalization:
        # a = 2XZN, b = |YW|, c = |X-Z|sqrt(XZ)N, d_bc = |XZ-N^2|sqrt(XZ),
        # d_ac = |X+Z|sqrt(XZ)N, d_s = (XZ+N^2)sqrt(XZ). Scaling them must
        # reproduce build_npc output exactly.
        from npcuboid import primitive_integer_scaling, sqrt_exact

        for pair in generated_pairs(seeds, max_multiple=4):
            n = pair.curve.N
            x, z = pair.P.x, pair.Q.x
            yw = pair.P.y * pair.Q.y
            root = sqrt_exact(x * z)
            closed = [
                2 * x * z * n,
                abs(yw),
                abs(x - z) * root * n,
                abs(x * z - n * n) * root,
                abs(x + z) * root * n,
                (x * z + n * n) * root,
            ]
            cuboid = build_npc(pair, "invariant")
            assert primitive_integer_scaling(closed) == [
                int(v) for v in cuboid.rational_entries()
            ]
            # The conditional diagonal square matches its closed form too.
            scale = cuboid.a / closed[0]
            assert cuboid.d_ab_sq == (yw * yw + 4 * n * n * x * x * z * z) * scale ** 2
            for parametrization, ratios in CLOSED_FORM_RATIOS.items():
                magnitudes = [abs(r) for r in ratios(n, x, z, yw, root)]
                assert primitive_integer_scaling(magnitudes) == [
                    int(v) for v in build_npc(pair, parametrization).rational_entries()
                ]

    def test_build_runs_no_pair_check(self, monkeypatch, golden_pair):
        def no_check(*args):
            raise AssertionError("build_npc checked a pair")

        monkeypatch.setattr(curve_module, "_check_pair", no_check)
        for parametrization, entries in GOLDEN_CUBOIDS.items():
            cuboid = build_npc(golden_pair, parametrization)
            assert tuple(int(v) for v in cuboid.rational_entries()) == entries

    @pytest.mark.parametrize("p, q, error, message", REFUSED_PAIRS)
    def test_pair_refuses_what_no_build_can_take(self, p, q, error, message):
        # Off the curve, trivial, of equal abscissae, of a non-square
        # x-product or on two curves: SolutionPair refuses each pair with
        # its own error, so no build is given one.
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            SolutionPair(p, q)

    def test_unknown_parametrization(self, golden_pair):
        with pytest.raises(ValueError):
            build_npc(golden_pair, "sixth")


class TestFractionReference:
    @given(
        st.sampled_from(PACKAGED_SEEDS),
        st.sampled_from(SAME_PARITY_MULTIPLES),
        st.sampled_from(PARAMETRIZATIONS),
    )
    @settings(max_examples=150, deadline=None)
    def test_integer_build_matches_fraction_reference(self, seed, multiples, parametrization):
        pair = same_parity_pair(seed, *multiples)
        built = build_npc(pair, parametrization)
        expected = reference_build_npc(pair, parametrization)
        assert built.rational_entries() == expected.rational_entries()
        assert built.d_ab_sq == expected.d_ab_sq
        assert built.source == expected.source
        assert all(isinstance(v, Fraction) for v in built.rational_entries())

    @pytest.mark.parametrize(
        "seed",
        [pytest.param(seed, id=f"N{seed.curve.N}") for seed in PACKAGED_SEEDS]
        + [pytest.param(seed, id=f"triangle-N{seed.curve.N}") for seed in triangle_seeds(4)],
    )
    def test_admitted_pairs_never_degenerate(self, seed):
        # +-jP for j <= 4 and their 2-torsion translates: every ordered pair
        # of them that SolutionPair admits builds in all five
        # parametrizations, to a verified NPC equal to the Fraction reference.
        curve = seed.curve
        torsion = [curve.point(e, 0) for e in (0, curve.N, -curve.N)]
        points = [seed.mul(j) for j in range(1, 5)]
        points += [-p for p in points]
        points += [p + t for p in points for t in torsion]
        admitted = 0
        for p, q in permutations(points, 2):
            pair = outcome(SolutionPair, p, q)
            if type(pair) is tuple:
                continue
            admitted += 1
            for parametrization in PARAMETRIZATIONS:
                cuboid = build_npc(pair, parametrization)
                assert verify_npc(cuboid) == []
                expected = reference_build_npc(pair, parametrization)
                assert cuboid == expected and cuboid.source == expected.source
        assert admitted >= 64


class TestElementReference:
    """The element path against the pair-root construction it replaced."""

    @pytest.mark.parametrize(
        "seed, length",
        [pytest.param(seed, 17, id=f"N{seed.curve.N}") for seed in PACKAGED_SEEDS]
        + [pytest.param(seed, 6, id=f"triangle-N{seed.curve.N}") for seed in triangle_seeds(8)],
    )
    def test_chain_elements_match_the_reference(self, seed, length):
        # Every pair k < m <= length of equal parity, and its second-reflected
        # image, in each family: from the chains' elements as the sweep
        # reads them, and from the standalone pair's own elements. The
        # triangle curves have composite N, as the sweep's wide sets do.
        n = seed.curve.N
        chain = reference_chain(seed, length)
        images = [point.reflect_second() for point in chain]
        multiples = _multiples(seed, length)
        by_chain = (
            (chain, _chain_elements(multiples)),
            (images, _chain_elements(
                [_secant_element(n, n, e, j) for j, e in enumerate(multiples, 1)]
            )),
        )
        for k in range(1, length):
            for m in range(k + 2, length + 1, 2):
                for points, elements in by_chain:
                    pair = SolutionPair(points[k - 1], points[m - 1])
                    standalone = pair_elements(pair)
                    for family in FAMILIES:
                        expected = reference_npc_entries(pair, family)
                        assert _npc_entries(n, elements[k - 1], elements[m - 1], family) == expected
                        assert _npc_entries(n, *standalone, family) == expected
                        assert as_fractions(_family_terms(n, *standalone, family)) == (
                            as_fractions(reference_family_parameters(pair, family))
                        )

    @pytest.mark.parametrize(
        "seed, length",
        [pytest.param(seed, 9, id=f"N{seed.curve.N}") for seed in PACKAGED_SEEDS]
        + [pytest.param(seed, 6, id=f"triangle-N{seed.curve.N}") for seed in triangle_seeds(8)],
    )
    def test_on_the_curve_u_divides_twice_g(self, seed, length):
        # The content's h = gcd(U, 2g) is U = u1^2 e1 u2^2 e2 itself in the
        # first two families (proof in _npc_entries): on the chain's pairs and
        # their second-reflected images, and on standalone pairs of +-jP and
        # its 2-torsion translates.
        n, curve = seed.curve.N, seed.curve
        multiples = _multiples(seed, length)
        images = [_secant_element(n, n, e, j) for j, e in enumerate(multiples, 1)]
        pairs = [
            (elements[k - 1], elements[m - 1])
            for elements in (_chain_elements(multiples), _chain_elements(images))
            for k in range(1, length)
            for m in range(k + 2, length + 1, 2)
        ]
        torsion = [curve.point(0, 0), curve.point(n, 0), curve.point(-n, 0)]
        points = [seed.mul(j) for j in range(1, 5)]
        points += [-p for p in points] + [p + t for p in points for t in torsion]
        for p, q in permutations(points, 2):
            if p.x != q.x and is_square(p.x * q.x):
                pairs.append(pair_elements(SolutionPair(p, q)))
        checked = 0
        for first, second in pairs:
            for family in ("first", "second"):
                try:
                    factors = content_factors(n, first, second, family)
                except NpcuboidError:
                    continue
                u1, e1, u2, e2 = (factors[f] for f in ("u1", "e1", "u2", "e2"))
                assert factors["h"] == u1 * u1 * e1 * u2 * u2 * e2
                checked += 1
        assert checked > len(pairs)

    def test_off_the_curve_u_need_not_divide_twice_g(self, curve5):
        # The second-reflected images (-5, 2) and (-45, 50) of (0, 1) and
        # (4, 1), off the N = 5 curve, have elements with U = 22500 but h =
        # 4500. The proof that U divides 2g holds on the curve only, so
        # _npc_entries raises on these elements; SolutionPair refuses the
        # points, so no build reads them.
        image = (-5, 1, 2, 15, -45), (-45, 1, 50, 45, -45)
        for family in ("first", "second"):
            factors = content_factors(5, *image, family)
            u1, e1, u2, e2 = (factors[f] for f in ("u1", "e1", "u2", "e2"))
            assert u1 * u1 * e1 * u2 * u2 * e2 == 22500
            assert factors["h"] == 4500
            with pytest.raises(SquareCheckFailed, match="^U does not divide 2g"):
                _npc_entries(5, *image, family)
        with pytest.raises(DegeneratePair, match=f"^{OFF_CURVE}$"):
            SolutionPair(curve5.point(0, 1), curve5.point(4, 1))

    @pytest.mark.parametrize(
        "n, points, k, m, family, factor",
        [
            # One pair per family and factor of the content formula that the
            # factor exceeds 1 on; dropping the factor changes its entries.
            (5, "chain", 2, 4, "first", "u1"),
            (5, "chain", 1, 3, "first", "u2"),
            (5, "image", 1, 3, "first", "e1"),
            (5, "chain", 1, 3, "first", "e2"),
            (5, "chain", 1, 3, "first", "h"),
            (5, "image", 2, 4, "first", "r"),
            (5, "chain", 1, 3, "second", "u1"),
            (5, "chain", 2, 4, "second", "u2"),
            (5, "chain", 1, 3, "second", "e1"),
            (5, "image", 1, 3, "second", "e2"),
            (5, "chain", 1, 3, "second", "h"),
            (5, "chain", 1, 3, "second", "r"),
            (6, "chain", 1, 3, "second", "r"),
            (5, "chain", 2, 4, "third", "u1"),
            (5, "chain", 1, 3, "third", "u2"),
            (5, "image", 1, 3, "third", "e1"),
            (5, "chain", 1, 3, "third", "e2"),
            (5, "chain", 1, 3, "third", "gcd(A, B)"),
            (34, "chain", 1, 3, "third", "gcd(A, B)"),
        ],
    )
    def test_each_content_factor_against_the_reference(self, n, points, k, m, family, factor):
        seed = next(s for s in PACKAGED_SEEDS if s.curve.N == n)
        chain, elements = reference_chain(seed, m), _multiples(seed, m)
        if points == "image":
            chain = [point.reflect_second() for point in chain]
            elements = [_secant_element(n, n, e, j) for j, e in enumerate(elements, 1)]
        elements = _chain_elements(elements)
        first, second = elements[k - 1], elements[m - 1]
        assert content_factors(n, first, second, family)[factor] > 1
        pair = SolutionPair(chain[k - 1], chain[m - 1])
        assert _npc_entries(n, first, second, family) == reference_npc_entries(pair, family)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_roots_off_their_square_class_fail_the_square_check(self, family):
        # r1 r2 = 9 is no multiple of c = 2: the element (2, 1, 1, 3, 2) has
        # r^2 = 9 where a c = 4, so sqrt(a1 a2) cannot be read off the roots.
        with pytest.raises(SquareCheckFailed, match=r"r\^2 = a c"):
            _npc_entries(5, (2, 1, 1, 3, 2), (8, 1, 1, 3, 2), family)


# Each parametrization's build of (P + T, Q + T) for T = (+-N, 0): the
# second-reflected image of P is -(P + (N, 0)), and the image of that is P
# again, so each build and its reflected build trade places.
TRANSLATED_PARAMETRIZATION = {
    "first": "first_reflected",
    "first_reflected": "first",
    "second": "second_reflected",
    "second_reflected": "second",
}


def swapped_sides(cuboid):
    """The cuboid with sides a and b, and so d_ac and d_bc, interchanged."""
    a, b, c, d_bc, d_ac, d_s = cuboid.rational_entries()
    return Cuboid(b, a, c, d_ac, d_bc, d_s, cuboid.d_ab_sq)


class TestReflectionBehaviour:
    @pytest.mark.parametrize("parametrization", PARAMETRIZATIONS)
    @pytest.mark.parametrize(
        "seed",
        [pytest.param(seed, id=f"N{seed.curve.N}") for seed in PACKAGED_SEEDS]
        + [pytest.param(seed, id=f"triangle-N{seed.curve.N}") for seed in triangle_seeds(8)],
    )
    def test_two_torsion_translates_permute_the_builds(self, seed, parametrization):
        # An oracle through the group law, not the secant map: the pair
        # (P + T, Q + T) for each pair (kP, mP), k < m <= 6 of equal parity,
        # and each 2-torsion point T. T = (0, 0) leaves every build as it is;
        # T = (+-N, 0), which is (-+N, 0) + (0, 0), trades each first or
        # second build with its reflected build, and the invariant cuboid's
        # a with b.
        curve = seed.curve
        pairs = generated_pairs([seed], max_multiple=6)
        assert len(pairs) == 6
        for pair in pairs:
            cuboid = build_npc(pair, parametrization)
            for e in (0, curve.N, -curve.N):
                t = curve.point(e, 0)
                translate = build_npc(SolutionPair(pair.P + t, pair.Q + t), parametrization)
                if e == 0:
                    assert translate == cuboid
                elif parametrization == "invariant":
                    assert translate == swapped_sides(cuboid)
                else:
                    twin = TRANSLATED_PARAMETRIZATION[parametrization]
                    assert translate == build_npc(pair, twin)

    def test_first_reflection_fixes_all_parametrizations(self, seeds):
        pairs = generated_pairs(seeds, max_multiple=5)
        assert len(pairs) >= 10
        for pair in pairs:
            reflected = SolutionPair(pair.P.reflect_first(), pair.Q.reflect_first())
            for parametrization in GOLDEN_CUBOIDS:
                assert build_npc(reflected, parametrization) == build_npc(
                    pair, parametrization
                )

    def test_second_reflection_swaps_a_and_b(self, seeds):
        pairs = generated_pairs(seeds, max_multiple=5)
        assert len(pairs) >= 10
        for pair in pairs:
            reflected = SolutionPair(pair.P.reflect_second(), pair.Q.reflect_second())
            original = build_npc(pair, "invariant")
            image = build_npc(reflected, "invariant")
            assert (image.a, image.b, image.c) == (original.b, original.a, original.c)
            assert (image.d_bc, image.d_ac) == (original.d_ac, original.d_bc)
            assert image.d_s == original.d_s
            assert image.d_ab_sq == original.d_ab_sq


class TestVerifyAndCondition:
    def test_golden_npc_verifies(self, golden_npc):
        assert verify_npc(golden_npc) == []
        assert golden_npc.d_ab_sq == 474993
        assert not pc_condition(golden_npc)

    def test_perturbed_space_diagonal(self, golden_npc):
        broken = Cuboid(
            golden_npc.a,
            golden_npc.b,
            golden_npc.c,
            golden_npc.d_bc,
            golden_npc.d_ac,
            d_s=Fraction(698),
            d_ab_sq=golden_npc.d_ab_sq,
        )
        assert verify_npc(broken) == ["space_diagonal"]

    def test_all_relations_reported(self):
        junk = Cuboid(*(Fraction(v) for v in (3, 4, 5, 1, 1, 1, 1)))
        assert verify_npc(junk) == [
            "ab_diagonal",
            "bc_diagonal",
            "ac_diagonal",
            "space_diagonal",
        ]

    def test_pc_condition_on_degenerate_record(self):
        # Not a real NPC; pc_condition only inspects d_ab_sq.
        record = Cuboid(*(Fraction(v) for v in (3, 4, 1, 1, 1, 1)), d_ab_sq=Fraction(25))
        assert pc_condition(record)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            Cuboid(*(Fraction(v) for v in (0, 4, 5, 1, 1, 1, 1)))
        with pytest.raises(ValueError):
            Cuboid(*(Fraction(v) for v in (3, 4, 5, 1, 1, -1, 1)))


ENTRY_FIELDS = ("a", "b", "c", "d_bc", "d_ac", "d_s", "d_ab_sq")


def moved(cuboid, **changes):
    fields = {name: getattr(cuboid, name) for name in ENTRY_FIELDS}
    return Cuboid(**{**fields, **changes})


class TestIntegerVerifyNpc:
    """verify_npc over the entries' common denominator against the Fraction
    relations it replaced."""

    def candidates(self, cuboid):
        """The cuboid and each entry moved by +-1 and by +-1/3."""
        yield cuboid
        for name in ENTRY_FIELDS:
            for step in (1, -1, Fraction(1, 3), Fraction(-1, 3)):
                value = getattr(cuboid, name) + step
                if value > 0:
                    yield moved(cuboid, **{name: value})

    @pytest.mark.parametrize(
        "factor", [1, Fraction(3, 7), Fraction(1, 2), Fraction(10, 3), 5, Fraction(1, 697)]
    )
    def test_golden_npc_moved_and_rescaled(self, golden_npc, factor):
        scaled = Cuboid(
            *(v * factor for v in golden_npc.rational_entries()),
            d_ab_sq=golden_npc.d_ab_sq * factor * factor,
        )
        assert verify_npc(scaled) == []
        seen = set()
        for cuboid in self.candidates(scaled):
            expected = reference_verify_npc(cuboid)
            assert verify_npc(cuboid) == expected
            seen.add(tuple(expected))
        # Each relation fails alone when its own entry moves.
        assert {("ab_diagonal",), ("space_diagonal",)} <= seen

    def test_non_integer_d_ab_sq(self, golden_npc):
        for d_ab_sq in (golden_npc.d_ab_sq / 4, golden_npc.d_ab_sq + Fraction(1, 2)):
            cuboid = moved(golden_npc, d_ab_sq=d_ab_sq)
            assert verify_npc(cuboid) == reference_verify_npc(cuboid) == ["ab_diagonal"]
        halved = Cuboid(
            *(v / 2 for v in golden_npc.rational_entries()), d_ab_sq=golden_npc.d_ab_sq / 4
        )
        assert halved.d_ab_sq.denominator == 4 and verify_npc(halved) == []

    def test_generated_cuboids(self, seeds):
        for pair in generated_pairs(seeds, max_multiple=4):
            for parametrization in PARAMETRIZATIONS:
                cuboid = build_npc(pair, parametrization)
                for candidate in (cuboid, moved(cuboid, c=cuboid.c + 1)):
                    assert verify_npc(candidate) == reference_verify_npc(candidate)


class TestSerialization:
    def test_round_trip(self, golden_pair):
        cuboid = build_npc(golden_pair, "invariant")
        record = cuboid_to_json(cuboid)
        assert record["a"] == 9840 and record["pc"] is False
        assert record["source"]["X"] == "25/4"
        restored = cuboid_from_json(record)
        assert restored == cuboid
        assert restored.source == cuboid.source

    def test_default_ab_square(self):
        record = {"a": 672, "b": 153, "c": 104, "d_bc": 185, "d_ac": 680, "d_s": 697}
        cuboid = cuboid_from_json(record)
        assert cuboid.d_ab_sq == 672 ** 2 + 153 ** 2
        assert verify_npc(cuboid) == []

    def test_rational_entries_as_strings(self):
        record = {
            "a": "3/2", "b": 2, "c": "1/2",
            "d_bc": "5/2", "d_ac": "denominator", "d_s": 3,
        }
        with pytest.raises(ValueError):
            cuboid_from_json(record)
