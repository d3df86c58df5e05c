"""Nearly-perfect cuboids built from solution pairs.

A nearly-perfect cuboid (NPC) has rational sides a, b, c, rational face
diagonals d_bc, d_ac, rational space diagonal d_s, and exactly one
conditional quantity: the a-b face diagonal, stored here as its exact square
d_ab_sq. The box is a perfect cuboid precisely when d_ab_sq is a rational
square.

Five parametrizations map one solution pair to an NPC; all are emitted in
canonical form, scaled so the six rational entries are coprime positive
integers. Each parameter family builds its cuboid from two rational points
of one conic, at the circle or hyperbola parameters alpha and beta of the
pair, together with the family's gamma condition: the first family uses the
unit circle, the second and third (invariant) families the hyperbola
x^2 - y^2 = 1 in two parametrizations. The construction runs in integers,
each family's parameters and conic points stated once: the parameters and
the gamma condition's numerator are read off the elements (a, d, b, r, c)
of the two points (see curve and _family_terms), each conic point is a
primitive integer triple, and the six entries are those integers over a
common denominator that the elements give in closed form, with their
content, known in closed form too, divided out before the factors are
multiplied (see _npc_entries). A SolutionPair has passed its checks when it
is made, and the sweep's pairs pass them by construction, so the integer
core has no degeneracy branch of its own. One table gives each
parametrization its family and its 2-torsion translate T: the reflected
ones build (P + T, Q + T), T = (N, 0), on elements by curve._secant_element.
The residual evaluator and the birational map between the two
hyperbola-based families state the paper's perfect-cuboid equations in
Fractions.

The public build returns a Cuboid of Fractions; the sweep takes the six
coprime integers of the same integer core and writes its record through the
payload builder that cuboid_to_json uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isqrt, lcm

from .curve import SolutionPair, _secant_element
from .errors import SquareCheckFailed, TrivialParameter
from .rationals import _integer_field, _rational_field, format_rational, is_square

# The build divides out its content in closed form and takes no rational
# square root; both routines stay importable here, where
# perfbench/tracing.py wraps them.
from .rationals import primitive_integer_scaling, sqrt_exact  # noqa: F401

FAMILIES = ("first", "second", "third")

# Each parametrization's family (its variable extraction and its conic) and
# its 2-torsion translate T = (tN, 0) of both points, as t, or None for none.
_FAMILY_AND_TRANSLATE = {
    "invariant": ("third", None),
    "first": ("first", None),
    "first_reflected": ("first", 1),
    "second": ("second", None),
    "second_reflected": ("second", 1),
}
PARAMETRIZATIONS = tuple(_FAMILY_AND_TRANSLATE)
FAMILY_OF_PARAMETRIZATION = {name: family for name, (family, _) in _FAMILY_AND_TRANSLATE.items()}


# Each family's conic point at t = p/q, on the unit circle for the first
# family and on the hyperbola x^2 - y^2 = 1 for the second and third, as the
# integer triple (x, y, denominator) of the terms (p^2 + q^2, |q^2 - p^2|,
# 2|p|q).
_CONIC_OF_FAMILY = {
    "first": lambda plus, minus, twice: (minus, twice, plus),
    "second": lambda plus, minus, twice: (plus, twice, minus),
    "third": lambda plus, minus, twice: (plus, minus, twice),
}


def _conic_point(family: str, p: int, q: int) -> tuple[int, int, int]:
    """The family's conic point at t = p/q for q > 0, p/q in lowest terms or
    not: the point is projective in (p, q). Its terms p^2 + q^2, |q^2 - p^2|
    and 2|p|q are 1 + t^2, |1 - t^2| and |2t| times q^2; an admitted pair's
    parameters are never 0 or +-1 (see _family_terms)."""
    return _CONIC_OF_FAMILY[family](p * p + q * q, abs(q * q - p * p), 2 * abs(p) * q)


def second_parameter_from_third(t: Fraction) -> Fraction:
    """Birational change of variables u = (1-t)/(1+t) between the two
    hyperbola parameter families; it identifies (1-t^2)/(2t) with
    2u/(1-u^2), so zeros of one family's equation map to the other's."""
    t = Fraction(t)
    if t == -1:
        raise TrivialParameter("parameter -1 has no birational image")
    return (1 - t) / (1 + t)


# Each family's existence-equation term T(t); the residual is
# T(alpha)^2 + T(gamma)^2 - T(beta)^2 for the first family and
# T(gamma)^2 + T(beta)^2 - T(alpha)^2 for the second and third.
_PC_TERM_OF_FAMILY = {
    "first": lambda t: 2 * t / (1 + t * t),
    "second": lambda t: 2 * t / (1 - t * t),
    "third": lambda t: (1 - t * t) / (2 * t),
}


def pc_equation_residual(family: str, alpha: Fraction, beta: Fraction, gamma: Fraction) -> Fraction:
    """Left minus right side of the perfect-cuboid existence equation of the
    given parameter family; exactly zero iff the triple solves it.

    family "first":  (2a/(1+a^2))^2 + (2g/(1+g^2))^2 - (2b/(1+b^2))^2
    family "second": (2g/(1-g^2))^2 + (2b/(1-b^2))^2 - (2a/(1-a^2))^2
    family "third":  ((1-g^2)/2g)^2 + ((1-b^2)/2b)^2 - ((1-a^2)/2a)^2
    """
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    term = _PC_TERM_OF_FAMILY[family]
    squares = []
    for t in (alpha, beta, gamma):
        try:
            squares.append(term(t) ** 2)
        except ZeroDivisionError:
            raise TrivialParameter(f"parameter {t} vanishes a denominator") from None
    a, b, g = squares
    return a + g - b if family == "first" else g + b - a


def _pair_elements(first: tuple, second: tuple) -> tuple[tuple, tuple]:
    """The elements (a, d, b, r, c) (see curve._chain_elements) of the points
    of a solution pair with elements (a, d, b) first and second, with c the
    a of the second: r is |c| for it and isqrt(a c) for the first, taken here
    from the two elements, as XZ = a c/(d1 d2)^2 is a square."""
    (a1, d1, b1), (a2, d2, b2) = first, second
    return (a1, d1, b1, isqrt(a1 * a2), a2), (a2, d2, b2, abs(a2), a2)


def _family_terms(n: int, first: tuple, second: tuple, family: str) -> tuple:
    """The family's alpha and beta as unreduced integer fractions, and the
    numerator of its gamma condition, read off the elements (a, d, b, r, c)
    of the two points, which share c.

    alpha and beta are two of sqrt(XZ)/N, sqrt(X/Z) and sqrt(Z/X), one
    square root serving both. The gamma condition, YW over (XZ + N^2)(X + Z),
    (X - Z)(N^2 - XZ) or XZN, is the always-rational g/(1+g^2), g/(1-g^2) or
    (1-g^2)/g; g itself is rational only if a perfect cuboid exists. With X =
    a1/d1^2, Z = a2/d2^2 and YW = b1 b2/(d1 d2)^3, sqrt(XZ) is R/(d1 d2) for
    R = r1 r2/|c| = sqrt(a1 a2), and sqrt(X/Z) is r1 d2/(r2 d1); the gamma
    condition's (d1 d2)^3 cancels. alpha and beta are positive over positive
    denominators. With D = d1 d2, the gamma condition is b1 b2 D over (a1 a2
    + N^2 D^2)(a1 d2^2 + a2 d1^2) or (a1 d2^2 - a2 d1^2)(N^2 D^2 - a1 a2), or
    b1 b2 over D a1 a2 N; only its numerator is returned, as _npc_entries
    knows the common denominator of the entries in closed form.

    On a solution pair (curve._check_pair) no denominator vanishes: XZ is a
    nonzero square, so X and Z share a sign and X + Z != 0; X != Z by the
    check; and XZ = N^2 would give Z = N^2/X, where rhs(Z) = -N^4 Y^2/X^4 < 0.
    So alpha and beta are never 0 or 1, and the conic points never degenerate.
    """
    a1, d1, b1, r1, c = first
    a2, d2, b2, r2, _ = second
    dd = d1 * d2
    root, rest = divmod(r1 * r2, abs(c))  # sqrt(a1 a2)
    if rest:
        raise SquareCheckFailed("r1 r2 is no multiple of c: an element fails r^2 = a c")
    over_n = root, dd * n  # sqrt(XZ)/N
    yw = b1 * b2
    if family == "first":
        over_z = r1 * d2, r2 * d1  # sqrt(X/Z)
        return over_n, over_z, yw * dd
    over_x = r2 * d1, r1 * d2  # sqrt(Z/X)
    if family == "second":
        return over_x, over_n, yw * dd
    return over_n, over_x, yw


@dataclass(frozen=True)
class CuboidSource:
    """Provenance of a constructed cuboid: curve and pair abscissae."""

    N: int
    X: Fraction
    Z: Fraction
    parametrization: str


@dataclass(frozen=True)
class Cuboid:
    """Sides a, b, c, rational diagonals d_bc, d_ac, d_s, and the exact
    square of the conditional a-b face diagonal.

    Positivity is enforced on construction; the four defining relations are
    checked by verify_npc so that perturbed records remain representable.
    """

    a: Fraction
    b: Fraction
    c: Fraction
    d_bc: Fraction
    d_ac: Fraction
    d_s: Fraction
    d_ab_sq: Fraction
    source: CuboidSource | None = field(default=None, compare=False)

    def __post_init__(self):
        for name in ("a", "b", "c", "d_bc", "d_ac", "d_s", "d_ab_sq"):
            if getattr(self, name) <= 0:
                raise ValueError(f"cuboid entry {name} must be positive")

    def rational_entries(self) -> tuple[Fraction, ...]:
        return (self.a, self.b, self.c, self.d_bc, self.d_ac, self.d_s)


def _integer_entries(cuboid: Cuboid) -> tuple[int, ...]:
    """The six entries scaled to integers by their common denominator L, and L."""
    entries = cuboid.rational_entries()
    common = lcm(*(v.denominator for v in entries))
    return *(v.numerator * (common // v.denominator) for v in entries), common


def verify_npc(cuboid: Cuboid) -> list[str]:
    """Names of the violated defining relations; empty means a valid NPC.

    The relations are tested in integers: the six entries are scaled to
    their common denominator L, and d_ab_sq = p/q is compared with a^2 + b^2
    as p L^2 = q (aL)^2 + q (bL)^2."""
    a, b, c, d_bc, d_ac, d_s, common = _integer_entries(cuboid)
    aa, bb, cc = a * a, b * b, c * c
    ab = aa + bb
    d_ab_sq = cuboid.d_ab_sq
    violations = []
    if ab * d_ab_sq.denominator != d_ab_sq.numerator * common * common:
        violations.append("ab_diagonal")
    if bb + cc != d_bc * d_bc:
        violations.append("bc_diagonal")
    if aa + cc != d_ac * d_ac:
        violations.append("ac_diagonal")
    if ab + cc != d_s * d_s:
        violations.append("space_diagonal")
    return violations


def pc_condition(cuboid: Cuboid) -> bool:
    """True iff the conditional diagonal is rational, i.e. the box is a
    perfect cuboid."""
    return is_square(cuboid.d_ab_sq)


def build_npc(pair: SolutionPair, parametrization: str) -> Cuboid:
    """Construct the canonical integer NPC of one parametrization.

    The family's conic gives (ax, ay) at alpha and (bx, by) at beta, and g is
    the absolute gamma condition (see _family_terms). The entries
    (a, b, c, d_bc, d_ac, d_s) are then (ay, bx, 2g, ax, by, 1) for the first
    family, (1, 2g, by, ay, bx, ax) for the second and (1, g/2, by, ay, bx,
    ax) for the third, the invariant cuboid. They are formed in integers over
    a common denominator of the conic points and g that the pair's elements
    give in closed form, with their content, known in closed form too,
    divided out of the factors first, as coprime positive integers; d_ab_sq
    is a^2 + b^2 of those. A parametrization with a 2-torsion translate T
    builds its family's cuboid of (P + T, Q + T) on the points' elements; the
    source still records the caller's abscissae.
    """
    if parametrization not in _FAMILY_AND_TRANSLATE:
        raise ValueError(f"unknown parametrization {parametrization!r}")
    family, t = _FAMILY_AND_TRANSLATE[parametrization]
    n = pair.curve.N
    source = CuboidSource(N=n, X=pair.P.x, Z=pair.Q.x, parametrization=parametrization)
    first, second = pair.P.element, pair.Q.element
    if t is not None:
        # The translate of a solution pair is one: -(P + T) is a nontrivial
        # curve point, x -> x(P + T) is one-to-one, and both square classes
        # are multiplied by class(T) (-1, N or -N), so XZ stays a nonzero square.
        first, second = _secant_element(n, t * n, first), _secant_element(n, t * n, second)
    a, b, c, d_bc, d_ac, d_s = _npc_entries(n, *_pair_elements(first, second), family)
    return Cuboid(*map(Fraction, (a, b, c, d_bc, d_ac, d_s, a * a + b * b)), source=source)


def _primitive_conic_point(family: str, p: int, q: int) -> tuple[int, ...]:
    """The family's conic point at t = p/q as a primitive triple (x, y,
    denominator), and the factor u^2 e by which _conic_point(family, p, q)
    exceeds it. With u = gcd(p, q), the terms of p and q are u^2 times those
    of p/u and q/u. Any common divisor of p^2 + q^2 and q^2 - p^2 divides
    2p^2 and 2q^2, so it divides 2 for coprime p and q. When both are odd,
    p^2 + q^2 and 2|p|q are 2 mod 4 and q^2 - p^2 is 0 mod 8, so halving
    leaves p^2 + q^2 odd and the triple coprime, and e = 2; otherwise p^2 +
    q^2 is odd and the triple is coprime as it is, and e = 1."""
    u = gcd(p, q)
    p, q = p // u, q // u
    x, y, denominator = _conic_point(family, p, q)
    if p & q & 1:
        return x >> 1, y >> 1, denominator >> 1, 2 * u * u
    return x, y, denominator, u * u


def _npc_entries(n: int, first: tuple, second: tuple, family: str) -> tuple[int, ...]:
    """The family's cuboid of the pair with elements first and second as six
    coprime positive integers (a, b, c, d_bc, d_ac, d_s); see build_npc. The
    two points must form a solution pair (see _family_terms): a translated
    parametrization passes the elements of the translated pair."""
    alpha, beta, gn = _family_terms(n, first, second, family)
    ax, ay, a_den, a_content = _primitive_conic_point(family, *alpha)
    bx, by, b_den, b_content = _primitive_conic_point(family, *beta)
    # Every entry times a common denominator of the two conic points and g,
    # known in closed form. Write R = r1 r2/|c| = sqrt(a1 a2), D = d1 d2,
    # total = a1 d2^2 + a2 d1^2, difference = a1 d2^2 - a2 d1^2 and gap =
    # N^2 D^2 - a1 a2. As r^2 = a c for both points, the denominators
    # (den1, den2) of the conic points at the unreduced alpha and beta are
    #   first:  (a1 a2 + N^2 D^2, |c| |total|),  g's denominator den1 total;
    #   second: (|c| |difference|, |gap|),       g's denominator difference gap;
    #   third:  (2 R D N, 2 |c| R D),            g's denominator D R^2 N.
    # So one = den1 den2 and g = |c| |gn| in the first two families, and
    # one = den1 den2/(2D) = den1 |c| R = den2 R N and g = 2 |c| |gn| in the
    # third, for the numerator gn of the gamma condition.
    #
    # The content of those entries is known in closed form too, so it is
    # divided out of their factors and no gcd takes an entry. The point at
    # the unreduced alpha is U1 = u1^2 e1 times the primitive triple (ax, ay,
    # a_den), and the one at beta U2 times (bx, by, b_den) (see
    # _primitive_conic_point). In the first two families the entries are 2g
    # and U = U1 U2 times the five products ay b_den, bx a_den, ax b_den,
    # by a_den and a_den b_den. The three with a factor b_den have gcd b_den,
    # as ax, ay and a_den are coprime, and the three with a factor a_den have
    # gcd a_den, so the five have gcd G = gcd(a_den, b_den) and the content
    # is gcd(U G, 2g). On the curve U divides 2g (proof below), so that
    # content is U r with r = gcd(G, 2g/U): the products take a_den/r or
    # b_den/r in place of U a_den or U b_den, and 2g is divided by U r.
    # In the third the entries are g; 2R A times a_den, ay and ax for A =
    # |c| U1; and 2R B times by and bx for B = N U2. by and bx are the terms
    # |q^2 - p^2| and p^2 + q^2 of a primitive triple, which are coprime by
    # themselves, so the five have gcd 2R gcd(A, B) and the content is
    # K = gcd(2R gcd(A, B), g).
    #
    # U divides 2g in the first two families, for points on the curve. As r1^2
    # = a1 c and r2^2 = a2 c, a1, a2 and c share one squarefree class f: a_i =
    # f v_i^2 and c = f w^2 with v_i, w > 0, so R = |f| v1 v2 and r_i = |f|
    # v_i w. alpha and beta are (R, D N) and (r1 d2, r2 d1) = |f| w (v1 d2, v2
    # d1), in some order and orientation, and 2g = 2 |f| w^2 |b1 b2| D. So
    # with u = gcd(|f| v1 v2, D N) and H = gcd(v1 d2, v2 d1), U = u^2 e f^2
    # w^2 H^2 e' for e, e' in {1, 2}, and it is enough that |f| u^2 H^2 e e'
    # divides 2 |b1 b2| D. At a prime p, let phi, t_i, s_i, n and beta_i be
    # the exponents of p in f, v_i, d_i, N and b_i; s_i > 0 forces phi = t_i =
    # 0, as a_i and d_i are coprime. When s_i = 0, b_i^2 = a_i (a_i - N
    # d_i^2)(a_i + N d_i^2) gives 2 beta_i >= x_i + 2 min(x_i, n) for x_i =
    # phi + 2 t_i. e and e' add to the exponent only at p = 2, where the right
    # side has one more.
    # - s1 = s2 = 0: take t1 <= t2, q = phi + t1 + t2 and z = t2 - t1. Then
    #   beta1 + beta2 >= q + 2 min(q, n) - z = phi + 2 min(q, n) + 2 t1, the
    #   exponent of |f| u^2 H^2. e' = 2 needs z = 0 and e = 2 needs q = n;
    #   when both hold, a_i/2^n and N d_i^2/2^n are odd, so a_i - N d_i^2 and
    #   a_i + N d_i^2 have exponents n + 1 and at least n + 2, and beta1 +
    #   beta2 >= 3n + 3, two more than that exponent 3n.
    # - s1 > 0 = s2, or the reverse: e' = 1, and the exponent on the left is
    #   2 min(t2, s1 + n), plus 1 if e = 2, at most t2 + min(2 t2, n) + s1 + 1
    #   <= beta2 + s1 + 1.
    # - s1, s2 > 0: e = 1, and the exponent is 2 min(s1, s2), plus 1 if
    #   e' = 2, at most s1 + s2 + 1.
    c = abs(first[4])
    if family == "third":
        twice_root = 2 * alpha[0]  # alpha = R/(D N)
        a_side, b_side = c * a_content, n * b_content  # A and B
        g = 2 * c * abs(gn)
        content = gcd(twice_root * gcd(a_side, b_side), g)
        a_scale = twice_root * a_side // content
        b_scale = twice_root * b_side // content
        g //= content
    else:
        twice_g, rest = divmod(2 * c * abs(gn), a_content * b_content)
        if rest:
            raise SquareCheckFailed("U does not divide 2g: the elements are off the curve")
        r = gcd(gcd(a_den, b_den), twice_g)
        twice_g //= r
        a_scale, b_scale = b_den // r, a_den // r
    one = a_den * a_scale
    ax, ay = ax * a_scale, ay * a_scale
    bx, by = bx * b_scale, by * b_scale
    if family == "first":
        return ay, bx, twice_g, ax, by, one
    if family == "second":
        return one, twice_g, by, ay, bx, ax
    return one, g, by, ay, bx, ax


def _entry_to_json(value: Fraction):
    return int(value) if value.denominator == 1 else format_rational(value)


def _cuboid_payload(a, b, c, d_bc, d_ac, d_s, d_ab_sq, pc: bool, source: dict | None) -> dict:
    """The JSON form of a cuboid from its entries and its source as they are
    written: ints, or "p/q" text."""
    record = {
        "a": a, "b": b, "c": c, "d_ac": d_ac, "d_bc": d_bc, "d_s": d_s, "d_ab_sq": d_ab_sq,
        "pc": pc,
    }
    if source is not None:
        record["source"] = source
    return record


def cuboid_to_json(cuboid: Cuboid) -> dict:
    entries = cuboid.rational_entries() + (cuboid.d_ab_sq,)
    source = cuboid.source
    if source is not None:
        source = {
            "N": source.N,
            "X": format_rational(source.X),
            "Z": format_rational(source.Z),
            "parametrization": source.parametrization,
        }
    return _cuboid_payload(*map(_entry_to_json, entries), pc_condition(cuboid), source)


def cuboid_from_json(record: dict) -> Cuboid:
    """Read a cuboid record; d_ab_sq defaults to a^2 + b^2 when absent.

    A field of the wrong JSON type raises TypeError, a source that is present
    but no JSON object included."""
    a = _rational_field(record, "a")
    b = _rational_field(record, "b")
    source = None
    if "source" in record:
        src = record["source"]
        if type(src) is not dict:
            raise TypeError(f"source must be an object, got {src!r}")
        parametrization = src["parametrization"]
        if type(parametrization) is not str:
            raise TypeError(f"parametrization must be a string, got {parametrization!r}")
        source = CuboidSource(
            N=_integer_field(src, "N"),
            X=_rational_field(src, "X"),
            Z=_rational_field(src, "Z"),
            parametrization=parametrization,
        )
    return Cuboid(
        a=a,
        b=b,
        c=_rational_field(record, "c"),
        d_bc=_rational_field(record, "d_bc"),
        d_ac=_rational_field(record, "d_ac"),
        d_s=_rational_field(record, "d_s"),
        d_ab_sq=_rational_field(record, "d_ab_sq") if "d_ab_sq" in record else a * a + b * b,
        source=source,
    )
