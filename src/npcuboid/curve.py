"""Rational points on congruent number curves y^2 = x^3 - N^2 x.

Implements the chord-and-tangent group law, the three reflected
transformations (secants through the 2-torsion points), generation of
solution pairs whose x-product is a rational square, and the Kummer-surface
change of variables. All values are exact rationals; every type is frozen
and safe to share between threads or worker processes.

Points hold reduced Fractions, but the group law, the secant map, the
curve equation and the checks of a solution pair compute on integers, each
stated once: each new coordinate is one integer quotient, reduced once, in
place of a chain of Fraction operations that would reduce every
intermediate value. On integer elements (below), _sum gives the Jacobian
triple of a chord-and-tangent sum, _secant that of the secant image through
any 2-torsion point (e, 0), _secant_element the element of that image, and
_check_pair runs a pair's four checks, for the points' own elements or for
elements given to SolutionPair._from_elements, which builds each point once.

The cuboid build reads each point as an integer element (a, d, b, r, c):
x = a/d^2 and y = b/d^3, which a curve point satisfies with its own
numerators (Silverman and Tate, Rational Points on Elliptic Curves, ch. III),
and r^2 = a c for the x numerator c of a point in the same square class of x.
Equal-parity multiples of one point share that class, the image of the
2-descent map (Silverman, The Arithmetic of Elliptic Curves, X.1), so a
chain's elements take c from its first point of their parity and one isqrt
each, and any two of them give sqrt(XZ) = r1 r2/(|c| d1 d2) without a root
of their own.

The sweep's chain P, 2P, ..., and its 2-torsion translates, the translated
pairs of the cuboid build and the inversion's reflected pairs until they are
checked never become points: from an (a, d, b), the tangent and chord laws
and the secant map run on integer Jacobian triples (X, Y, Z), x = X/Z^2 and
y = Y/Z^3, and each new triple is reduced to (a, d, b) by the root s of its
content gcd(X, Z^2) = s^2. One Jacobian sum, _sum, serves the public law
CurvePoint.add, which reads its triple back as (X/Z^2, Y/Z^3), and the chain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import gcd, isqrt
from pathlib import Path
from typing import Callable, Sequence

from .errors import (
    CurveMismatch,
    DegeneratePair,
    InvalidSeed,
    SquareCheckFailed,
    TrivialInput,
    VerticalSecant,
)
from .rationals import _integer_field, _rational_field, format_rational, is_square_int


@dataclass(frozen=True)
class CongruentCurve:
    """The curve y^2 = x^3 - N^2 x for a positive integer N.

    N is not required to be squarefree here; squarefreeness matters only for
    the congruent numbers recovered by the inverse solver.
    """

    N: int

    def __post_init__(self):
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError(f"curve parameter must be a positive integer, got {self.N!r}")

    def rhs(self, x: Fraction) -> Fraction:
        return x ** 3 - self.N ** 2 * x

    def contains(self, x: Fraction, y: Fraction) -> bool:
        """y^2 = x^3 - N^2 x, tested in integers: with x = a/e and y = b/f,
        b^2 e^3 = f^2 a (a^2 - N^2 e^2)."""
        a, e, b, f = x.numerator, x.denominator, y.numerator, y.denominator
        return b * b * e ** 3 == f * f * a * (a * a - self.N ** 2 * e * e)

    def point(self, x, y) -> CurvePoint:
        return CurvePoint(self, Fraction(x), Fraction(y))

    def infinity(self) -> CurvePoint:
        return CurvePoint(self, None, None)


@dataclass(frozen=True)
class CurvePoint:
    """Affine point (x, y) on a congruent curve, or the point at infinity.

    Construction does not validate the curve equation; use on_curve() where
    a contract requires it. The trivial points are the three with y = 0.
    """

    curve: CongruentCurve
    x: Fraction | None
    y: Fraction | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    @property
    def is_trivial(self) -> bool:
        """Infinity or one of the 2-torsion points (0,0), (N,0), (-N,0)."""
        return self.is_infinity or self.y == 0

    def on_curve(self) -> bool:
        return self.is_infinity or self.curve.contains(self.x, self.y)

    def neg(self) -> CurvePoint:
        if self.is_infinity:
            return self
        return CurvePoint(self.curve, self.x, -self.y)

    def add(self, other: CurvePoint) -> CurvePoint:
        """Group sum with the standard chord-and-tangent law.

        The sum is the reflection (x, -y) of the third intersection of the
        line through both points, the tangent at self where the abscissae
        match; infinity is the identity. The law is _sum on the points'
        elements, read back as (X/Z^2, Y/Z^3): Z = 0 is P + (-P), or else a
        vertical tangent at (x, 0) off the curve, which raises
        ZeroDivisionError as the slope (3x^2 - N^2)/(2y) would.
        """
        if self.curve != other.curve:
            raise CurveMismatch(f"cannot add points on {self.curve} and {other.curve}")
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        x, y, z = _sum(self.curve.N, _integer_coordinates(self), _integer_coordinates(other))
        if not z and self.y == -other.y:
            return self.curve.infinity()
        zz = z * z
        return CurvePoint(self.curve, Fraction(x, zz), Fraction(y, zz * z))

    def double(self) -> CurvePoint:
        """Tangent doubling; 2-torsion points double to infinity.

        For y != 0 the abscissa equals ((x^2 + N^2) / (2y))^2, so every
        doubled point has a square x-coordinate.
        """
        return self.add(self)

    def mul(self, k: int) -> CurvePoint:
        """k-fold group sum by binary double-and-add; mul(0) is infinity."""
        if k < 0:
            return self.mul(-k).neg()
        result = self.curve.infinity()
        addend = self
        while k:
            if k & 1:
                result = result.add(addend)
            addend = addend.double()
            k >>= 1
        return result

    def _secant_image(self, e: int, pole: str) -> CurvePoint:
        """Third intersection -(P + (e, 0)) of the secant through P and the
        2-torsion point (e, 0), by the element map _secant. Fraction reduces
        the image, so a point off the curve, whose element need not be
        coprime, maps to the same value as well."""
        if self.is_infinity or self.x == e:
            raise TrivialInput(pole)
        x, y, z, _ = _secant(self.curve.N, e, _integer_coordinates(self))
        zz = z * z
        return CurvePoint(self.curve, Fraction(x, zz), Fraction(y, zz * z))

    def reflect_first(self) -> CurvePoint:
        """Secant image through (0, 0): (x, y) -> (-N^2/x, -N^2 y/x^2)."""
        return self._secant_image(0, "first reflection is undefined at x = 0")

    def reflect_second(self) -> CurvePoint:
        """Secant image through (N, 0): (x, y) -> (N(x+N)/(x-N), 2N^2 y/(x-N)^2)."""
        return self._secant_image(self.curve.N, "second reflection is undefined at x = N")

    def reflect_third(self) -> CurvePoint:
        """Secant image through (-N, 0): (x, y) -> (N(N-x)/(x+N), 2N^2 y/(x+N)^2).

        Agrees with composing the first and second reflections on the
        x-coordinate (the y-sign depends on composition order).
        """
        return self._secant_image(-self.curve.N, "third reflection is undefined at x = -N")

    def __add__(self, other: CurvePoint) -> CurvePoint:
        return self.add(other)

    def __neg__(self) -> CurvePoint:
        return self.neg()

    def __rmul__(self, k: int) -> CurvePoint:
        return self.mul(k)

    def __str__(self) -> str:
        if self.is_infinity:
            return f"O(N={self.curve.N})"
        return f"({self.x}, {self.y}) on N={self.curve.N}"


def secant_y_intercept(p: CurvePoint, q: CurvePoint) -> Fraction:
    """y-intercept d of the secant through two affine points.

    When the third intersection is affine the abscissae of all three points
    multiply to d^2 (the constant term of the cubic the line cuts out).
    """
    if p.curve != q.curve:
        raise CurveMismatch(f"no secant through points on {p.curve} and {q.curve}")
    if p.is_infinity or q.is_infinity:
        raise VerticalSecant("secant through infinity is vertical")
    if p.x == q.x:
        raise VerticalSecant("points share an abscissa")
    return (p.x * q.y - p.y * q.x) / (p.x - q.x)


@dataclass(frozen=True)
class SolutionPair:
    """Two nontrivial points (X, Y), (Z, W) on one curve with X*Z a square.

    This square-product condition is exactly what the cuboid parametrizations
    need in order to keep all their square roots rational. A pair holds only
    its two points: the build takes sqrt(XZ) from their elements. A pair
    exists only once its checks have passed: the constructor runs them on
    its points, and _from_elements, the one other way in, on elements.
    """

    P: CurvePoint
    Q: CurvePoint

    def __post_init__(self):
        p, q = self.P, self.Q
        if p.curve != q.curve:
            raise CurveMismatch("solution pair must live on one curve")
        if p.is_infinity or q.is_infinity:
            raise DegeneratePair(_TRIVIAL_PAIR)
        _check_pair(p.curve.N, _integer_coordinates(p), _integer_coordinates(q))

    @classmethod
    def _from_elements(cls, curve: CongruentCurve, first: tuple, second: tuple) -> SolutionPair:
        """The pair of the points of curve with elements first and second,
        (a, d, b) with coprime a and d, checked as __post_init__ checks its
        points; each point is then built once, as (a/d^2, b/d^3), where the
        constructor would read the elements back from the points."""
        _check_pair(curve.N, first, second)
        pair = object.__new__(cls)
        object.__setattr__(pair, "P", _element_point(curve, first))
        object.__setattr__(pair, "Q", _element_point(curve, second))
        return pair

    @property
    def curve(self) -> CongruentCurve:
        return self.P.curve


_TRIVIAL_PAIR = "solution pair requires points with y != 0"


def _check_pair(n: int, first: tuple, second: tuple) -> None:
    """The checks of a solution pair of the curve N, in order, on the
    elements (a, d, b) of its points, x = a/d^2 and y = b/d^3: both points
    nontrivial (b != 0), their abscissae distinct, both on the curve (b^2 =
    a(a^2 - N^2 d^4)) and the x-product a square (a1 a2, an integer, is one).
    Each failure raises DegeneratePair. The abscissae are compared cross-
    multiplied, as the element of a point off the curve need not be coprime."""
    (a1, d1, b1), (a2, d2, b2) = first, second
    if b1 == 0 or b2 == 0:
        raise DegeneratePair(_TRIVIAL_PAIR)
    dd1, dd2 = d1 * d1, d2 * d2
    if a1 * dd2 == a2 * dd1:
        raise DegeneratePair("solution pair requires distinct abscissae")
    n2 = n * n
    if b1 * b1 != a1 * (a1 * a1 - n2 * dd1 * dd1) or b2 * b2 != a2 * (a2 * a2 - n2 * dd2 * dd2):
        raise DegeneratePair("solution pair points must satisfy the curve equation")
    if not is_square_int(a1 * a2):
        raise DegeneratePair(f"x-product {Fraction(a1 * a2, dd1 * dd2)} is not a rational square")


def _element_point(curve: CongruentCurve, element: tuple) -> CurvePoint:
    """The point (a/d^2, b/d^3) of the element (a, d, b)."""
    a, d, b = element
    dd = d * d
    return CurvePoint(curve, Fraction(a, dd), Fraction(b, dd * d))


def _integer_coordinates(point: CurvePoint) -> tuple[int, int, int]:
    """Integers (a, d, b) with x = a/d^2, y = b/d^3 and d > 0. A curve point
    has x = a/d^2 and y = b/d^3 in lowest terms, so d = yd/xd; any other
    point is scaled by d = xd yd."""
    x, y = point.x, point.y
    xd, yd = x.denominator, y.denominator
    d = yd // xd
    if d * d != xd or d * xd != yd:
        d = xd * yd
    return x.numerator * (d * d // xd), d, y.numerator * (d * d * d // yd)


def _reduced(x: int, y: int, z: int, content: int, j: int) -> tuple[int, int, int]:
    """The element (a, d, b) of chain point j (counted from 1), given as the
    Jacobian triple (x, y, z) of the point (x/z^2, y/z^3) and its content
    gcd(x, z^2). The triple is (s^2 a, s^3 b, s d) for an integer s and the
    point's own coprime (a, d), so the content is s^2. A content that is no
    square, or z = 0, the point at infinity, raises SquareCheckFailed (an
    internal bug): no nontrivial point of a congruent curve has finite
    order."""
    s = isqrt(content)
    if not z or s * s != content:
        raise SquareCheckFailed(
            f"chain point {j} has no integer element (a, d, b); group law is broken"
        )
    if z < 0:
        s = -s
    return x // (s * s), z // s, y // (s * s * s)


def _sum(n: int, first: tuple, second: tuple) -> tuple[int, int, int]:
    """The Jacobian triple (X, Y, Z) of P + Q, x = X/Z^2 and y = Y/Z^3, on
    the curve N for the elements (a, d, b) of P and Q (Cohen, Miyaji and
    Ono, ASIACRYPT 1998): the chord through P and Q, the tangent at P where
    their abscissae match, and Z = 0 for P + (-P). The formulas hold for any
    element with x = a/d^2 and y = b/d^3, coprime or not."""
    (a1, d1, b1), (a2, d2, b2) = first, second
    dd1, dd2 = d1 * d1, d2 * d2
    u1, s1 = a1 * dd2, b1 * dd2 * d2
    h, s2 = a2 * dd1 - u1, b2 * dd1 * d1
    if h or s1 == -s2:
        # Chord: R = S2 - S1, X' = R^2 - H^3 - 2 U1 H^2,
        # Y' = R (U1 H^2 - X') - S1 H^3, Z' = H d1 d2; H = 0 only for P + (-P).
        r = s2 - s1
        hh = h * h
        u1hh = u1 * hh
        x = r * r - hh * h - 2 * u1hh
        return x, r * (u1hh - x) - s1 * hh * h, h * d1 * d2
    # Tangent: M = 3 a^2 - N^2 d^4, S = 4 a b^2, X' = M^2 - 2S,
    # Y' = M (S - X') - 8 b^4, Z' = 2 b d.
    m = 3 * a1 * a1 - n * n * dd1 * dd1
    bb = b1 * b1
    s = 4 * a1 * bb
    x = m * m - 2 * s
    return x, m * (s - x) - 8 * bb * bb, 2 * b1 * d1


def _multiples(seed: CurvePoint, length: int) -> list[tuple[int, int, int]]:
    """The elements (a, d, b) of P, 2P, ..., length*P: each (k+1)P = kP + P
    by _sum, the tangent for 2P and the chord after it, reduced by its
    content."""
    n = seed.curve.N
    first = _integer_coordinates(seed)
    elements = [first]
    while len(elements) < length:
        x, y, z = _sum(n, elements[-1], first)
        elements.append(_reduced(x, y, z, gcd(x, z * z), len(elements) + 1))
    return elements


def _secant(n: int, e: int, element: tuple) -> tuple[int, int, int, int]:
    """The Jacobian triple (X g, (3e^2 - N^2) b d g, g) of the third
    intersection -(P + (e, 0)) of the secant through the 2-torsion point
    (e, 0) and the point P with element (a, d, b), for g = a - e d^2 and X =
    e a + (2e^2 - N^2) d^2, and the content |g| gcd(2N^2, X, g) of the triple.

    x(P + (e, 0)) = e + f'(e)/(x - e) for f(x) = x^3 - N^2 x, so with x =
    a/d^2 and y = b/d^3 the image is x' = X/g and y' = (3e^2 - N^2) b d/g^2.
    The content gcd(X g, g^2) is |g| gcd(X, g), and gcd(X, g) divides 2 N^2
    for e in {0, N, -N} when gcd(a, d) = 1, as for a curve point: for e = 0
    it is gcd(N^2 d^2, a) = gcd(N^2, a); for e = +-N it divides N gcd(a + N
    d^2, a - N d^2), and gcd(a + N d^2, a - N d^2) divides the sum 2a and the
    difference 2 N d^2, so 2 gcd(a, N)."""
    a, d, b = element
    n2 = n * n
    dd = d * d
    g = a - e * dd
    x = e * a + (2 * e * e - n2) * dd
    return x * g, (3 * e * e - n2) * b * d * g, g, abs(g) * gcd(2 * n2, x, g)


def _secant_element(n: int, e: int, element: tuple, j: int = 0) -> tuple[int, int, int]:
    """The element (a', d', b') of the secant image through (e, 0) of the
    curve point with element (a, d, b), chain point j where there is one."""
    return _reduced(*_secant(n, e, element), j)


def _chain_elements(points: Sequence[tuple]) -> list[tuple[int, int, int, int, int]]:
    """The element (a, d, b, r, c) of each element (a, d, b) of a chain P,
    2P, 3P, ..., or of its translates -(jP + T) by one 2-torsion point T: c
    is the a of the chain's first point of the same parity and r = isqrt(a
    c), at most one root per element (the first two have r = |a|). Equal
    parity means one square class of x, so a failed r^2 = a c check raises
    SquareCheckFailed (an internal bug)."""
    elements = []
    for j, (a, d, b) in enumerate(points):
        if j < 2:
            elements.append((a, d, b, abs(a), a))
            continue
        c = elements[j - 2][4]
        r = isqrt(max(a * c, 0))
        if r * r != a * c:
            raise SquareCheckFailed(
                f"x of chain point {j + 1} is not in the square class of point {j % 2 + 1};"
                " group law is broken"
            )
        elements.append((a, d, b, r, c))
    return elements


def _same_parity_elements(p: CurvePoint, k: int, m: int, multiple: Callable) -> str | None:
    """The first defect of the pair (kP, mP) for k and m of equal parity, as
    the message of its DegeneratePair, or None for an admissible pair: the
    multipliers are checked first, then the elements multiple(k) and
    multiple(m), the element (a, d, b) of jP with coprime a and d, or None
    for the point at infinity. A trivial multiple has none or b = 0, and two
    multiples share an abscissa when they share (a, d)."""
    if k == m or k == 0 or m == 0:
        return "multipliers must be distinct and nonzero"
    if (k - m) % 2 != 0:
        return f"multipliers {k} and {m} have different parity"
    if p.is_trivial:
        return "base point must be nontrivial"
    first, second = multiple(k), multiple(m)
    if not (first and second and first[2] and second[2]):
        return f"a multiple of {p} is trivial"
    if first[:2] == second[:2]:
        return f"{k}P and {m}P share an abscissa"
    return None


def same_parity_pair(p: CurvePoint, k: int, m: int) -> SolutionPair:
    """Build the pair (kP, mP) for k, m of equal parity, each multiple by
    mul, checked by the sweep's precondition routine on its element, and
    then for a base point on its curve.

    Equal-parity multiples of one curve point always have a square
    x-product, so such a pair that SolutionPair refuses raises
    SquareCheckFailed (an internal bug), while violated preconditions raise
    DegeneratePair.
    """
    multiples = {}

    def multiple(j: int) -> tuple | None:
        multiples[j] = point = p.mul(j)
        return None if point.is_infinity else _integer_coordinates(point)

    defect = _same_parity_elements(p, k, m, multiple)
    if defect is None and not p.on_curve():
        defect = f"base point {p} is not on its curve"
    if defect is not None:
        raise DegeneratePair(defect)
    try:
        return SolutionPair(multiples[k], multiples[m])
    except DegeneratePair as exc:
        raise SquareCheckFailed(f"({k}P, {m}P) is refused: {exc}; group law is broken") from exc


def kummer_map(pair: SolutionPair) -> tuple[Fraction, Fraction, Fraction]:
    """Map a pair to (xi, zeta, eta) = (X/N, Z/N, YW/N^3).

    The image satisfies eta^2 = xi*zeta*(xi^2 - 1)*(zeta^2 - 1) exactly; this
    quartic identity is the restriction of the curve equations to the ratio
    variables.
    """
    n = pair.curve.N
    return pair.P.x / n, pair.Q.x / n, pair.P.y * pair.Q.y / Fraction(n ** 3)


def point_to_json(point: CurvePoint) -> dict:
    if point.is_infinity:
        return {"N": point.curve.N, "infinity": True}
    return {
        "N": point.curve.N,
        "x": format_rational(point.x),
        "y": format_rational(point.y),
    }


def point_from_json(record: dict) -> CurvePoint:
    """Read a point record; N must be a JSON integer, never a float or text
    that would be truncated or parsed to one, x and y a JSON integer or "p/q"
    text, and infinity, when present, a JSON boolean. A field of the wrong
    JSON type raises TypeError."""
    curve = CongruentCurve(_integer_field(record, "N"))
    infinity = record.get("infinity", False)
    if type(infinity) is not bool:
        raise TypeError(f"infinity must be a boolean, got {infinity!r}")
    if infinity:
        return curve.infinity()
    return curve.point(_rational_field(record, "x"), _rational_field(record, "y"))


def load_seeds(path: str | Path | None = None) -> list[CurvePoint]:
    """Load seed points (one JSON record per line), validating each.

    With no path the packaged seed file is used: one known nontrivial point
    on each of the curves N = 5, 6, 7, 34.
    """
    if path is None:
        text = resources.files(__package__).joinpath("seeds.jsonl").read_text()
    else:
        text = Path(path).read_text()
    seeds = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            point = point_from_json(json.loads(line))
        except (ValueError, KeyError, TypeError) as exc:
            raise InvalidSeed(f"seed line {line_no} is malformed: {exc}") from exc
        if point.is_trivial or not point.on_curve():
            raise InvalidSeed(f"seed line {line_no}: {point} is not a nontrivial curve point")
        seeds.append(point)
    return seeds
