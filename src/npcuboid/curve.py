"""Rational points on congruent number curves y^2 = x^3 - N^2 x.

Implements the chord-and-tangent group law, the three reflected
transformations (secants through the 2-torsion points), generation of
solution pairs whose x-product is a rational square, and the Kummer-surface
change of variables. All values are exact rationals; every type is frozen
and safe to share between threads or worker processes.

Points hold reduced Fractions, but the group law, the secant map, the curve
equation and the square check compute on their numerators and denominators:
with x = a/e and y = b/f, each new coordinate is one integer quotient,
reduced by one gcd, in place of a chain of Fraction operations that would
reduce every intermediate value.

The cuboid build reads each point as an integer element (a, d, b, r, c):
x = a/d^2 and y = b/d^3, which a curve point satisfies with its own
numerators (Silverman and Tate, Rational Points on Elliptic Curves, ch. III),
and r^2 = a c for the x numerator c of a point in the same square class of x.
Equal-parity multiples of one point share that class, the image of the
2-descent map (Silverman, The Arithmetic of Elliptic Curves, X.1), so a
chain's elements take c from its first point of their parity and one isqrt
each, and any two of them give sqrt(XZ) = r1 r2/(|c| d1 d2) without a root
of their own.

The sweep's chain P, 2P, ..., and its second-reflected image never become
points: from the seed's (a, d, b), the tangent and chord laws and the secant
map run on integer Jacobian triples (X, Y, Z), x = X/Z^2 and y = Y/Z^3, and
each new triple is reduced to (a, d, b) by the root s of its content
gcd(X, Z^2) = s^2. The CurvePoint law stays the public one and the tests'
oracle for these elements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib import resources
from math import gcd, isqrt
from pathlib import Path
from typing import Sequence

from .errors import (
    CurveMismatch,
    DegeneratePair,
    InvalidSeed,
    SquareCheckFailed,
    TrivialInput,
    VerticalSecant,
)
from .rationals import _integer_field, _rational_field, format_rational


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
        line through both points; infinity is the identity.
        """
        if self.curve != other.curve:
            raise CurveMismatch(f"cannot add points on {self.curve} and {other.curve}")
        if self.is_infinity:
            return other
        if other.is_infinity:
            return self
        # x1 = a1/e1, y1 = b1/f1 and x2 = a2/e2, y2 = b2/f2, all reduced.
        a1, e1, b1, f1 = self.x.numerator, self.x.denominator, self.y.numerator, self.y.denominator
        a2, e2, b2, f2 = (
            other.x.numerator, other.x.denominator, other.y.numerator, other.y.denominator
        )
        if a1 == a2 and e1 == e2:
            if b1 == -b2 and f1 == f2:
                return self.curve.infinity()
            # Equal points: tangent slope (3x^2 - N^2)/(2y). y != 0 here
            # since y == -y was handled.
            slope = Fraction((3 * a1 * a1 - self.curve.N ** 2 * e1 * e1) * f1, 2 * b1 * e1 * e1)
        else:
            slope = Fraction((b2 * f1 - b1 * f2) * e1 * e2, (a2 * e1 - a1 * e2) * f1 * f2)
        s, t = slope.numerator, slope.denominator
        # x3 = s^2/t^2 - x1 - x2 and y3 = (s/t)(x1 - x3) - y1.
        x3 = Fraction(s * s * e1 * e2 - t * t * (a1 * e2 + a2 * e1), t * t * e1 * e2)
        a3, e3 = x3.numerator, x3.denominator
        y3 = Fraction(s * (a1 * e3 - a3 * e1) * f1 - b1 * t * e1 * e3, t * e1 * e3 * f1)
        return CurvePoint(self.curve, x3, y3)

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
        2-torsion point (e, 0), since x(P + (e, 0)) = e + f'(e)/(x - e) for
        f(x) = x^3 - N^2 x."""
        if self.is_infinity or self.x == e:
            raise TrivialInput(pole)
        n2 = self.curve.N ** 2
        a, d, b, f = self.x.numerator, self.x.denominator, self.y.numerator, self.y.denominator
        # x - e = (a - e d)/d, so x' = (e a + (2e^2 - N^2) d)/(a - e d) and
        # y' = (3e^2 - N^2) b d^2 / (f (a - e d)^2).
        gap = a - e * d
        x = Fraction(e * a + (2 * e * e - n2) * d, gap)
        return CurvePoint(self.curve, x, Fraction((3 * e * e - n2) * b * d * d, f * gap * gap))

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
    if p.is_infinity or q.is_infinity:
        raise VerticalSecant("secant through infinity is vertical")
    if p.x == q.x:
        raise VerticalSecant("points share an abscissa")
    return (p.x * q.y - p.y * q.x) / (p.x - q.x)


@dataclass(frozen=True)
class SolutionPair:
    """Two nontrivial points (X, Y), (Z, W) on one curve with X*Z a square.

    This square-product condition is exactly what the cuboid parametrizations
    need in order to keep all their square roots rational. One integer root,
    _xz_root, decides it and gives sqrt(XZ) to the build of a standalone
    pair; the sweep's chain elements carry class roots in its place.
    """

    P: CurvePoint
    Q: CurvePoint

    def __post_init__(self):
        p, q = self.P, self.Q
        if p.curve != q.curve:
            raise CurveMismatch("solution pair must live on one curve")
        if p.is_trivial or q.is_trivial:
            raise DegeneratePair("solution pair requires points with y != 0")
        if p.x == q.x:
            raise DegeneratePair("solution pair requires distinct abscissae")
        if not p.on_curve() or not q.on_curve():
            raise DegeneratePair("solution pair points must satisfy the curve equation")
        if self._xz_root is None:
            raise DegeneratePair(f"x-product {p.x * q.x} is not a rational square")

    @classmethod
    def trusted(cls, p: CurvePoint, q: CurvePoint) -> SolutionPair:
        """Skip invariant checks for points already validated by the caller."""
        pair = object.__new__(cls)
        object.__setattr__(pair, "P", p)
        object.__setattr__(pair, "Q", q)
        return pair

    @property
    def curve(self) -> CongruentCurve:
        return self.P.curve

    def swapped(self) -> SolutionPair:
        return SolutionPair.trusted(self.Q, self.P)

    @cached_property
    def _xz_root(self) -> int | None:
        """isqrt(xn zn xd zd) for X = xn/xd and Z = zn/zd, so that sqrt(XZ) =
        root/(xd zd); None when XZ is no square, as p/q is a square iff p*q is.
        Taken on first use, at most once; no field, so equality, hash and repr
        ignore it."""
        x, z = self.P.x, self.Q.x
        product = x.numerator * z.numerator * x.denominator * z.denominator
        root = isqrt(max(product, 0))
        return root if root * root == product else None


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


def _multiples(seed: CurvePoint, length: int) -> list[tuple[int, int, int]]:
    """The elements (a, d, b) of P, 2P, ..., length*P: 2P by the tangent and
    each (k+1)P = kP + P by the chord, both on integer Jacobian triples
    (Cohen, Miyaji and Ono, ASIACRYPT 1998), each reduced by its content."""
    n2 = seed.curve.N ** 2
    a1, d1, b1 = _integer_coordinates(seed)
    elements = [(a1, d1, b1)]
    if length < 2:
        return elements
    # Tangent: M = 3X^2 - N^2 Z^4, S = 4 X Y^2, X' = M^2 - 2S,
    # Y' = M (S - X') - 8 Y^4, Z' = 2 Y Z.
    dd1 = d1 * d1
    m = 3 * a1 * a1 - n2 * dd1 * dd1
    b1b1 = b1 * b1
    s = 4 * a1 * b1b1
    x = m * m - 2 * s
    z = 2 * b1 * d1
    elements.append(_reduced(x, m * (s - x) - 8 * b1b1 * b1b1, z, gcd(x, z * z), 2))
    # Chord with P: U1 = X d1^2, S1 = Y d1^3, H = a1 Z^2 - U1,
    # R = b1 Z^3 - S1, X' = R^2 - H^3 - 2 U1 H^2, Y' = R (U1 H^2 - X') - S1 H^3,
    # Z' = H Z d1.
    ddd1 = dd1 * d1
    while len(elements) < length:
        a2, d2, b2 = elements[-1]
        u1, s1 = a2 * dd1, b2 * ddd1
        dd2 = d2 * d2
        h, r = a1 * dd2 - u1, b1 * dd2 * d2 - s1
        hh = h * h
        u1hh = u1 * hh
        x = r * r - hh * h - 2 * u1hh
        z = h * d2 * d1
        elements.append(
            _reduced(x, r * (u1hh - x) - s1 * hh * h, z, gcd(x, z * z), len(elements) + 1)
        )
    return elements


def _second_image(n: int, element: tuple[int, int, int], j: int) -> tuple[int, int, int]:
    """The element (a', d', b') of the second reflection of chain point j with
    element (a, d, b): x' = N(a + N d^2)/g and y' = 2 N^2 b d/g^2 for
    g = a - N d^2, the Jacobian triple (N(a + N d^2) g, 2 N^2 b d g, g)."""
    a, d, b = element
    nd2 = n * d * d
    g = a - nd2
    x = n * (a + nd2)
    # The content gcd(x g, g^2) is |g| gcd(x, g), and gcd(x, g) divides
    # 2 N^2: it divides N gcd(a + N d^2, g), and gcd(a + N d^2, g) divides
    # the sum 2a and the difference 2 N d^2, so 2 gcd(a, N) as gcd(a, d) = 1.
    n2 = n * n
    return _reduced(x * g, 2 * n2 * b * d * g, g, abs(g) * gcd(2 * n2, x, g), j)


def _chain_elements(points: Sequence[tuple]) -> list[tuple[int, int, int, int, int]]:
    """The element (a, d, b, r, c) of each element (a, d, b) of a chain P,
    2P, 3P, ..., or of its image under one reflection: c is the a of the
    chain's first point of the same parity and r = isqrt(a c), at most one
    root per element (the first two have r = |a|). Equal parity means one
    square class of x, so a failed r^2 = a c check raises SquareCheckFailed
    (an internal bug)."""
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


def _check_multipliers(p: CurvePoint, k: int, m: int) -> None:
    if k == m or k == 0 or m == 0:
        raise DegeneratePair("multipliers must be distinct and nonzero")
    if (k - m) % 2 != 0:
        raise DegeneratePair(f"multipliers {k} and {m} have different parity")
    if p.is_trivial:
        raise DegeneratePair("base point must be nontrivial")


def _same_parity_multiples(
    p: CurvePoint, k: int, m: int, chain: Sequence[CurvePoint] = ()
) -> tuple[CurvePoint, CurvePoint]:
    """(kP, mP) for k, m of equal parity, read from chain where it covers
    them; violated preconditions raise DegeneratePair."""
    _check_multipliers(p, k, m)
    kp, mp = (chain[j - 1] if 0 < j <= len(chain) else p.mul(j) for j in (k, m))
    if kp.is_trivial or mp.is_trivial:
        raise DegeneratePair(f"a multiple of {p} is trivial")
    if kp.x == mp.x:
        raise DegeneratePair(f"{k}P and {m}P share an abscissa")
    return kp, mp


def _same_parity_elements(p: CurvePoint, k: int, m: int, multiples: Sequence[tuple]) -> None:
    """The preconditions of _same_parity_multiples on the elements (a, d, b)
    of P, 2P, ..., which cover k and m: a trivial multiple has b = 0, and two
    points share an abscissa when they share (a, d)."""
    _check_multipliers(p, k, m)
    first, second = multiples[k - 1], multiples[m - 1]
    if first[2] == 0 or second[2] == 0:
        raise DegeneratePair(f"a multiple of {p} is trivial")
    if first[:2] == second[:2]:
        raise DegeneratePair(f"{k}P and {m}P share an abscissa")


def same_parity_pair(
    p: CurvePoint, k: int, m: int, chain: Sequence[CurvePoint] = ()
) -> SolutionPair:
    """Build the pair (kP, mP) for k, m of equal parity.

    chain optionally holds the caller's multiples P, 2P, ...; a multiple it
    covers is read from it instead of being computed by mul.

    Equal-parity multiples of one point always have a square x-product; a
    failed square check therefore raises SquareCheckFailed (an internal bug),
    while violated preconditions raise DegeneratePair.
    """
    pair = SolutionPair.trusted(*_same_parity_multiples(p, k, m, chain))
    if pair._xz_root is None:
        raise SquareCheckFailed(
            f"x-product of {k}P and {m}P is not a square; group law is broken"
        )
    return pair


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
    that would be truncated or parsed to one, and x and y a JSON integer or
    "p/q" text."""
    curve = CongruentCurve(_integer_field(record, "N"))
    if record.get("infinity"):
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
