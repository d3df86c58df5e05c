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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib import resources
from math import isqrt
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
from .rationals import _integer_field, format_rational, parse_rational


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
    _xz_root, decides it and gives sqrt(XZ) to the builds.
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
    if k == m or k == 0 or m == 0:
        raise DegeneratePair("multipliers must be distinct and nonzero")
    if (k - m) % 2 != 0:
        raise DegeneratePair(f"multipliers {k} and {m} have different parity")
    if p.is_trivial:
        raise DegeneratePair("base point must be nontrivial")
    kp, mp = (chain[j - 1] if 0 < j <= len(chain) else p.mul(j) for j in (k, m))
    if kp.is_trivial or mp.is_trivial:
        raise DegeneratePair(f"a multiple of {p} is trivial")
    if kp.x == mp.x:
        raise DegeneratePair(f"{k}P and {m}P share an abscissa")
    pair = SolutionPair.trusted(kp, mp)
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
    that would be truncated or parsed to one."""
    curve = CongruentCurve(_integer_field(record, "N"))
    if record.get("infinity"):
        return curve.infinity()
    return curve.point(parse_rational(str(record["x"])), parse_rational(str(record["y"])))


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
