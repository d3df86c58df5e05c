"""Shared generators for the test suite."""

from fractions import Fraction
from math import gcd

from npcuboid import (
    CongruentCurve,
    CurveMismatch,
    CurvePoint,
    DegeneratePair,
    InconsistentKernel,
    NotASquare,
    RecoveredPair,
    RecoveredSolutions,
    SolutionPair,
    TrivialInput,
    format_rational,
    pc_condition,
    same_parity_pair,
    sqrt_exact,
    squarefree_kernel,
)
from npcuboid.cuboids import _pair_elements


def generated_pairs(seeds, max_multiple=6):
    """Same-parity multiple pairs across the seed curves, smallest first."""
    pairs = []
    for seed in seeds:
        for k in range(1, max_multiple):
            for m in range(k + 2, max_multiple + 1, 2):
                pairs.append(same_parity_pair(seed, k, m))
    return pairs


def pair_elements(pair):
    """_pair_elements of a standalone pair: the elements (a, d, b, r, c) that
    build_npc reads off its points."""
    return _pair_elements(pair.P.element, pair.Q.element)


def element_pair(curve, first, second):
    """SolutionPair of the points of curve made from their elements."""
    return SolutionPair(CurvePoint(curve, element=first), CurvePoint(curve, element=second))


def point_above(curve, x):
    """The curve point (x, y) with the non-negative ordinate."""
    return curve.point(x, sqrt_exact(curve.rhs(x)))


def triangle_seeds(count):
    """Points above c^2/4 on the curves N = ab/2 of the first count primitive
    Pythagorean triangles (a, b, c), by increasing u in (u^2 - v^2, 2uv)."""
    seeds, seen, u = [], set(), 2
    while len(seeds) < count:
        for v in range(1, u):
            a, b, c = u * u - v * v, 2 * u * v, u * u + v * v
            if (u - v) % 2 and gcd(u, v) == 1 and a * b // 2 not in seen and len(seeds) < count:
                seen.add(a * b // 2)
                seeds.append(point_above(CongruentCurve(a * b // 2), Fraction(c * c, 4)))
        u += 1
    return tuple(seeds)


# The Fraction group law that the integer Jacobian sum in curve.py replaced,
# kept as the oracle of CurvePoint.add and of the sweep's chain: each new
# coordinate is built from Fraction operations, every intermediate value
# reduced. The chain's multiples are successive additions under this law,
# each point read back as its element (a, d, b).


def reference_add(p, q):
    if p.curve != q.curve:
        raise CurveMismatch(f"cannot add points on {p.curve} and {q.curve}")
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return p.curve.infinity()
        slope = (3 * p.x * p.x - p.curve.N ** 2) / (2 * p.y)
    else:
        slope = (q.y - p.y) / (q.x - p.x)
    x3 = slope * slope - p.x - q.x
    y3 = slope * (p.x - x3) - p.y
    return CurvePoint(p.curve, x3, y3)


def reference_chain(seed, length):
    """The multiples P, 2P, ..., length*P, by length - 1 successive
    additions of reference_add."""
    multiples = [seed]
    while len(multiples) < length:
        multiples.append(reference_add(multiples[-1], seed))
    return multiples


def reference_elements(points):
    """The element (a, d, b) of each point: x = a/d^2 and y = b/d^3."""
    return [point.element for point in points]


# The inversion's point stage and the NPC check as they were before they ran
# on integer elements, kept as their oracles: points from Fraction ratios and
# square roots, reflections by the Fraction secant map, the pair checks on
# Fraction coordinates, and the four relations in Fraction arithmetic.


def reference_secant_image(p, e, pole):
    """-(P + (e, 0)), the third intersection of the secant through P and
    (e, 0): x' = (e x + 2e^2 - N^2)/(x - e), y' = (3e^2 - N^2) y/(x - e)^2."""
    if p.is_infinity or p.x == e:
        raise TrivialInput(pole)
    n2 = p.curve.N ** 2
    denom = p.x - e
    x = (e * p.x + (2 * e * e - n2)) / denom
    return CurvePoint(p.curve, x, (3 * e * e - n2) * p.y / denom ** 2)


def reference_pair_checks(p, q):
    """The checks of SolutionPair(p, q) on two points of one curve, in order,
    with their messages."""
    if p.is_trivial or q.is_trivial:
        raise DegeneratePair("solution pair requires points with y != 0")
    if p.x == q.x:
        raise DegeneratePair("solution pair requires distinct abscissae")
    n2 = p.curve.N ** 2
    if any(t.y * t.y != t.x ** 3 - n2 * t.x for t in (p, q)):
        raise DegeneratePair("solution pair points must satisfy the curve equation")
    try:
        sqrt_exact(p.x * q.x)
    except NotASquare:
        raise DegeneratePair(f"x-product {p.x * q.x} is not a rational square") from None


def reference_recover(cuboid, x_ratio, z_ratio, family, rho_budget):
    """inverse._recover on Fractions: pair I from the ratios, II its first
    reflection and, for the invariant family, III and IV the second
    reflections of I and II, each point taken with y >= 0."""
    n = squarefree_kernel((x_ratio, x_ratio * x_ratio - 1), rho_budget)
    curve = CongruentCurve(n)

    def point(ratio):
        x = n * ratio
        try:
            return curve.point(x, sqrt_exact(x ** 3 - n * n * x))
        except NotASquare as exc:
            raise InconsistentKernel(
                f"recovered abscissa {format_rational(x)} is not a curve point of N={n}"
            ) from exc

    def pair(p, q):
        reference_pair_checks(p, q)
        return SolutionPair(p, q)

    def image(pair_, e):
        points = []
        for p in (pair_.P, pair_.Q):
            p = reference_secant_image(p, e, "pole")
            points.append(p if p.y >= 0 else p.neg())
        return pair(*points)

    pairs = {"I": pair(point(x_ratio), point(z_ratio))}
    pairs["II"] = image(pairs["I"], 0)
    if family == "invariant":
        pairs["III"] = image(pairs["I"], n)
        pairs["IV"] = image(pairs["II"], n)
    return RecoveredSolutions(
        N=n,
        pairs=tuple(RecoveredPair(which, p) for which, p in pairs.items()),
        family=family,
        pc_input=pc_condition(cuboid),
    )


def reference_ratios(cuboid, family):
    """The pair-I ratios X/N and Z/N of a cuboid by the family's formulas in
    Fraction arithmetic, as recover_invariant, recover_first and
    recover_second formed them before they read the cuboid's integer entries."""
    a, b, c = cuboid.a, cuboid.b, cuboid.c
    d_bc, d_ac, d_s = cuboid.d_bc, cuboid.d_ac, cuboid.d_s
    if family == "invariant":
        ac_sum = d_ac + c
        bc_sum = d_s + d_bc
        return ac_sum * bc_sum / (a * a), bc_sum / ac_sum
    if family == "first":
        alpha = (d_s + d_bc) / a
        beta = (d_s + b) / d_ac
        return alpha * beta, alpha / beta
    alpha = d_bc / (d_s + a)
    beta = (d_ac + a) / c
    return beta / alpha, beta * alpha


def reference_verify_npc(cuboid):
    """verify_npc in Fraction arithmetic."""
    a, b, c = cuboid.a, cuboid.b, cuboid.c
    violations = []
    if a * a + b * b != cuboid.d_ab_sq:
        violations.append("ab_diagonal")
    if b * b + c * c != cuboid.d_bc ** 2:
        violations.append("bc_diagonal")
    if a * a + c * c != cuboid.d_ac ** 2:
        violations.append("ac_diagonal")
    if a * a + b * b + c * c != cuboid.d_s ** 2:
        violations.append("space_diagonal")
    return violations
