"""Shared generators for the test suite."""

from fractions import Fraction
from math import gcd

from npcuboid import CongruentCurve, same_parity_pair, sqrt_exact
from npcuboid.curve import _integer_coordinates


def generated_pairs(seeds, max_multiple=6):
    """Same-parity multiple pairs across the seed curves, smallest first."""
    pairs = []
    for seed in seeds:
        for k in range(1, max_multiple):
            for m in range(k + 2, max_multiple + 1, 2):
                pairs.append(same_parity_pair(seed, k, m))
    return pairs


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


# The sweep's chain as it was built before the integer elements, kept as
# their oracle: the multiples by successive additions of the Fraction-backed
# group law, and each point read back as its element (a, d, b).


def reference_chain(seed, length):
    """The multiples P, 2P, ..., length*P, by length - 1 successive additions."""
    multiples = [seed]
    while len(multiples) < length:
        multiples.append(multiples[-1].add(seed))
    return multiples


def reference_elements(points):
    """The element (a, d, b) of each point: x = a/d^2 and y = b/d^3."""
    return [_integer_coordinates(point) for point in points]
