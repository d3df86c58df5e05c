"""Recover congruent numbers and solution pairs from a given NPC.

Every family inverts the same way. Its circle or hyperbola parameters are
diagonal-sum ratios of the cuboid, and they give the two abscissa ratios
X/N and Z/N of pair I; for a verified NPC both exceed 1, so they meet the
curve inequality (-1 < X/N < 0 or X/N > 1). N is the squarefree kernel of
r(r^2 - 1) for r = X/N and for r = Z/N alike; it is taken once, from the
ratio of lower height, and the abscissae follow by scaling. The other pairs
are images of pair I under the reflected transformations: II under the
first, and for the invariant family III and IV under the second.

The points are computed on integer elements (a, d, b), x = a/d^2 and y =
b/d^3 (see curve): pair I's from the ratios with one integer square root
each, the others by the one secant map on elements, through (0, 0) for the
first reflection and (N, 0) for the second. Each pair is checked on its
elements, pair I before any reflection, and its points are then built
once; no rational square root or Fraction secant is taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd, isqrt

from .curve import CongruentCurve, SolutionPair, _secant_element
from .cuboids import Cuboid, pc_condition, verify_npc
from .errors import FactorizationExceeded, InconsistentKernel, NotAnNPC
from .factoring import DEFAULT_RHO_BUDGET, squarefree_kernel
from .rationals import format_rational

# The inversion takes no rational square root; sqrt_exact stays importable
# here, where perfbench/tracing.py wraps it.
from .rationals import sqrt_exact  # noqa: F401


@dataclass(frozen=True)
class RecoveredPair:
    which: str
    pair: SolutionPair


@dataclass(frozen=True)
class RecoveredSolutions:
    """The labelled solution pairs reproducing one NPC, with their squarefree N.

    Every family has pairs I and II, images of each other under the first
    reflected transformation. The invariant family adds III and IV, the
    images of I and II under the second. pc_input flags inputs that are
    themselves perfect cuboids (accepted, but remarkable).
    """

    N: int
    pairs: tuple[RecoveredPair, ...]
    family: str
    pc_input: bool

    def pair(self, which: str) -> SolutionPair:
        for entry in self.pairs:
            if entry.which == which:
                return entry.pair
        raise KeyError(which)


def _require_npc(cuboid: Cuboid) -> None:
    violations = verify_npc(cuboid)
    if violations:
        raise NotAnNPC(f"violated relations: {', '.join(violations)}")


def _point_from_ratio(n: int, ratio: Fraction) -> tuple[int, int, int]:
    """The element (a, d, b) of the point above x = N p/q, for ratio = p/q
    reduced, with b >= 0.

    y^2 = x^3 - N^2 x = N^2 W/q^4 for W = N p (p^2 - q^2) q, so y = N s/q^2
    with s = isqrt(W); a negative or non-square W has no point above x and
    raises InconsistentKernel. For squarefree N, the pieces p, p^2 - q^2 and
    q being pairwise coprime, W is a square only if q = h d^2 for h = gcd(N,
    q), and then gcd(s, q) = h d. So x = (N/h) p/d^2 with d = isqrt(q/h), and
    y = ((N/h) s/(h d))/d^3.
    """
    p, q = ratio.numerator, ratio.denominator
    w = n * p * (p * p - q * q) * q
    s = isqrt(max(w, 0))
    if s * s != w:
        raise InconsistentKernel(
            f"recovered abscissa {format_rational(Fraction(n * p, q))} is not a curve point"
            f" of N={n}"
        )
    h = gcd(n, q)
    d = isqrt(q // h)
    return n // h * p, d, n // h * s // (h * d)


def _image(n: int, e: int, pair: tuple[tuple, tuple]) -> tuple[tuple, tuple]:
    """The elements of a pair's image under the secant map through (e, 0),
    each taken with y >= 0."""
    images = (_secant_element(n, e, element) for element in pair)
    return tuple((a, d, abs(b)) for a, d, b in images)


def _height(ratio: Fraction) -> int:
    return ratio.numerator.bit_length() + ratio.denominator.bit_length()


def _first_pair(
    ratio: Fraction, x_ratio: Fraction, z_ratio: Fraction, rho_budget: int
) -> tuple[int, tuple[tuple, tuple]]:
    """N as the kernel of ratio (ratio^2 - 1), and pair I's elements on its curve."""
    # With r = p/q reduced, r (r^2 - 1) = p (p^2 - q^2)/q^3 has pairwise
    # coprime pieces, and the 2-descent puts N's large primes in one of them;
    # passing the two factors lets squarefree_kernel strip each piece on its own.
    n = squarefree_kernel((ratio, ratio * ratio - 1), rho_budget)
    return n, (_point_from_ratio(n, x_ratio), _point_from_ratio(n, z_ratio))


def _recover(
    cuboid: Cuboid,
    x_ratio: Fraction,
    z_ratio: Fraction,
    family: str,
    rho_budget: int,
) -> RecoveredSolutions:
    # A verified NPC with positive entries has d_ac > a, c; d_bc > b, c;
    # d_s > d_ac, d_bc, a; and d_ac d_bc > c d_s, as (a^2 + c^2)(b^2 + c^2) =
    # a^2 b^2 + c^2 d_s^2. So every ratio exceeds 1 and meets the curve
    # inequality: (d_ac + c)(d_s + d_bc)/a^2 and (d_s + d_bc)/(d_ac + c);
    # alpha beta and alpha/beta = (d_s + d_bc) d_ac/(a (d_s + b)); beta/alpha
    # = (d_ac + a)(d_s + a)/(c d_bc) and alpha beta = (d_ac + a) d_bc/(c (d_s + a)).
    # A ratio r < -1 or 0 < r < 1 has rhs(N r) = N^3 r (r^2 - 1) < 0, no
    # square, so _point_from_ratio raises InconsistentKernel.
    #
    # rhs(N r) = N^3 r (r^2 - 1), so for squarefree n the point above n r
    # exists only when r has the kernel n. N is therefore taken from the
    # ratio of lower height, whose pieces are smaller to factor (a tie keeps
    # x_ratio); the two points then prove that the other ratio has the same
    # kernel, so N and every point are those of x_ratio's kernel. If that
    # ratio's kernel exceeds the budget or its points fail, the inversion
    # reruns from x_ratio with the full budget, so that the error raised is
    # the one x_ratio gives; a valid input inverts when the kernel of
    # x_ratio, or of a lower z_ratio, fits the budget.
    ratio = z_ratio if _height(z_ratio) < _height(x_ratio) else x_ratio
    try:
        n, first = _first_pair(ratio, x_ratio, z_ratio, rho_budget)
    except (FactorizationExceeded, InconsistentKernel):
        if ratio is x_ratio:
            raise
        n, first = _first_pair(x_ratio, x_ratio, z_ratio, rho_budget)
    curve = CongruentCurve(n)
    # The pairs are checked and built on elements (a, d, b): pair I before
    # any reflection, II its image through (0, 0), and III and IV the images
    # of I and II through (N, 0).
    elements = {"I": first}
    pairs = {"I": SolutionPair._from_elements(curve, *first)}
    images = [("II", 0, "I")]
    if family == "invariant":
        images += [("III", n, "I"), ("IV", n, "II")]
    for which, e, preimage in images:
        elements[which] = _image(n, e, elements[preimage])
        pairs[which] = SolutionPair._from_elements(curve, *elements[which])
    return RecoveredSolutions(
        N=n,
        pairs=tuple(RecoveredPair(which, pair) for which, pair in pairs.items()),
        family=family,
        pc_input=pc_condition(cuboid),
    )


def recover_invariant(
    cuboid: Cuboid, rho_budget: int = DEFAULT_RHO_BUDGET
) -> RecoveredSolutions:
    """Invert the invariant parametrization: N plus the four pairs I-IV.

    Pair I has X/N = (d_ac + c)(d_s + d_bc)/a^2 and
    Z/N = (d_s + d_bc)/(d_ac + c). Feeding pair I or II back through the
    invariant construction reproduces the input exactly; pairs III and IV
    reproduce it with sides a and b interchanged.
    """
    _require_npc(cuboid)
    ac_sum = cuboid.d_ac + cuboid.c
    bc_sum = cuboid.d_s + cuboid.d_bc
    return _recover(
        cuboid,
        ac_sum * bc_sum / (cuboid.a * cuboid.a),
        bc_sum / ac_sum,
        "invariant",
        rho_budget,
    )


def recover_first(
    cuboid: Cuboid, rho_budget: int = DEFAULT_RHO_BUDGET
) -> RecoveredSolutions:
    """Invert the first parametrization: N plus pairs I and II.

    Its circle parameters are diagonal-sum ratios of the cuboid:
    alpha = (d_s + d_bc)/a and beta = (d_s + b)/d_ac, giving
    X/N = alpha*beta and Z/N = alpha/beta.
    """
    _require_npc(cuboid)
    alpha = (cuboid.d_s + cuboid.d_bc) / cuboid.a
    beta = (cuboid.d_s + cuboid.b) / cuboid.d_ac
    return _recover(cuboid, alpha * beta, alpha / beta, "first", rho_budget)


def recover_second(
    cuboid: Cuboid, rho_budget: int = DEFAULT_RHO_BUDGET
) -> RecoveredSolutions:
    """Invert the second parametrization: N plus pairs I and II.

    Its hyperbola parameters are alpha = d_bc/(d_s + a) and
    beta = (d_ac + a)/c, giving X/N = beta/alpha and Z/N = beta*alpha.
    """
    _require_npc(cuboid)
    alpha = cuboid.d_bc / (cuboid.d_s + cuboid.a)
    beta = (cuboid.d_ac + cuboid.a) / cuboid.c
    return _recover(cuboid, beta / alpha, beta * alpha, "second", rho_budget)


def classify_labeling(
    s1: Fraction,
    s2: Fraction,
    s3: Fraction,
    d1: Fraction,
    d2: Fraction,
    d_s: Fraction,
    d_ab_sq: Fraction | None = None,
) -> Cuboid:
    """Relabel loose cuboid data so the missing diagonal spans sides a and b.

    Tries every assignment of the three sides and the two known face
    diagonals and returns the first labeling whose exact relations all hold.
    A given d_ab_sq must hold for the labeling's sides a and b; with none,
    it is a^2 + b^2 of each labeling.
    """
    for a, b, c in permutations((s1, s2, s3)):
        ab_square = a * a + b * b if d_ab_sq is None else d_ab_sq
        for d_bc, d_ac in ((d1, d2), (d2, d1)):
            try:
                candidate = Cuboid(a, b, c, d_bc, d_ac, d_s, d_ab_sq=ab_square)
            except ValueError:
                continue
            if not verify_npc(candidate):
                return candidate
    raise NotAnNPC("no labeling of the given values satisfies the cuboid relations")


def recovery_to_json(result: RecoveredSolutions) -> dict:
    pairs = [
        {
            "X": format_rational(entry.pair.P.x),
            "Z": format_rational(entry.pair.Q.x),
            "which": entry.which,
        }
        for entry in result.pairs
    ]
    return {"N": result.N, "pairs": pairs, "family": result.family}
