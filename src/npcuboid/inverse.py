"""Recover congruent numbers and solution pairs from a given NPC.

Every family inverts the same way. Its circle or hyperbola parameters are
diagonal-sum ratios of the cuboid, and they give the two abscissa ratios
X/N and Z/N of pair I; for a verified NPC both exceed 1, so they meet the
curve inequality (-1 < X/N < 0 or X/N > 1). N is the squarefree kernel of
r(r^2 - 1) for r = X/N and for r = Z/N alike; it is taken once, from the
ratio of lower height, and the abscissae follow by scaling. The other pairs
are images of pair I under the reflected transformations: II under the
first, and for the invariant family III and IV under the second.

The ratios are reduced integer pairs (p, q) of the cuboid's entries scaled
to integers, and the points integer elements (a, d, b), x = a/d^2 and y =
b/d^3 (see curve): pair I's from the ratios with one integer square root
each, the others by the one secant map on elements, through (0, 0) and (N,
0). Each pair is checked on its elements, pair I first, and the JSON is
written from them: no Fraction is built between the cuboid and its JSON.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import gcd, isqrt

from .curve import CongruentCurve, CurvePoint, SolutionPair, _abscissa_text, _secant_element
from .cuboids import Cuboid, _integer_entries, pc_condition, verify_npc
from .errors import FactorizationExceeded, InconsistentKernel, NotAnNPC
from .factoring import DEFAULT_RHO_BUDGET, squarefree_kernel

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


def _npc_integers(cuboid: Cuboid) -> tuple[int, ...]:
    """The six entries of a verified NPC as integers of the same ratios."""
    violations = verify_npc(cuboid)
    if violations:
        raise NotAnNPC(f"violated relations: {', '.join(violations)}")
    return _integer_entries(cuboid)[:6]


def _ratio(numerator: int, denominator: int) -> tuple[int, int]:
    """numerator/denominator, both positive, as a reduced pair (p, q)."""
    g = gcd(numerator, denominator)
    return numerator // g, denominator // g


def _point_from_ratio(n: int, p: int, q: int) -> tuple[int, int, int]:
    """The element (a, d, b) of the point above x = N p/q, for coprime p and
    q > 0, with b >= 0.

    y^2 = x^3 - N^2 x = N^2 W/q^4 for W = N p (p^2 - q^2) q, so y = N s/q^2
    with s = isqrt(W); a negative or non-square W has no point above x and
    raises InconsistentKernel. For squarefree N, the pieces p, p^2 - q^2 and
    q being pairwise coprime, W is a square only if q = h d^2 for h = gcd(N,
    q), and then gcd(s, q) = h d. So x = (N/h) p/d^2 with d = isqrt(q/h), and
    y = ((N/h) s/(h d))/d^3. That element is coprime: gcd(p, d) = 1 as d^2
    divides q, and a prime of both N/h and d would divide q, so h, and N/h,
    so N twice.
    """
    w = n * p * (p * p - q * q) * q
    s = isqrt(max(w, 0))
    if s * s != w:
        raise InconsistentKernel(
            f"recovered abscissa {Fraction(n * p, q)} is not a curve point"
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


def _height(ratio: tuple[int, int]) -> int:
    return ratio[0].bit_length() + ratio[1].bit_length()


def _first_pair(ratio: tuple, x_ratio: tuple, z_ratio: tuple, rho_budget: int) -> tuple:
    """N as the kernel of ratio (ratio^2 - 1), and pair I's elements on its curve."""
    # With r = p/q reduced, r (r^2 - 1) = p (p^2 - q^2)/q^3 has the kernel of
    # p q (p^2 - q^2), whose pairwise coprime pieces squarefree_kernel strips
    # one by one; the 2-descent puts N's large primes in one of them. Split
    # into p - q and p + q, p^2 - q^2 is slower: the 97 kernels of one invert
    # benchmark pass took 2.79 ms, not 2.65 (Python 3.11.7, 2 shared vCPUs).
    p, q = ratio
    n = squarefree_kernel((p, q, p * p - q * q), rho_budget)
    return n, (_point_from_ratio(n, *x_ratio), _point_from_ratio(n, *z_ratio))


def _recover(
    cuboid: Cuboid, x_ratio: tuple, z_ratio: tuple, family: str, rho_budget: int
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
    steps = [("I", None, None), ("II", 0, "I")]
    if family == "invariant":
        steps += [("III", n, "I"), ("IV", n, "II")]
    elements, pairs = {}, {}
    for which, e, preimage in steps:
        elements[which] = first if e is None else _image(n, e, elements[preimage])
        points = (CurvePoint(curve, element=element) for element in elements[which])
        pairs[which] = SolutionPair(*points)
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
    a, _, c, d_bc, d_ac, d_s = _npc_integers(cuboid)
    ac_sum, bc_sum = d_ac + c, d_s + d_bc
    x_ratio, z_ratio = _ratio(ac_sum * bc_sum, a * a), _ratio(bc_sum, ac_sum)
    return _recover(cuboid, x_ratio, z_ratio, "invariant", rho_budget)


def recover_first(
    cuboid: Cuboid, rho_budget: int = DEFAULT_RHO_BUDGET
) -> RecoveredSolutions:
    """Invert the first parametrization: N plus pairs I and II.

    Its circle parameters are diagonal-sum ratios of the cuboid:
    alpha = (d_s + d_bc)/a and beta = (d_s + b)/d_ac, giving
    X/N = alpha*beta and Z/N = alpha/beta.
    """
    a, b, _, d_bc, d_ac, d_s = _npc_integers(cuboid)
    alpha, beta = (d_s + d_bc, a), (d_s + b, d_ac)
    x_ratio = _ratio(alpha[0] * beta[0], alpha[1] * beta[1])
    z_ratio = _ratio(alpha[0] * beta[1], alpha[1] * beta[0])
    return _recover(cuboid, x_ratio, z_ratio, "first", rho_budget)


def recover_second(
    cuboid: Cuboid, rho_budget: int = DEFAULT_RHO_BUDGET
) -> RecoveredSolutions:
    """Invert the second parametrization: N plus pairs I and II.

    Its hyperbola parameters are alpha = d_bc/(d_s + a) and
    beta = (d_ac + a)/c, giving X/N = beta/alpha and Z/N = beta*alpha.
    """
    a, _, c, d_bc, d_ac, d_s = _npc_integers(cuboid)
    alpha, beta = (d_bc, d_s + a), (d_ac + a, c)
    x_ratio = _ratio(beta[0] * alpha[1], beta[1] * alpha[0])
    z_ratio = _ratio(beta[0] * alpha[0], beta[1] * alpha[1])
    return _recover(cuboid, x_ratio, z_ratio, "second", rho_budget)


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
    # Each abscissa is written from its point's coprime element: pair I's
    # (see _point_from_ratio), and the images' (see curve._secant).
    pairs = [
        {
            "X": _abscissa_text(entry.pair.P.element),
            "Z": _abscissa_text(entry.pair.Q.element),
            "which": entry.which,
        }
        for entry in result.pairs
    ]
    return {"N": result.N, "pairs": pairs, "family": result.family}
