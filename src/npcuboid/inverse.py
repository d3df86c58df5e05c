"""Recover congruent numbers and solution pairs from a given NPC.

Every family inverts the same way. Its circle or hyperbola parameters are
diagonal-sum ratios of the cuboid, and they give the two abscissa ratios
X/N and Z/N of pair I; for a verified NPC both exceed 1, so they meet the
curve inequality (-1 < X/N < 0 or X/N > 1). N is the squarefree kernel of
(X/N)((X/N)^2 - 1), and the abscissae follow by scaling. The other pairs
are images of pair I under the reflected transformations: II under the
first, and for the invariant family III and IV under the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .curve import CongruentCurve, CurvePoint, SolutionPair
from .cuboids import Cuboid, pc_condition, verify_npc
from .errors import InconsistentKernel, NotASquare, NotAnNPC
from .factoring import DEFAULT_RHO_BUDGET, squarefree_kernel
from .rationals import format_rational, sqrt_exact


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


def _point_from_ratio(curve: CongruentCurve, ratio: Fraction) -> CurvePoint:
    x = curve.N * ratio
    try:
        y = sqrt_exact(curve.rhs(x))
    except NotASquare as exc:
        raise InconsistentKernel(
            f"recovered abscissa {format_rational(x)} is not a curve point of N={curve.N}"
        ) from exc
    return curve.point(x, y)


def _abs_y(point: CurvePoint) -> CurvePoint:
    return point if point.y >= 0 else point.neg()


def _image(pair: SolutionPair, reflect) -> SolutionPair:
    return SolutionPair(_abs_y(reflect(pair.P)), _abs_y(reflect(pair.Q)))


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
    # square, so _point_from_ratio raises InconsistentKernel. With r = p/q
    # reduced, r (r^2 - 1) = p (p^2 - q^2)/q^3 has pairwise coprime pieces,
    # and the 2-descent puts N's large primes in one of them; passing the two
    # factors lets squarefree_kernel strip each piece on its own.
    n = squarefree_kernel((x_ratio, x_ratio * x_ratio - 1), rho_budget)
    curve = CongruentCurve(n)
    # rhs(N r) = N^3 r (r^2 - 1), so the point above N * z_ratio exists only
    # when z_ratio has the same kernel n; no second factoring is needed.
    first = SolutionPair(_point_from_ratio(curve, x_ratio), _point_from_ratio(curve, z_ratio))
    pairs = {"I": first, "II": _image(first, CurvePoint.reflect_first)}
    if family == "invariant":
        pairs["III"] = _image(first, CurvePoint.reflect_second)
        pairs["IV"] = _image(pairs["II"], CurvePoint.reflect_second)
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
    s1: Fraction, s2: Fraction, s3: Fraction, d1: Fraction, d2: Fraction, d_s: Fraction
) -> Cuboid:
    """Relabel loose cuboid data so the missing diagonal spans sides a and b.

    Tries every assignment of the three sides and the two known face
    diagonals and returns the first labeling whose exact relations all hold.
    """
    for a, b, c in permutations((s1, s2, s3)):
        for d_bc, d_ac in ((d1, d2), (d2, d1)):
            try:
                candidate = Cuboid(a, b, c, d_bc, d_ac, d_s, d_ab_sq=a * a + b * b)
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
