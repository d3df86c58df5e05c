"""Exception taxonomy shared by all npcuboid modules.

Every domain failure derives from :class:`NpcuboidError` so callers (and the
CLI exit-code mapping) can distinguish domain errors from resource exhaustion
and plain usage mistakes.
"""


class NpcuboidError(Exception):
    """Base class for all domain errors raised by this package."""


class ResourceExhausted(NpcuboidError):
    """Base class for budget/limit failures (CLI exit code 3)."""


class NotASquare(NpcuboidError):
    """An exact square root was requested of a non-square rational."""


class FactorizationExceeded(ResourceExhausted):
    """The configured factoring effort was exhausted before a full
    squarefree decomposition; returning a possibly-wrong kernel is never
    an option."""


class CurveMismatch(NpcuboidError):
    """Two points from different curves were combined."""


class TrivialInput(NpcuboidError):
    """A reflection was applied at its own pole (a 2-torsion abscissa)."""


class VerticalSecant(NpcuboidError):
    """The secant through the two points is vertical: no y-intercept."""


class DegeneratePair(NpcuboidError):
    """The requested point pair violates a pairing precondition
    (parity, triviality, coincident abscissae, vanishing denominator...),
    or a cuboid built from it has a collapsed (zero) entry."""


class SquareCheckFailed(NpcuboidError):
    """A same-parity multiple pair produced a non-square x-product.
    This indicates an arithmetic bug, not bad input."""


class TrivialParameter(NpcuboidError):
    """A conic parameter hit a value where the parametrization degenerates."""


class NotAnNPC(NpcuboidError):
    """The input record does not satisfy the exact cuboid relations."""


class InconsistentKernel(NpcuboidError):
    """Inversion read an abscissa ratio off the cuboid that is not a curve
    point for the congruent number recovered from the other. A verified NPC
    gives ratios above 1; r < -1 or 0 < r < 1 would have no curve point."""


class InvalidSeed(NpcuboidError):
    """A seed record does not describe a nontrivial point on its curve."""
