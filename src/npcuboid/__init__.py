"""Exact-rational nearly-perfect cuboids from congruent number curves.

Build NPCs from pairs of rational curve points whose x-product is a square,
test the perfect-cuboid condition of each parametrization, and invert the
construction: recover the congruent number and all solution pairs from a
given NPC.
"""

from .curve import (
    CongruentCurve,
    CurvePoint,
    SolutionPair,
    kummer_map,
    load_seeds,
    point_from_json,
    point_to_json,
    same_parity_pair,
    secant_y_intercept,
)
from .cuboids import (
    FAMILIES,
    FAMILY_OF_PARAMETRIZATION,
    PARAMETRIZATIONS,
    Cuboid,
    CuboidSource,
    ParametrizationVariables,
    build_npc,
    circle_point,
    cuboid_from_json,
    cuboid_to_json,
    hyperbola_point_a,
    hyperbola_point_b,
    pc_condition,
    pc_equation_residual,
    second_parameter_from_third,
    variables_from_pair,
    verify_npc,
)
from .errors import (
    CurveMismatch,
    DegeneratePair,
    FactorizationExceeded,
    InconsistentKernel,
    InvalidSeed,
    NotASquare,
    NotAnNPC,
    NpcuboidError,
    SquareCheckFailed,
    TrivialInput,
    TrivialParameter,
    VerticalSecant,
)
from .factoring import is_probable_prime, squarefree_kernel, squarefree_part
from .inverse import (
    RecoveredPair,
    RecoveredSolutions,
    classify_labeling,
    recover_first,
    recover_invariant,
    recover_second,
    recovery_to_json,
)
from .rationals import (
    format_rational,
    is_square,
    parse_rational,
    primitive_integer_scaling,
    sqrt_exact,
)
from .search import SearchJob, job_from_json, last_record_key, run_search, write_records

__version__ = "0.1.0"
