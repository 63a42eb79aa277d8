"""Convex-body metrics, inner-neighbourhood volumes, and attractor dimension.

The package computes exact volume, surface area, and inradius of convex
polytopes in low dimension, certifies the sandwich

    vol/per <= inradius <= n vol/per,

evaluates exact inner-neighbourhood volumes against the envelope
g(eps) = vol (1 - max(0, 1 - eps/inradius)^n), and estimates the upper
box-counting dimension of self-projective attractors from their hole
series.  A seeded Monte Carlo oracle cross-checks every exact routine.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .errors import (
    BadParameter,
    DegenerateImage,
    DegenerateInput,
    DegenerateNumerics,
    DimensionMismatch,
    EmptyInterior,
    EpsOutOfRange,
    GeometryError,
    IfsValidationError,
    Infeasible,
    InsufficientDepth,
    OutsideBody,
    SingularMatrix,
    SolverFailure,
    Unbounded,
    Unstable,
)
from .metrics import (
    HeronReport,
    IncentreResult,
    distance_to_boundary,
    heron_bounds,
    incentre,
    is_circumscribed,
    pancake_family,
    surface_area,
    volume,
)
from .neighbourhood import (
    BoundsReport,
    NeighbourhoodProfile,
    bounds_report,
    g_formula,
    inner_parallel_body,
    neighbourhood_profile,
    scale_copy_containment_check,
    vol_inner_neighbourhood,
)
from .oracle import McEstimate, bounding_box, mc_inner_volume, mc_volume
from .polytope import (
    TAU_FACET,
    TAU_PT,
    TAU_REP,
    HalfspaceSystem,
    VertexSet,
    contains_point,
    convex_hull,
    remove_redundant_halfspaces,
    scale_about,
    validate_body,
    vertex_enumeration,
)
from .projective import (
    DimensionEstimate,
    HoleRecord,
    HoleTable,
    IfsValidationReport,
    ProjectiveIFS,
    SeriesTable,
    auto_seed_holes,
    box_counting_dimension,
    critical_exponent,
    generate_holes,
    hole_series,
    image_polytope,
    middle_thirds_ifs,
    norm_series,
    norm_series_exponent,
    normalize_unimodular,
    parabolic_ifs,
    validate_ifs,
)
from .randgen import random_polytope, random_suite, sample_interior

# the public functions, classes and constants, not the submodules they come from
__all__ = [k for k in dir() if not (k.startswith("_") or isinstance(globals()[k], _ModuleType))]
