import inbody as ib

# every name `from inbody import *` gives, the submodules that the package
# imports included; a name added to or taken from the public surface shows
# here in the diff
PUBLIC_NAMES = [
    "BadParameter", "BoundsReport", "DegenerateImage", "DegenerateInput",
    "DegenerateNumerics", "DimensionEstimate", "DimensionMismatch", "EmptyInterior",
    "EpsOutOfRange", "GeometryError", "HalfspaceSystem", "HeronReport", "HoleRecord",
    "HoleTable", "IfsValidationError", "IfsValidationReport", "IncentreResult",
    "Infeasible", "InsufficientDepth", "McEstimate", "NeighbourhoodProfile",
    "OutsideBody", "ProjectiveIFS", "SeriesTable", "SingularMatrix", "SolverFailure",
    "TAU_FACET", "TAU_PT", "TAU_REP", "Unbounded", "Unstable", "VertexSet",
    "auto_seed_holes", "bounding_box", "bounds_report", "box_counting_dimension",
    "contains_point", "convex_hull", "critical_exponent", "distance_to_boundary",
    "errors", "g_formula", "generate_holes", "heron_bounds", "hole_series",
    "image_polytope", "incentre", "inner_parallel_body", "is_circumscribed", "lp",
    "mc_inner_volume", "mc_volume", "metrics", "middle_thirds_ifs", "neighbourhood",
    "neighbourhood_profile", "norm_series", "norm_series_exponent",
    "normalize_unimodular", "oracle", "pancake_family", "parabolic_ifs", "polytope",
    "projective", "randgen", "random_polytope", "random_suite",
    "remove_redundant_halfspaces", "sample_interior", "scale_about",
    "scale_copy_containment_check", "surface_area", "validate_body", "validate_ifs",
    "vertex_enumeration", "vol_inner_neighbourhood", "volume",
]


def test_public_names_are_pinned():
    assert sorted(ib.__all__) == PUBLIC_NAMES
