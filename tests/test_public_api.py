import numpy as np
import pytest

import inbody as ib

# every name `from inbody import *` gives, which leaves out the submodules
# that the package imports; a name added to or taken from the public surface
# shows here in the diff
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
    "g_formula", "generate_holes", "heron_bounds", "hole_series", "image_polytope",
    "incentre", "inner_parallel_body", "is_circumscribed", "mc_inner_volume",
    "mc_volume", "middle_thirds_ifs", "neighbourhood_profile", "norm_series",
    "norm_series_exponent", "normalize_unimodular", "pancake_family", "parabolic_ifs",
    "random_polytope", "random_suite", "remove_redundant_halfspaces", "sample_interior",
    "scale_about", "scale_copy_containment_check", "surface_area", "validate_body",
    "validate_ifs", "vertex_enumeration", "vol_inner_neighbourhood", "volume",
]


def test_public_names_are_pinned():
    assert sorted(ib.__all__) == PUBLIC_NAMES


def test_submodules_stay_attributes():
    # left out of __all__, the submodules are still reached as attributes
    assert ib.metrics.volume is ib.volume and ib.polytope.VertexSet is ib.VertexSet
    assert not hasattr(ib, "types")


# every public function that reads a body's certificate, with its arguments
# after the body
CERTIFICATE_READERS = [
    (ib.volume, ()), (ib.surface_area, ()), (ib.heron_bounds, ()),
    (ib.is_circumscribed, ()), (ib.incentre, ()), (ib.distance_to_boundary, ([0.5, 0.5],)),
    (ib.vertex_enumeration, ()), (ib.remove_redundant_halfspaces, ()),
    (ib.inner_parallel_body, (0.1,)), (ib.vol_inner_neighbourhood, (0.1,)),
    (ib.bounds_report, (0.1,)), (ib.scale_copy_containment_check, (0.1,)),
    (ib.neighbourhood_profile, (33,))]


@pytest.mark.parametrize("function, args", CERTIFICATE_READERS,
                         ids=[f.__name__ for f, _ in CERTIFICATE_READERS])
def test_raw_body_refused(function, args):
    # an unvalidated body has no certificate to read
    raw = ib.HalfspaceSystem(np.vstack([np.eye(2), -np.eye(2)]), [1.0, 1.0, 0.0, 0.0])
    with pytest.raises(ib.BadParameter):
        function(raw, *args)
