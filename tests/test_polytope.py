import numpy as np
import pytest
from scipy.spatial import ConvexHull

import inbody as ib
from inbody.errors import (
    BadParameter,
    DegenerateInput,
    DimensionMismatch,
    EmptyInterior,
    Infeasible,
    Unbounded,
)
from tests.conftest import hrep, wide_rows


class TestValidateBody:
    def test_unit_cube_is_valid(self, unit_cube):
        assert unit_cube.validated
        assert unit_cube.bbox == pytest.approx(np.array([[0.0] * 3, [1.0] * 3]))

    def test_half_line_is_unbounded(self):
        with pytest.raises(Unbounded):
            hrep([[-1.0]], [0.0])  # x >= 0

    def test_contradictory_constraints_infeasible(self):
        with pytest.raises(Infeasible):
            hrep([[1.0], [-1.0]], [0.0, -1.0])  # x <= 0, x >= 1

    def test_flat_body_rejected(self):
        # slab of zero width: x <= 0 and x >= 0 in R^2, boxed in y
        with pytest.raises(EmptyInterior):
            hrep([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
                 [0.0, 0.0, 1.0, 0.0])


class TestVertexEnumeration:
    def test_unit_square_corners(self, unit_square):
        V = ib.vertex_enumeration(unit_square)
        expect = {(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)}
        got = {tuple(np.round(p, 12)) for p in V.points}
        assert got == expect

    def test_simplex_has_four_vertices(self, simplex3):
        assert ib.vertex_enumeration(simplex3).count == 4

    def test_pancake_corners(self):
        V = ib.vertex_enumeration(ib.pancake_family(2, 4))
        got = {tuple(np.round(p, 12)) for p in V.points}
        assert got == {(0.0, 0.0), (1.0, 0.0), (0.0, 4.0), (1.0, 4.0)}

    def test_vertices_inside_with_facet_slack(self, small_suite):
        for bodies in small_suite.values():
            for H in bodies:
                for p in ib.vertex_enumeration(H).points:
                    assert ib.contains_point(H, p, ib.TAU_FACET * H.scale)


class TestSubsetCap:
    def test_wide_h_form_rejected(self):
        H = hrep(*wide_rows())
        with pytest.raises(BadParameter):
            ib.vertex_enumeration(H)

    def test_wide_point_cloud_rejected(self):
        pts = np.random.default_rng(0).standard_normal((40, 12))
        with pytest.raises(BadParameter):
            ib.convex_hull(ib.VertexSet(pts))


class TestContainsPoint:
    def test_centre_inside(self, unit_square):
        assert ib.contains_point(unit_square, [0.5, 0.5], 0.0)

    def test_slack_tolerates_small_violation(self, unit_square):
        assert ib.contains_point(unit_square, [1.000001, 0.5], 1e-3)

    def test_far_point_outside(self, unit_square):
        assert not ib.contains_point(unit_square, [2.0, 0.5], 1e-3)

    def test_dimension_mismatch(self, unit_square):
        with pytest.raises(DimensionMismatch):
            ib.contains_point(unit_square, [0.5, 0.5, 0.5], 0.0)


class TestConvexHull:
    def test_triangle_three_halfspaces(self):
        H = ib.convex_hull(ib.VertexSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        assert H.m == 3

    def test_square_four_halfspaces(self):
        H = ib.convex_hull(ib.VertexSet([[0.0, 0.0], [1.0, 0.0],
                                         [0.0, 1.0], [1.0, 1.0]]))
        assert H.m == 4

    def test_interval_from_projective_image(self):
        # image of the 1-simplex chart under the left middle-thirds map
        ifs, _ = ib.middle_thirds_ifs()
        img = ib.image_polytope(ifs.matrices[0], ib.VertexSet([[0.0], [1.0]]))
        H = ib.convex_hull(img)
        assert H.m == 2
        V = ib.vertex_enumeration(H)
        assert sorted(V.points.ravel().tolist()) == pytest.approx([0.0, 1.0 / 3.0])

    def test_degenerate_input_rejected(self):
        with pytest.raises(DegenerateInput):
            ib.convex_hull(ib.VertexSet([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))

    def test_interior_points_ignored(self):
        H = ib.convex_hull(ib.VertexSet([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                                         [1.0, 1.0], [0.5, 0.5], [0.2, 0.7]]))
        assert H.m == 4
        assert ib.vertex_enumeration(H).count == 4

    def test_noisy_coplanar_base_is_one_facet(self):
        # every plane through three of the noisy base points is active on
        # all eight, so the base is one facet however the planes tilt
        t = 2 * np.pi * np.arange(8) / 8
        z = 1e-8 * np.random.default_rng(0).standard_normal(8)
        pts = np.vstack([np.column_stack([np.cos(t), np.sin(t), z]), [0.0, 0.0, -1.0]])
        H = ib.convex_hull(ib.VertexSet(pts))
        assert H.m == 9
        assert ib.volume(H) == pytest.approx(ConvexHull(pts).volume, rel=1e-6)


class TestRemoveRedundant:
    def test_slack_constraint_dropped(self, unit_square):
        A = np.vstack([unit_square.A, [[1.0, 0.0]]])
        b = np.concatenate([unit_square.b, [5.0]])
        H = hrep(A, b)
        assert ib.remove_redundant_halfspaces(H).m == 4

    def test_minimal_simplex_unchanged(self, simplex3):
        assert ib.remove_redundant_halfspaces(simplex3).m == 4

    def test_idempotent(self, small_suite):
        for H in small_suite[3][:10]:
            Hm = ib.remove_redundant_halfspaces(H)
            Hm2 = ib.remove_redundant_halfspaces(Hm)
            assert Hm2.m == Hm.m

    def test_vertex_touching_plane_dropped(self, unit_square):
        # x + y <= 2 touches only the corner (1,1): no facet, so redundant
        A = np.vstack([unit_square.A, [[1.0, 1.0]]])
        b = np.concatenate([unit_square.b, [2.0]])
        H = hrep(A, b)
        assert ib.remove_redundant_halfspaces(H).m == 4

    def test_near_duplicate_plane_merged(self, unit_square):
        # x + 1e-8 y <= 1 + 1e-8 is active on the same two corners as x <= 1
        A = np.vstack([unit_square.A, [[1.0, 1e-8]]])
        b = np.concatenate([unit_square.b, [1.0 + 1e-8]])
        H = hrep(A, b)
        assert ib.remove_redundant_halfspaces(H).m == 4
        assert ib.surface_area(H) == pytest.approx(4.0, abs=1e-7)

    def test_inner_body_of_triangle_keeps_three(self, triangle):
        inner = ib.inner_parallel_body(triangle, 0.05)
        assert inner.m == 3


class TestScaleAbout:
    def test_identity(self, unit_square):
        H = ib.scale_about(unit_square, [0.5, 0.5], 1.0)
        assert H.b == pytest.approx(unit_square.b)

    def test_collapse_to_point(self, unit_square):
        H = ib.scale_about(unit_square, [0.5, 0.5], 0.0)
        # every halfspace boundary passes through the centre now
        assert H.A @ np.array([0.5, 0.5]) == pytest.approx(H.b)
        assert not H.validated

    def test_square_about_incentre(self, unit_square):
        H = ib.scale_about(unit_square, [0.5, 0.5], 0.8)
        V = ib.vertex_enumeration(ib.validate_body(H))
        got = sorted(map(tuple, np.round(V.points, 12)))
        assert got == [(0.1, 0.1), (0.1, 0.9), (0.9, 0.1), (0.9, 0.9)]

    def test_contraction_stays_inside(self, small_suite):
        rng = np.random.default_rng(7)
        for H in small_suite[2][:8] + small_suite[3][:8]:
            c = ib.sample_interior(H, 1, rng)[0]
            lam = rng.uniform(0.2, 0.95)
            V = ib.vertex_enumeration(H)
            shrunk = ib.scale_about(V, c, lam)
            for p in shrunk.points:
                assert ib.contains_point(H, p, ib.TAU_FACET * H.scale)

    def test_negative_factor_rejected(self, unit_square):
        with pytest.raises(BadParameter):
            ib.scale_about(unit_square, [0.5, 0.5], -0.5)


class TestRoundTrip:
    def test_hull_of_vertices_matches_minimal_form(self, small_suite):
        for n, bodies in small_suite.items():
            for H in bodies[:10]:
                V = ib.vertex_enumeration(H)
                H2 = ib.convex_hull(V)
                V2 = ib.vertex_enumeration(H2)
                a = np.array(sorted(map(tuple, np.round(V.points, 8))))
                b = np.array(sorted(map(tuple, np.round(V2.points, 8))))
                assert a.shape == b.shape
                assert np.allclose(a, b, atol=ib.TAU_PT * 10 * H.scale + 1e-8)
