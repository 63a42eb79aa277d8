import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import inbody as ib
from inbody import lp, polytope
from inbody.errors import (
    BadParameter,
    DegenerateInput,
    DimensionMismatch,
    EmptyInterior,
    Infeasible,
    Unbounded,
)
from tests.conftest import box, cross_polytope, hrep, twenty_four_cell, wide_rows


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


class TestValidationOrder:
    """The Chebyshev LP runs first and a negative radius means no solution;
    its centre then starts the bounding-box LPs."""

    @pytest.mark.parametrize("A, b, error", [
        # x <= 0 and x >= 1 with y free: contradictory and unbounded
        ([[1.0, 0.0], [-1.0, 0.0]], [0.0, -1.0], Infeasible),
        # contradictory by 1e-7, above the tolerance 1e-8 (1 + max |b|)
        ([[1.0], [-1.0]], [0.0, -1e-7], Infeasible),
        # contradictory by 1e-10, below it: a flat body
        ([[1.0], [-1.0]], [0.0, -1e-10], EmptyInterior),
        # a half-plane holds arbitrarily large balls
        ([[1.0, 1.0]], [1.0], Unbounded),
        # no rows at all
        (np.zeros((0, 2)), np.zeros(0), Unbounded),
        # a line whose centre lies exactly on it: the box LPs find it unbounded
        ([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0], Unbounded),
        # a line contradictory below the tolerance: flat and unbounded, and
        # its centre lies off it, so it is flat before any box LP runs (the
        # two-phase simplex reported Unbounded)
        ([[1.0, 0.0], [-1.0, 0.0]], [0.0, -1e-10], EmptyInterior),
    ])
    def test_error_types(self, A, b, error):
        with pytest.raises(error):
            hrep(A, b)

    def test_box_lps_start_from_the_centre(self, monkeypatch):
        starts = []
        solve = lp.solve_lp

        def recording(c, A, b, start, **kwargs):
            starts.append(start)
            return solve(c, A, b, start, **kwargs)

        monkeypatch.setattr(lp, "solve_lp", recording)
        # the square [1, 3] x [2, 4], off the origin
        H = hrep([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]], [3.0, -1.0, 4.0, -2.0])
        assert H.cheb_center.tolist() == [2.0, 3.0] and H.cheb_radius == 1.0
        assert starts[0].tolist() == [0.0, 0.0, -2.0]
        assert len(starts) == 5
        assert all(np.array_equal(s, H.cheb_center) for s in starts[1:])


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


def sequential_dedup(pts, tol):
    """Reference: scan in order, keep a point unless a kept one is near."""
    kept = []
    for p in pts:
        if kept and np.linalg.norm(np.asarray(kept) - p, axis=1).min() <= tol:
            continue
        kept.append(p)
    return np.asarray(kept)


def lstsq_refine(act, An, bn, feas_tol):
    """Reference: each vertex by least squares on its own active rows
    ``act[k]`` (N, m), with its own offsets ``bn[k]`` (N, m)."""
    refined = np.empty((len(act), An.shape[1]))
    for k in range(len(act)):
        refined[k], *_ = np.linalg.lstsq(An[act[k]], bn[k, act[k]], rcond=None)
    return refined


def fresh(H):
    """The same validated body with nothing memoized."""
    return ib.HalfspaceSystem(H.A, H.b, validated=True, scale=H.scale,
                              bbox=H.bbox, cheb_center=H.cheb_center,
                              cheb_radius=H.cheb_radius)


class TestDedup:
    def test_chain_follows_sequential_rule(self):
        # the middle point is near both ends, the ends are not near each other
        tol = 1e-3
        pts = np.array([[0.0, 0.0], [0.6 * tol, 0.0], [1.2 * tol, 0.0]])
        kept = polytope._dedup_points(pts, tol)
        assert np.array_equal(kept, pts[[0, 2]])

    def test_clusters_across_blocks_match_reference(self):
        # jittered copies of 40 centres with chains longer than one block
        rng = np.random.default_rng(5)
        tol = 1e-6
        centres = rng.standard_normal((40, 3))
        pts = centres[rng.integers(0, 40, 900)]
        pts = pts + rng.uniform(-1.5, 1.5, pts.shape) * tol
        assert pts.shape[0] > 3 * polytope._DEDUP_BLOCK
        assert np.array_equal(polytope._dedup_points(pts, tol),
                              sequential_dedup(pts, tol))

    def test_five_cross_polytope_memory(self):
        # 30,080 candidate points for 10 vertices, merged by active set.  The
        # key of a candidate is its body's 8 bytes and its 32 active rows
        # packed into 4: the peak is 18.3 MB, where an int64 key of the same
        # rows peaked at 27.9 MB
        H = cross_polytope(5)
        tracemalloc.start()
        try:
            V, _ = polytope.vertex_incidence(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert V.count == 10
        assert peak <= 24e6
        assert ib.volume(H) == pytest.approx(0.2666666666666664, rel=1e-15)


class TestRefineReference:
    @pytest.mark.parametrize("which", [
        "suite2", "suite3", "suite4", "cube4", "cross4", "24-cell"])
    def test_batched_refine_matches_lstsq(self, monkeypatch, small_suite, which):
        named = {"cube4": lambda: box(4), "cross4": lambda: cross_polytope(4),
                 "24-cell": twenty_four_cell}
        bodies = [named[which]()] if which in named else small_suite[int(which[-1])]
        for H in bodies:
            V, active = polytope.vertex_incidence(fresh(H))
            with monkeypatch.context() as patch:
                patch.setattr(polytope, "_refine_vertices", lstsq_refine)
                V_ref, active_ref = polytope.vertex_incidence(fresh(H))
            assert V.count == V_ref.count
            # the sort may swap vertices whose keys tie within rounding, so
            # pair each vertex with its nearest reference vertex.  Against
            # exact rational solutions of the simple vertices of these
            # bodies, lstsq is off by up to 6.3e-14 * scale and the batched
            # solve by 2.0e-14, hence the bound.
            dist = np.linalg.norm(V.points[:, None] - V_ref.points[None], axis=2)
            pair = dist.argmin(axis=1)
            assert sorted(pair) == list(range(V.count))
            assert dist[np.arange(V.count), pair].max() <= 1e-13 * H.scale
            assert np.array_equal(active, active_ref[:, pair])


def exact_least_squares(A, b):
    """The least-squares solution of float data, exactly: A^T A x = A^T b in
    Fractions, by Gauss-Jordan elimination."""
    A = [[Fraction(v) for v in row] for row in A]
    b = [Fraction(v) for v in b]
    n = len(A[0])
    M = [[sum(r[i] * r[j] for r in A) for j in range(n)]
         + [sum(r[i] * y for r, y in zip(A, b))] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if M[r][c] != 0)
        M[c], M[p] = M[p], M[c]
        for r in range(n):
            if r != c and M[r][c] != 0:
                f = M[r][c] / M[c][c]
                M[r] = [x - f * y for x, y in zip(M[r], M[c])]
    return [M[i][n] / M[i][i] for i in range(n)]


class TestNonSimpleRefine:
    @pytest.mark.parametrize("which", ["cross4", "24-cell"])
    @pytest.mark.parametrize("shift", [None, (0.1, -0.2, 0.3, 0.05)])
    def test_matches_exact_solution(self, which, shift):
        # every vertex of these bodies has more than n active rows.  Measured
        # against the exact least-squares points of the (shifted, so rounded)
        # float rows: the stacked QR is off by at most 2.9e-16 * scale, and
        # lstsq by 3.2e-16; shifted by 1000 times as much, 7.8e-14 and 1.4e-13
        H = {"cross4": cross_polytope, "24-cell": lambda _: twenty_four_cell()}[which](4)
        if shift is not None:
            H = hrep(H.A, H.b + H.A @ np.array(shift))
        V, active = polytope.vertex_incidence(H)
        An, bn, _ = H.unit_form()
        assert np.all(active.sum(axis=0) > 4)
        for k in range(V.count):
            exact = exact_least_squares(An[active[:, k]], bn[active[:, k]])
            err = max(abs(Fraction(float(x)) - y) for x, y in zip(V.points[k], exact))
            assert err <= 1e-15 * H.scale


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

    @pytest.mark.parametrize("pts, m, count, vol", [
        ([[0, 0], [1, 0], [0, 1], [1, 1], [0.5, 0.5]], 4, 4, 1.0),
        ([[x, y] for x in (-1, 0, 1) for y in (-1, 0, 1)], 4, 4, 4.0),
        (np.vstack([np.eye(3), -np.eye(3), np.zeros((1, 3))]), 8, 6, 4.0 / 3.0),
    ])
    def test_point_at_centroid_ignored(self, pts, m, count, vol):
        # the centroid is exact in floating point and is one of the points
        H = ib.convex_hull(ib.VertexSet(np.asarray(pts, dtype=float)))
        assert H.m == m
        assert ib.vertex_enumeration(H).count == count
        assert ib.volume(H) == pytest.approx(vol, rel=1e-12)

    def test_interval_from_cloud(self):
        # interior points and duplicates leave the two end points
        pts = [[0.3], [-1.5], [2.0], [0.3], [2.0], [-1.5], [1.0]]
        H = ib.convex_hull(ib.VertexSet(pts))
        V, active = polytope.vertex_incidence(H)
        assert H.m == 2
        assert V.points.ravel().tolist() == [-1.5, 2.0]
        assert active.tolist() == [[False, True], [True, False]]

    @pytest.mark.parametrize("n, count", [(2, 30), (3, 40), (4, 20)])
    def test_random_clouds_match_qhull(self, n, count):
        for seed in range(5):
            pts = np.random.default_rng(seed).standard_normal((count, n))
            ref = ConvexHull(pts)
            H = ib.convex_hull(ib.VertexSet(pts))
            V = ib.vertex_enumeration(H)
            expected = pts[ref.vertices]
            assert np.array_equal(V.points, expected[np.lexsort(expected.T[::-1])])
            assert ib.volume(H) == pytest.approx(ref.volume, rel=1e-12)

    @pytest.mark.parametrize("n, count", [(2, 30), (3, 40), (4, 20)])
    def test_similarities_keep_facets_and_scale_volume(self, n, count):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            pts = rng.standard_normal((count, n))
            H = ib.convex_hull(ib.VertexSet(pts))
            vol = ib.volume(H)
            rotation, _ = np.linalg.qr(rng.standard_normal((n, n)))
            for image, lam in [(1e-3 * pts, 1e-3), (1e3 * pts, 1e3),
                               (pts @ rotation.T, 1.0), (pts + 1e3, 1.0)]:
                H2 = ib.convex_hull(ib.VertexSet(image))
                assert H2.m == H.m
                assert ib.volume(H2) == pytest.approx(lam ** n * vol, rel=1e-9)


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
