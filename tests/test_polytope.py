import dataclasses
import itertools
import math
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
from tests.conftest import (box, corner_within_tolerance, cross_polytope, cut_cube_rows,
                            duplicated_and_redundant, hrep, polar_body, polar_of, sphere_cloud,
                            twenty_four_cell, twin_row_pentagon, wide_rows, written_out_det)


class TestValidateBody:
    def test_unit_cube_is_valid(self, unit_cube):
        assert unit_cube.validated
        assert unit_cube.bbox == pytest.approx(np.array([[0.0] * 3, [1.0] * 3]))

    def test_half_line_is_unbounded(self):
        with pytest.raises(Unbounded):
            hrep([[-1.0]], [0.0])  # x >= 0

    @pytest.mark.parametrize("row", [[1e308, 1e308], [1e-170, 1e-170], [0.0, 0.0]])
    def test_row_norm_must_be_finite_and_positive(self, row):
        # the squares of the first row overflow and those of the second
        # underflow; neither may leave a warning or a unit row of zeros
        with pytest.raises(BadParameter):
            ib.HalfspaceSystem(np.array([row, [-1.0, 0.0], [0.0, -1.0]]),
                               np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("row", [[1e308, 1e308], [1e-170, 1e-170]])
    def test_single_halfspace_shares_the_normal_check(self, row):
        # a one-row system refuses these normals, and without a warning
        with pytest.raises(BadParameter):
            ib.HalfspaceSystem(np.array([row]), np.array([1.0]))

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
        # a line whose centre lies exactly on it: flat and unbounded, and a
        # radius of 0 is flat at any scale, so it is flat before any box LP
        # runs
        ([[1.0, 0.0], [-1.0, 0.0]], [0.0, 0.0], EmptyInterior),
        # a line contradictory below the tolerance: flat and unbounded, and
        # its centre lies off it, so it is flat before any box LP runs (the
        # two-phase simplex reported Unbounded)
        ([[1.0, 0.0], [-1.0, 0.0]], [0.0, -1e-10], EmptyInterior),
        # a tilted line, whose centre misses it by roundoff: flat as well
        ([[1.0, 3.0], [-1.0, -3.0]], [0.7, -0.7], EmptyInterior),
        # the strip 0 <= x <= 1 has interior, and y is unbounded
        ([[1.0, 0.0], [-1.0, 0.0]], [1.0, 0.0], Unbounded),
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


def exact_error(v, exact):
    """The largest difference of a float vector from exact Fractions."""
    return max(abs(Fraction(float(a)) - y) for a, y in zip(v, exact))


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
            assert exact_error(V.points[k], exact) <= 1e-15 * H.scale


def lapack_subset_solves(An, rhs):
    """Reference: every n-subset whose LU determinant exceeds 1e-10 in
    absolute value, solved by LU, one LAPACK call per subset, for the k
    right-hand sides ``rhs`` (k, m) holds as rows.  Yields the subsets
    (C, n) and their solutions (k, C, n), chunk by chunk."""
    m, n = An.shape
    for chunk in polytope._combo_chunks(m, n):
        sub = An[chunk]
        good = np.abs(np.linalg.det(sub)) > 1e-10
        if good.any():
            yield chunk[good], np.linalg.solve(sub[good], rhs.T[chunk[good]]).transpose(2, 0, 1)


def lapack_vertex_paths(H):
    """Reference for _vertex_paths: every n-subset of H's rows solved by LU
    for x and d, with right-hand sides b and 1, then the window rule of the
    residuals p - eps q.  Returns (subsets, x, d, lo, hi) for the subsets
    whose window meets eps >= 0, in subset order."""
    An, bn, _ = H.unit_form()
    tol = polytope.TAU_FACET * H.scale
    out = []
    for subsets, (x, d) in lapack_subset_solves(An, np.vstack([bn, np.ones_like(bn)])):
        p, q = x @ An.T - bn, d @ An.T - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (p - tol) / q
        lo = np.where(q > 0, t, -np.inf).max(axis=1)
        hi = np.where(q < 0, t, np.inf).min(axis=1)
        on = (lo <= hi) & (hi >= 0) & ~((q == 0) & (p > tol)).any(axis=1)
        out.append((subsets[on], x[on], d[on], lo[on], hi[on]))
    return tuple(np.concatenate(a) for a in zip(*out))


def cofactor_families(small_suite):
    """The bodies the cofactor kernel is checked on, by family."""
    return {
        "small-suite": lambda: [H for hs in small_suite.values() for H in hs],
        "cubes": lambda: [box(n) for n in (1, 2, 3, 4)],
        "cross-polytopes": lambda: [cross_polytope(n) for n in (3, 4)],
        "24-cell": lambda: [twenty_four_cell()],
        "cut-cube": lambda: [hrep(*cut_cube_rows())],
        "polar-clouds": lambda: [polar_body(k, n, s) for k, n in ((40, 2), (40, 3), (12, 4))
                                 for s in range(10)],
    }


FAMILIES = ["small-suite", "cubes", "cross-polytopes", "24-cell", "cut-cube", "polar-clouds"]


def edge_line_families(small_suite):
    """The bodies the heads' lines are held against the exhaustive route
    on, by family: the cofactor kernel's, then the 2-cross-polytope and the
    5-cube and 5-cross-polytope, reachable rows that are no facets (a
    repeated row, a redundant row within the tolerance of a vertex),
    cli_vform's polar bodies and its hulls eroded by 0.15, and the 48-facet
    hull of 20 standard-normal points at n = 4 with its erosion by 0.15.
    Heads of dependent rows (e_i with -e_i, a repeated row) are among them."""
    clouds = [sphere_cloud(n, on, inside, seed)
              for n, on, inside in ((2, 16, 24), (3, 20, 20), (4, 10, 2))
              for seed in (151, 48, 187, 5, 6)]
    hull = ib.convex_hull(ib.VertexSet(np.random.default_rng(0).standard_normal((20, 4))))
    return {
        **cofactor_families(small_suite),
        "n2-and-n5": lambda: [cross_polytope(2), box(5), cross_polytope(5)],
        "twin-row-pentagon": lambda: [twin_row_pentagon()],
        "corner": lambda: [corner_within_tolerance(10)],
        "duplicated-and-redundant": lambda: [duplicated_and_redundant(small_suite)],
        "cli-vform-polars": lambda: [polar_of(P) for P in clouds],
        "cli-vform-eroded": lambda: [ib.inner_parallel_body(ib.convex_hull(ib.VertexSet(P)), 0.15)
                                     for P in clouds],
        "found-hull": lambda: [hull, ib.inner_parallel_body(hull, 0.15)],
    }


EDGE_FAMILIES = FAMILIES + ["n2-and-n5", "twin-row-pentagon", "corner", "duplicated-and-redundant",
                            "cli-vform-polars", "cli-vform-eroded", "found-hull"]


def head_matrices(An):
    """The heads of the rows An, their (n - 1)-subsets in lexicographic
    order, and the matrices G (n, n, heads) of [x; A_T] as _head_lines
    gathers them, row 0 left to fill."""
    m, n = An.shape
    heads = polytope._combo_array(m - 1, n - 1)
    G = np.empty((n, n, len(heads)))
    G[:, 1:] = An.T.take(heads.T, axis=1)
    return heads, G


def head_dets(An):
    """det [a_j; A_T] = a_j . u_T of every n-subset S = (T, j) of the rows
    An, in subset order, as the heads' lines take them: u_T from the
    cofactors of each head T (_head_directions), the products from one
    table An U."""
    m, n = An.shape
    heads, G = head_matrices(An)
    U = polytope._head_directions(G)[0]
    later = np.arange(m)[:, None] > (heads[:, -1] if n > 1 else -1)
    f, j = later.T.nonzero()
    return (An @ U)[j, f]


def assert_head_dets(An):
    """The heads' determinants of every n-subset of the rows An against the
    written-out ones: within 4e-16 in absolute value (3.3e-16 measured on
    the cofactor families, whose rows are unit) and with their mask,
    and _head_lines keeps one (head, row) entry per subset the mask keeps.
    Returns the heads' determinants."""
    m, n = An.shape
    det = head_dets(An)
    ref = written_out_det(An[polytope._combo_array(m, n)])
    assert np.abs(np.abs(det) - np.abs(ref)).max() <= 4e-16
    assert np.array_equal(np.abs(det) > 1e-10, np.abs(ref) > 1e-10)
    kept = sum(int(cand.sum()) for _, _, cand, _ in polytope._head_lines(An, np.zeros((1, m))))
    assert kept == np.count_nonzero(np.abs(ref) > 1e-10)
    return det


class TestCofactorKernel:
    """The heads' lines, from their cofactors, name the vertices and the
    vertex paths that LU names."""

    @pytest.mark.parametrize("family", EDGE_FAMILIES)
    def test_incidence_matches_lapack(self, small_suite, family):
        # the heads' lines against LU on every subset of every row
        for H in edge_line_families(small_suite)[family]():
            V, active = polytope.vertex_incidence(fresh(H))
            points, active_ref = exhaustive_incidence(H)
            assert np.array_equal(V.points, points)
            assert np.array_equal(active, active_ref)

    @pytest.mark.parametrize("family", EDGE_FAMILIES)
    def test_window_masks_match_lapack(self, small_suite, family):
        # the subsets each body of a 33-point profile takes, on the
        # reachable rows that a fresh body's profile erodes and on the
        # minimal form: the same subsets as LU's, and the same masks
        for H in edge_line_families(small_suite)[family]():
            rows = polytope._reachable_rows(H)
            for body in (dataclasses.replace(H, A=H.A[rows], b=H.b[rows]),
                         ib.remove_redundant_halfspaces(H)):
                eps = np.linspace(0.0, H.cheb_radius, 33)[:, None]
                _, _, lo, hi = polytope._vertex_paths(fresh(body))
                _, _, _, lo_ref, hi_ref = lapack_vertex_paths(body)
                assert lo.shape == lo_ref.shape
                assert np.array_equal((lo <= eps) & (eps <= hi),
                                      (lo_ref <= eps) & (eps <= hi_ref))

    @pytest.mark.parametrize("family", ["small-suite", "24-cell"])
    def test_shared_minors_tables(self, small_suite, family):
        # at n = 4 the heads' points take the cofactors of rows 1 to 3 from
        # two tables of minors, row 1 sharing row 0's: the same numbers as
        # a table per row
        for H in cofactor_families(small_suite)[family]():
            if H.dim != 4:
                continue
            An, bn, _ = H.unit_form()
            heads, G = head_matrices(An)
            U, opp = polytope._head_directions(G)
            keep = np.abs(U).max(axis=0) > 1e-10
            G, U, opp, heads = G[..., keep], U[:, keep], opp[:, keep], heads[keep]
            G[:, 0] = U
            det = U[0] * U[0]
            for j in range(1, 4):
                det += U[j] * U[j]
            r = np.stack([bn[heads.T], np.ones((3, len(heads)))])
            cof = [polytope._cofactor_row(G, i, polytope._opposite_minors(G, i))
                   for i in (1, 2, 3)]
            ref = cof[0] * r[:, 0, None]
            for i in (1, 2):
                ref += cof[i] * r[:, i, None]
            assert np.array_equal(polytope._head_points(G, r, opp), ref / det)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_invertibility_mask_is_det_mask(self, small_suite, family):
        # the determinants behind the mask, a_j . u_T, are the written-out
        # ones, and the heads keep one entry per subset the mask keeps (see
        # assert_head_dets)
        for H in cofactor_families(small_suite)[family]():
            assert_head_dets(H.unit_form()[0])

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_near_singular_mask(self, n):
        # a row tilted 1e-11 off another gives |a_j . u_T| below the cutoff,
        # one tilted 1e-9 above it
        for tilt in (1e-11, 1e-9):
            A = np.vstack([np.eye(n), -np.eye(n), np.eye(n)[0] + tilt * np.eye(n)[-1]])
            An = A / np.linalg.norm(A, axis=1)[:, None]
            det = assert_head_dets(An)
            combos = polytope._combo_array(len(An), n)
            near = np.abs(det[(combos == 0).any(axis=1) & (combos == 2 * n).any(axis=1)])
            assert (near.max() <= 1e-10) == (tilt < 1e-10)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_feasible_candidates_near_exact(self, small_suite, family):
        # the paths of the body's own candidates (eps = 0 in their window)
        # against the exact solutions of their subsets' float rows, paired
        # with the subsets by LU's order: x is off by at most 1.0e-14 * scale
        # on these bodies (LU by 1.7e-14), and d by 2.8e-14 times its
        # largest entry (LU by 2.7e-14)
        for H in cofactor_families(small_suite)[family]():
            An, bn, _ = H.unit_form()
            x, d, lo, hi = polytope._vertex_paths(fresh(H))
            subsets = lapack_vertex_paths(H)[0]
            assert len(subsets) == len(x)
            own = np.flatnonzero((lo <= 0.0) & (0.0 <= hi))
            assert own.size >= H.dim + 1
            for k in own:
                rows = subsets[k]
                exact_x = exact_least_squares(An[rows], bn[rows])
                exact_d = exact_least_squares(An[rows], np.ones(H.dim))
                assert exact_error(x[k], exact_x) <= 1e-13 * H.scale
                assert exact_error(d[k], exact_d) <= 1e-13 * max(map(abs, exact_d))


class TestEdgeLines:
    """Each head's line, crossed by the later rows, gives the candidates of
    the subsets it leads (the vertices against the exhaustive route:
    TestCofactorKernel.test_incidence_matches_lapack)."""

    @pytest.mark.parametrize("family", EDGE_FAMILIES)
    def test_candidates_are_the_feasible_subsets(self, small_suite, family):
        # one candidate per subset of the reachable rows that LU solves to
        # a point feasible within the tolerance, in subset order.  The two
        # solutions differ by at most 2.9e-16 * scale / |det| on these
        # bodies (7.5e-11 * scale at |det| = 3.9e-7 on the 48-facet hull)
        for H in edge_line_families(small_suite)[family]():
            An, bn, _ = H.unit_form()
            rows = polytope._reachable_rows(H)
            tol = polytope.TAU_FACET * H.scale
            combos = polytope._combo_array(len(rows), H.dim)
            det = np.linalg.det(An[rows][combos])
            combos, det = combos[np.abs(det) > 1e-10], det[np.abs(det) > 1e-10]
            x = np.linalg.solve(An[rows][combos], bn[rows][combos][..., None])[..., 0]
            feasible = np.all(x @ An.T - bn <= tol, axis=1)
            cand = polytope._edge_crossings(An[rows], bn[rows], tol)
            assert cand.shape == x[feasible].shape
            err = np.abs(cand - x[feasible]).max(axis=1, initial=0.0)
            assert (err * np.abs(det[feasible]) <= 1e-14 * H.scale).all()

    @pytest.mark.parametrize("family", ["cubes", "n2-and-n5", "cross-polytopes",
                                        "duplicated-and-redundant"])
    def test_dependent_heads_are_skipped(self, small_suite, family):
        # a head of dependent rows has no line (u = 0): no later row passes
        # the determinant test, so its point is never solved, and no
        # division by zero happens outside the crossings' table
        for H in edge_line_families(small_suite)[family]():
            if H.dim < 3:
                continue
            _, G = head_matrices(H.unit_form()[0])
            assert (polytope._head_directions(G)[0] == 0.0).all(axis=0).any()
            with np.errstate(divide="raise", invalid="raise", over="raise"):
                V, _ = polytope.vertex_incidence(fresh(H))
            assert V.count == len(exhaustive_incidence(H)[0])


class TestSubsetCap:
    def test_wide_h_form_rejected(self):
        H = hrep(*wide_rows())
        with pytest.raises(BadParameter):
            ib.vertex_enumeration(H)

    def test_wide_point_cloud_rejected(self):
        pts = np.random.default_rng(0).standard_normal((40, 12))
        with pytest.raises(BadParameter):
            ib.convex_hull(ib.VertexSet(pts))


class TestComboChunks:
    @pytest.mark.parametrize("m, n", [(60, 3), (50, 4), (30, 5), (20, 8), (300, 2),
                                      (25_000, 1), (7, 7), (3, 4)])
    def test_chunks_follow_itertools(self, m, n):
        # streamed against itertools, chunk by chunk; above one chunk every
        # chunk but those at n = 1, where the subsets are the rows, is within
        # the bound
        ref = itertools.combinations(range(m), n)
        chunks = 0
        for chunk in polytope._combo_chunks(m, n):
            expect = np.array(list(itertools.islice(ref, len(chunk))), dtype=int)
            assert np.array_equal(chunk, expect.reshape(-1, n))
            assert n == 1 or len(chunk) <= polytope._COMBO_CHUNK
            chunks += 1
        assert next(ref, None) is None
        assert (chunks > 1) == (n > 1 and math.comb(m, n) > polytope._COMBO_CHUNK)


def exhaustive_incidence(H):
    """Reference: the vertices and incidence from every n-subset of all the
    rows, each solved by LU and kept iff it is feasible on every row within
    the facet tolerance, then named and refined by the package's tail."""
    An, bn, _ = H.unit_form()
    feas_tol = polytope.TAU_FACET * H.scale
    candidates = [np.empty((0, H.dim))]
    for _, (sols,) in lapack_subset_solves(An, bn[None]):
        feas = np.all(sols @ An.T - bn <= feas_tol, axis=1)
        candidates.append(sols.compress(feas, axis=0))
    pts = np.vstack(candidates)
    points, _, active = polytope._incidence_from_candidates(
        An, bn[None], H.scale, pts, np.zeros(len(pts), dtype=int))
    return points, active


def row_bound(H, factor=True, slack=True):
    """Reference: the rows whose bound over the box, about the centre, comes
    within 2 tol of b; ``factor`` and ``slack`` switch off the homothety
    factor 1 + tol / r and the 2 tol, to make the two mutants."""
    An, bn, _ = H.unit_form()
    tol = polytope.TAU_FACET * H.scale
    lo, hi = H.bbox
    corners = np.array(list(itertools.product(*zip(lo, hi))))
    top = (corners @ An.T).max(axis=0)
    c = An @ H.cheb_center
    lam = 1.0 + tol / H.cheb_radius if factor else 1.0
    return np.flatnonzero(c + lam * (top - c) >= bn - (2.0 * tol if slack else 0.0))


def assert_prunes_soundly(H, rows):
    """No vertex of the exhaustive route is active on a row left out, and no
    n-subset through such a row, solved by LU, meets at a point feasible
    within the facet tolerance."""
    An, bn, _ = H.unit_form()
    m, n = An.shape
    tol = polytope.TAU_FACET * H.scale
    _, active = exhaustive_incidence(H)
    for j in np.setdiff1d(np.arange(m), rows):
        assert not active[j].any(), f"row {j} is active on a vertex"
        others = np.delete(np.arange(m), j)
        subsets = np.array([(j, *S) for S in itertools.combinations(others, n - 1)])
        M = An[subsets]
        good = np.abs(np.linalg.det(M)) > 1e-10
        x = np.linalg.solve(M[good], bn[subsets[good]][..., None])[..., 0]
        assert not np.all(x @ An.T - bn <= tol, axis=1).any(), f"row {j} holds a candidate"


def wedge(alpha, offsets):
    """The triangle with apex (1, 0) of half-angle alpha and its back on
    x = 0, with the rows x <= 1 + k tol for k in ``offsets``."""
    s, c = np.sin(alpha), np.cos(alpha)
    A, b = np.array([[s, c], [s, -c], [-1.0, 0.0]]), np.array([s, s, 0.0])
    tol = polytope.TAU_FACET * hrep(A, b).scale
    return hrep(np.vstack([A, np.tile([1.0, 0.0], (len(offsets), 1))]),
                np.concatenate([b, 1.0 + tol * np.asarray(offsets)]))


def reachable_families(small_suite):
    """The bodies the reachable rows are checked on, by family."""
    return {
        "small-suite": lambda: [H for hs in small_suite.values() for H in hs],
        "random-suite": lambda: [H for n in (2, 3, 4)
                                 for H in ib.random_suite(n, 30, seed=70 + n)],
        "pancakes": lambda: [ib.pancake_family(n, K) for n in (2, 3, 4)
                             for K in (1.0, 10.0, 100.0, 1000.0)],
        "cut-cube": lambda: [hrep(*cut_cube_rows())],
        "cross-polytopes": lambda: [cross_polytope(n) for n in (3, 4)],
        "24-cell": lambda: [twenty_four_cell()],
        "polar-clouds": lambda: [polar_of(sphere_cloud(n, on, inside, seed))
                                 for n, on, inside in ((2, 16, 24), (3, 20, 20), (4, 10, 2))
                                 for seed in (151, 48, 187, 5, 6)],
        # a sharp apex, where a row 3 tol past it holds a candidate, and a
        # blunt one, whose vertex is refined 0.38 tol past it and is active
        # on a row at 1.08 tol, past the bound over the box (1.015 tol)
        "wedges": lambda: [wedge(0.01, [3.0]), wedge(np.radians(80.0), [0.4, 1.08])],
    }


REACHABLE_FAMILIES = ["small-suite", "random-suite", "pancakes", "cut-cube",
                      "cross-polytopes", "24-cell", "polar-clouds", "wedges"]


class TestReachableRows:
    """Enumerating the subsets of the reachable rows names the vertices
    that every subset names."""

    @pytest.mark.parametrize("family", REACHABLE_FAMILIES)
    def test_incidence_matches_exhaustive(self, small_suite, family):
        for H in reachable_families(small_suite)[family]():
            V, active = polytope.vertex_incidence(fresh(H))
            points, active_ref = exhaustive_incidence(H)
            assert np.array_equal(V.points, points)
            assert np.array_equal(active, active_ref)

    @pytest.mark.parametrize("family", REACHABLE_FAMILIES)
    def test_pruned_rows_hold_no_vertex(self, small_suite, family):
        for H in reachable_families(small_suite)[family]():
            rows = polytope._reachable_rows(H)
            assert np.array_equal(rows, row_bound(H))
            assert_prunes_soundly(H, rows)

    def test_rows_are_pruned(self, small_suite):
        # the test has work to do: the polar rows of interior points go
        pruned = [H.m - len(polytope._reachable_rows(H))
                  for H in reachable_families(small_suite)["polar-clouds"]()]
        assert min(pruned) > 0

    @pytest.mark.parametrize("mutant, body", [
        (dict(factor=False), wedge(0.01, [3.0])),
        (dict(slack=False), wedge(np.radians(80.0), [0.4, 1.08])),
    ])
    def test_mutants_are_caught(self, mutant, body):
        # without the factor the sharp apex loses a vertex; without the
        # slack the blunt one loses a row that is active on its vertex
        assert not np.array_equal(row_bound(body, **mutant), row_bound(body))
        with pytest.raises(AssertionError):
            assert_prunes_soundly(body, row_bound(body, **mutant))

    def test_touching_redundant_row_is_kept(self, unit_square):
        H = hrep(np.vstack([unit_square.A, [[1.0, 1.0]]]), np.append(unit_square.b, 2.0))
        assert 4 in polytope._reachable_rows(H)
        V, active = polytope.vertex_incidence(H)
        assert np.round(V.points[active[4]], 12).tolist() == [[1.0, 1.0]]

    def test_body_without_box_or_centre_is_refused(self, unit_cube):
        # every validated body carries its box and centre, so the row bound
        # always has them: a partial certificate is refused at construction
        whole = dict(scale=unit_cube.scale, bbox=unit_cube.bbox,
                     cheb_center=unit_cube.cheb_center, cheb_radius=unit_cube.cheb_radius)
        for missing in whole:
            part = {k: v for k, v in whole.items() if k != missing}
            for validated in (True, False):
                with pytest.raises(BadParameter):
                    ib.HalfspaceSystem(unit_cube.A, unit_cube.b, validated=validated, **part)
        with pytest.raises(BadParameter):
            ib.HalfspaceSystem(unit_cube.A, unit_cube.b, validated=False, **whole)
        H = ib.HalfspaceSystem(unit_cube.A, unit_cube.b, validated=True, **whole)
        assert polytope._reachable_rows(H).tolist() == list(range(6))

    def test_far_rows_no_longer_reach_the_cap(self, monkeypatch):
        # C(1006, 3) = 1.7e8 subsets exceed the cap, so the exhaustive route
        # refuses the cube; of its rows only the six faces are reachable
        far = np.random.default_rng(2).standard_normal((1000, 3))
        H = hrep(np.vstack([np.eye(3), -np.eye(3), far]),
                 np.concatenate([np.ones(3), np.zeros(3), 10.0 * np.linalg.norm(far, axis=1)]))
        V, active = polytope.vertex_incidence(fresh(H))
        assert sorted(map(tuple, np.round(V.points, 12))) == sorted(
            itertools.product((0.0, 1.0), repeat=3))
        assert not active[6:].any()
        monkeypatch.setattr(polytope, "_reachable_rows", lambda H: np.arange(H.m))
        with pytest.raises(BadParameter):
            polytope.vertex_incidence(fresh(H))


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


def affine_rank_facet_rows(H):
    """Reference: a row is a facet row iff the SVD rank of its centred active
    vertices is n - 1, and of rows with equal active sets the first is kept."""
    V, active = polytope.vertex_incidence(H)
    tol = polytope.TAU_FACET * H.scale
    keep, seen = np.zeros(H.m, dtype=bool), set()
    for j, row in enumerate(active):
        if row.tobytes() in seen:
            continue
        seen.add(row.tobytes())
        pts = V.points[row]
        if len(pts) >= H.dim:
            svals = np.linalg.svd(pts - pts.mean(axis=0), compute_uv=False)
            keep[j] = (svals > tol).sum() == H.dim - 1
    return keep


class TestFacetRule:
    """The maximal-meet rule picks the rows the affine-rank test picks."""

    @pytest.mark.parametrize("family", [
        "small-suite", "cross-polytopes", "24-cell", "pancakes",
        "polar-40-in-2", "polar-40-in-3", "polar-12-in-4", "polar-20-in-4"])
    def test_matches_affine_rank(self, small_suite, family):
        bodies = {
            "small-suite": lambda: [H for hs in small_suite.values() for H in hs],
            "cross-polytopes": lambda: [cross_polytope(n) for n in (3, 4, 5)],
            "24-cell": lambda: [twenty_four_cell()],
            "pancakes": lambda: [ib.pancake_family(n, K) for n in (2, 3, 4)
                                 for K in (1.0, 10.0, 1000.0)],
            "polar-40-in-2": lambda: [polar_body(40, 2, s) for s in range(120)],
            "polar-40-in-3": lambda: [polar_body(40, 3, s) for s in range(120)],
            "polar-12-in-4": lambda: [polar_body(12, 4, s) for s in range(120)],
            "polar-20-in-4": lambda: [polar_body(20, 4, s) for s in range(120)],
        }[family]()
        for H in bodies:
            V, active = polytope.vertex_incidence(H)
            rule = polytope._facet_rows(np.array([0, V.count]), active, H.dim)[0][0]
            assert np.array_equal(rule, affine_rank_facet_rows(H))


class TestCertificate:
    """A body's certificate is made by validate_body or convex_hull, mapped
    whole by the maps of a body, and only read everywhere else."""

    @staticmethod
    def certificate(H):
        return H.validated, H.scale, H.bbox, H.cheb_center, H.cheb_radius

    def test_system_is_frozen(self, unit_square):
        with pytest.raises(dataclasses.FrozenInstanceError):
            unit_square.scale = 1.0

    def test_hull_carries_its_ball(self, monkeypatch):
        hull = ib.convex_hull(ib.VertexSet(sphere_cloud(3, 20, 20, 48)))
        before = self.certificate(hull)
        assert before[0] and hull.cheb_radius > 0.0
        assert ib.contains_point(hull, hull.cheb_center, -hull.cheb_radius * (1 - 1e-12))
        monkeypatch.setattr(lp, "solve_lp", lambda *a, **k: pytest.fail("an LP was solved"))
        inc = ib.incentre(hull)
        assert self.certificate(hull) == before
        assert np.array_equal(inc.incentre, hull.cheb_center)
        assert inc.inradius == hull.cheb_radius

    def test_raw_body_refused_by_distance(self, unit_square):
        raw = ib.HalfspaceSystem(unit_square.A, unit_square.b)
        with pytest.raises(BadParameter):
            ib.distance_to_boundary(raw, [0.5, 0.5])

    def test_maps_carry_the_certificate(self, unit_square):
        H = ib.HalfspaceSystem(np.vstack([unit_square.A, [[1.0, 1.0]]]),
                               np.append(unit_square.b, 3.0))
        H = ib.validate_body(H)
        Hm = ib.remove_redundant_halfspaces(H)
        assert Hm.m == 4 and self.certificate(Hm) == self.certificate(H)
        inner = ib.inner_parallel_body(H, 0.1)
        assert inner.validated and inner.cheb_radius == pytest.approx(0.4)
        assert inner.scale == H.scale and np.array_equal(inner.bbox, H.bbox)
        big = ib.scale_about(H, [0.0, 0.0], 2.0)
        assert big.validated and big.scale == 2.0 * H.scale
        assert big.cheb_center.tolist() == [1.0, 1.0] and big.cheb_radius == 1.0

    @pytest.mark.parametrize("lam", [1e-3, 1e-8, 1e-10])
    def test_scaled_body_keeps_the_scale_of_its_box(self, lam):
        # the scale is the floored half-diagonal of the box for every body,
        # so a tiny copy keeps the floor that its own validation gives it
        tri = hrep([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]], [1.0, 0.0, 0.0])
        small = ib.scale_about(tri, [0.3, 0.2], lam)
        ref = ib.validate_body(ib.HalfspaceSystem(small.A, small.b))
        assert small.scale == pytest.approx(ref.scale, rel=1e-12)
        assert small.scale == polytope._scale_from_box(*small.bbox)


class TestScaleAbout:
    def test_identity(self, unit_square):
        H = ib.scale_about(unit_square, [0.5, 0.5], 1.0)
        assert H.b == pytest.approx(unit_square.b)

    def test_collapse_to_point(self, unit_square):
        H = ib.scale_about(unit_square, [0.5, 0.5], 0.0)
        # every halfspace boundary passes through the centre now
        assert H.A @ np.array([0.5, 0.5]) == pytest.approx(H.b)
        assert not H.validated
        assert (H.scale, H.bbox, H.cheb_center, H.cheb_radius) == (None,) * 4

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
