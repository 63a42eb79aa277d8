import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import inbody as ib
from inbody import lp, metrics, neighbourhood, polytope
from inbody.errors import BadParameter, DegenerateInput, DegenerateNumerics, OutsideBody
from tests.conftest import (box, corner_within_tolerance, cross_polytope, cut_cube_rows,
                            hrep, noisy_cone, twenty_four_cell, written_out_det)


def triangle_incircle_radius(p0, p1, p2):
    """Independent oracle: r = area / semiperimeter."""
    p0, p1, p2 = map(np.asarray, (p0, p1, p2))
    u, v = p1 - p0, p2 - p0
    area = 0.5 * abs(u[0] * v[1] - u[1] * v[0])
    per = (np.linalg.norm(p1 - p0) + np.linalg.norm(p2 - p1)
           + np.linalg.norm(p0 - p2))
    return area / (per / 2.0)


ULPS = 8 * np.finfo(float).eps   # a few ulps of a closed form


def simplex(n):
    """{x >= 0, sum x <= 1} in R^n."""
    return hrep(np.vstack([-np.eye(n), np.ones(n)]), [0.0] * n + [1.0])


def cross_hull(n):
    """The n-cross-polytope as the hull of +-e_i: 2n points, where its H-form
    has 2^n rows and C(2^n, n) subsets."""
    return ib.convex_hull(ib.VertexSet(np.vstack([np.eye(n), -np.eye(n)])))


# (name, body, volume, surface area).  The n-simplex has n facets of volume
# 1/(n-1)! and one of volume sqrt(n)/(n-1)!; the n-cross-polytope 2^n
# regular facets of edge sqrt(2), each sqrt(n)/(n-1)!; the 24-cell of edge 1
# is 24 octahedra of volume sqrt(2)/3
CLOSED_FORMS = (
    [(f"cube{n}", lambda n=n: box(n), 1.0, 2.0 * n) for n in range(2, 9)]
    + [(f"simplex{n}", lambda n=n: simplex(n), 1 / math.factorial(n),
        (n + math.sqrt(n)) / math.factorial(n - 1)) for n in range(2, 11)]
    + [(f"cross{n}", lambda n=n: cross_hull(n), 2.0**n / math.factorial(n),
        2.0**n * math.sqrt(n) / math.factorial(n - 1)) for n in range(2, 7)]
    + [("24-cell", twenty_four_cell, 2.0, 8 * math.sqrt(2))])


def simplex_volume_oracle(verts):
    """Independent oracle: |det of edge matrix| / n!."""
    verts = np.asarray(verts, float)
    edges = verts[1:] - verts[0]
    return abs(np.linalg.det(edges)) / math.factorial(edges.shape[0])


class TestDistanceToBoundary:
    def test_square_centre(self, unit_square):
        assert ib.distance_to_boundary(unit_square, [0.5, 0.5]) == pytest.approx(0.5)

    def test_square_off_centre(self, unit_square):
        assert ib.distance_to_boundary(unit_square, [0.1, 0.5]) == pytest.approx(0.1)

    def test_triangle_incentre_distance(self, triangle):
        expected = triangle_incircle_radius([0, 0], [1, 0], [0, 1])
        inc = ib.incentre(triangle)
        assert ib.distance_to_boundary(triangle, inc.incentre) == pytest.approx(
            expected, abs=1e-10)
        assert expected == pytest.approx((2 - math.sqrt(2)) / 2)

    def test_outside_point_rejected(self, unit_square):
        with pytest.raises(OutsideBody):
            ib.distance_to_boundary(unit_square, [1.5, 0.5])

    def test_concave_along_segments(self, small_suite):
        rng = np.random.default_rng(11)
        for H in small_suite[2][:6] + small_suite[3][:6]:
            pts = ib.sample_interior(H, 6, rng)
            f = lambda p: ib.distance_to_boundary(H, p)
            for i in range(0, 6, 2):
                x, y = pts[i], pts[i + 1]
                for lam in (0.25, 0.5, 0.75):
                    mid = lam * x + (1 - lam) * y
                    assert f(mid) >= lam * f(x) + (1 - lam) * f(y) - ib.TAU_REP


class TestIncentre:
    def test_unit_cube(self, unit_cube):
        inc = ib.incentre(unit_cube)
        assert inc.inradius == pytest.approx(0.5, abs=1e-10)
        assert inc.incentre == pytest.approx([0.5] * 3, abs=1e-9)
        assert len(inc.touching_facets) == 6

    @pytest.mark.parametrize("K", [1.0, 2.0, 10.0, 1000.0])
    def test_pancake_inradius_half(self, K):
        assert ib.incentre(ib.pancake_family(2, K)).inradius == pytest.approx(
            0.5, abs=1e-10)

    def test_triangle_touches_all_three(self, triangle):
        inc = ib.incentre(triangle)
        expected = triangle_incircle_radius([0, 0], [1, 0], [0, 1])
        assert inc.inradius == pytest.approx(expected, abs=1e-10)
        assert sorted(inc.touching_facets) == [0, 1, 2]

    def test_matches_sampled_distance_maximum(self, small_suite):
        rng = np.random.default_rng(23)
        for H in small_suite[2][:6]:
            inc = ib.incentre(H)
            best = max(ib.distance_to_boundary(H, p)
                       for p in ib.sample_interior(H, 400, rng))
            assert best <= inc.inradius + ib.TAU_REP
            assert best >= 0.5 * inc.inradius


class TestVolume:
    def test_unit_cube(self, unit_cube):
        assert ib.volume(unit_cube) == pytest.approx(1.0, abs=1e-12)

    def test_pancake_vol_is_K(self):
        assert ib.volume(ib.pancake_family(2, 4)) == pytest.approx(4.0, abs=1e-10)

    def test_simplex_against_determinant_oracle(self, simplex3):
        expected = simplex_volume_oracle([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert ib.volume(simplex3) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(1 / 6)

    @pytest.mark.parametrize("build, vol, area", [
        (lambda: cross_polytope(5), 4 / 15, 32 * math.sqrt(5) / 24),
        (lambda: box(5), 1.0, 10.0),
        (lambda: hrep(np.vstack([-np.eye(5), np.ones(5)]), [0.0] * 5 + [1.0]),
         1 / 120, (5 + math.sqrt(5)) / 24)],
        ids=["cross5", "cube5", "simplex5"])
    def test_five_dimensional_closed_forms(self, build, vol, area):
        # 2^n / n! and 2^n sqrt(n) / (n-1)! for the cross-polytope; the
        # simplex has five facets of volume 1/4! and a regular one of edge
        # sqrt(2) and volume sqrt(5)/4!
        H = build()
        assert ib.volume(H) == pytest.approx(vol, rel=1e-12)
        assert ib.surface_area(H) == pytest.approx(area, rel=1e-12)

    @pytest.mark.parametrize("build, vol, area", [c[1:] for c in CLOSED_FORMS],
                             ids=[c[0] for c in CLOSED_FORMS])
    def test_closed_forms(self, build, vol, area):
        # up to the 8-cube's 2^8 8! flags and the 10-simplex's 11!
        H = build()
        assert ib.volume(H) == pytest.approx(vol, rel=ULPS)
        assert ib.surface_area(H) == pytest.approx(area, rel=ULPS)

    def test_interval(self):
        H = hrep([[1.0], [-1.0]], [2.0, 1.0])
        assert ib.volume(H) == pytest.approx(3.0, rel=1e-15)
        assert ib.surface_area(H) == pytest.approx(2.0, rel=1e-15)

    def test_agrees_with_monte_carlo(self, small_suite):
        for n, bodies in small_suite.items():
            for i, H in enumerate(bodies[:4]):
                est = ib.mc_volume(H, 200_000, seed=900 + 10 * n + i)
                assert abs(ib.volume(H) - est.mean) <= 4 * est.stddev


def kernel_facet_volumes(H):
    """The facet volumes of the minimal form, as the volume kernel gives them."""
    return metrics._cone_decomposition(H)[1]


def facet_volumes_by_qhull(H):
    """Independent reference for the facet volumes of the minimal form: each
    facet's vertices charted by numpy's SVD one dimension down and measured
    by Qhull (a length at n = 2, 1 at n = 1)."""
    Hm = polytope.remove_redundant_halfspaces(H)
    V, active = polytope.vertex_incidence(Hm)
    n = Hm.dim
    out = np.empty(Hm.m)
    for i in range(Hm.m):
        pts = V.points[active[i]]
        centred = pts - pts.mean(axis=0)
        chart = centred @ np.linalg.svd(centred)[2][:n - 1].T
        if n == 1:
            out[i] = 1.0
        elif n == 2:
            out[i] = np.ptp(chart)
        else:
            out[i] = ConvexHull(chart).volume
    return out


class TestFacetsAndSurface:
    def test_cube_face_area(self, unit_cube):
        for vols in (kernel_facet_volumes(unit_cube), facet_volumes_by_qhull(unit_cube)):
            assert vols == pytest.approx([1.0] * 6, abs=1e-12)

    def test_triangle_hypotenuse_length(self, triangle):
        for vols in (kernel_facet_volumes(triangle), facet_volumes_by_qhull(triangle)):
            assert sorted(vols) == pytest.approx([1.0, 1.0, math.sqrt(2)], abs=1e-10)

    def test_pancake_long_face(self):
        H = ib.pancake_family(2, 4)
        for vols in (kernel_facet_volumes(H), facet_volumes_by_qhull(H)):
            assert max(vols) == pytest.approx(4.0)

    def test_degenerate_facet_rejected(self):
        # three collinear points span no plane, so no hull in R^3
        with pytest.raises(DegenerateInput):
            ib.convex_hull(ib.VertexSet([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                                         [2.0, 0.0, 0.0]]))

    def test_cube_surface(self, unit_cube):
        assert ib.surface_area(unit_cube) == pytest.approx(6.0, abs=1e-12)

    @pytest.mark.parametrize("K", [1.0, 4.0, 10.0])
    def test_pancake_perimeter_2d(self, K):
        assert ib.surface_area(ib.pancake_family(2, K)) == pytest.approx(
            2 * (K + 1), abs=1e-9)

    def test_pancake_surface_3d_true_geometry(self):
        # direct face count of [0,1] x [0,K]^2: two K*K faces and four 1*K
        # faces, i.e. 2(K^2 + 2K); the often-quoted 2(K^2 + K + 1) only
        # matches at K = 1.
        K = 2.0
        assert ib.surface_area(ib.pancake_family(3, K)) == pytest.approx(
            2 * (K**2 + 2 * K), abs=1e-9)

    def test_regular_tetrahedron_surface(self, regular_tetrahedron):
        # four equilateral faces of side 2*sqrt(2)
        side = 2 * math.sqrt(2)
        expected = 4 * (math.sqrt(3) / 4) * side**2
        assert ib.surface_area(regular_tetrahedron) == pytest.approx(
            expected, abs=1e-9)

    def test_both_facet_volume_paths_agree(self, small_suite):
        # the pyramid recursion's facet volumes, read off the body's
        # vertex-facet incidence, against each facet charted and hulled
        interval = hrep([[1.0], [-1.0]], [2.0, 1.0])
        for H in [interval] + [H for n in (2, 3, 4) for H in small_suite[n][:4]]:
            ref = facet_volumes_by_qhull(H)
            assert kernel_facet_volumes(H) == pytest.approx(ref, rel=1e-9)
            assert ib.surface_area(H) == pytest.approx(ref.sum(), rel=1e-9)

    def test_random_bodies_agree_with_qhull(self, small_suite):
        for n in (2, 3, 4):
            for H in small_suite[n]:
                assert_matches_qhull(H)

    @pytest.mark.parametrize("build", [
        lambda: cross_polytope(3), lambda: cross_polytope(4),
        lambda: box(4), lambda: twenty_four_cell()],
        ids=["cross3", "cross4", "cube4", "24-cell"])
    def test_named_bodies_agree_with_qhull(self, build):
        # all but the cube are non-simple
        assert_matches_qhull(build())


def assert_matches_qhull(H):
    """Qhull of the enumerated vertices is an independent reference for
    volume and surface_area, and Qhull of each charted facet for every
    facet volume of the kernel."""
    ref = ConvexHull(ib.vertex_enumeration(H).points)
    assert ib.volume(H) == pytest.approx(ref.volume, rel=1e-9)
    assert ib.surface_area(H) == pytest.approx(ref.area, rel=1e-9)
    assert kernel_facet_volumes(H) == pytest.approx(facet_volumes_by_qhull(H), rel=1e-9)


class TestMinkowskiCertificate:
    def test_noisy_sixteen_point_cone_raises(self):
        # the hull's incidence is not its face lattice, so the kernel cannot
        # give the right volume (Qhull 1.0205)
        H = ib.convex_hull(ib.VertexSet(noisy_cone(16)))
        with pytest.raises(DegenerateNumerics):
            ib.volume(H)

    def test_nearly_coplanar_cut_cube_matches_qhull(self):
        # the cut's vertex set lies inside the top face's, so the cut is no
        # facet, and the six facets left give Qhull's numbers on the same
        # vertices
        H = hrep(*cut_cube_rows())
        hull = ConvexHull(ib.vertex_enumeration(H).points)
        assert polytope.remove_redundant_halfspaces(H).m == 6
        assert ib.volume(H) == pytest.approx(hull.volume, rel=ib.TAU_REP)
        assert ib.surface_area(H) == pytest.approx(hull.area, rel=ib.TAU_REP)

    def test_one_face_with_three_vertices(self):
        # the cut leaves (0.9, 0, 1) on the top face's edge from (0, 0, 1) to
        # (1, 0, 1 - 5e-8), and (0.9, 1, 1) on the one opposite, so those
        # 1-faces have three vertices; each one's length is the distance
        # between its first and last, which gives the volume and surface of
        # the recursion carried down to the vertices.  The input's exact
        # volume is 1 - 2.5e-9; the body's vertices sit up to 5e-8 off its
        # top plane, inside the facet tolerance, so its volume depends on
        # the apexes the faces are coned from
        H = hrep(*cut_cube_rows())
        _, active = polytope.vertex_incidence(polytope.remove_redundant_halfspaces(H))
        shared = active.astype(int) @ active.T.astype(int)
        assert np.count_nonzero(np.triu(shared, 1) == 3) == 2
        assert ib.volume(H) == pytest.approx(0.9999999916666608, rel=ULPS)
        assert ib.surface_area(H) == pytest.approx(5.999999949999965, rel=ULPS)

    @pytest.mark.parametrize("length", [1.0, 10.0])
    def test_vertex_off_its_planes_within_tolerance_passes(self, length):
        # Minkowski's relation fails by about 2e-8 of the surface
        H = corner_within_tolerance(length)
        tol = polytope.TAU_FACET * H.scale
        offsets = ib.vertex_enumeration(H).points - [length, 1.0]
        corner = offsets[np.argmin(np.linalg.norm(offsets, axis=1))]
        assert corner.min() > 0.3 * tol
        assert ib.volume(H) == pytest.approx(length, rel=1e-7)
        assert ib.surface_area(H) == pytest.approx(2.0 * length + 2.0, rel=1e-7)


class TestLpCount:
    def test_validated_body_needs_no_further_lp(self, monkeypatch, small_suite):
        # validate_body's Chebyshev LP is reused by the minimal form and
        # by every erosion, so the reports solve nothing new
        calls = []
        solve = lp.solve_lp

        def counting(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(lp, "solve_lp", counting)
        for n in (2, 3, 4):
            raw = small_suite[n][0]
            calls.clear()
            H = ib.validate_body(ib.HalfspaceSystem(raw.A, raw.b))
            assert len(calls) == 2 * n + 1
            ib.heron_bounds(H)
            ib.bounds_report(H, 0.5 * ib.incentre(H).inradius)
            assert len(calls) == 2 * n + 1


class TestHeronBounds:
    def test_unit_cube_upper_tight(self, unit_cube):
        rep = ib.heron_bounds(unit_cube)
        assert rep.lower == pytest.approx(1 / 6)
        assert rep.upper == pytest.approx(0.5)
        assert rep.inradius == pytest.approx(0.5, abs=1e-9)
        assert rep.satisfied

    def test_pancake_ratio_approaches_inradius(self):
        rep = ib.heron_bounds(ib.pancake_family(2, 1000))
        assert rep.lower == pytest.approx(500 / 1001, abs=1e-9)
        assert rep.inradius / rep.lower == pytest.approx(1.001, abs=1e-3)

    def test_random_bodies_satisfy_sandwich(self, small_suite):
        for bodies in small_suite.values():
            for H in bodies:
                rep = ib.heron_bounds(H)
                assert rep.satisfied
                assert rep.lower - ib.TAU_REP <= rep.inradius <= rep.upper + ib.TAU_REP

    def test_pancake_ratio_monotone_in_K(self):
        ratios = []
        for K in (1.0, 10.0, 1000.0):
            rep = ib.heron_bounds(ib.pancake_family(2, K))
            ratios.append(rep.lower / rep.inradius)
        assert ratios[0] == pytest.approx(0.5, abs=1e-9)   # 1/n at K = 1
        assert ratios[0] < ratios[1] < ratios[2]
        assert ratios[2] > 0.999


class TestCircumscribed:
    def test_triangle_circumscribed(self, triangle):
        assert ib.is_circumscribed(triangle)

    def test_unit_cube_circumscribed(self, unit_cube):
        assert ib.is_circumscribed(unit_cube)

    def test_regular_tetrahedron_circumscribed(self, regular_tetrahedron):
        assert ib.is_circumscribed(regular_tetrahedron)

    def test_pancake_not_circumscribed(self):
        assert not ib.is_circumscribed(ib.pancake_family(2, 4))

    @pytest.mark.parametrize("A, b", [
        # the triangle x <= 1, y <= 1, -x - y <= 1, and x + y <= 5 far off
        ([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [1.0, 1.0]], [1.0, 1.0, 1.0, 5.0]),
        # the same triangle with its first row twice
        ([[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0], [2.0, 0.0]], [1.0, 1.0, 1.0, 2.0])],
        ids=["redundant-row", "duplicated-row"])
    def test_rows_that_are_no_facet(self, A, b):
        # the inscribed ball meets every facet, not every row
        H = hrep(A, b)
        assert ib.is_circumscribed(H)
        assert ib.is_circumscribed(ib.remove_redundant_halfspaces(H))

    def test_gap_from_upper_bound_when_not_circumscribed(self):
        rep = ib.heron_bounds(ib.pancake_family(2, 4))
        assert rep.inradius < rep.upper - 1e-3


class TestPancakeFamily:
    def test_K1_is_unit_square(self):
        H = ib.pancake_family(2, 1)
        rep = ib.heron_bounds(H)
        assert (rep.lower / rep.inradius) == pytest.approx(0.5, abs=1e-12)

    def test_values_at_K4(self):
        H = ib.pancake_family(2, 4)
        assert ib.volume(H) == pytest.approx(4.0)
        assert ib.surface_area(H) == pytest.approx(10.0)
        assert ib.incentre(H).inradius == pytest.approx(0.5)

    def test_K1_cube(self):
        assert ib.volume(ib.pancake_family(3, 1)) == pytest.approx(1.0)

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            ib.pancake_family(1, 2.0)
        with pytest.raises(BadParameter):
            ib.pancake_family(2, 0.5)


def unpack(words):
    """Bit rows (..., W) uint64 back to (..., 64 W) rows of 0/1."""
    return np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")


def face_vertices(rows, fbody, start):
    """(face, vertex) index pairs of local incidence rows, face by face, in
    vertex order.  The vertex indices are global: body e's vertices start
    at ``start[e]``.
    """
    f, local = np.divmod(np.flatnonzero(rows), rows.shape[1])
    return f, start[fbody[f]] + local


def centroids(f, v, count, points):
    """Centroid of each of ``count`` faces with the vertices ``points[v[f == i]]``,
    by sequential sums in the order of the pairs, one coordinate at a time."""
    sums = np.stack([np.bincount(f, weights=x.take(v), minlength=count) for x in points.T])
    return (sums / np.bincount(f, minlength=count)).T


def chain_flag_volumes(An, bn, points, start, active, centre):
    """Reference for metrics._pyramid_volumes: the walk once per chain.

    It cones every face from its vertex centroid, where the kernel cones it
    from its first vertex, so the two sum different decompositions.  It
    extends every chain by each facet of its face, with one lexsorted key per
    chain at every level, keeps the chains as an n-column matrix of face
    indices, and expands each flag's determinant from its own (n, n) rows
    along the first row (by the 2 x 2 minors of the first two rows at n = 4).
    """
    m, n = An.shape
    E = len(start) - 1
    bits = polytope._local_bits(active, start)
    body, row = np.nonzero(bits.any(axis=-1))
    faces, fbody = bits[body, row], body
    face = np.arange(len(faces))
    flags, levels, seen = face[:, None], [(faces, fbody)], 0
    for k in range(n - 1, 0, -1):
        hit = np.zeros((len(faces), m), dtype=bool)
        hit[polytope._facet_meets(faces, fbody, bits, k)[:2]] = True
        chain, j = np.nonzero(hit[face])
        parent = face[chain]
        key = np.empty((len(chain), faces.shape[1] + 1), dtype=np.uint64)
        key[:, 0] = fbody[parent]
        key[:, 1:] = faces[parent] & bits[fbody[parent], j]
        order = np.lexsort(key.T[::-1])
        ordered = key[order]
        new_face = np.ones(len(key), dtype=bool)
        new_face[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        face = np.empty(len(key), dtype=int)
        face[order] = np.cumsum(new_face) - 1
        seen += len(faces)
        faces, fbody = ordered[new_face, 1:], fbody[parent[order[new_face]]]
        flags = np.concatenate([flags[chain], (seen + face)[:, None]], axis=1)
        levels.append((faces, fbody))
    faces, fbody = (np.concatenate(x) for x in zip(*levels))
    f, v = face_vertices(unpack(faces), fbody, start)
    offsets = centroids(f, v, len(faces), points) - centre
    dets = written_out_det(offsets[flags])
    cones = np.bincount(flags[:, 0], weights=np.abs(dets), minlength=len(body))
    nfact = math.factorial(n)
    vols = np.bincount(body, weights=cones, minlength=E) / nfact
    dists = bn[body, row] - (An[row] * centre).sum(axis=1)
    fvols = np.zeros((E, m))
    fvols[body, row] = n * cones / dists / nfact
    return vols, fvols


def kernel_inputs(H):
    """The arguments _cone_decomposition gives the kernel: H's minimal form
    as a stack of one, coned from its incentre."""
    Hm = polytope.remove_redundant_halfspaces(H)
    V, active = polytope.vertex_incidence(Hm)
    An, bn, _ = Hm.unit_form()
    return (An, bn[None], V.points, np.array([0, V.count]), active,
            ib.incentre(Hm).incentre)


def profile_stacks(monkeypatch, H):
    """The arguments of every stack _eroded_volumes hands the kernel in H's
    profile at grid 33, whose first block the body itself leads."""
    stacks = []
    kernel = neighbourhood._pyramid_volumes

    def recording(*args):
        stacks.append(args)
        return kernel(*args)

    with monkeypatch.context() as patch:
        patch.setattr(neighbourhood, "_pyramid_volumes", recording)
        neighbourhood._eroded_volumes(H, np.linspace(0.0, ib.incentre(H).inradius, 33))
    return stacks


# the largest relative gap to chain_flag_volumes measured on the bodies of
# TestFlagKernel was 1.2e-15 for a volume and 1.3e-15 for a facet volume
# relative to the body's surface (1.2e-15 for both with the kernel's faces
# coned from their centroids, as the reference cones them), and 6.9e-16
# between the kernel's numbers in two vertex orders; a small facet's
# relative error is larger, in the reference as well
CHAIN_REL = 4e-15


def assert_same_as_chain_walk(args):
    """The kernel's numbers close to the chain walk's (assert_close_volumes)."""
    assert_close_volumes(metrics._pyramid_volumes(*args), chain_flag_volumes(*args))


def assert_close_volumes(result, reference):
    """Volumes within CHAIN_REL of the reference's, facet volumes within
    CHAIN_REL of its surface, and the same facets."""
    vols, fvols = result
    ref_vols, ref_fvols = reference
    np.testing.assert_allclose(vols, ref_vols, rtol=CHAIN_REL, atol=0.0)
    surface = ref_fvols.sum(axis=1)[:, None]
    assert np.all(np.abs(fvols - ref_fvols) <= CHAIN_REL * surface)
    assert np.array_equal(fvols != 0.0, ref_fvols != 0.0)


def reversed_vertices(args):
    """The kernel's arguments with each body's vertices in reverse order:
    its points and its columns of the incidence together."""
    An, bn, points, start, active, centre = args
    order = np.concatenate([np.arange(hi - 1, lo - 1, -1)
                            for lo, hi in zip(start[:-1], start[1:])])
    return An, bn, points[order], start, active[:, order], centre


# (name, body) of the named bodies the kernel is checked on
NAMED_BODIES = [
    ("cube3", lambda: box(3)),
    ("tetrahedron", lambda: ib.convex_hull(ib.VertexSet(
        [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]))),
    ("cube4", lambda: box(4)), ("cross3", lambda: cross_polytope(3)),
    ("cross4", lambda: cross_polytope(4)), ("24-cell", twenty_four_cell),
    ("interval", lambda: hrep([[1.0], [-1.0]], [2.0, 1.0]))]


class TestFlagKernel:
    """The pyramid recursion gives the numbers of the flag simplices, summed
    by a walk once per chain, to a few ulps."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_small_suite_alone(self, small_suite, n):
        for H in small_suite[n]:
            assert_same_as_chain_walk(kernel_inputs(H))

    @pytest.mark.parametrize("build", [b for _, b in NAMED_BODIES],
                             ids=[name for name, _ in NAMED_BODIES])
    def test_named_bodies_alone(self, build):
        assert_same_as_chain_walk(kernel_inputs(build()))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_small_suite_in_reverse_vertex_order(self, small_suite, n):
        # every face's apex is its first vertex, so reversing the vertices
        # changes every apex, and the volumes only by rounding
        for H in small_suite[n]:
            args = kernel_inputs(H)
            assert_close_volumes(metrics._pyramid_volumes(*reversed_vertices(args)),
                                 metrics._pyramid_volumes(*args))

    @pytest.mark.parametrize("build", [b for _, b in NAMED_BODIES],
                             ids=[name for name, _ in NAMED_BODIES])
    def test_named_bodies_in_reverse_vertex_order(self, build):
        args = kernel_inputs(build())
        assert_close_volumes(metrics._pyramid_volumes(*reversed_vertices(args)),
                             metrics._pyramid_volumes(*args))

    @pytest.mark.parametrize("n, seed", [(3, 7), (4, 8)])
    def test_profile_stacks(self, monkeypatch, n, seed):
        # every block of offsets that _eroded_volumes hands the kernel, on
        # one random body: each stack mixes bodies of different face lattices
        blocks = profile_stacks(monkeypatch, ib.random_suite(n, 1, seed)[0])
        assert blocks and max(len(args[3]) - 1 for args in blocks) > 1
        for args in blocks:
            assert_same_as_chain_walk(args)

    @pytest.mark.parametrize("build", [
        lambda: cross_polytope(5), lambda: box(5),
        lambda: hrep(np.vstack([-np.eye(5), np.ones(5)]), [0.0] * 5 + [1.0])],
        ids=["cross5", "cube5", "simplex5"])
    def test_five_dimensional_bodies(self, build):
        assert_same_as_chain_walk(kernel_inputs(build()))

    @pytest.mark.parametrize("build, vol", [
        (lambda: box(8), 1.0), (lambda: simplex(9), 1 / math.factorial(9))],
        ids=["cube8", "simplex9"])
    def test_many_flags_in_bounded_memory(self, build, vol):
        # 2^8 8! and 10! flags, but the recursion takes one height per edge
        # of the Hasse diagram it keeps.  The 8-cube peaked at 3.2 MB, the
        # 9-simplex at 49 kB (numpy 2.4); with every face coned from its
        # centroid, which keeps every edge, they peaked at 11.8 and 1.1 MB
        args = kernel_inputs(build())
        tracemalloc.start()
        try:
            vols, _ = metrics._pyramid_volumes(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64e6
        assert vols[0] == pytest.approx(vol, rel=ULPS)

    def test_edge_cap_refuses_before_the_level_is_made(self, monkeypatch):
        # the walk of the 4-cube meets 48 Hasse edges from its facets and 72
        # from the 18 squares those reach, and keeps the half of each whose
        # sub-faces miss the face's apex (its first vertex); with the cap
        # one entry short of 72 x 4 it stops at the second level, on the
        # count before the pruning, and before it measures a 1-face
        args = kernel_inputs(box(4))
        meets, kept = [], []
        facet_meets, normals = metrics._facet_meets, metrics._normals

        def counting(*a):
            pairs = facet_meets(*a)
            meets.append(len(pairs[0]))
            return pairs

        def keeping(unit, j, *a):
            kept.append(len(j))
            return normals(unit, j, *a)

        def refuse(*a):
            raise AssertionError("1-face measured")

        monkeypatch.setattr(metrics, "_facet_meets", counting)
        monkeypatch.setattr(metrics, "_normals", keeping)
        metrics._pyramid_volumes(*args)
        assert meets == [48, 72]
        assert kept == [24, 36]
        meets.clear()
        kept.clear()
        monkeypatch.setattr(metrics, "_COMBO_CAP", 72 * 4 - 1)
        monkeypatch.setattr(metrics, "_highest_bit", refuse)
        with pytest.raises(BadParameter):
            metrics._pyramid_volumes(*args)
        assert meets == [48, 72]
        assert kept == [24]
