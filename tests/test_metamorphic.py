"""Metamorphic checks of the H-form and V-form pipelines.

Each transformation of a body's rows has a known effect on the body: a row
permutation, a duplicated row and a row made redundant leave it as it is, a
rigid motion moves its vertices with it, and a scaling by lam scales its
vertices by lam, its volume by lam^n and its surface area by lam^(n-1).  The
vertex enumeration, the volume and the surface area must follow, and the
hull of a body's vertices must give the body back.  Every vertex of the
24-cell lies on six rows, so each goes through the merge of candidates with
the same active set.  The same holds of a point cloud's hull: repeated
points, points within the merge tolerance of another, interior points and a
permutation leave it as it is, and rigid motions and scalings move it.
"""

import itertools

import numpy as np
import pytest

import inbody as ib
from tests.conftest import box, cross_polytope, hrep, sphere_cloud, twenty_four_cell

# Worst cases measured over these bodies: vertices 5.7e-14 * scale apart (a
# polygon scaled by 1e-3, at a vertex whose two rows have condition number
# 1.1e3), volumes and surface areas 1.6e-15 relative
VERTEX_BOUND = 1e-13
MEASURE_BOUND = 1e-13


def permuted(A, b, rng):
    perm = rng.permutation(len(b))
    return A[perm], b[perm], lambda V: V, 1.0


def duplicated(A, b, rng):
    k = rng.integers(len(b))
    return np.vstack([A, A[k]]), np.append(b, b[k]), lambda V: V, 1.0


def redundant(A, b, rng):
    k = rng.integers(len(b))
    return np.vstack([A, A[k]]), np.append(b, b[k] + 1.0), lambda V: V, 1.0


def rigid_motion(A, b, rng):
    # {Q x + t : A x <= b} = {y : A Q^T y <= b + A Q^T t}
    n = A.shape[1]
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = rng.standard_normal(n)
    AQ = A @ Q.T
    return AQ, b + AQ @ t, lambda V: V @ Q.T + t, 1.0


def scaled(lam):
    def transform(A, b, rng):
        return A, lam * b, lambda V: lam * V, lam
    return transform


TRANSFORMS = {"permuted": permuted, "duplicated": duplicated,
              "redundant": redundant, "rigid": rigid_motion,
              "scaled-1e-3": scaled(1e-3), "scaled-1e3": scaled(1e3)}


def bodies(small_suite, which):
    return [twenty_four_cell()] if which == "24-cell" else small_suite[int(which[-1])]


def assert_same_vertex_set(P, Q, scale):
    """P and Q are the same set of points within VERTEX_BOUND * scale."""
    assert P.shape == Q.shape
    dist = np.linalg.norm(P[:, None] - Q[None], axis=2)
    pair = dist.argmin(axis=1)
    assert sorted(pair) == list(range(len(P)))
    assert dist[np.arange(len(P)), pair].max() <= VERTEX_BOUND * scale


@pytest.mark.parametrize("which", ["suite2", "suite3", "suite4", "24-cell"])
@pytest.mark.parametrize("name", list(TRANSFORMS))
def test_h_form_transformation(small_suite, which, name):
    rng = np.random.default_rng(17)
    for H in bodies(small_suite, which):
        A, b, move, lam = TRANSFORMS[name](H.A, H.b, rng)
        H2 = hrep(A, b)
        n = H.dim
        assert_same_vertex_set(move(ib.vertex_enumeration(H).points),
                               ib.vertex_enumeration(H2).points, H2.scale)
        assert ib.volume(H2) == pytest.approx(lam ** n * ib.volume(H),
                                              rel=MEASURE_BOUND)
        assert ib.surface_area(H2) == pytest.approx(
            lam ** (n - 1) * ib.surface_area(H), rel=MEASURE_BOUND)


# Worst cases measured over these bodies at the two-phase simplex, which
# started these translated bodies from phase 1: inradius 5.6e-14 and volume
# 6.3e-14 relative, bbox 2.2e-14 * scale
TRANSLATION_BOUND = 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("shift", [(3.0, -4.0, 5.0, -6.0), (40.0, -50.0, 60.0, -70.0)])
def test_translation_off_the_origin(small_suite, n, shift):
    # Every body lies in [-1, 1]^n, so after the shift the origin is outside
    # it in every coordinate and one row of each box pair has a negative
    # offset; all offsets cannot be negative, as the normals of a bounded
    # body have a vanishing positive combination.
    t = np.array(shift[:n])
    for H in small_suite[n] + [box(n)]:
        H2 = hrep(H.A, H.b + H.A @ t)
        assert (H2.b < 0).sum() >= n
        assert H2.cheb_radius == pytest.approx(H.cheb_radius, rel=TRANSLATION_BOUND)
        assert ib.volume(H2) == pytest.approx(ib.volume(H), rel=TRANSLATION_BOUND)
        assert np.abs(H2.bbox - t - H.bbox).max() <= TRANSLATION_BOUND * H.scale


# Worst cases measured over these 78 bodies: facet planes 9.3e-15 apart,
# volumes 6.7e-16 relative
PLANE_BOUND = 1e-13
ROUND_TRIP_BOUND = 1e-14


@pytest.mark.parametrize("which", ["suite2", "suite3", "suite4", "cross-polytopes"])
def test_v_h_v_round_trip(small_suite, which):
    # the hull of a body's vertices is the body: the same vertices bit for
    # bit, the facet planes of its minimal form and its volume
    if which == "cross-polytopes":
        group = [cross_polytope(3), cross_polytope(4), twenty_four_cell()]
    else:
        group = small_suite[int(which[-1])]
    for H in group:
        V = ib.vertex_enumeration(H)
        K = ib.convex_hull(V)
        assert np.array_equal(ib.vertex_enumeration(K).points, V.points)
        An, bn, _ = ib.remove_redundant_halfspaces(H).unit_form()
        planes = np.column_stack([An, bn])
        hull_planes = np.column_stack([K.A, K.b])
        assert len(hull_planes) == len(planes)
        gap = np.abs(planes[:, None] - hull_planes[None]).max(axis=2)
        assert sorted(gap.argmin(axis=1)) == list(range(len(planes)))
        assert gap.min(axis=1).max() <= PLANE_BOUND
        assert ib.volume(K) == pytest.approx(ib.volume(H), rel=ROUND_TRIP_BOUND)


CLOUDS = {
    "cube": lambda: np.array(list(itertools.product((0.0, 1.0), repeat=3))),
    "cloud2": lambda: sphere_cloud(2, 16, 24, 151),
    "cloud3": lambda: sphere_cloud(3, 20, 20, 48),
    "cloud4": lambda: sphere_cloud(4, 10, 2, 187),
    "cross3": lambda: np.vstack([np.eye(3), -np.eye(3)]),
    "cross4": lambda: np.vstack([np.eye(4), -np.eye(4)]),
}


def doubled(P, rng):
    return np.vstack([P, P]), lambda V: V, 1.0


def jittered(P, rng):
    # 3e-10 is within the point merge tolerance TAU_PT * scale of every cloud
    step = rng.standard_normal(P.shape)
    step *= 3e-10 / np.linalg.norm(step, axis=1)[:, None]
    return np.vstack([P, P + step]), lambda V: V, 1.0


def with_interior(P, rng):
    # convex combinations of the points, halfway to their centroid
    c = P.mean(axis=0)
    mix = rng.dirichlet(np.ones(len(P)), size=2 * len(P)) @ P
    return np.vstack([P, c + 0.5 * (mix - c)]), lambda V: V, 1.0


def shuffled(P, rng):
    return P[rng.permutation(len(P))], lambda V: V, 1.0


def moved(P, rng):
    Q, _ = np.linalg.qr(rng.standard_normal((P.shape[1], P.shape[1])))
    t = rng.standard_normal(P.shape[1])
    return P @ Q.T + t, lambda V: V @ Q.T + t, 1.0


def rescaled(lam):
    def transform(P, rng):
        return lam * P, lambda V: lam * V, lam
    return transform


V_TRANSFORMS = {"doubled": doubled, "jittered": jittered, "interior": with_interior,
                "permuted": shuffled, "rigid": moved,
                "scaled-1e-3": rescaled(1e-3), "scaled-1e3": rescaled(1e3)}


@pytest.mark.parametrize("which", list(CLOUDS))
@pytest.mark.parametrize("name", list(V_TRANSFORMS))
def test_v_form_transformation(which, name):
    P = CLOUDS[which]()
    P2, move, lam = V_TRANSFORMS[name](P, np.random.default_rng(23))
    K, K2 = ib.convex_hull(ib.VertexSet(P)), ib.convex_hull(ib.VertexSet(P2))
    n = P.shape[1]
    assert K2.m == K.m
    assert_same_vertex_set(move(ib.vertex_enumeration(K).points),
                           ib.vertex_enumeration(K2).points, K2.scale)
    assert ib.volume(K2) == pytest.approx(lam ** n * ib.volume(K), rel=MEASURE_BOUND)
    assert ib.surface_area(K2) == pytest.approx(lam ** (n - 1) * ib.surface_area(K),
                                                rel=MEASURE_BOUND)


@pytest.mark.parametrize("which", list(CLOUDS))
@pytest.mark.parametrize("name", list(V_TRANSFORMS))
def test_hull_certificate_is_its_h_forms(which, name):
    # the hull's certificate is the one validate_body makes of its H-form:
    # the same box scale up to the roundoff of the box LPs (2.9e-16
    # measured), and the same Chebyshev LP on the same unit rows
    P, _, _ = V_TRANSFORMS[name](CLOUDS[which](), np.random.default_rng(23))
    K = ib.convex_hull(ib.VertexSet(P))
    ref = ib.validate_body(ib.HalfspaceSystem(K.A, K.b))
    assert K.scale == pytest.approx(ref.scale, rel=1e-13, abs=0.0)
    assert np.array_equal(K.cheb_center, ref.cheb_center)
    assert K.cheb_radius == ref.cheb_radius
