import itertools

import numpy as np
import pytest

import inbody as ib


def hrep(A, b):
    return ib.validate_body(ib.HalfspaceSystem(np.asarray(A, float),
                                               np.asarray(b, float)))


def box(n, lo=0.0, hi=1.0):
    A = np.vstack([np.eye(n), -np.eye(n)])
    b = np.concatenate([np.full(n, hi), np.full(n, -lo)])
    return hrep(A, b)


def cross_polytope(n):
    A = np.array(list(itertools.product((-1.0, 1.0), repeat=n)))
    return hrep(A, np.ones(len(A)))


def twenty_four_cell():
    rows = []
    for i, j in itertools.combinations(range(4), 2):
        for si, sj in itertools.product((-1.0, 1.0), repeat=2):
            a = np.zeros(4)
            a[i], a[j] = si, sj
            rows.append(a)
    return hrep(rows, np.ones(len(rows)))


def noisy_cone(k):
    """k points on the unit circle lifted by 1e-8 noise, plus the apex (0, 0, -1)."""
    t = 2 * np.pi * np.arange(k) / k
    z = 1e-8 * np.random.default_rng(0).standard_normal(k)
    return np.vstack([np.column_stack([np.cos(t), np.sin(t), z]), [0.0, 0.0, -1.0]])


def cut_cube_rows():
    """The unit cube cut by a plane 5e-7 rad off its top face."""
    A = np.vstack([np.eye(3), -np.eye(3), [[5e-7, 0.0, 1.0]]])
    return A, np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0 + 4.5e-7])


def corner_within_tolerance(length):
    """The rectangle [0, L] x [0, 1] with the redundant row x + y <= L + 1 + d,
    d = 0.99 of the facet tolerance along the row's normal: the row is active
    at the corner (L, 1) within the tolerance, so refinement moves that
    vertex off both facet planes."""
    A = np.vstack([np.eye(2), -np.eye(2), [[1.0, 1.0]]])
    b = np.array([length, 1.0, 0.0, 0.0, length + 1.0])
    b[-1] += 0.99 * ib.TAU_FACET * hrep(A, b).scale * np.sqrt(2.0)
    return hrep(A, b)


def twin_row_pentagon():
    """A pentagon with a strictly redundant row first and x <= 1 repeated
    as 2x <= 2."""
    A = [[1.0, 2.0], [1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [-1.0, 0.0],
         [0.0, -1.0], [1.0, 1.0]]
    return hrep(A, [4.0, 1.0, 1.0, 2.0, 0.0, 0.0, 1.5])


def duplicated_and_redundant(small_suite):
    """A random 3-polytope with its first facet row repeated (doubled) and a
    copy of its third row moved out by 1, both put in as rows 4 and 5.

    Nine of its ten facets are left at 0.6 times the inradius.
    """
    H = small_suite[3][0]
    norm = np.linalg.norm(H.A[2])
    A = np.vstack([H.A[:4], 2.0 * H.A[:1], H.A[2:3], H.A[4:]])
    b = np.concatenate([H.b[:4], 2.0 * H.b[:1], H.b[2:3] + norm, H.b[4:]])
    return hrep(A, b)


def written_out_det(M):
    """Determinants of a stack of n x n matrices (..., n, n) by the cofactor
    expressions written out: along the first row up to n = 3, by the 2 x 2
    minors of the first two rows at n = 4 (the Laplace split), and by LU
    above n = 4.  Up to n = 3 these are the terms of the vertex kernel's
    first-row expansion (polytope._first_row_det), in its order, so the two
    agree bit for bit; at n = 4 they agree within a few ulps."""
    n = M.shape[-1]
    a = [[M[..., i, j] for j in range(n)] for i in range(n)]
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    if n == 3:
        return (a[0][0] * (a[1][1] * a[2][2] - a[1][2] * a[2][1])
                - a[0][1] * (a[1][0] * a[2][2] - a[1][2] * a[2][0])
                + a[0][2] * (a[1][0] * a[2][1] - a[1][1] * a[2][0]))
    if n == 4:
        pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
        top = [a[0][i] * a[1][j] - a[0][j] * a[1][i] for i, j in pairs]
        low = [a[2][i] * a[3][j] - a[2][j] * a[3][i] for i, j in pairs[::-1]]
        return (top[0] * low[0] - top[1] * low[1] + top[2] * low[2]
                + top[3] * low[3] - top[4] * low[4] + top[5] * low[5])
    return np.linalg.det(M)


def polar_of(P):
    """{y : (p_i - c) . y <= 1} of the points P about their centroid c."""
    return hrep(P - P.mean(axis=0), np.ones(len(P)))


def polar_body(k, n, seed):
    """The polar body of k standard-normal points."""
    return polar_of(np.random.default_rng(seed).standard_normal((k, n)))


def sphere_cloud(n, on_hull, inside, seed):
    """A point cloud like the benchmark's V-form inputs: the cross-polytope's
    vertices and ``on_hull - 2n`` more points on the unit sphere, then
    ``inside`` points in the ball of radius 0.9/sqrt(n), which the
    cross-polytope contains."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((on_hull - 2 * n + inside, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    dirs[on_hull - 2 * n:] *= 0.9 / np.sqrt(n) * rng.uniform(size=(inside, 1))
    return np.vstack([np.eye(n), -np.eye(n), dirs])


def wide_rows():
    """A 12-d body with 40 half-spaces: C(40, 12) = 5.6e9 vertex candidates."""
    extra = np.random.default_rng(0).standard_normal((16, 12))
    A = np.vstack([np.eye(12), -np.eye(12), extra])
    b = np.concatenate([np.ones(24), 2.0 * np.linalg.norm(extra, axis=1)])
    return A, b


@pytest.fixture(scope="session")
def unit_square():
    return box(2)


@pytest.fixture(scope="session")
def unit_cube():
    return box(3)


@pytest.fixture(scope="session")
def triangle():
    # right triangle (0,0), (1,0), (0,1)
    return hrep([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])


@pytest.fixture(scope="session")
def simplex3():
    # {x_i >= 0, sum x <= 1} in R^3
    return hrep(np.vstack([-np.eye(3), np.ones(3)]), [0.0, 0.0, 0.0, 1.0])


@pytest.fixture(scope="session")
def regular_tetrahedron():
    pts = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                    [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
    return ib.convex_hull(ib.VertexSet(pts))


@pytest.fixture(scope="session")
def small_suite():
    """A quick random batch per dimension for module-level property tests."""
    return {n: ib.random_suite(n, 25, seed=1000 + n) for n in (2, 3, 4)}
