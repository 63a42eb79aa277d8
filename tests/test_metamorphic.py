"""Metamorphic checks of the H-form pipeline.

Each transformation of a body's rows has a known effect on the body: a row
permutation, a duplicated row and a row made redundant leave it as it is, a
rigid motion moves its vertices with it, and a scaling by lam scales its
vertices by lam, its volume by lam^n and its surface area by lam^(n-1).  The
vertex enumeration, the volume and the surface area must follow.  Every
vertex of the 24-cell lies on six rows, so each goes through the merge of
candidates with the same active set.
"""

import numpy as np
import pytest

import inbody as ib
from tests.conftest import hrep, twenty_four_cell

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
