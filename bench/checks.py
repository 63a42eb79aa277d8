"""Independent references for the benchmark's correctness checks.

Nothing here calls ``inbody``.  Volumes, surface areas and eroded volumes
come from ``scipy.spatial`` (Qhull), inradii from ``scipy.optimize.linprog``
(HiGHS), hole endpoints of interval systems from exact rational arithmetic,
and the rest from closed forms and the paper's inequalities.  scipy is
imported on first use, after the timed part of a run, so it adds neither to
the measured peak memory nor to the set-up time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

REL = 1e-6             # relative tolerance of every exact-volume comparison
LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)
EXPONENT_TOL = 0.02    # hole-series exponent against a closed form
BOX_TOL = 0.05         # grid box counting against a closed form
NORM_SLACK = 0.02      # norm exponent <= hole exponent + this


@dataclass
class BodyRef:
    """Reference figures of one H-form body."""

    A: np.ndarray
    b: np.ndarray
    volume: float
    area: float
    inradius: float
    scale: float
    eroded: dict = field(default_factory=dict)   # eps -> eroded volume


def chebyshev(A, b):
    """Centre and radius of the largest inscribed ball, by HiGHS."""
    from scipy.optimize import linprog

    n = A.shape[1]
    norms = np.linalg.norm(A, axis=1)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.hstack([A, norms[:, None]]), b_ub=b,
                  bounds=[(None, None)] * n + [(0.0, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return res.x[:n], float(res.x[n])


def _hull_of_halfspaces(A, b, center):
    from scipy.spatial import ConvexHull, HalfspaceIntersection

    hs = HalfspaceIntersection(np.hstack([A, -b[:, None]]), center)
    return ConvexHull(hs.intersections)


def body_ref(A, b) -> BodyRef:
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    center, radius = chebyshev(A, b)
    hull = _hull_of_halfspaces(A, b, center)
    pts = hull.points[hull.vertices]
    scale = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    return BodyRef(A, b, float(hull.volume), float(hull.area), radius, scale)


def hull_ref(points) -> BodyRef:
    """Reference figures of the convex hull of a point cloud."""
    from scipy.spatial import ConvexHull

    hull = ConvexHull(np.asarray(points, dtype=float))
    A, b = hull.equations[:, :-1], -hull.equations[:, -1]
    _, radius = chebyshev(A, b)
    pts = hull.points[hull.vertices]
    scale = float(np.linalg.norm(pts.max(axis=0) - pts.min(axis=0)))
    return BodyRef(A, b, float(hull.volume), float(hull.area), radius, scale)


def eroded_volume(ref: BodyRef, eps: float) -> float:
    """Volume of {x : distance to the boundary >= eps}."""
    eps = float(eps)
    if eps not in ref.eroded:
        ref.eroded[eps] = _eroded_volume(ref, eps)
    return ref.eroded[eps]


def _eroded_volume(ref, eps):
    norms = np.linalg.norm(ref.A, axis=1)
    b = ref.b - eps * norms
    center, radius = chebyshev(ref.A, b)
    if radius <= 1e-9 * ref.scale:
        return 0.0
    return float(_hull_of_halfspaces(ref.A, b, center).volume)


def neighbourhood_ref(ref: BodyRef, eps: float) -> float:
    """vol(L_eps): the volume within eps of the boundary."""
    return ref.volume - eroded_volume(ref, eps)


def g_env(vol: float, inradius: float, eps: float, n: int) -> float:
    return vol * (1.0 - max(0.0, 1.0 - eps / inradius) ** n)


def close(fails: list, what: str, got: float, want: float, scale: float) -> None:
    """Record a failure unless |got - want| <= REL * max(|want|, scale)."""
    if not abs(got - want) <= REL * max(abs(want), scale):
        fails.append(f"{what}: {got!r} vs reference {want!r}")


def check_heron(fails, rep: dict, ref: BodyRef) -> None:
    close(fails, "volume", rep["volume"], ref.volume, 0.0)
    close(fails, "perimeter", rep["perimeter"], ref.area, 0.0)
    close(fails, "inradius", rep["inradius"], ref.inradius, 0.0)
    n = ref.A.shape[1]
    lower, upper = ref.volume / ref.area, n * ref.volume / ref.area
    close(fails, "lower", rep["lower"], lower, 0.0)
    close(fails, "upper", rep["upper"], upper, 0.0)
    tol = REL * max(1.0, ref.inradius)
    if not (lower - tol <= ref.inradius <= upper + tol) or rep["satisfied"] is not True:
        fails.append("inradius sandwich vol/per <= In <= n vol/per fails")


def check_envelope(fails, l: float, g: float, g_over_n: float, chord: float,
                   eps: float, ref: BodyRef) -> None:
    """The paper's bounds g/n <= chord <= vol(L_eps) <= g, against references."""
    n = ref.A.shape[1]
    vol = ref.volume
    close(fails, f"vol(L_{eps:.6g})", l, neighbourhood_ref(ref, eps), vol)
    close(fails, f"g({eps:.6g})", g, g_env(vol, ref.inradius, eps, n), vol)
    close(fails, f"g/n({eps:.6g})", g_over_n, g / n, vol)
    close(fails, f"chord({eps:.6g})", chord, eps * vol / ref.inradius, vol)
    tol = REL * max(1.0, vol)
    if not (g / n <= chord + tol and chord <= l + tol and l <= g + tol):
        fails.append(f"g/n <= chord <= vol(L_eps) <= g fails at eps={eps:.6g}")


def check_concave(fails, l_vol, vol: float) -> None:
    second = np.diff(np.asarray(l_vol, dtype=float), 2)
    if np.any(second > REL * max(1.0, vol)):
        fails.append("eps -> vol(L_eps) is not concave on the grid")


def pancake_closed_form(n: int, K: float) -> dict:
    """[0,1] x [0,K]^(n-1): volume, surface area, inradius."""
    return {"volume": K ** (n - 1),
            "perimeter": 2.0 * K ** (n - 1) + 2.0 * (n - 1) * K ** (n - 2),
            "inradius": 0.5}


def pancake_neighbourhood(n: int, K: float, eps: float) -> float:
    """vol(L_eps) of the pancake: K^(n-1) - (1-2eps)(K-2eps)^(n-1)."""
    return K ** (n - 1) - (1.0 - 2.0 * eps) * (K - 2.0 * eps) ** (n - 1)


def interval_holes(mats, labels, seed_gap, depth: int) -> list[tuple]:
    """Exact hole endpoints of an interval system, depth-major, words in order.

    ``mats`` are 2x2 matrices of Fractions acting on (1 - t, t); the hole of
    word w is the image of the seed gap under N_{w1} ... N_{wk}.
    """
    def image(P, t):
        y0 = P[0][0] * (1 - t) + P[0][1] * t
        y1 = P[1][0] * (1 - t) + P[1][1] * t
        return y1 / (y0 + y1)

    def mul(P, M):
        return [[P[i][0] * M[0][j] + P[i][1] * M[1][j] for j in range(2)]
                for i in range(2)]

    out = []
    level = [((), [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]])]
    for d in range(depth + 1):
        for word, P in level:
            a, b = sorted(image(P, t) for t in seed_gap)
            out.append((word, a, b))
        if d == depth:
            break
        level = [(word + (lab,), mul(P, M)) for word, P in level
                 for lab, M in zip(labels, mats)]
    return out
