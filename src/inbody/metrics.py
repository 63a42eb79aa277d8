"""Scalar metrics of convex polytopes: volume, surface area, inradius.

The volume of a body is the sum over facets of cone volumes with apex at
an incentre: vol = sum (1/n) * vol_{n-1}(S) * dist(apex, plane of S).
Facet volumes embed each facet isometrically one dimension down and
recurse.  The inradius is the optimum of the Chebyshev-centre linear
program.  The "pancake" boxes [0,1] x [0,K]^{n-1} realise the extreme
ratios between the inradius and volume/perimeter, which pins both
constants of the inradius sandwich

    vol / per  <=  inradius  <=  n * vol / per.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DegenerateFacet, GeometryError, OutsideBody
from .polytope import (
    TAU_FACET,
    TAU_REP,
    Facet,
    HalfspaceSystem,
    VertexSet,
    _affine_rank,
    _chebyshev,
    as_vector,
    body_scale,
    contains_point,
    convex_hull,
    remove_redundant_halfspaces,
    validate_body,
    vertex_incidence,
)


@dataclass
class IncentreResult:
    """Incentre, inradius, and indices of the facets the inscribed ball meets."""

    incentre: np.ndarray
    inradius: float
    touching_facets: list[int]


@dataclass
class HeronReport:
    """Volume/perimeter ratio bounds around the inradius."""

    volume: float
    perimeter: float
    inradius: float
    lower: float   # volume / perimeter
    upper: float   # n * volume / perimeter
    satisfied: bool


def distance_to_boundary(H: HalfspaceSystem, x) -> float:
    """Distance from an interior point to the boundary.

    For a point of a polytope this is exactly ``min_i (b_i - a_i.x)/||a_i||``.
    """
    x = as_vector(x, H.dim)
    scale = body_scale(H)
    if not contains_point(H, x, TAU_FACET * scale):
        raise OutsideBody("point lies outside the body")
    An, bn, _ = H.unit_form()
    return float(np.min(bn - An @ x))


def incentre(H: HalfspaceSystem) -> IncentreResult:
    """Chebyshev centre: maximize r s.t. a_i.x + r ||a_i|| <= b_i, r >= 0.

    The centre and radius are read from ``H.cheb_center``/``H.cheb_radius``
    when a producer has set them, and otherwise solved once and stored
    there.  Any optimizer is accepted when the incentre is non-unique
    (slab-like bodies); downstream results are stated for the fixed
    returned point.
    """
    if not H.validated:
        raise BadParameter("incentre requires a validated body")
    An, bn, _ = H.unit_form()
    if H.cheb_center is None:
        H.cheb_center, H.cheb_radius = _chebyshev(An, bn)
    x_star = H.cheb_center.copy()
    r = H.cheb_radius
    tol = TAU_FACET * body_scale(H)
    touching = np.flatnonzero(np.abs(bn - An @ x_star - r) <= tol)
    return IncentreResult(incentre=x_star, inradius=r,
                          touching_facets=[int(i) for i in touching])


def facet_volume(F: Facet) -> float:
    """(n-1)-volume of a facet via isometric embedding one dimension down."""
    pts = F.vertices.points
    n = pts.shape[1]
    scale = max(float(np.linalg.norm(pts - pts.mean(axis=0), axis=1).max(initial=0.0)),
                1e-12)
    if _affine_rank(pts, scale) != n - 1:
        raise DegenerateFacet("facet does not have affine dimension n-1")
    if n == 1:
        return 1.0
    a = F.support.a / np.linalg.norm(F.support.a)
    basis = _orthonormal_complement(a)
    embedded = (pts - pts.mean(axis=0)) @ basis.T
    return volume(convex_hull(VertexSet(embedded)))


def _orthonormal_complement(a):
    """Rows form an orthonormal basis of the hyperplane orthogonal to unit a.

    Householder construction: the reflection taking e_1 to -sign(a_1) a is
    orthogonal, so its remaining rows span the complement of a.
    """
    m = a.size
    if m == 1:
        return np.empty((0, 1))
    w = a.copy()
    w[0] += 1.0 if w[0] >= 0 else -1.0
    H = np.eye(m) - (2.0 / (w @ w)) * np.outer(w, w)
    return H[1:]


def _polygon_area(pts):
    center = pts.mean(axis=0)
    d = pts - center
    order = np.argsort(np.arctan2(d[:, 1], d[:, 0]))
    p = pts[order]
    x, y = p[:, 0], p[:, 1]
    xn, yn = np.empty_like(x), np.empty_like(y)
    xn[:-1], xn[-1] = x[1:], x[0]
    yn[:-1], yn[-1] = y[1:], y[0]
    return 0.5 * abs(float(x @ yn - y @ xn))


def _cone_decomposition(H: HalfspaceSystem):
    """Per-facet (n-1)-volumes and incentre distances of the minimal form.

    Face volumes recurse on the vertex-facet incidence: restricted to a
    face, the parent constraints become the face's own H-form (normals
    projected onto the face plane), so sub-faces never need a fresh hull.
    """
    Hm = remove_redundant_halfspaces(H)
    if "cone" in Hm._cache:
        return Hm._cache["cone"]
    V, active = vertex_incidence(Hm)
    An, bn, _ = Hm.unit_form()
    inc = incentre(Hm)
    scale = body_scale(Hm)
    fvols = np.empty(Hm.m)
    dists = np.empty(Hm.m)
    for i in range(Hm.m):
        sel = active[i]
        face_pts = V.points[sel]
        x0 = face_pts.mean(axis=0)
        basis = _orthonormal_complement(An[i])
        fvols[i] = _h_face_volume(An @ basis.T, bn - An @ x0,
                                  (face_pts - x0) @ basis.T,
                                  active[:, sel], scale)
        dists[i] = bn[i] - An[i] @ inc.incentre
    result = (fvols, dists, inc, Hm)
    Hm._cache["cone"] = result
    H._cache["cone"] = result
    return result


def _h_face_volume(A, b, pts, act, scale):
    """Volume of a face given in its own chart, by cone decomposition.

    ``pts`` are the face's vertices in R^m, ``A``/``b`` the parent
    constraints expressed in the chart, ``act`` the full activity matrix
    restricted to these vertices.  Each constraint active on >= m vertices
    supports a sub-face; at the desk scale (m <= 3 here) the vertex count
    alone identifies genuine (m-1)-dimensional sub-faces.
    """
    m = pts.shape[1]
    if m == 0 or pts.shape[0] == 0:
        return 1.0
    if m == 1:
        return float(pts.max() - pts.min())
    if m == 2:
        return _polygon_area(pts)
    apex = pts.mean(axis=0)
    counts = act.sum(axis=1)
    nrms = np.sqrt(np.einsum("ij,ij->i", A, A))
    cands = np.flatnonzero((counts >= m) & (nrms > 1e-9))
    total = 0.0
    for j in cands:
        sel = act[j]
        sub = pts[sel]
        if m >= 4 and _affine_rank(sub, scale) != m - 1:
            continue
        dist = (b[j] - A[j] @ apex) / nrms[j]
        basis = _orthonormal_complement(A[j] / nrms[j])
        x0 = sub.mean(axis=0)
        total += dist * _h_face_volume(A @ basis.T, b - A @ x0,
                                       (sub - x0) @ basis.T,
                                       act[:, sel], scale) / m
    return total


def volume(H: HalfspaceSystem) -> float:
    """n-volume by the cone decomposition over facets from the incentre."""
    fvols, dists, _, Hm = _cone_decomposition(H)
    return float(np.dot(fvols, dists) / Hm.dim)


def surface_area(H: HalfspaceSystem) -> float:
    """(n-1)-volume of the boundary: sum of facet volumes of the minimal form."""
    fvols, _, _, _ = _cone_decomposition(H)
    return float(fvols.sum())


def heron_bounds(H: HalfspaceSystem) -> HeronReport:
    """Evaluate vol/per <= inradius <= n vol/per and report both sides."""
    fvols, dists, inc, Hm = _cone_decomposition(H)
    vol = float(np.dot(fvols, dists) / Hm.dim)
    per = float(fvols.sum())
    lower = vol / per
    upper = Hm.dim * vol / per
    tol = TAU_REP * max(1.0, inc.inradius)
    satisfied = (lower - tol <= inc.inradius <= upper + tol)
    return HeronReport(volume=vol, perimeter=per, inradius=inc.inradius,
                       lower=lower, upper=upper, satisfied=bool(satisfied))


def is_circumscribed(H: HalfspaceSystem, tol: float | None = None) -> bool:
    """True iff the inscribed ball of a minimal system meets every facet.

    Expects a minimal (redundancy-removed) validated system.  When the
    answer is affirmative the identity inradius = n vol / per is verified
    as a consistency cross-check.
    """
    inc = incentre(H)
    scale = body_scale(H)
    eff = TAU_FACET * scale if tol is None else tol * max(scale, 1e-12)
    An, bn, _ = H.unit_form()
    residuals = bn - An @ inc.incentre - inc.inradius
    all_touch = bool(np.all(np.abs(residuals) <= eff))
    if all_touch:
        rep = heron_bounds(H)
        if abs(rep.inradius - rep.upper) > TAU_REP * max(1.0, rep.inradius):
            raise GeometryError(
                "circumscribed body violates inradius = n vol / per")
    return all_touch


def pancake_family(n: int, K: float) -> HalfspaceSystem:
    """The box [0,1] x [0,K]^{n-1}, extremal for the inradius sandwich.

    Its ratio (vol/per)/inradius equals 1/n at K = 1 and tends to 1 as
    K grows, showing neither constant of the sandwich can be improved.
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise BadParameter("pancake dimension must be an integer >= 2")
    K = float(K)
    if K < 1.0:
        raise BadParameter("pancake aspect K must be >= 1")
    rows = []
    offs = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.extend([e, -e])
        offs.extend([1.0 if i == 0 else K, 0.0])
    return validate_body(HalfspaceSystem(np.vstack(rows), np.array(offs)))
