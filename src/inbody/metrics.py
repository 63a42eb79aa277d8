"""Scalar metrics of convex polytopes: volume, surface area, inradius.

One kernel gives the volume and every facet volume.  It walks the flags
F_{n-1} > ... > F_0 of the boundary, read off the vertex-facet incidence,
and cones the barycentric simplex of each flag from the incentre, so
vol = sum |det| / n! over one batched determinant; a facet's
(n-1)-volume follows from its cone and its distance to the incentre.
The inradius is the optimum of the Chebyshev-centre linear program.  The
"pancake" boxes [0,1] x [0,K]^{n-1} realise the extreme ratios between
the inradius and volume/perimeter, which pins both constants of the
inradius sandwich

    vol / per  <=  inradius  <=  n * vol / per.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadParameter, DegenerateFacet, DegenerateNumerics, GeometryError,
                     OutsideBody)
from .polytope import (
    TAU_FACET,
    TAU_REP,
    Facet,
    HalfspaceSystem,
    VertexSet,
    _affine_basis,
    _affine_rank,
    _chebyshev,
    _first_rows,
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
    """(n-1)-volume of a facet via isometric embedding one dimension down.

    The chart is the SVD basis of the centred facet points, the same
    decomposition that measures their affine rank.
    """
    pts = F.vertices.points
    n = pts.shape[1]
    centred = pts - pts.mean(axis=0)
    scale = max(float(np.linalg.norm(centred, axis=1).max(initial=0.0)), 1e-12)
    basis = _affine_basis(pts, scale)
    if basis.shape[0] != n - 1:
        raise DegenerateFacet("facet does not have affine dimension n-1")
    if n == 1:
        return 1.0
    return volume(convex_hull(VertexSet(centred @ basis.T)))


def _cone_decomposition(H: HalfspaceSystem):
    """Volume, per-facet (n-1)-volumes and incentre of the minimal form.

    The boundary is cut along its flags F_{n-1} > ... > F_0, read off the
    vertex-facet incidence alone: the facets of a k-face G are the distinct
    proper intersections of G with facet rows that keep at least k
    vertices (and, for k >= 4, have affine rank k-1).  With the incentre
    c, each flag spans the simplex conv(c, centroid F_{n-1}, ...,
    centroid F_0).  These simplices tile the body, so vol = sum |det| / n!,
    and facet i, whose simplices make a cone of height dist(c, F_i),
    has vol_{n-1}(F_i) = n cone_i / dist(c, F_i).

    Minkowski's relation sum vol(F_i) u_i = 0 certifies the result: an
    incidence that is not the body's face lattice breaks it.  A sum above
    the report tolerance TAU_REP of the surface raises DegenerateNumerics
    rather than return a wrong volume.  Vertices up to the facet tolerance
    off their planes break it by at most about TAU_FACET * scale / (4 r),
    r the inradius (measured with a redundant row active at a vertex of
    random polygons and polyhedra), so below TAU_REP while scale / r < 40.
    Thinner such bodies can raise, and their volumes were then off by up
    to 6.1e-6 as well.
    """
    Hm = remove_redundant_halfspaces(H)
    if "cone" in Hm._cache:
        return Hm._cache["cone"]
    V, active = vertex_incidence(Hm)
    An, bn, _ = Hm.unit_form()
    inc = incentre(Hm)
    n = Hm.dim
    scale = body_scale(Hm)

    def offsets(faces):
        return (faces @ V.points) / faces.sum(axis=1)[:, None] - inc.incentre

    owner = np.arange(Hm.m)
    faces = active
    edges = offsets(faces)[:, None, :]
    for k in range(n - 1, 0, -1):
        counts = faces.astype(float) @ active.T.astype(float)
        chain, j = np.nonzero((counts >= k) & (counts < faces.sum(axis=1)[:, None]))
        sub = faces[chain] & active[j]
        if k >= 4:
            ok = [_affine_rank(V.points[s], scale) == k - 1 for s in sub]
            chain, sub = chain[ok], sub[ok]
        # a sub-face is distinct within its chain: key each row by chain too
        tag = chain.astype(">u4").view(np.uint8).reshape(-1, 4)
        first = _first_rows(np.hstack([tag, sub]))
        chain, faces = chain[first], sub[first]
        owner = owner[chain]
        edges = np.concatenate([edges[chain], offsets(faces)[:, None, :]], axis=1)
    cones = np.bincount(owner, weights=np.abs(np.linalg.det(edges)), minlength=Hm.m)
    dists = bn - An @ inc.incentre
    nfact = math.factorial(n)
    fvols = n * cones / dists / nfact
    closure = float(np.linalg.norm(fvols @ An) / fvols.sum())
    if closure > TAU_REP:
        raise DegenerateNumerics(
            f"facet vectors sum to {closure:.3e} of the surface, not to zero")
    result = (float(cones.sum() / nfact), fvols, inc)
    Hm._cache["cone"] = result
    H._cache["cone"] = result
    return result


def volume(H: HalfspaceSystem) -> float:
    """n-volume by the flag subdivision coned from the incentre."""
    return _cone_decomposition(H)[0]


def surface_area(H: HalfspaceSystem) -> float:
    """(n-1)-volume of the boundary: sum of facet volumes of the minimal form."""
    return float(_cone_decomposition(H)[1].sum())


def heron_bounds(H: HalfspaceSystem) -> HeronReport:
    """Evaluate vol/per <= inradius <= n vol/per and report both sides."""
    vol, fvols, inc = _cone_decomposition(H)
    per = float(fvols.sum())
    lower = vol / per
    upper = H.dim * vol / per
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
