"""Scalar metrics of convex polytopes: volume, surface area, inradius.

One kernel gives the volume and every facet volume.  It walks the flags
F_{n-1} > ... > F_0 of the boundary, read off the vertex-facet incidence,
and cones the barycentric simplex of each flag from the incentre, so
vol = sum |det| / n! over one batched determinant; a facet's
(n-1)-volume follows from its cone and its distance to the incentre.
The kernel takes a stack of bodies with shared normals (the eroded bodies
of a profile) and a single body is a stack of one.
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
    _centroids,
    _chebyshev,
    _det,
    _face_ranks,
    _face_vertices,
    _local_bits,
    _unpack,
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
    """Chebyshev centre: maximize r s.t. a_i.x + r ||a_i|| <= b_i.

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

    The minimal form goes through the flag kernel :func:`_flag_volumes` as
    a stack of one body, coned from its incentre, and the result is
    memoized on H and on the minimal form.
    """
    Hm = remove_redundant_halfspaces(H)
    if "cone" in Hm._cache:
        return Hm._cache["cone"]
    V, active = vertex_incidence(Hm)
    An, bn, _ = Hm.unit_form()
    inc = incentre(Hm)
    vols, fvols = _flag_volumes(An, bn[None], V.points, np.array([0, V.count]),
                                active, inc.incentre[None],
                                np.array([body_scale(Hm)]))
    result = (float(vols[0]), fvols[0], inc)
    Hm._cache["cone"] = result
    H._cache["cone"] = result
    return result


def _flag_volumes(An, bn, points, start, active, centres, scale):
    """Volumes and facet volumes of a stack of bodies, from their incidence.

    Body e is {x : An x <= bn[e]} with the vertices ``points[start[e]:
    start[e + 1]]`` (as :func:`polytope._incidence_from_candidates` returns
    them), a centre ``centres[e]`` inside it and the scale ``scale[e]``.
    ``active`` (m, sum V) is the incidence of each body's facet rows on its
    vertices, all False on the other rows (see :func:`polytope._facet_rows`).
    Returns the volumes (E,) and the facet volumes (E, m), 0 off the facets.

    The boundary is cut along its flags F_{n-1} > ... > F_0, read off the
    vertex-facet incidence alone: the facets of a k-face G are the distinct
    proper intersections of G with facet rows that keep at least k
    vertices (and, for k >= 4, have affine rank k-1).  With the centre c,
    each flag spans the simplex conv(c, centroid F_{n-1}, ..., centroid
    F_0).  These simplices tile the body, so vol = sum |det| / n!, and
    facet i, whose simplices make a cone of height dist(c, F_i), has
    vol_{n-1}(F_i) = n cone_i / dist(c, F_i).  All bodies are walked at
    once: a face is a row of bits over its own body's vertices
    (:func:`polytope._local_bits`), so the faces of every body go through
    each step together, and a body's numbers do not depend on the stack
    it is in.

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
    m, n = An.shape
    E = len(start) - 1
    bits = _local_bits(active, start)                       # (E, m, W)
    body, row = np.nonzero(bits.any(axis=-1))
    # the distinct faces of one level, the face each flag ends in, and the
    # flags as indices into the faces of all levels so far
    faces, fbody = bits[body, row], body
    face = np.arange(len(faces))
    flags, levels, seen = face[:, None], [(faces, fbody)], 0
    for k in range(n - 1, 0, -1):
        chain, j = np.nonzero(_proper_meets(faces, fbody, bits, k)[face])
        parent = face[chain]
        # one sort by (body, sub-face, chain) finds the distinct sub-faces
        # and the first pair of each chain that meets each of them
        key = np.empty((len(chain), faces.shape[1] + 2), dtype=np.uint64)
        key[:, 0] = fbody[parent]
        key[:, 1:-1] = faces[parent] & bits[fbody[parent], j]
        key[:, -1] = chain
        order = np.lexsort(key.T[::-1])
        ordered = key[order]
        step = ordered[1:] != ordered[:-1]
        new_face = np.ones(len(key), dtype=bool)
        new_face[1:] = step[:, :-1].any(axis=1)
        new_pair = new_face.copy()
        new_pair[1:] |= step[:, -1]
        sub_face = np.empty(len(key), dtype=int)
        sub_face[order] = np.cumsum(new_face) - 1
        seen += len(faces)
        first = order[new_face]
        faces, fbody = key[first, 1:-1], fbody[parent[first]]
        once = np.sort(order[new_pair])
        chain, face = chain[once], sub_face[once]
        if k >= 4:
            f, v = _face_vertices(_unpack(faces), fbody, start)
            ok = _face_ranks(f, v, len(faces), points, scale[fbody]) == k - 1
            chain, face = chain[ok[face]], face[ok[face]]
        flags = np.concatenate([flags[chain], (seen + face)[:, None]], axis=1)
        levels.append((faces, fbody))

    # every face's centroid from the centre, by sequential sums in vertex
    # order, so that they do not depend on the stack
    faces, fbody = (np.concatenate(x) for x in zip(*levels))
    f, v = _face_vertices(_unpack(faces), fbody, start)
    offsets = _centroids(f, v, len(faces), points) - centres[fbody]
    cones = np.bincount(flags[:, 0], weights=np.abs(_det(offsets[flags])),
                        minlength=len(body))
    nfact = math.factorial(n)
    vols = np.bincount(body, weights=cones, minlength=E) / nfact
    dists = bn[body, row] - (An[row] * centres[body]).sum(axis=1)
    fvols = np.zeros((E, m))
    fvols[body, row] = n * cones / dists / nfact
    total = fvols @ An
    closure = np.sqrt((total * total).sum(axis=1)) / fvols.sum(axis=1)
    if (closure > TAU_REP).any():
        raise DegenerateNumerics(
            f"facet vectors sum to {closure.max():.3e} of the surface, not to zero")
    return vols, fvols


_FACE_BLOCK = 4096   # faces per block of the pair counts in _proper_meets


def _proper_meets(faces, fbody, bits, k):
    """(faces, m) mask: the face meets the facet row in >= k of its vertices, not all.

    Counted in blocks of faces, so the (faces, m, W) words stay small.
    """
    hit = np.empty((len(faces), bits.shape[1]), dtype=bool)
    for lo in range(0, len(faces), _FACE_BLOCK):
        blk = slice(lo, lo + _FACE_BLOCK)
        face, rows = faces[blk, None, :], bits[fbody[blk]]
        hit[blk] = ((np.bitwise_count(face & rows).sum(axis=-1) >= k)
                    & (face & ~rows).any(axis=-1))
    return hit


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
