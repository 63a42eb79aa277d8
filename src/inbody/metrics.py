"""Scalar metrics of convex polytopes: volume, surface area, inradius.

One kernel gives the volume and every facet volume, by the pyramid
recursion over the face lattice: a face is the union of the pyramids over
its facets with apex its first vertex (a pulling triangulation), so its
volume is the sum of their heights times the facets' volumes, over its
dimension, and the body itself is coned from the incentre.  The facets
through the apex have height 0, so the walk never meets them, nor the
faces that lie below them only.  The recursion ends at the 1-faces,
whose volume is the distance between their extreme vertices.  The lattice
is its Hasse diagram, read off the vertex-facet incidence alone (the
facets of a face are its maximal proper meets with the facet rows).  The
kernel walks the diagram once per face down to the 2-faces and takes one
height per edge it keeps, so memory is bounded by the diagram, and its cap
counts the kept edges.  It takes a
stack of bodies with shared normals (the eroded bodies of a profile, and
the body itself) and a single body is a stack of one.
The inradius is the optimum of the Chebyshev-centre linear program.  The
"pancake" boxes [0,1] x [0,K]^{n-1} realise the extreme ratios between
the inradius and volume/perimeter, which pins both constants of the
inradius sandwich

    vol / per  <=  inradius  <=  n * vol / per.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, DegenerateNumerics, GeometryError, OutsideBody
from .polytope import (
    _COMBO_CAP,
    TAU_FACET,
    TAU_REP,
    HalfspaceSystem,
    _facet_meets,
    _local_bits,
    as_vector,
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
    """Distance from an interior point to the boundary of a validated body.

    For a point of a polytope this is exactly ``min_i (b_i - a_i.x)/||a_i||``;
    a point more than the facet tolerance (relative to the body's scale)
    outside some row is refused.
    """
    if not H.validated:
        raise BadParameter("distance_to_boundary requires a validated body")
    x = as_vector(x, H.dim)
    An, bn, _ = H.unit_form()
    dist = float(np.min(bn - An @ x))
    if not dist >= -TAU_FACET * H.scale:
        raise OutsideBody("point lies outside the body")
    return dist


def incentre(H: HalfspaceSystem) -> IncentreResult:
    """Chebyshev centre: maximize r s.t. a_i.x + r ||a_i|| <= b_i.

    Read from the certificate of a validated body (``H.cheb_center``,
    ``H.cheb_radius``), which its producer solved; no LP is solved here and
    H is left as it is.  Any optimizer is accepted when the incentre is
    non-unique (slab-like bodies); downstream results are stated for the
    fixed returned point.
    """
    if not H.validated:
        raise BadParameter("incentre requires a validated body")
    An, bn, _ = H.unit_form()
    touching = np.flatnonzero(np.abs(bn - An @ H.cheb_center - H.cheb_radius)
                              <= TAU_FACET * H.scale)
    return IncentreResult(incentre=H.cheb_center.copy(), inradius=H.cheb_radius,
                          touching_facets=[int(i) for i in touching])


def _cone_decomposition(H: HalfspaceSystem):
    """Volume and per-facet (n-1)-volumes of the minimal form.

    The minimal form goes through the kernel :func:`_pyramid_volumes` as a
    stack of one body, coned from the incentre of its certificate, and the
    result is memoized on H and on the minimal form.
    """
    Hm = remove_redundant_halfspaces(H)
    if "cone" in Hm._cache:
        return Hm._cache["cone"]
    V, active = vertex_incidence(Hm)
    An, bn, _ = Hm.unit_form()
    start = np.array([0, V.count])
    vols, fvols = _pyramid_volumes(An, bn[None], V.points, start,
                                   _local_bits(active, start), Hm.cheb_center)
    result = (float(vols[0]), fvols[0])
    Hm._cache["cone"] = result
    H._cache["cone"] = result
    return result


def _pyramid_volumes(An, bn, points, start, bits, centre):
    """Volumes and facet volumes of a stack of bodies, from their incidence.

    Body e is {x : An x <= bn[e]} with the vertices ``points[start[e]:
    start[e + 1]]`` (as :func:`polytope._incidence_from_candidates` returns
    them), and the one point ``centre`` (n,) lies inside every body.
    ``bits`` (E, m, W) holds each body's facet rows as bit masks over its
    own vertices, 0 on the other rows: the words of
    :func:`polytope._local_bits`, which :func:`polytope._facet_rows` also
    returns with the facet rows.
    Returns the volumes (E,) and the facet volumes (E, m), 0 off the facets.

    A k-face G is the union of the pyramids over its facets F with apex its
    first vertex p_G, so vol(G) = (1/k) sum_F h(G, F) vol(F), where h(G, F)
    is the distance from p_G to the affine hull of F within that of G: a
    pulling triangulation in the body's vertex order (Cohen & Hickey 1979;
    compared with Lasserre's recursion in Bueler, Enge & Fukuda 2000).  A
    facet F that holds p_G has p_F = p_G and height exactly 0, so it adds
    nothing to the sum, and the walk never makes its edge, nor below it the
    faces that no other edge reaches.  The recursion ends at the 1-faces: a
    1-face is the segment between its extreme vertices, the first and the
    last of its vertices in the body's lexicographic order (it can hold
    more than two within the facet tolerance, as on a plane cut a little
    off a cube's face), and its volume is their distance.  At n = 1 the
    facets are vertices, of volume 1.  Each body is coned from the
    centre: vol = (1/n) sum_i dist(c, F_i) vol(F_i).  Unrolled, this is
    the sum of the volumes of the triangulation's simplices coned from c,
    one product of heights over n! each, but it needs one height per kept
    edge of the Hasse diagram of the face lattice instead of one
    determinant per simplex.

    The diagram is read off the vertex-facet incidence alone (Ziegler 1995,
    2.2): the facets of a k-face G are the distinct meets of G with facet
    rows that are proper, keep at least k vertices and lie inside no other
    such meet (:func:`polytope._facet_meets`, the rule that also finds the
    facet rows).  The walk takes each level once per distinct face, from the
    facets down to the 2-faces: the facets of the level's faces are the
    diagram's edges (face, sub-face) in (face, row) order, each sub-face
    the meet that found it.  A face's apex is the lowest set bit of its row
    (:func:`_lowest_bit`), and the meets take it as a mask: a meet through
    the apex is never tested as a facet nor returned, though it still
    rules out the meets inside it, so only the kept edges are made.  One
    sort by (body, sub-face) numbers the distinct sub-faces of the edges.
    Each face carries an orthonormal basis of the normals of its affine
    hull: a facet its row's unit normal, and a sub-face its first parent's
    basis and one modified Gram-Schmidt step with the row of that edge
    (:func:`_normals`).  An edge G -> F through row j has the unit
    normal u = P_G a_j / |P_G a_j| of F within G, P_G the projection that
    drops G's normals, and the height h = u . (p_F - p_G), taken as the
    level is walked, so only h is kept.  In exact arithmetic that is
    (b_j - a_j . p_G) / |P_G a_j|, but a difference of points cancels
    better than the offset b_j: on the random bodies and profile stacks of
    the tests, coned from centroids, the volumes by that formula were up
    to 7.6e-15 off a long-double evaluation, and by this one 2.4e-15.  The
    edges from the 2-faces are not sorted: each measures its 1-face where
    it stands, the length between its first and last set bits
    (:func:`_highest_bit`) and the height from its first, and a 1-face
    reached twice gives the same numbers twice.  The volumes then go up
    the diagram level by level, each a bincount of h vol(F) over the
    face's edges.

    All bodies are walked at once: a face is a row of bits over its own
    body's vertices (:func:`polytope._local_bits`), so the faces of every
    body go through each step together.  Every number is an elementwise
    product, a sum over the n coordinates or a bincount in edge order, so a
    body's numbers do not depend on the stack it is in, nor on BLAS.
    Memory is bounded by the diagram: a level of more than _COMBO_CAP
    entries, n per kept edge, is refused before its arrays are made.

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
    # rows of arrays are gathered with take and compress, which numpy runs
    # several times faster than fancy indexing (see _facet_meets)
    body, row = np.nonzero(bits.any(axis=-1))
    # the current level's faces, their apexes (one-bit masks and points)
    # and the orthonormal normals of their affine hulls.  Vectors
    # are columns of (n, count) arrays, whose sums over the n coordinates
    # numpy takes several times faster than over rows of n
    faces, fbody, at = bits[body, row], body, start.take(body)
    apex, low = _lowest_bit(faces)
    apexes = points.take(at + apex, axis=0).T
    unit = np.ascontiguousarray(An.T)
    normals = [unit.take(row, axis=1)]
    # at n = 1 the facets are vertices, of volume 1; at n = 2 they are
    # 1-faces, as long as the distance between their first and last vertex
    if n == 1:
        vols = np.ones(len(faces))
    elif n == 2:
        d = points.take(at + _highest_bit(faces), axis=0).T - apexes
        vols = np.sqrt((d * d).sum(axis=0))
    edges = []
    for k in range(n - 1, 1, -1):
        # a facet that holds its face's apex holds it as its own first
        # vertex, so its pyramid has height 0: the meets leave it out
        parent, j, sub = _facet_meets(faces, fbody, bits, k, low)
        if len(parent) * n > _COMBO_CAP:
            raise BadParameter(
                f"{len(parent)} edges of the face lattice in dimension {n} exceed "
                f"the cap of {_COMBO_CAP} entries")
        pbody = fbody.take(parent)
        first, low = _lowest_bit(sub)
        at = start.take(pbody)
        p = points.take(at + first, axis=0).T
        u = _normals(unit, j, parent, normals)
        h = (u * (p - apexes.take(parent, axis=1))).sum(axis=0)
        if k == 2:
            # the 1-faces, measured where they stand: a duplicate gives
            # the same numbers, so they need no sort
            d = points.take(at + _highest_bit(sub), axis=0).T - p
            vols = np.bincount(parent, weights=h * np.sqrt((d * d).sum(axis=0)),
                               minlength=len(faces)) / 2
            break
        # a face meets each of its facets by one row (of equal meets only
        # the first row's is a facet), so the edges come in (face, row)
        # order, and one sort by (body, sub-face) finds the distinct sub-faces
        key = np.empty((len(parent), faces.shape[1] + 1), dtype=np.uint64)
        key[:, 0] = pbody
        key[:, 1:] = sub
        order = np.lexsort(key.T[::-1])
        ordered = key.take(order, axis=0)
        new_face = np.ones(len(key), dtype=bool)
        new_face[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        child = np.empty(len(key), dtype=int)
        child[order] = new_face.cumsum() - 1
        edges.append((parent, child, h, len(faces), k))
        # the sort is stable, so a sub-face's first edge is its first
        # parent's, which gives it its parent's normals and one more
        lead = order.compress(new_face)
        faces, fbody = ordered.compress(new_face, axis=0)[:, 1:], pbody.take(lead)
        low, apexes = low.take(lead, axis=0), p.take(lead, axis=1)
        up = parent.take(lead)
        normals = [q.take(up, axis=1) for q in normals] + [u.take(lead, axis=1)]
        # the level's (n, edges) and (edges, W + 1) temporaries go before
        # the next level's meets, which set the kernel's peak
        del p, u, key, ordered

    # up the diagram from the 2-faces, a k-face's volume the sum of its
    # pyramids over k
    for parent, child, h, count, k in reversed(edges):
        vols = np.bincount(parent, weights=h * vols.take(child), minlength=count) / k
    fvols = np.zeros((E, m))
    fvols[body, row] = vols
    dists = bn[body, row] - (An.take(row, axis=0) * centre).sum(axis=1)
    vols = np.bincount(body, weights=dists * vols, minlength=E) / n
    total = fvols @ An
    closure = np.sqrt((total * total).sum(axis=1)) / fvols.sum(axis=1)
    if (closure > TAU_REP).any():
        raise DegenerateNumerics(
            f"facet vectors sum to {closure.max():.3e} of the surface, not to zero")
    return vols, fvols


def _normals(unit, j, parent, normals):
    """One level's Gram-Schmidt step (see :func:`_pyramid_volumes`).

    For the Hasse edges from the faces ``parent`` through the rows j,
    returns the unit normals u (n, edges) of the sub-faces within their
    faces.  ``unit`` (n, m) holds the rows' unit normals and ``normals``
    (k arrays (n, faces)) the orthonormal normals of the faces.
    """
    u = unit.take(j, axis=1)
    for q in normals:
        q = q.take(parent, axis=1)
        u -= (q * u).sum(axis=0) * q
    u /= np.sqrt((u * u).sum(axis=0))
    return u


def _lowest_bit(x):
    """Index of the lowest set bit of each row of W uint64 words, and the
    rows with that bit alone set; no row is 0.

    ``w & (~w + 1)`` keeps a word's lowest set bit, and the bits below it
    are its index.  The words go from the first to the last, and only a
    row's first nonzero word keeps its bit.
    """
    low = x & (~x + 1)
    # a word of 0 counts 64 bits below its (missing) lowest set bit
    index = np.bitwise_count(low[:, 0] - 1).astype(int)
    for w in range(1, x.shape[-1]):
        before = index == 64 * w          # no set bit in the words before w
        low[:, w] *= before
        index += np.bitwise_count(low[:, w] - 1) * before
    return index, low


def _highest_bit(x):
    """Index of the highest set bit of each row of W uint64 words; no row is 0.

    Or-shifts set every bit below a word's highest, and their count less
    one is its index.  The words go from the first to the last, so a row's
    last nonzero word has the last say.
    """
    high = None
    for w in range(x.shape[-1]):
        word = x[:, w].copy()
        for s in (1, 2, 4, 8, 16, 32):
            word |= word >> s
        at = np.bitwise_count(word).astype(int) + (64 * w - 1)
        high = at if high is None else np.where(word != 0, at, high)
    return high


def volume(H: HalfspaceSystem) -> float:
    """n-volume by the pyramid recursion, coned from the incentre."""
    return _cone_decomposition(H)[0]


def surface_area(H: HalfspaceSystem) -> float:
    """(n-1)-volume of the boundary: sum of facet volumes of the minimal form."""
    return float(_cone_decomposition(H)[1].sum())


def heron_bounds(H: HalfspaceSystem) -> HeronReport:
    """Evaluate vol/per <= inradius <= n vol/per and report both sides."""
    vol, fvols = _cone_decomposition(H)
    per = float(fvols.sum())
    lower = vol / per
    upper = H.dim * vol / per
    tol = TAU_REP * max(1.0, H.cheb_radius)
    satisfied = (lower - tol <= H.cheb_radius <= upper + tol)
    return HeronReport(volume=vol, perimeter=per, inradius=H.cheb_radius,
                       lower=lower, upper=upper, satisfied=bool(satisfied))


def is_circumscribed(H: HalfspaceSystem) -> bool:
    """True iff the inscribed ball of a validated body meets every facet.

    Reads the touching facets of :func:`incentre` on the minimal form, so a
    redundant or duplicated row of H does not count as a facet.  When the
    answer is affirmative the identity inradius = n vol / per is verified as
    a consistency cross-check.
    """
    Hm = remove_redundant_halfspaces(H)
    all_touch = len(incentre(Hm).touching_facets) == Hm.m
    if all_touch:
        rep = heron_bounds(Hm)
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
