"""Scalar metrics of convex polytopes: volume, surface area, inradius.

One kernel gives the volume and every facet volume.  It cones the
barycentric simplex of each flag F_{n-1} > ... > F_0 of the boundary from
the incentre, so vol = sum |det| / n!, and a facet's (n-1)-volume follows
from its cone and its distance to the incentre.  A flag is a path down the
Hasse diagram of the face lattice, which is read off the vertex-facet
incidence alone (the facets of a face are its maximal proper meets with the
facet rows).  The kernel walks the diagram once per face, expands the
paths into flags at the end, in runs of whole facets that bound its memory,
and splits each flag's determinant into 2 x 2 minors that all the flags
through one edge of the diagram share.  It takes a stack of bodies with
shared normals (the eroded bodies of a profile) and a single body is a
stack of one.
The inradius is the optimum of the Chebyshev-centre linear program.  The
"pancake" boxes [0,1] x [0,K]^{n-1} realise the extreme ratios between
the inradius and volume/perimeter, which pins both constants of the
inradius sandwich

    vol / per  <=  inradius  <=  n * vol / per.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (BadParameter, DegenerateFacet, DegenerateNumerics, GeometryError,
                     OutsideBody)
from .polytope import (
    _COMBO_CAP,
    _PAIRS,
    _SPLIT,
    TAU_FACET,
    TAU_REP,
    Facet,
    HalfspaceSystem,
    VertexSet,
    _affine_basis,
    _centroids,
    _det,
    _face_vertices,
    _facet_meets,
    _laplace,
    _local_bits,
    _minors,
    _scale_from_box,
    _unpack,
    as_vector,
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


def facet_volume(F: Facet) -> float:
    """(n-1)-volume of a facet via isometric embedding one dimension down.

    The chart is the SVD basis of the centred facet points, the same
    decomposition that measures their affine rank, relative to the scale of
    their bounding box.
    """
    pts = F.vertices.points
    n = pts.shape[1]
    centred = pts - pts.mean(axis=0)
    basis = _affine_basis(pts, _scale_from_box(pts.min(axis=0), pts.max(axis=0)))
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
                                active, inc.incentre[None])
    result = (float(vols[0]), fvols[0], inc)
    Hm._cache["cone"] = result
    H._cache["cone"] = result
    return result


def _flag_volumes(An, bn, points, start, active, centres):
    """Volumes and facet volumes of a stack of bodies, from their incidence.

    Body e is {x : An x <= bn[e]} with the vertices ``points[start[e]:
    start[e + 1]]`` (as :func:`polytope._incidence_from_candidates` returns
    them) and a centre ``centres[e]`` inside it.  ``active`` (m, sum V) is
    the incidence of each body's facet rows on its vertices, all False on
    the other rows (see :func:`polytope._facet_rows`).  Returns the volumes
    (E,) and the facet volumes (E, m), 0 off the facets.

    The boundary is cut along its flags F_{n-1} > ... > F_0.  With the
    centre c, each flag spans the simplex conv(c, centroid F_{n-1}, ...,
    centroid F_0).  These simplices tile the body, so vol = sum |det| / n!,
    and facet i, whose simplices make a cone of height dist(c, F_i), has
    vol_{n-1}(F_i) = n cone_i / dist(c, F_i).

    A flag is a path down the Hasse diagram of the face lattice (Ziegler
    1995, 2.2), read off the vertex-facet incidence alone: the facets of a
    k-face G are the distinct meets of G with facet rows that are proper,
    keep at least k vertices and lie inside no other such meet
    (:func:`polytope._facet_meets`, the rule that also finds the facet
    rows).  The walk takes each level once per distinct face: the facets of
    the level's faces are the diagram's edges (face, sub-face) in (face,
    row) order, and one sort by (body, sub-face) numbers the distinct
    sub-faces.  The paths are expanded at the end, depth first, so the
    flags come facet by facet in the order of a walk that extends every
    chain by each facet of its face; a flag keeps only its facet and the
    edge it took at each level.  A stack of at most _FLAG_RUN flags is
    expanded whole.  A larger one is cut into runs of whole facets of at
    most _FLAG_RUN flags each (:func:`_facet_runs`), from the flags below
    each first edge counted bottom up, and the runs are expanded, and their
    determinants taken, one at a time, so that memory is bounded by the run
    and by the diagram, not by the number of flags.  A flag's determinant,
    of the rows centroid F_{n-1} - c, ..., centroid F_0 - c, is split as
    :func:`polytope._det` splits it.  At n = 3 and 4 the 2 x 2 minors of
    its (edge, vertex) rows are taken once per last edge of the diagram,
    and at n = 4 those of its (facet, ridge) rows once per first edge; in
    other dimensions each flag's matrix goes to _det whole.  Each flag's
    terms are summed in _det's order, so its determinant is _det's of the
    flag's matrix, and the facet sums run in flag order: a facet's flags
    are all in one run, so no run size moves a bit.
    All bodies are walked at once: a face is a row of bits over its own
    body's vertices (:func:`polytope._local_bits`), so the faces of every
    body go through each step together, and a body's numbers do not depend
    on the stack it is in.

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
    # rows of arrays are gathered with take and compress, which numpy runs
    # several times faster than fancy indexing (see _facet_meets)
    rows = bits.reshape(-1, bits.shape[-1])                 # row j of body e at e m + j
    body, row = np.nonzero(bits.any(axis=-1))
    # the distinct faces of each level, and the Hasse edges (parent, child)
    # from each level to the next, as indices into the faces of the two;
    # every edge is on at least one chain, so its count bounds theirs
    faces, fbody = bits[body, row], body
    levels, edges = [(faces, fbody)], []
    _check_flag_count(len(faces), n - 1, n)
    for k in range(n - 1, 0, -1):
        # a face meets each of its facets by one row (of equal meets only
        # the first row's is a facet), so the edges come in (face, row)
        # order, and one sort by (body, sub-face) finds the distinct sub-faces
        parent, j = _facet_meets(faces, fbody, bits, k)
        _check_flag_count(len(parent), k - 1, n)
        pbody = fbody[parent]
        key = np.empty((len(parent), faces.shape[1] + 1), dtype=np.uint64)
        key[:, 0] = pbody
        key[:, 1:] = faces.take(parent, axis=0) & rows.take(pbody * m + j, axis=0)
        order = np.lexsort(key.T[::-1])
        ordered = key.take(order, axis=0)
        new_face = np.ones(len(key), dtype=bool)
        new_face[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
        child = np.empty(len(key), dtype=int)
        child[order] = new_face.cumsum() - 1
        faces, fbody = ordered.compress(new_face, axis=0)[:, 1:], pbody[order[new_face]]
        levels.append((faces, fbody))
        edges.append((parent, child))

    # the flags are the paths down the edges (see _flag_paths).  Up to n = 2
    # a flag is a facet or a first edge, which the walk has made and
    # counted, so the stack is one run.  Above, a stack whose flags fit in
    # one run is expanded whole.  A larger one is cut into runs of whole
    # facets after the flags below each first edge are counted bottom up
    # (one below each edge of the last level, and below any other edge the
    # sum over the edges down from its child), and the cap is checked on
    # their total before any run is made
    if len(edges) < 2:
        runs = [(0, len(body), [np.arange(len(edges[0][0]))] if edges else [])]
    else:
        degree = [np.bincount(parent, minlength=len(faces))
                  for (parent, _), (faces, _) in zip(edges[1:], levels[1:])]
        whole = _flag_paths(edges, degree, 0, len(edges[0][0]), _FLAG_RUN)
        if whole is not None:
            runs = [(0, len(body), whole)]
        else:
            below = degree[-1]
            for t in range(len(edges) - 2, 0, -1):
                parent, child = edges[t]
                below = np.bincount(parent, weights=below[child], minlength=len(levels[t][0]))
            below = below[edges[0][1]]
            _check_flag_count(int(below.sum()), 0, n)
            cuts = _facet_runs(np.bincount(edges[0][0], weights=below, minlength=len(body)))
            first = np.searchsorted(edges[0][0], cuts)
            runs = ((f0, f1, _flag_paths(edges, degree, e0, e1))
                    for f0, f1, e0, e1 in zip(cuts, cuts[1:], first, first[1:]))

    # every face's centroid from the centre, by sequential sums in vertex
    # order, so that they do not depend on the stack, split by level
    faces, fbody = (np.concatenate(x) for x in zip(*levels))
    f, v = _face_vertices(_unpack(faces), fbody, start)
    offsets = _centroids(f, v, len(faces), points) - centres.take(fbody, axis=0)
    at = [0, *itertools.accumulate(len(level[0]) for level in levels)]
    off = [offsets[lo:hi] for lo, hi in zip(at, at[1:])]
    if n in (3, 4):
        # the minors of the (edge, vertex) rows once per last Hasse edge,
        # and at n = 4 those of the (facet, ridge) rows once per first one
        parent, child = edges[-1]
        low = _minors(off[-2].take(parent, axis=0), off[-1].take(child, axis=0), _SPLIT[n][0])
        if n == 4:
            parent, child = edges[0]
            head = _minors(off[0].take(parent, axis=0), off[1].take(child, axis=0), _PAIRS)

    # a run of whole facets holds their flags in flag order, so each cone is
    # summed as it would be in one run
    parts = []
    for f0, f1, path in runs:
        facet = edges[0][0][path[0]] if edges else np.arange(f0, f1)
        if n in (3, 4):
            dets = _laplace(off[0].take(facet, axis=0).T if n == 3 else
                            head.take(path[0], axis=1), low.take(path[-1], axis=1), n)
        else:
            ends = [facet] + [child[p] for (_, child), p in zip(edges, path)]
            dets = _det(np.stack([o.take(e, axis=0) for o, e in zip(off, ends)], axis=1))
        parts.append(np.bincount(facet - f0, weights=np.abs(dets), minlength=f1 - f0))
    cones = parts[0] if len(parts) == 1 else np.concatenate(parts)
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


def _check_flag_count(chains, k, n):
    """Refuse a flag walk of more than _COMBO_CAP determinant entries, n^2 a
    flag.  The flags are made in runs (see :func:`_flag_volumes`), so the
    cap bounds the work and the arrays of the Hasse diagram, not the memory
    of the flags.  At least ``chains`` chains end in k-faces, and a
    k-polytope has at least the (k+1)! flags of a k-simplex, so a body with
    too many flags (the 9-simplex, the 8-cube) is refused as soon as a level
    of the walk, or the total count, shows it.
    """
    if chains * math.factorial(k + 1) * n * n > _COMBO_CAP:
        raise BadParameter(
            f"at least {chains * math.factorial(k + 1)} flags in dimension {n} "
            f"exceed the cap of {_COMBO_CAP} determinant entries")


_FLAG_RUN = 2048   # flags per run of whole facets in _flag_volumes


def _flag_paths(edges, degree, lo, hi, limit=math.inf):
    """The flags below the first edges lo..hi-1 of the Hasse diagram
    ``edges``, depth first: flag i takes edge ``path[t][i]`` down from level
    t.  A chain takes every edge down from the face it ends in: the edges
    of a face are contiguous, and ``degree[t - 1]`` counts those of each
    face of level t.  Returns None, before the level that holds them is
    made, if there are more than ``limit`` flags.
    """
    path = [np.arange(lo, hi)]
    for t in range(1, len(edges)):
        end = edges[t - 1][1][path[-1]]
        counts, after = degree[t - 1][end], degree[t - 1].cumsum()[end]
        chains = counts.cumsum()
        flags = int(chains[-1]) if len(chains) else 0
        if flags > limit:
            return None
        path = [p.repeat(counts) for p in path]
        path.append(np.arange(flags) + (after - chains).repeat(counts))
    return path


def _facet_runs(counts):
    """Cut the facets, with ``counts`` flags each, into runs of consecutive
    facets of at most _FLAG_RUN flags, a facet with more being a run alone.
    Returns the first facet of each run and, last, the number of facets.
    """
    upto = counts.cumsum()
    cuts = [0]
    while cuts[-1] < len(upto):
        lo = cuts[-1]
        hi = np.searchsorted(upto, (upto[lo - 1] if lo else 0.0) + _FLAG_RUN, side="right")
        cuts.append(max(lo + 1, int(hi)))
    return cuts


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


def is_circumscribed(H: HalfspaceSystem) -> bool:
    """True iff the inscribed ball of a minimal system meets every facet.

    Expects a minimal (redundancy-removed) validated system, and reads the
    touching facets of :func:`incentre`.  When the answer is affirmative the
    identity inradius = n vol / per is verified as a consistency cross-check.
    """
    all_touch = len(incentre(H).touching_facets) == H.m
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
