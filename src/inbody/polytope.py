"""Polytope representations and exact conversions in low dimension.

Bodies are carried either as an H-form (intersection of half-spaces
``A x <= b``) or a V-form (vertex set whose hull is the body).  Normals are
stored unnormalized and every distance formula divides by the row norm
explicitly.  Tolerances are relative to a per-body scale derived from a
circumradius estimate, so small eroded bodies keep meaningful comparisons.

Vertex enumeration is exhaustive over n-subsets, which is the simplest
correct algorithm at the intended desk scale (dimension <= ~4, a few dozen
half-spaces, a couple hundred points).  The convex hull of k points is the
vertex enumeration of their polar body, so it too tries C(k, n) subsets.  The
subsets are solved in batches, one routine for a right-hand side of one
column (the vertices of one body) or two (the vertex paths of all the
inner parallel bodies of one minimal form, see :func:`_vertex_paths`).  The
steps after them (naming each vertex by the rows it lies on, refining it,
testing facets) take a stack of bodies that share their unit normals and
differ in their offsets: the inner parallel bodies of a profile go through
them in one pass, and a single body is a stack of one.  They are array
operations over all vertices or faces of the stack at once, in blocks that
bound memory, and a body's results do not depend on the stack it is in.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import lp
from .errors import (
    BadParameter,
    DegenerateInput,
    DegenerateNumerics,
    DimensionMismatch,
    EmptyInterior,
    GeometryError,
    Infeasible,
)

TAU_PT = 1e-9     # input-point merge / interior threshold (scale-relative)
TAU_FACET = 1e-7  # on-facet residual (scale-relative)
TAU_REP = 1e-6    # report tolerance (relative)

_COMBO_CHUNK = 20_000   # n-subset batch size, bounds peak memory
_COMBO_CAP = 10**8      # most n-subsets one enumeration may try
_DEDUP_BLOCK = 256      # points per distance block in _dedup_points


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-d float array, optionally checking length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise BadParameter("expected a 1-d coordinate vector")
    if not np.all(np.isfinite(v)):
        raise BadParameter("coordinates must be finite")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.size}")
    return v


@dataclass(frozen=True)
class Halfspace:
    """One constraint {x : a . x <= b} with a nonzero normal a."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        object.__setattr__(self, "a", as_vector(self.a))
        if float(np.linalg.norm(self.a)) == 0.0:
            raise BadParameter("halfspace normal must be nonzero")
        object.__setattr__(self, "b", float(self.b))


@dataclass
class HalfspaceSystem:
    """Convex region {x : A x <= b}.

    ``validated`` asserts the region is bounded with non-empty interior
    (established by :func:`validate_body`).  Instances are treated as
    immutable after construction; derived quantities (vertices, incidence,
    minimal form, ...) are memoized on first use.
    """

    A: np.ndarray
    b: np.ndarray
    validated: bool = False
    scale: float | None = None
    bbox: np.ndarray | None = None           # (2, n): row 0 = mins, row 1 = maxs
    cheb_center: np.ndarray | None = None
    cheb_radius: float | None = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.b = np.asarray(self.b, dtype=float).ravel()
        if self.A.shape[0] != self.b.shape[0]:
            raise BadParameter("A and b row counts disagree")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
            raise BadParameter("halfspace data must be finite")
        norms = np.linalg.norm(self.A, axis=1)
        if np.any(norms == 0.0):
            raise BadParameter("halfspace normals must be nonzero")

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def unit_form(self):
        """Rows normalized to unit normals: (An, bn, norms)."""
        if "unit" not in self._cache:
            norms = np.linalg.norm(self.A, axis=1)
            self._cache["unit"] = (self.A / norms[:, None], self.b / norms, norms)
        return self._cache["unit"]


@dataclass
class VertexSet:
    """Finite point set whose convex hull represents a body."""

    points: np.ndarray

    def __post_init__(self):
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if not np.all(np.isfinite(self.points)):
            raise BadParameter("vertex coordinates must be finite")

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def count(self) -> int:
        return self.points.shape[0]


@dataclass
class Facet:
    """An (n-1)-face: its supporting halfspace plus its vertex set."""

    support: Halfspace
    vertices: VertexSet


def body_scale(H: HalfspaceSystem) -> float:
    """Circumradius-like scale used to make tolerances relative.

    Falls back to a small floor tied to the coordinate magnitude so that
    near-degenerate bodies do not drive tolerances below double-precision
    noise on O(1) coordinates.
    """
    if H.scale is not None:
        return H.scale
    if H.bbox is not None:
        lo, hi = H.bbox
        return _scale_from_box(lo, hi)
    Hv = validate_body(H)
    return Hv.scale


def _scale_from_box(lo, hi) -> float:
    radius = 0.5 * float(np.linalg.norm(hi - lo))
    return float(_floored_scale(radius, float(np.linalg.norm(0.5 * (hi + lo)))))


def _floored_scale(radius, centre_norm):
    """A radius floored at 1e-6 (1 + |centre|) and at 1e-12, elementwise."""
    return np.maximum(np.maximum(radius, 1e-6 * (1.0 + centre_norm)), 1e-12)


def validate_body(H: HalfspaceSystem) -> HalfspaceSystem:
    """Check boundedness and interior; return the system flagged valid.

    The Chebyshev LP comes first: it starts from a point it always has, and
    a negative radius certifies that the constraints contradict each other.
    Its centre then starts one LP per +/- coordinate direction, which
    certify boundedness and give the bounding box.  The interior check
    compares the radius with the point tolerance ``TAU_PT``.

    Raises:
        Infeasible: the constraints contradict each other.
        Unbounded: some coordinate direction is unbounded.
        EmptyInterior: the region is flat at the working tolerance.
    """
    if H.dim < 1:
        raise BadParameter("dimension must be >= 1")
    n = H.dim
    An, bn, _ = H.unit_form()
    center, radius = _chebyshev(An, bn)
    if radius < -1e-8 * (1.0 + np.abs(bn).max(initial=0.0)):
        raise Infeasible("constraint system has no solution")
    if np.any(An @ center > bn):
        # the centre misses one of its own rows by roundoff, so the
        # radius is within roundoff of zero or below it
        raise EmptyInterior("region has no interior at tolerance")
    lo = np.empty(n)
    hi = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        hi[i] = lp.solve_lp(e, An, bn, center, maximize=True).value
        lo[i] = lp.solve_lp(e, An, bn, center, maximize=False).value
    scale = _scale_from_box(lo, hi)
    if radius <= TAU_PT * scale:
        raise EmptyInterior("region has no interior at tolerance")

    out = HalfspaceSystem(H.A.copy(), H.b.copy(), validated=True, scale=scale,
                          bbox=np.vstack([lo, hi]), cheb_center=center,
                          cheb_radius=radius)
    return out


def _chebyshev(An, bn):
    """Centre and radius of the largest inscribed ball (unit-row system).

    Solves max r s.t. An x + r <= bn with x and r free, from the feasible
    point x = 0, r = min(0, min bn).  The radius is negative when the system
    has no solution, and the LP is unbounded when the region holds
    arbitrarily large balls.
    """
    m, n = An.shape
    A_lp = np.hstack([An, np.ones((m, 1))])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    start = np.zeros(n + 1)
    start[-1] = bn.min(initial=0.0)
    res = lp.solve_lp(c, A_lp, bn, start, maximize=True)
    return res.x[:n], float(res.value)


def contains_point(H: HalfspaceSystem, x, slack: float = 0.0) -> bool:
    """True iff ``a . x <= b + slack * ||a||`` for every halfspace."""
    x = as_vector(x)
    if x.size != H.dim:
        raise DimensionMismatch(f"point has dimension {x.size}, body {H.dim}")
    norms = np.linalg.norm(H.A, axis=1)
    return bool(np.all(H.A @ x <= H.b + slack * norms))


def vertex_enumeration(H: HalfspaceSystem) -> VertexSet:
    """All vertices of a validated body, via exhaustive n-subsets.

    Every n-subset of halfspaces with an invertible normal matrix is
    solved; solutions are kept iff feasible within the facet tolerance,
    merged by active set (of the solutions on the same rows within the
    facet tolerance the first is kept), then refined against that active
    set: a simple vertex solves its n active rows, any other takes the
    least squares solution of its active rows.
    """
    V, _ = vertex_incidence(H)
    return V


def vertex_incidence(H: HalfspaceSystem):
    """Vertices plus the facet-activity matrix (m x n_vertices, boolean)."""
    if not H.validated:
        raise BadParameter("vertex enumeration requires a validated body")
    if "incidence" in H._cache:
        return H._cache["incidence"]

    An, bn, _ = H.unit_form()
    feas_tol = TAU_FACET * body_scale(H)
    candidates = [np.empty((0, H.dim))]
    for sols in _subset_solves(An, bn[:, None]):
        sols = sols[..., 0]
        feas = np.all(sols @ An.T - bn <= feas_tol, axis=1)
        candidates.append(sols[feas])
    pts = np.vstack(candidates)
    points, _, active = _incidence_from_candidates(
        An, bn[None], np.array([body_scale(H)]), pts, np.zeros(len(pts), dtype=int))
    result = (VertexSet(points), active)
    H._cache["incidence"] = result
    return result


def _vertex_paths(H: HalfspaceSystem):
    """Vertex candidates of every inner parallel body of H, from one solve.

    The body eroded by eps is {x : An x <= bn - eps} in H's unit form, so an
    n-subset S of rows meets at v_S(eps) = x_S - eps * d_S, with
    A_S x_S = b_S and A_S d_S = 1 (Matheron 1978).  Its residuals
    p - eps * q are linear too, so S is feasible within the facet tolerance
    exactly on a window lo_S <= eps <= hi_S.  Returns (x, d, lo, hi) for the
    subsets whose window meets eps >= 0, in subset order; the candidates at
    one eps are ``x[on] - eps * d[on]`` with ``on = (lo <= eps) & (eps <= hi)``.
    """
    An, bn, _ = H.unit_form()
    n = H.dim
    feas_tol = TAU_FACET * body_scale(H)
    paths = [np.empty((0, 2 * n + 2))]
    for sols in _subset_solves(An, np.column_stack([bn, np.ones_like(bn)])):
        x, d = sols[..., 0], sols[..., 1]
        p = x @ An.T - bn
        q = d @ An.T - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (p - feas_tol) / q
        lo = np.where(q > 0, t, -np.inf).max(axis=1)
        hi = np.where(q < 0, t, np.inf).min(axis=1)
        never = ((q == 0) & (p > feas_tol)).any(axis=1)
        on = (lo <= hi) & (hi >= 0) & ~never
        paths.append(np.column_stack([x[on], d[on], lo[on], hi[on]]))
    paths = np.vstack(paths)
    return paths[:, :n], paths[:, n:2 * n], paths[:, -2], paths[:, -1]


def _subset_solves(An, rhs):
    """Solutions of A_S y = rhs_S for the n-subsets S with invertible A_S.

    Yields one (C, n, k) array per chunk of subsets, in subset order, for a
    right-hand side of k columns.
    """
    m, n = An.shape
    for chunk in _combo_chunks(m, n):
        sub = An[chunk]                      # (C, n, n)
        good = np.abs(_det(sub)) > 1e-10
        if good.any():
            yield np.linalg.solve(sub[good], rhs[chunk[good]])


def _det(M):
    """Determinants of a stack of n x n matrices (..., n, n).

    Up to n = 4 by cofactor expansion over the whole stack (by 2 x 2 minors
    at n = 4): on random and nearly singular matrices about as accurate as
    LU, and on thousands of matrices 7 to 33 times faster than a LAPACK
    call per matrix.  Above that by LU.
    """
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


def _incidence_from_candidates(An, bn, scale, pts, body):
    """Vertices and incidence of a stack of bodies from their candidate points.

    Body e of the stack is {x : An x <= bn[e]}: the bodies share the unit
    normals An (m, n) and differ in their offsets bn (E, m), as the inner
    parallel bodies of one minimal form do; ``scale`` (E,) holds their
    scales.  Candidate ``pts[i]`` belongs to body ``body[i]``, and ``body``
    is ascending.  A vertex is named by its active set, the rows it lies on
    within the facet tolerance, as a face is by its incidence row: of the
    candidates of one body with the same active set only the first is kept
    (Avis & Fukuda 1992).  The kept candidates are refined against their
    active sets and sorted, all in one pass over the stack; a body gets the
    same vertices alone (E = 1) as in any stack.  Returns
    ``(points, start, active)``: the vertices body by body, body e's in rows
    ``start[e]:start[e + 1]``, and the (m, sum V) incidence of every row on
    every vertex of its own body.
    """
    E = bn.shape[0]
    if np.any(np.bincount(body, minlength=E) == 0):
        raise GeometryError("no vertices found for a validated body")
    feas_tol = TAU_FACET * scale
    act = np.abs(bn[body] - pts @ An.T) <= feas_tol[body, None]          # (N, m)
    # the body's bytes, then the active row as bits: packed, the keys of the
    # 30,080 candidates of the 5-cross-polytope stay within a megabyte
    key = np.hstack([body.astype(np.int64)[:, None].view(np.uint8),
                     np.packbits(act, axis=1)])
    first = _first_rows(key)
    body = body[first]
    pts = _refine_vertices(act[first], An, bn[body], feas_tol[body, None])
    order = np.lexsort([*pts.T[::-1], body])
    pts, body = pts[order], body[order]
    active = np.abs(bn[body].T - An @ pts.T) <= feas_tol[body]
    return pts, np.searchsorted(body, np.arange(E + 1)), active


@functools.lru_cache(maxsize=64)
def _combo_array(m, n):
    return np.array(list(itertools.combinations(range(m), n)), dtype=int)


def _combo_chunks(m, n):
    total = math.comb(m, n)
    if total > _COMBO_CAP:
        raise BadParameter(
            f"C({m}, {n}) = {total} subsets exceed the enumeration cap {_COMBO_CAP}")
    if total <= _COMBO_CHUNK:
        yield _combo_array(m, n)
        return
    combos = itertools.combinations(range(m), n)
    while True:
        chunk = list(itertools.islice(combos, _COMBO_CHUNK))
        if not chunk:
            return
        yield np.array(chunk, dtype=int)


def _dedup_points(pts, tol):
    """The points, less each one within tol of an earlier kept point.

    The rule is that of a sequential scan in input order.  Two points within
    tol are within tol along any unit direction, so one sort along a fixed
    generic direction (on which the vertices of a box do not tie) finds
    the few points that can be near another.  Distances among those are
    taken for a block of points at a time, against each earlier block of
    kept points and within the block, so memory stays bounded by
    ``_DEDUP_BLOCK**2`` distances however many points come in.
    """
    keep = np.ones(pts.shape[0], dtype=bool)
    along = pts @ _probe(pts.shape[1])
    # twice tol, plus the rounding of the projections
    reach = 2.0 * tol + 1e-15 * pts.shape[1] * np.abs(pts).max(initial=0.0)
    order = np.argsort(along, kind="stable")
    close = np.diff(along[order]) <= reach
    suspect = np.zeros(pts.shape[0], dtype=bool)
    suspect[order[1:][close]] = suspect[order[:-1][close]] = True
    suspect = np.flatnonzero(suspect)
    keep[suspect] = False
    kept: list[np.ndarray] = []
    for start in range(0, suspect.size, _DEDUP_BLOCK):
        idx = suspect[start:start + _DEDUP_BLOCK]
        for other in kept:
            idx = idx[~(_distances(pts[idx], pts[other]) <= tol).any(axis=1)]
        # earlier[i, j]: j < i and the two are within tol.  A point is kept
        # iff no earlier kept point is near it; the rule is triangular, so
        # iterating it from "keep all" fixes one more leading entry per
        # round and stops at its unique solution, usually in two rounds.
        earlier = np.tril(_distances(pts[idx], pts[idx]) <= tol, -1)
        new = np.ones(idx.size, dtype=bool)
        while True:
            cur, new = new, ~(earlier & new).any(axis=1)
            if np.array_equal(new, cur):
                break
        if new.any():
            kept.append(idx[new])
            keep[idx[new]] = True
    return pts[keep]


@functools.lru_cache(maxsize=16)
def _probe(n):
    """A fixed unit vector in n dimensions with no zero or repeated entries."""
    u = np.sqrt(np.arange(n) + 2.0)
    u /= np.linalg.norm(u)
    u.setflags(write=False)
    return u


def _distances(P, Q):
    """Euclidean distance of every row of P to every row of Q."""
    return np.linalg.norm(P[:, None, :] - Q[None, :, :], axis=2)


def _refine_vertices(act, An, bn, feas_tol):
    """Solve each vertex from its full active set.

    ``act`` (N, m) holds each vertex's active rows, ``bn`` its own offsets
    (N, m) and ``feas_tol`` its tolerance (N, 1), so the vertices may come
    from the bodies of a stack.  The simple vertices, with exactly n active
    rows, solve their square systems in one batch.  The others are grouped
    by their number c of active rows, and each group takes the
    least-squares solution of its (c, n) systems from one stacked QR:
    R x = Q^T b.  A vertex whose refined point leaves an active row by more
    than feas_tol, or that has fewer than n active rows, is an error.
    """
    n = An.shape[1]
    offs = np.where(act, bn, 0.0)
    refined = np.empty((act.shape[0], n))
    counts = act.sum(axis=1)
    if counts.min(initial=n) < n:
        raise DegenerateNumerics("a vertex has fewer active rows than the dimension")
    for c in np.flatnonzero(np.bincount(counts)):
        idx = np.flatnonzero(counts == c)
        rows = np.nonzero(act[idx])[1].reshape(-1, c)
        b = offs[idx[:, None], rows]
        if c == n:
            refined[idx] = np.linalg.solve(An[rows], b[..., None])[..., 0]
        else:
            # R x = Q^T b, with Q^T b summed in row order
            q, r = np.linalg.qr(An[rows])
            qtb = sum(b[:, i, None] * q[:, i] for i in range(c))
            refined[idx] = np.linalg.solve(r, qtb[..., None])[..., 0]
    resid = np.where(act, np.abs(bn - refined @ An.T), 0.0)
    if (resid > feas_tol).any():
        raise DegenerateNumerics(
            f"vertex residual {resid.max():.3e} exceeds tolerance after refinement")
    return refined


def remove_redundant_halfspaces(H: HalfspaceSystem) -> HalfspaceSystem:
    """Drop halfspaces that do not support a facet; region is unchanged.

    A halfspace is retained iff its active vertex set has affine dimension
    n-1.  Duplicates are merged by incidence row: of the halfspaces active
    on the same vertex set only the first is kept.
    """
    if not H.validated:
        raise BadParameter("redundancy removal requires a validated body")
    if "minimal" in H._cache:
        return H._cache["minimal"]

    V, active = vertex_incidence(H)
    keep = _facet_rows(V.points, np.array([0, V.count]), active,
                       np.array([body_scale(H)]))[0]

    out = HalfspaceSystem(H.A[keep], H.b[keep], validated=True, scale=H.scale,
                          bbox=H.bbox, cheb_center=H.cheb_center,
                          cheb_radius=H.cheb_radius)
    out._cache["incidence"] = (V, active[keep])
    out._cache["minimal"] = out
    H._cache["minimal"] = out
    return out


def _facet_rows(points, start, active, scale):
    """The facet rows of each body of a stack, as an (E, m) mask.

    The stack is that of :func:`_incidence_from_candidates`.  A row is a
    facet row of its body iff its active vertex set has affine dimension
    n-1, and of the rows active on the same vertex set only the first is
    kept.  Distinct rows are found, and their ranks taken, over the whole
    stack at once.
    """
    n = points.shape[1]
    E, m = len(start) - 1, active.shape[0]
    sizes = start[1:] - start[:-1]
    mine = np.repeat(np.eye(E, dtype=bool), sizes, axis=1)          # (E, sum V)
    # row j of body e over the stack's vertices; rows of two bodies differ
    # unless both are empty
    rows = (active[None] & mine[:, None]).reshape(E * m, -1)
    first = _first_rows(rows)
    first = first[rows[first].sum(axis=1) >= n]
    f, v = np.nonzero(rows[first])
    keep = np.zeros(E * m, dtype=bool)
    keep[first] = _face_ranks(f, v, len(first), points, scale[first // m]) == n - 1
    return keep.reshape(E, m)


def _local_bits(active, start):
    """Each body's incidence rows as bit masks over its own vertices.

    Returns (E, m, W) uint64 words: bit i of row j of body e is set iff row
    j is active on the i-th vertex of body e, so a face of a body is one
    row of W words whatever the stack.
    """
    m, total = active.shape
    sizes = start[1:] - start[:-1]
    body = np.repeat(np.arange(len(sizes)), sizes)
    rows = np.zeros((len(sizes), m, 64 * -(-int(sizes.max()) // 64)), dtype=bool)
    rows[body, :, np.arange(total) - start[body]] = active.T
    return np.packbits(rows, axis=-1, bitorder="little").view(np.uint64)


def _unpack(words):
    """Bit rows (..., W) uint64 back to (..., 64 W) rows of 0/1."""
    return np.unpackbits(words.view(np.uint8), axis=-1, bitorder="little")


def _face_vertices(rows, fbody, start):
    """(face, vertex) index pairs of local incidence rows, face by face, in
    vertex order.  The vertex indices are global: body e's vertices start
    at ``start[e]``.
    """
    f, local = np.nonzero(rows)
    return f, start[fbody[f]] + local


def _centroids(f, v, count, points):
    """Centroid of each of ``count`` faces with the vertices ``points[v[f == i]]``.

    The sums are sequential in the order of the pairs, so a face's centroid
    does not depend on the other faces.
    """
    n = points.shape[1]
    sums = np.bincount((f[:, None] * n + np.arange(n)).ravel(),
                       weights=points[v].ravel(), minlength=count * n)
    return sums.reshape(count, n) / np.bincount(f, minlength=count)[:, None]


def _face_ranks(f, v, count, points, scale):
    """Affine rank of each of ``count`` faces, in one stacked test.

    Face i has the vertices ``points[v[f == i]]``, f ascending, and the
    scale ``scale[i]``.  The centred vertices of every face are padded with
    zero rows to the largest face, which leaves the singular values as
    they are, so one SVD takes all the faces.
    """
    sizes = np.bincount(f, minlength=count)
    place = np.arange(len(f)) - (np.cumsum(sizes) - sizes)[f]
    centred = np.zeros((count, sizes.max(initial=1), points.shape[1]))
    centred[f, place] = points[v] - _centroids(f, v, count, points)[f]
    return (np.linalg.svd(centred, compute_uv=False) > 1e-7 * scale[:, None]).sum(axis=-1)


def _affine_basis(pts, scale):
    """Orthonormal rows spanning the directions of the affine hull of pts."""
    if pts.shape[0] < 2:
        return np.empty((0, pts.shape[1]))
    _, svals, vt = np.linalg.svd(pts - pts.mean(axis=0), full_matrices=False)
    return vt[svals > 1e-7 * scale]


def _affine_rank(pts, scale):
    """Affine rank of a point set (k, n), or of each set of a stack (..., k, n)."""
    centred = pts - pts.mean(axis=-2, keepdims=True)
    return (np.linalg.svd(centred, compute_uv=False) > 1e-7 * scale).sum(axis=-1)


def _first_rows(M):
    """Ascending indices of the first occurrence of each distinct row of M."""
    M = np.ascontiguousarray(M)
    keys = M.view(np.dtype((np.void, M.itemsize * M.shape[1]))).ravel()
    _, first = np.unique(keys, return_index=True)
    return np.sort(first)


def facets(H: HalfspaceSystem) -> list[Facet]:
    """Facet list of the minimal form: supporting halfspace + vertex set."""
    Hm = remove_redundant_halfspaces(H)
    V, active = vertex_incidence(Hm)
    out = []
    for i in range(Hm.m):
        out.append(Facet(Halfspace(Hm.A[i], Hm.b[i]), VertexSet(V.points[active[i]])))
    return out


def convex_hull(V: VertexSet) -> HalfspaceSystem:
    """Minimal H-representation of the hull of an affinely spanning set.

    For n >= 2 the hull is read off the polar body {y : (p_i - c) . y <= 1}
    of the points p_i about their centroid c (Avis & Fukuda 1992).  Its
    vertices are the hull's facets: y gives the unit normal y / |y| at
    distance 1 / |y| from c.  Its non-redundant rows are the hull's
    vertices, so the hull's incidence is the polar one transposed.  Polar
    vertices active on the same points are one facet, and the first of them
    is kept.  The polar body is validated for a scale of its own, because
    the hull's scale would make its tolerances too tight on facets far
    from c.  The enumeration tries C(k, n) subsets for k points, so this is
    meant for desk scale (<= ~200 points, n <= 4).  An interval is written
    directly.
    """
    pts = np.atleast_2d(np.asarray(V.points, dtype=float))
    n = pts.shape[1]
    centroid = pts.mean(axis=0)
    spread = np.linalg.norm(pts - centroid, axis=1)
    scale = float(_floored_scale(spread.max(initial=0.0),
                                 float(np.linalg.norm(centroid))))
    pts = _dedup_points(pts, TAU_PT * scale)
    k = pts.shape[0]
    if k < n + 1 or _affine_rank(pts, scale) < n:
        raise DegenerateInput("points do not affinely span the ambient space")

    if n == 1:
        lo, hi = float(pts.min()), float(pts.max())
        A, b = np.array([[1.0], [-1.0]]), np.array([hi, -lo])
        vpts, active = np.array([[lo], [hi]]), np.array([[False, True], [True, False]])
    else:
        # c is interior, so a point on it is no vertex; it would also give
        # the polar body a zero row
        cand = pts[np.linalg.norm(pts - centroid, axis=1) > TAU_PT * scale]
        rows = cand - centroid
        polar = remove_redundant_halfspaces(
            validate_body(HalfspaceSystem(rows, np.ones(len(rows)))))
        Y, polar_active = vertex_incidence(polar)
        first = _first_rows(polar_active.T)
        y, active = Y.points[first], polar_active[:, first].T
        norms = np.linalg.norm(y, axis=1)
        A = y / norms[:, None]
        b = 1.0 / norms + A @ centroid
        # the kept rows, read back as the input points themselves
        vpts = cand[(rows[:, None] == polar.A).all(axis=2).any(axis=1)]
        order = np.lexsort(vpts.T[::-1])
        vpts, active = vpts[order], active[:, order]
    out = HalfspaceSystem(A, b, validated=True, scale=scale,
                          bbox=np.vstack([pts.min(axis=0), pts.max(axis=0)]))
    out._cache["incidence"] = (VertexSet(vpts), active)
    out._cache["minimal"] = out
    return out


def scale_about(obj, center, lam: float):
    """Image of a body under ``x -> center + lam * (x - center)``.

    Works on either representation: vertex sets map pointwise; H-forms map
    each (a, b) to (a, lam * b + (1 - lam) * a . center).
    """
    if lam < 0:
        raise BadParameter("scale factor must be non-negative")
    if isinstance(obj, VertexSet):
        c = as_vector(center, obj.dim)
        return VertexSet(c + lam * (obj.points - c))
    if isinstance(obj, HalfspaceSystem):
        c = as_vector(center, obj.dim)
        b_new = lam * obj.b + (1.0 - lam) * (obj.A @ c)
        out = HalfspaceSystem(obj.A.copy(), b_new,
                              validated=obj.validated and lam > 0.0,
                              scale=None if obj.scale is None else obj.scale * lam)
        if obj.bbox is not None:
            out.bbox = c + lam * (obj.bbox - c)
        if obj.cheb_center is not None and lam > 0.0:
            out.cheb_center = c + lam * (obj.cheb_center - c)
            out.cheb_radius = obj.cheb_radius * lam
        if "incidence" in obj._cache and lam > 0.0:
            V, active = obj._cache["incidence"]
            out._cache["incidence"] = (VertexSet(c + lam * (V.points - c)), active)
        return out
    raise BadParameter("scale_about expects a HalfspaceSystem or VertexSet")
