"""Polytope representations and exact conversions in low dimension.

Bodies are carried either as an H-form (intersection of half-spaces
``A x <= b``) or a V-form (vertex set whose hull is the body).  Normals are
stored unnormalized, and each system keeps its unit form, made with it, for
every distance formula.  A validated body carries one certificate, made by
:func:`validate_body` or :func:`convex_hull` and only read elsewhere: its
bounding box, its inscribed ball and its scale, which for every producer
is the half-diagonal of the box, floored (:func:`_scale_from_box`).
Tolerances are relative to that scale, so small eroded bodies keep
meaningful comparisons.

Vertex enumeration decides every n-subset of the rows that can reach the
body (:func:`_reachable_rows`), which is simple and exact at the intended
desk scale (dimension <= ~4, a few dozen half-spaces, a couple hundred
points).  A row that cannot reach the body's bounding box, widened by the
tolerance, is left out: box rows cut away, redundant planes beyond the
body.  The convex hull of k points is the vertex enumeration of their
polar body, where the row of a point deep inside the hull reaches nothing,
so it decides C(k', n) subsets for the k' points that can be vertices.  A
body's vertices come from its (n - 1)-subsets, its heads: each head is
solved once for its line (:func:`_head_lines`), and the subsets it leads
are decided by where the later rows cross that line, one entry of a table
of products each (:func:`_edge_crossings`).  Up to n = 4 a batch of heads
is array operations, its lines read from cofactors by Cramer's rule; above
n = 4 LU takes them.  A profile's vertex paths (:func:`_vertex_paths`), for
the body and all its erosions at once, come from the same heads' lines,
each head solved once more for a right-hand side of ones, the rate at
which erosion moves the offsets: no candidate of a body or of a profile
solves an n-subset.  The steps after them (naming each vertex by the rows
it lies on, refining it, testing facets) take a stack of bodies that
share their unit normals and their scale and differ in their offsets: the
inner parallel bodies of a profile go through them in one pass, and a
single body is a stack of one.  They are array operations over all vertices
or faces of the stack at once, in blocks that bound memory, and a body's
results do not depend on the stack it is in.
Every face is decided from the incidence alone, by one rule: the facets of
a face are its maximal proper meets with the rows (:func:`_facet_meets`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

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

_COORD_CAP = 1e150      # largest coordinate or offset: its square stays finite
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


def _check_normals(A):
    """The row norms of A; a row whose norm underflows to 0 or overflows to
    inf is refused."""
    with np.errstate(over="ignore", under="ignore"):
        norms = np.linalg.norm(A, axis=1)
    if not (norms.min(initial=np.inf) > 0.0 and norms.max(initial=0.0) < np.inf):
        raise BadParameter("halfspace normals must be nonzero with a finite norm")
    return norms


@dataclass(frozen=True, eq=False)
class HalfspaceSystem:
    """Convex region {x : A x <= b}, frozen.

    ``validated`` (bounded, with non-empty interior) holds iff the body
    carries its whole certificate: ``scale``, box ``bbox`` and inscribed
    ball ``cheb_center``, ``cheb_radius``; any other mix is refused.  Only
    :func:`validate_body` and :func:`convex_hull` make one; the maps of a
    body map it, and everything else reads it.  Derived quantities
    (vertices, incidence, minimal form, ...) are memoized on first use.
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
        object.__setattr__(self, "A", np.atleast_2d(np.asarray(self.A, dtype=float)))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).ravel())
        if self.A.shape[0] != self.b.shape[0]:
            raise BadParameter("A and b row counts disagree")
        if not (np.all(np.isfinite(self.A)) and np.all(np.isfinite(self.b))):
            raise BadParameter("halfspace data must be finite")
        certificate = (self.scale, self.bbox, self.cheb_center, self.cheb_radius)
        if [x is not None for x in certificate] != [bool(self.validated)] * 4:
            raise BadParameter("a validated body carries scale, bbox, cheb_center "
                               "and cheb_radius, and any other body none of them")
        norms = _check_normals(self.A)
        self._cache["unit"] = (self.A / norms[:, None], self.b / norms, norms)

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def m(self) -> int:
        return self.A.shape[0]

    def unit_form(self):
        """Rows normalized to unit normals: (An, bn, norms), made with the
        system from the norms that :func:`_check_normals` takes."""
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


def _scale_from_box(lo, hi) -> float:
    """The scale of a body with the bounding box [lo, hi]: its half-diagonal,
    floored by :func:`_floored_scale` at the box's centre."""
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
    certify boundedness and give the bounding box.  The interior checks
    compare the radius with the point tolerance ``TAU_PT`` times a scale:
    before the box LPs, the scale floor of :func:`_floored_scale` at the
    centre, which no body's scale is below, and after them the body's
    scale.  So a flat input is EmptyInterior whether or not it is bounded.
    A unit offset or a box coordinate beyond ``_COORD_CAP`` is refused, so
    that every square the certificate takes stays finite.

    Raises:
        BadParameter: an offset or the box lies beyond ``_COORD_CAP``.
        Infeasible: the constraints contradict each other.
        EmptyInterior: the region is flat at the working tolerance.
        Unbounded: some coordinate direction is unbounded.
    """
    if H.dim < 1:
        raise BadParameter("dimension must be >= 1")
    n = H.dim
    An, bn, _ = H.unit_form()
    _check_coordinates(bn)
    center, radius = _chebyshev(An, bn)
    if radius < -1e-8 * (1.0 + np.abs(bn).max(initial=0.0)):
        raise Infeasible("constraint system has no solution")
    if (radius <= TAU_PT * _floored_scale(0.0, float(np.linalg.norm(center)))
            or np.any(An @ center > bn)):
        # flat at any scale; a centre that misses one of its own rows by
        # roundoff has a radius within roundoff of zero or below it
        raise EmptyInterior("region has no interior at tolerance")
    box = np.empty((2, n))                      # row 0 = mins, row 1 = maxs
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        box[1, i] = lp.solve_lp(e, An, bn, center, maximize=True).value
        box[0, i] = lp.solve_lp(e, An, bn, center, maximize=False).value
    _check_coordinates(box)
    scale = _scale_from_box(*box)
    if radius <= TAU_PT * scale:
        raise EmptyInterior("region has no interior at tolerance")

    return HalfspaceSystem(H.A.copy(), H.b.copy(), validated=True, scale=scale,
                           bbox=box, cheb_center=center, cheb_radius=radius)


def _check_coordinates(x):
    """Refuse coordinates or offsets beyond ``_COORD_CAP`` in magnitude."""
    if np.abs(x).max(initial=0.0) > _COORD_CAP:
        raise BadParameter(f"coordinates and offsets beyond {_COORD_CAP:g} are refused")


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
    return bool(np.all(H.A @ x <= H.b + slack * H.unit_form()[2]))


def vertex_enumeration(H: HalfspaceSystem) -> VertexSet:
    """All vertices of a validated body, via the n-subsets of its rows.

    The subsets are those of the rows that can reach the body
    (:func:`_reachable_rows`): a subset through any other row meets at no
    point feasible within the facet tolerance.  Every such n-subset with an
    invertible normal matrix meets at a point of the line of its first
    n - 1 rows, where its last row crosses it (:func:`_edge_crossings`).
    The points are kept iff feasible within the facet tolerance on every
    row, merged by active set (of the points on the same rows within the
    facet tolerance the first is kept), then refined against that active
    set: a simple vertex solves its n active rows, any other takes the
    least squares solution of its active rows.  So a vertex does not depend
    on how its candidate was solved.
    """
    V, _ = vertex_incidence(H)
    return V


def vertex_incidence(H: HalfspaceSystem):
    """Vertices plus the facet-activity matrix (m x n_vertices, boolean).

    The vertices are :func:`vertex_enumeration`'s: the candidates of the
    reachable rows' heads and crossings (:func:`_edge_crossings`), named
    and refined by their active sets (:func:`_incidence_from_candidates`).
    """
    if not H.validated:
        raise BadParameter("vertex enumeration requires a validated body")
    if "incidence" in H._cache:
        return H._cache["incidence"]

    An, bn, _ = H.unit_form()
    rows = _reachable_rows(H)
    pts = _edge_crossings(An.take(rows, axis=0), bn.take(rows), TAU_FACET * H.scale)
    points, _, active = _incidence_from_candidates(
        An, bn[None], H.scale, pts, np.zeros(len(pts), dtype=int))
    result = (VertexSet(points), active)
    H._cache["incidence"] = result
    return result


def _reachable_rows(H: HalfspaceSystem) -> np.ndarray:
    """The rows of H that a vertex can be active on, as ascending indices.

    Over the unit rows, the Chebyshev centre c and radius r give
    a . c <= b - r on every row, so every point feasible within the facet
    tolerance tol lies in c + (1 + tol / r)(K - c), and so in the same
    homothety of the bounding box.  On that box row j is at most
    a_j . c + (1 + tol / r)(top_j - a_j . c), with top_j the row's largest
    value over the box's corners, sum_i max(a_ji lo_i, a_ji hi_i).  Where
    that bound is below b_j - tol no such point lies within tol of row j, so
    no subset through the row meets at a candidate and no vertex is active
    on it; the test is against b_j - 2 tol, and the second tol is a margin
    for the roundoff of the box and the centre.  This is the row-bound test
    of LP presolve (Brearley, Mitra & Williams 1975).
    """
    An, bn, _ = H.unit_form()
    tol = TAU_FACET * H.scale
    lo, hi = H.bbox
    at_centre = An @ H.cheb_center
    top = np.maximum(An * lo, An * hi).sum(axis=1)
    bound = at_centre + (1.0 + tol / H.cheb_radius) * (top - at_centre)
    return np.flatnonzero(bound >= bn - 2.0 * tol)


def _vertex_paths(H: HalfspaceSystem):
    """Vertex candidates of every inner parallel body of H, from one solve.

    The body eroded by eps is {x : An x <= bn - eps} in H's unit form, so an
    n-subset S of rows meets at v_S(eps) = x_S - eps * d_S, with
    A_S x_S = b_S and A_S d_S = 1 (Matheron 1978).  Both come from the line
    of S's head T (:func:`_head_lines`): eroded by eps, the line p_T + t u_T
    moves to p_T - eps p'_T + t u_T, where [u_T; A_T] p'_T = [0; 1], so
    x_S = p_T + t_j u_T and d_S = p'_T + t'_j u_T, with
    t_j = (b_j - a_j . p_T) / (a_j . u_T) and
    t'_j = (1 - a_j . p'_T) / (a_j . u_T) read from tables of products over
    the rows and the heads.  The residuals of v_S(eps), p - eps * q, are
    linear too, so S is feasible within the facet tolerance exactly on a
    window lo_S <= eps <= hi_S.  Returns (x, d, lo, hi) for the subsets
    whose window meets eps >= 0, in subset order; the candidates at one eps
    are ``x[on] - eps * d[on]`` with ``on = (lo <= eps) & (eps <= hi)``.
    """
    An, bn, _ = H.unit_form()
    n = H.dim
    feas_tol = TAU_FACET * H.scale
    rhs = np.vstack([bn, np.ones_like(bn)])
    paths = [np.empty((0, 2 * n + 2))]
    for U, D, cand, P in _head_lines(An, rhs):
        f, j = cand.T.nonzero()                   # (head, row) order
        at = j * D.shape[1] + f                   # entry (j, f) of the (rows, heads) tables
        # t_j and t'_j, then x_S = p_T + t_j u_T and d_S = p'_T + t'_j u_T
        tj = (rhs.take(j, axis=1) - (An @ P).reshape(2, -1).take(at, axis=1)) / D.take(at)
        x, d = (P.take(f, axis=2) + tj[:, None] * U.take(f, axis=1)).transpose(0, 2, 1)
        p = x @ An.T - bn
        q = d @ An.T - 1.0
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (p - feas_tol) / q
        lo = np.where(q > 0, t, -np.inf).max(axis=1)
        hi = np.where(q < 0, t, np.inf).min(axis=1)
        never = ((q == 0) & (p > feas_tol)).any(axis=1)
        on = (lo <= hi) & (hi >= 0) & ~never
        paths.append(np.column_stack([x, d, lo, hi]).compress(on, axis=0))
    paths = np.vstack(paths)
    return paths[:, :n], paths[:, n:2 * n], paths[:, -2], paths[:, -1]


def _edge_crossings(An, bn, feas_tol):
    """The candidate vertices of {x : An x <= bn}, in subset order.

    Each n-subset S of the rows is split into its head T, its first n - 1
    rows, and its last row j.  The rows of T meet on a line p_T + t u_T
    (:func:`_head_lines`), which row k crosses at
    t_k = (b_k - a_k . p_T) / (a_k . u_T), and which is feasible within the
    facet tolerance on the interval of t that the rows' crossings, each
    moved out by tol / |a_k . u_T|, bound.  S is solved iff
    |det A_S| = |a_j . u_T| > 1e-10, and its solution p_T + t_j u_T is a
    candidate iff t_j lies in that interval, which is the test of the
    solution against every row.  So each head is solved once for all the
    subsets it leads, and a subset costs a few entries of (rows, heads)
    tables of products, not a solve and a test against every row (Avis &
    Fukuda 1992).
    """
    n = An.shape[1]
    col, top = bn[:, None], (bn + feas_tol)[:, None]
    out = [np.empty((0, n))]
    for U, D, cand, (P,) in _head_lines(An, bn[None]):
        Q = An @ P                                # a_k . p_T
        D += 0.0                                  # no -0.0, see hi below
        down = D < 0
        with np.errstate(divide="ignore", invalid="ignore"):
            reach = (top - Q) / D
            t = (col - Q) / D
        # a row parallel to the line (D = 0) bounds it iff it cuts it
        # off: then its reach is -inf; where its slack is exactly 0 it
        # is nan, which fmin passes over
        lo_t = np.maximum.reduce(reach, axis=0, where=down, initial=-np.inf)
        hi_t = np.fmin.reduce(reach, axis=0, where=~down, initial=np.inf)
        cand &= (lo_t <= t) & (t <= hi_t)
        f, j = cand.T.nonzero()                   # (head, row) order
        out.append((P.take(f, axis=1) + t[j, f] * U.take(f, axis=1)).T)
    return np.concatenate(out)


def _head_lines(An, rhs):
    """The lines of the heads of An's rows, the (n - 1)-subsets T, block by
    block: the line of T is p_T + t u_T, where the rows of T meet.

    ``rhs`` (k, m) holds k right-hand sides as rows.  Yields, per block of
    C heads, ``(U, D, cand, P)``: the directions u_T (n, C)
    (:func:`_head_directions`), the table D = An U (m, C) of a_j . u_T, the
    mask ``cand`` (m, C) of the rows j after T's last row with
    |det A_S| = |a_j . u_T| > 1e-10 for S = (T, j), and the points
    P (k, n, C) of [u_T; A_T] p = [0; r_T], one (n, C) array per
    right-hand side r (:func:`_head_points`).  A head of dependent rows,
    with no such row, is left out.  The heads go in lexicographic order, in
    blocks of at most ``_COMBO_CHUNK`` (head, row) entries, and the
    n-subsets they lead are held to ``_COMBO_CAP``.
    """
    m, n = An.shape
    if m < n:
        return
    _subset_count(m, n)
    per = max(1, _COMBO_CHUNK // m)
    index = np.arange(m)[:, None]
    # a head's last row must have a later row to pair with
    for chunk in _combo_chunks(m - 1, n - 1):
        for start in range(0, len(chunk), per):
            heads = chunk[start:start + per]
            # G[j, i]: entry (i, j) of [u_T; A_T], row 0 still to be filled
            G = np.empty((n, n, len(heads)))
            G[:, 1:] = An.T.take(heads.T, axis=1)
            U, opp = _head_directions(G)
            D = An @ U                            # a_k . u_T, (rows, heads)
            cand = np.abs(D) > 1e-10
            if n > 1:
                cand &= index > heads[:, -1]
            good = np.logical_or.reduce(cand, axis=0)
            if not good.all():
                G, U, D, cand = (G.compress(good, axis=2), U.compress(good, axis=1),
                                 D.compress(good, axis=1), cand.compress(good, axis=1))
                heads = heads.compress(good, axis=0)
                if opp is not None:
                    opp = opp.compress(good, axis=1)
            G[:, 0] = U
            yield U, D, cand, _head_points(G, rhs.take(heads.T, axis=1), opp)


def _head_directions(G):
    """u_T for each head T: the cofactors of row 0 of the matrices [x; A_T]
    that ``G`` (n, n, C) holds as :func:`_cofactor_row` reads them, as an
    (n, C) array, with the table of minors that rows 0 and 1 share at
    n = 4 (None elsewhere).  Above n = 4 the cofactors are determinants
    of minors, by LU."""
    n = G.shape[0]
    if n <= 4:
        opp = _opposite_minors(G, 0) if n == 4 else None
        return _cofactor_row(G, 0, opp), opp
    rows = G[:, 1:].transpose(2, 1, 0)                     # (C, n - 1, n)
    minors = rows[:, :, [np.delete(np.arange(n), j) for j in range(n)]]
    det = np.linalg.det(minors.transpose(0, 2, 1, 3))      # (C, n)
    return (det * (-1.0) ** np.arange(n)).T, None


def _head_points(G, r, opp):
    """p_T for each head T and right-hand side r: the solution of
    [u_T; A_T] p = [0; r_T], the point of T's line nearest the origin, as a
    (k, n, C) array.

    ``G`` (n, n, C) holds the matrices and ``r`` (k, n - 1, C) the k
    right-hand sides' entries r_T.  The determinant is |u_T|^2.  At n = 2
    and 3 Cramer's rule reads r_i a_i / |u|^2 and
    ((r_i a_k - r_k a_i) x u) / |u|^2; at n = 4 it takes the cofactors of
    rows 1 to 3, ``opp`` being row 1's table of minors
    (:func:`_opposite_minors`); above n = 4 LU solves.  Each cofactor is
    made once for all the right-hand sides.  Cramer's rule is not backward
    stable, but at these sizes its error stays a small multiple of the
    condition number times the unit roundoff (Higham 2002, 1.10.1), and
    each vertex is refined from its active rows afterwards, so a candidate
    only has to land within the facet tolerance.
    """
    n = G.shape[0]
    if n == 1:
        return np.zeros((r.shape[0], 1, G.shape[2]))
    if n > 4:
        rhs = np.concatenate([np.zeros((r.shape[0], 1, r.shape[2])), r], axis=1)
        return np.linalg.solve(G.transpose(2, 1, 0), rhs.transpose(2, 1, 0)).transpose(2, 1, 0)
    U = G[:, 0]
    det = U[0] * U[0]
    for j in range(1, n):
        det += U[j] * U[j]
    if n == 2:
        return G[:, 1] * (r[:, 0] / det)[:, None]
    if n == 3:
        a = r[:, 0, None] * G[:, 2] - r[:, 1, None] * G[:, 1]
        return _minors(a.transpose(0, 2, 1), U.T, _CYCLE).transpose(1, 0, 2) / det
    x = _cofactor_row(G, 1, opp) * r[:, 0, None]
    opp = _opposite_minors(G, 2)
    for i in (2, 3):
        x += _cofactor_row(G, i, opp) * r[:, i - 1, None]
    return x / det


_SIGNS = np.array([[[1.0], [-1.0]], [[-1.0], [1.0]]])
# the pairs whose 2 x 2 minors make a cross product, in its order
_CYCLE = ((1, 2), (2, 0), (0, 1))
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
# the columns other than j, ascending, for each column j of a 4 x 4 matrix
_REST = ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2))


def _cofactor_row(G, i, opp):
    """The cofactors C_ij of row i of stacked n x n matrices, n <= 4, as an
    (n, C) array over j.

    ``G[j, i]`` (n, n, C) holds entry (i, j) of every matrix.  At n = 3 the
    row is the cross product of the other two rows.  At n = 4 the 3 x 3
    minor of C_ij is expanded along the other row of i's pair, (0, 1) or
    (2, 3), by the 2 x 2 minors of the opposite pair, ``opp``
    (:func:`_opposite_minors`): rows 0 and 1 share one table, and rows 2 and
    3 another.
    """
    n = G.shape[0]
    if n == 1:
        return np.ones_like(G[0])
    if n == 2:
        # (a_11, -a_10) for row 0, (-a_01, a_00) for row 1
        return G[::-1, 1 - i] * _SIGNS[i]
    if n == 3:
        return _minors(G[:, (i + 1) % 3].T, G[:, (i + 2) % 3].T, _CYCLE)
    opp = dict(zip(_PAIRS, opp))
    a = G[:, i ^ 1]
    cof = np.empty_like(a)
    for j, (p, q, r) in enumerate(_REST):
        c = cof[j]
        np.multiply(a[p], opp[q, r], out=c)
        c -= a[q] * opp[p, r]
        c += a[r] * opp[p, q]
        if (i + j) % 2:
            np.negative(c, out=c)
    return cof


def _opposite_minors(G, i):
    """At n = 4 the 2 x 2 minors over :data:`_PAIRS` of the rows paired
    opposite row i's pair, (2, 3) for rows 0 and 1 and (0, 1) for rows 2 and
    3, as a (6, C) array; below n = 4 the table is empty, (0, C)."""
    if G.shape[0] < 4:
        return np.empty((0, G.shape[2]))
    k = 2 if i < 2 else 0
    return _minors(G[:, k].T, G[:, k + 1].T, _PAIRS)


def _minors(a, b, pairs):
    """2 x 2 minors a_i b_j - a_j b_i of two stacks of rows (..., n), one
    per pair (i, j), stacked along a new first axis."""
    out = np.empty((len(pairs),) + a.shape[:-1])
    for k, (i, j) in enumerate(pairs):
        np.multiply(a[..., i], b[..., j], out=out[k])
        out[k] -= a[..., j] * b[..., i]
    return out


def _incidence_from_candidates(An, bn, scale, pts, body):
    """Vertices and incidence of a stack of bodies from their candidate points.

    Body e of the stack is {x : An x <= bn[e]}: the bodies share the unit
    normals An (m, n) and the one ``scale`` their tolerances are relative
    to, and differ in their offsets bn (E, m), as the inner parallel bodies
    of one H-form do.  Candidate ``pts[i]`` belongs to body
    ``body[i]``, and ``body`` is ascending.  A vertex is named by its active
    set, the rows it lies on within the facet tolerance, as a face is by its
    incidence row: of the candidates of one body with the same active set
    only the first is kept (Avis & Fukuda 1992).  The kept candidates are
    refined against their active sets and sorted, all in one pass over the
    stack; a body gets the same vertices alone (E = 1) as in any stack.
    Returns ``(points, start, active)``: the vertices body by body, body e's
    in rows ``start[e]:start[e + 1]``, and the (m, sum V) incidence of every
    row on every vertex of its own body.
    """
    E = bn.shape[0]
    if np.any(np.bincount(body, minlength=E) == 0):
        raise GeometryError("no vertices found for a validated body")
    feas_tol = TAU_FACET * scale
    act = np.abs(bn.take(body, axis=0) - pts @ An.T) <= feas_tol
    # the body's bytes, then the active row as bits: packed, the keys of the
    # 30,080 candidates of the 5-cross-polytope stay within a megabyte
    key = np.hstack([body.astype(np.int64)[:, None].view(np.uint8),
                     np.packbits(act, axis=1)])
    first = _first_rows(key)
    body = body.take(first)
    pts = _refine_vertices(act.take(first, axis=0), An, bn.take(body, axis=0), feas_tol)
    order = np.lexsort([*pts.T[::-1], body])
    pts, body = pts.take(order, axis=0), body.take(order)
    active = np.abs(bn.take(body, axis=0).T - An @ pts.T) <= feas_tol
    return pts, np.searchsorted(body, np.arange(E + 1)), active


@functools.lru_cache(maxsize=64)
def _combo_array(m, n):
    """The n-subsets of range(m) in lexicographic order, one per row: each
    first entry followed by the (n - 1)-subsets that can follow it."""
    if n == 0:
        return np.zeros((1, 0), dtype=int)
    return _prefixed(np.arange(m - n + 1)[:, None], _tail_counts(m, n - 1),
                     _combo_array(m, n - 1))


def _combo_chunks(m, n):
    """The n-subsets of range(m) in lexicographic order, as arrays of at
    most ``_COMBO_CHUNK`` rows, or as one array if they fit in one.

    Above that a subset is split into a head and a tail of t entries, with
    t the most for which the table of all C(m, t) tails fits in a chunk;
    the heads come from this function in chunks of their own, and each
    chunk of heads is cut into runs whose subsets fit in a chunk.
    """
    total = _subset_count(m, n)
    # at n = 1 the subsets are the rows, and one array of them costs what b does
    if total <= _COMBO_CHUNK or n == 1:
        yield _combo_array(m, n)
        return
    t = n - 1
    while math.comb(m, t) > _COMBO_CHUNK:
        t -= 1
    tails, count = _combo_array(m, t), _tail_counts(m, t)
    for heads in _combo_chunks(m - t, n - t):
        sizes = count.take(heads[:, -1])
        ends = np.cumsum(sizes)
        lo = 0
        while lo < len(heads):
            hi = int(np.searchsorted(ends, ends[lo] - sizes[lo] + _COMBO_CHUNK, side="right"))
            yield _prefixed(heads[lo:hi], count, tails)
            lo = hi


def _subset_count(m, n):
    """C(m, n), or ``BadParameter`` where it exceeds ``_COMBO_CAP``."""
    total = math.comb(m, n)
    if total > _COMBO_CAP:
        raise BadParameter(
            f"C({m}, {n}) = {total} subsets exceed the enumeration cap {_COMBO_CAP}")
    return total


def _tail_counts(m, t):
    """C(m - a - 1, t) for a in range(m): the t-subsets of range(m) whose
    entries all exceed a, which are the last that many in lexicographic
    order."""
    return np.array([math.comb(m - a - 1, t) for a in range(m)], dtype=int)


def _prefixed(heads, count, tails):
    """Each row of ``heads`` followed by each row of ``tails`` that can
    follow it, in order.  ``tails`` holds the t-subsets of range(m) in
    lexicographic order and ``count`` is :func:`_tail_counts`, so a head
    that ends at a takes the last ``count[a]`` rows of ``tails``."""
    sizes = count.take(heads[:, -1])
    ends = np.cumsum(sizes)
    idx = np.arange(sizes.sum()) + np.repeat(len(tails) - ends, sizes)
    out = np.empty((len(idx), heads.shape[1] + tails.shape[1]), dtype=int)
    out[:, :heads.shape[1]] = heads.repeat(sizes, axis=0)
    out[:, heads.shape[1]:] = tails.take(idx, axis=0)
    return out


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

    ``act`` (N, m) holds each vertex's active rows and ``bn`` its own
    offsets (N, m), so the vertices may come from the bodies of a stack,
    which share the one tolerance ``feas_tol``.  The simple vertices, with
    exactly n active rows, solve their square systems in one batch.  The
    others are grouped by their number c of active rows, and each group
    takes the least-squares solution of its (c, n) systems from one stacked
    QR: R x = Q^T b.  A vertex whose refined point leaves an active row by
    more than feas_tol, or that has fewer than n active rows, is an error.
    """
    m, n = An.shape
    refined = np.empty((act.shape[0], n))
    counts = act.sum(axis=1)
    if counts.min(initial=n) < n:
        raise DegenerateNumerics("a vertex has fewer active rows than the dimension")
    for c in np.flatnonzero(np.bincount(counts)):
        idx = np.flatnonzero(counts == c)
        # the active cells of these vertices, flat and in row order
        cells = np.flatnonzero(act.take(idx, axis=0))
        rows = (cells % m).reshape(-1, c)
        b = bn.take(idx, axis=0).take(cells).reshape(-1, c)
        if c == n:
            refined[idx] = np.linalg.solve(An.take(rows, axis=0), b[..., None])[..., 0]
        else:
            # R x = Q^T b, with Q^T b summed in row order
            q, r = np.linalg.qr(An.take(rows, axis=0))
            qtb = sum(b[:, i, None] * q[:, i] for i in range(c))
            refined[idx] = np.linalg.solve(r, qtb[..., None])[..., 0]
    resid = np.where(act, np.abs(bn - refined @ An.T), 0.0)
    if (resid > feas_tol).any():
        raise DegenerateNumerics(
            f"vertex residual {resid.max():.3e} exceeds tolerance after refinement")
    return refined


def remove_redundant_halfspaces(H: HalfspaceSystem) -> HalfspaceSystem:
    """Drop halfspaces that do not support a facet; region is unchanged.

    A halfspace is retained iff its active vertex set is a facet by
    :func:`_facet_rows`: not every vertex, at least n of them, and inside no
    other row's such set.  Duplicates are merged by incidence row: of the
    halfspaces active on the same vertex set only the first is kept.
    """
    if not H.validated:
        raise BadParameter("redundancy removal requires a validated body")
    if "minimal" in H._cache:
        return H._cache["minimal"]

    V, active = vertex_incidence(H)
    keep = _facet_rows(np.array([0, V.count]), active, H.dim)[0][0]

    out = replace(H, A=H.A[keep], b=H.b[keep])
    out._cache["incidence"] = (V, active[keep])
    out._cache["minimal"] = out
    H._cache["minimal"] = out
    return out


def _facet_rows(start, active, n):
    """The facet rows of each body of a stack, as an (E, m) mask, and the
    bodies' incidence words (E, m, W) of :func:`_local_bits`, which the
    volume kernel takes with the other rows cleared.

    The stack is that of :func:`_incidence_from_candidates`, in dimension
    n.  The facet rows are those whose meets with the whole body are its
    facets by :func:`_facet_meets`, without an apex, so of the rows active
    on the same vertex set only the first is kept.  The rows of all the
    bodies go at once.
    """
    E = len(start) - 1
    whole = _local_bits(np.ones((1, active.shape[1]), dtype=bool), start)[:, 0]
    bits = _local_bits(active, start)
    keep = np.zeros((E, active.shape[0]), dtype=bool)
    keep[_facet_meets(whole, np.arange(E), bits, n)[:2]] = True
    return keep, bits


_FACE_BLOCK = 4096   # faces per block of the meets in _facet_meets


def _facet_meets(faces, fbody, bits, k, low=None):
    """(face, row, meet), in (face, row) order: the meet (W words) of a
    k-face with the row is a facet of the face, and misses the face's apex
    in ``low`` if that is given.

    A face is a row of bits over its own body's vertices, ``fbody`` holds
    each face's body and ``bits`` (E, m, W) the incidence rows of the bodies
    (:func:`_local_bits`).  The facets of a face G are its maximal proper
    faces, and each of them is the meet of G with some facet row (Ziegler
    1995, 2.2).  So a meet is a facet of G iff it is proper, keeps at least
    k vertices and lies inside no other such meet; of equal meets the first
    row's is kept.  ``low`` (faces, W), each face's apex as its one set bit
    (:func:`metrics._lowest_bit`), leaves out the facets through the apex:
    a candidate meet that holds it is never tested for maximality nor
    returned, but every candidate still serves as the outer side of the
    test, since a meet of more than k vertices through the apex can
    strictly contain one that misses it.  Without ``low`` no face has an
    apex and every facet is returned.  Containment is tested only between
    two such meets of the same face, in blocks of faces, so the
    (faces, m, W) words stay small.  Rows are gathered with ``take``, which
    numpy runs several times faster than fancy indexing on arrays of more
    than one axis.
    """
    m, W = bits.shape[1:]
    pairs = [(np.empty(0, dtype=int), np.empty(0, dtype=int), np.empty((0, W), np.uint64))]
    for lo in range(0, len(faces), _FACE_BLOCK):
        face = faces[lo:lo + _FACE_BLOCK, None, :]
        meets = face & bits.take(fbody[lo:lo + _FACE_BLOCK], axis=0)
        cand = np.flatnonzero((np.bitwise_count(meets).sum(axis=-1) >= k)
                              & (meets != face).any(axis=-1))
        f, j = np.divmod(cand, m)
        meet = meets.reshape(-1, W).take(cand, axis=0)
        # every ordered pair (a, b) of candidates of one face, a missing the
        # face's apex (in top); f ascends
        size = np.bincount(f)[f]
        if low is None:
            top = np.ones(len(f), dtype=bool)
        else:
            top = ~(meet & low[lo:lo + _FACE_BLOCK].take(f, axis=0)).any(axis=-1)
            size *= top
        a = np.repeat(np.arange(len(f)), size)
        b = np.arange(len(a)) - np.repeat(np.cumsum(size) - size - np.searchsorted(f, f), size)
        ma, mb = meet.take(a, axis=0), meet.take(b, axis=0)
        inside = ~(ma & ~mb).any(axis=-1) & ((ma != mb).any(axis=-1) | (b < a))
        top[a[inside]] = False
        pairs.append((lo + f[top], j[top], meet.compress(top, axis=0)))
    return tuple(np.concatenate(x) for x in zip(*pairs))


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
    # one scatter through an advanced index: on the profiles' stacks it is
    # faster than a flat put of the active cells
    rows[body, :, np.arange(total) - start[body]] = active.T
    return np.packbits(rows, axis=-1, bitorder="little").view(np.uint64)


def _affine_basis(pts, scale):
    """Orthonormal rows spanning the directions of the affine hull of pts."""
    if pts.shape[0] < 2:
        return np.empty((0, pts.shape[1]))
    _, svals, vt = np.linalg.svd(pts - pts.mean(axis=0), full_matrices=False)
    return vt[svals > TAU_FACET * scale]


def _first_rows(M):
    """Ascending indices of the first occurrence of each distinct row of M."""
    M = np.ascontiguousarray(M)
    keys = M.view(np.dtype((np.void, M.itemsize * M.shape[1]))).ravel()
    _, first = np.unique(keys, return_index=True)
    return np.sort(first)


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
    from c.  The enumeration solves C(k', n - 1) heads and decides C(k', n)
    subsets for the k' points that can reach the polar body, so this is
    meant for desk scale (<= ~200 points, n <= 4).  An interval is written
    directly.  The hull's certificate is made here: its box and scale
    (:func:`_scale_from_box`) from the points left after the merge, and its
    inscribed ball from the Chebyshev LP on its own unit rows.
    """
    pts = np.atleast_2d(np.asarray(V.points, dtype=float))
    n = pts.shape[1]
    _check_coordinates(pts)
    if pts.shape[0] < n + 1:
        raise DegenerateInput("points do not affinely span the ambient space")
    centroid = pts.mean(axis=0)
    pts = _dedup_points(pts, TAU_PT * _scale_from_box(pts.min(axis=0), pts.max(axis=0)))
    box = np.vstack([pts.min(axis=0), pts.max(axis=0)])
    scale = _scale_from_box(*box)
    k = pts.shape[0]
    if k < n + 1 or len(_affine_basis(pts, scale)) < n:
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
        Y, polar_active = vertex_incidence(
            validate_body(HalfspaceSystem(rows, np.ones(len(rows)))))
        kept = _facet_rows(np.array([0, Y.count]), polar_active, n)[0][0]
        polar_active = polar_active[kept]
        first = _first_rows(polar_active.T)
        y, active = Y.points[first], polar_active[:, first].T
        norms = np.linalg.norm(y, axis=1)
        A = y / norms[:, None]
        b = 1.0 / norms + A @ centroid
        # the polar body's facet rows are the hull's vertices
        vpts = cand[kept]
        order = np.lexsort(vpts.T[::-1])
        vpts, active = vpts[order], active[:, order]
    center, radius = _chebyshev(*HalfspaceSystem(A, b).unit_form()[:2])
    out = HalfspaceSystem(A, b, validated=True, scale=scale, bbox=box,
                          cheb_center=center, cheb_radius=radius)
    out._cache["incidence"] = (VertexSet(vpts), active)
    out._cache["minimal"] = out
    return out


def scale_about(obj, center, lam: float):
    """Image of a body under ``x -> center + lam * (x - center)``.

    Works on either representation: vertex sets map pointwise; H-forms map
    each (a, b) to (a, lam * b + (1 - lam) * a . center).  A validated body
    maps to a validated body for lam > 0: its box, ball and vertices map
    the same way, and its scale is that of the new box
    (:func:`_scale_from_box`), so it keeps its floor however small lam.
    At lam = 0 the body is flat and comes back unvalidated.
    """
    if lam < 0:
        raise BadParameter("scale factor must be non-negative")
    if isinstance(obj, VertexSet):
        c = as_vector(center, obj.dim)
        return VertexSet(c + lam * (obj.points - c))
    if isinstance(obj, HalfspaceSystem):
        c = as_vector(center, obj.dim)
        b_new = lam * obj.b + (1.0 - lam) * (obj.A @ c)
        if not (obj.validated and lam > 0.0):
            return HalfspaceSystem(obj.A, b_new)
        box = c + lam * (obj.bbox - c)
        out = replace(obj, b=b_new, scale=_scale_from_box(*box), bbox=box,
                      cheb_center=c + lam * (obj.cheb_center - c),
                      cheb_radius=obj.cheb_radius * lam)
        if "incidence" in obj._cache:
            V, active = obj._cache["incidence"]
            out._cache["incidence"] = (VertexSet(c + lam * (V.points - c)), active)
        return out
    raise BadParameter("scale_about expects a HalfspaceSystem or VertexSet")
