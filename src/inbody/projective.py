"""Projective matrix systems on the simplex and their attractor dimension.

The standard simplex of non-negative directions is handled in an affine
chart: a homogeneous vector (x_0, x_1, ..., x_n) with coordinate sum 1 is
identified with the chart point (x_1, ..., x_n), and a chart point lifts
by prepending the complementary coordinate 1 - sum.  In this chart the
simplex is {p : p_i >= 0, sum p <= 1}.

A family of injective non-negative matrices acts projectively on the
simplex.  When the images have disjoint interiors and the complement of
their union consists of convex "holes" clear of the simplex boundary, the
upper box-counting dimension of the invariant set equals the critical
exponent of the hole series

    sum over holes of  vol(hole) * inradius(hole)^(s - n),

and is bounded below by the critical exponent of the word-norm series

    sum over words w of  ||N_w||^(-(n+1) s / n)

once the matrices are rescaled to determinant +/-1.  Both exponents are
located by a depth-ratio test plus bisection in s over [n-1, n]; a grid
box-counting estimator over the explicit holes serves as an independent
cross-check.

Holes are made one word length at a time: the word products of a depth
are one stacked matrix product, and each seed hole's vertices are mapped
through the whole stack at once.  In one dimension a hole is an interval,
so its length and inradius are closed forms taken over the whole depth;
above one dimension each image gets its own hull.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .errors import (
    BadParameter,
    DegenerateImage,
    DegenerateInput,
    IfsValidationError,
    InsufficientDepth,
    SingularMatrix,
    Unstable,
)
from .polytope import (
    TAU_PT,
    TAU_REP,
    HalfspaceSystem,
    VertexSet,
    _affine_rank,
    _chebyshev,
    _floored_scale,
    convex_hull,
    validate_body,
)

_RATIO_FLAT = 1e-6       # |ratio - 1| below this carries no signal
_SPREAD_LIMIT = 0.10     # max relative disagreement of top-depth ratios
_WORD_CAP = 1 << 21      # guard on the total number of word products
_CELL_CAP = 20_000_000   # most grid cells one box count above n = 1 may scan
NORM_KINDS = ("spectral", "frobenius", "maxentry")


@dataclass
class ProjectiveIFS:
    """Matrix family {N_j} acting projectively on the n-simplex."""

    n: int
    matrices: list[np.ndarray]
    labels: list[str] | None = None

    def __post_init__(self):
        if self.n < 1:
            raise BadParameter("projective dimension must be >= 1")
        mats = []
        for M in self.matrices:
            M = np.asarray(M, dtype=float)
            if M.shape != (self.n + 1, self.n + 1):
                raise BadParameter(f"matrices must be {self.n + 1}x{self.n + 1}")
            mats.append(M)
        self.matrices = mats
        if self.labels is None:
            self.labels = [str(i) for i in range(len(mats))]
        if len(self.labels) != len(mats):
            raise BadParameter("one label per matrix required")


@dataclass
class HoleRecord:
    """A complement component: image of a seed hole under one word."""

    word: tuple[str, ...]
    seed_index: int
    body: VertexSet
    volume: float
    inradius: float

    @property
    def depth(self) -> int:
        return len(self.word)


@dataclass
class SeriesTable:
    """Per-depth terms of a parameterized series and their running sums."""

    depths: np.ndarray
    per_depth: np.ndarray
    cumulative: np.ndarray


@dataclass
class DimensionEstimate:
    """Critical exponent of a series, with the probe table that produced it."""

    s_star: float
    max_depth: int
    bracket_width: float
    partial_sums: dict
    flags: list[str] = field(default_factory=list)


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


@dataclass
class IfsValidationReport:
    checks: list[CheckResult]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def violations(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]


def lift_to_simplex(p) -> np.ndarray:
    """Chart point -> homogeneous vector (1 - sum, p_1, ..., p_n)."""
    p = np.asarray(p, dtype=float).ravel()
    rest = 1.0 - p.sum()
    if rest < -TAU_PT or np.any(p < -TAU_PT):
        raise BadParameter("chart point lies outside the simplex")
    return np.concatenate([[rest], p])


def apply_projective(N, p) -> np.ndarray:
    """Projective action on a chart point: lift, multiply, renormalize."""
    N = np.asarray(N, dtype=float)
    x = lift_to_simplex(p)
    y = N @ x
    s = y.sum()
    if s <= TAU_PT:
        raise DegenerateImage("image has non-positive coordinate sum")
    return y[1:] / s


def image_polytope(N, body: VertexSet) -> VertexSet:
    """Vertex-wise projective image of a chart polytope.

    Valid because a projective map with positive denominators on a convex
    region sends the hull of points to the hull of their images.
    """
    return VertexSet(_chart_images(np.asarray(N, dtype=float), body.points))


def _chart_images(N, pts):
    """Chart images of chart points (k, n) under one matrix or a stack of w.

    Returns (k, n) for one matrix and (w, k, n) for a stack.
    """
    lifted = np.hstack([(1.0 - pts.sum(axis=1))[:, None], pts])
    imgs = lifted @ np.swapaxes(N, -1, -2)
    sums = imgs.sum(axis=-1)
    if np.any(sums <= TAU_PT):
        raise DegenerateImage("a vertex image has non-positive coordinate sum")
    return imgs[..., 1:] / sums[..., None]


def chart_simplex_vertices(n: int) -> VertexSet:
    """Vertices of the simplex in chart coordinates: 0 and the e_i."""
    return VertexSet(np.vstack([np.zeros(n), np.eye(n)]))


def chart_simplex(n: int) -> HalfspaceSystem:
    """H-form of the chart simplex {p_i >= 0, sum p <= 1}."""
    A = np.vstack([-np.eye(n), np.ones(n)])
    b = np.concatenate([np.zeros(n), [1.0]])
    return validate_body(HalfspaceSystem(A, b))


def simplex_chart_volume(n: int) -> float:
    return 1.0 / math.factorial(n)


def validate_ifs(ifs: ProjectiveIFS,
                 seed_holes: list[VertexSet]) -> IfsValidationReport:
    """Check the hypotheses the hole construction relies on.

    (a) every matrix is injective, (b) entries are non-negative so the
    simplex maps into itself, (c) the simplex images have pairwise disjoint
    interiors, (d) every seed hole keeps a positive margin to the simplex
    boundary, and (e) image volumes plus hole volumes account for the whole
    simplex, confirming the declared complement.
    """
    checks: list[CheckResult] = []
    n = ifs.n

    dets = [float(np.linalg.det(M)) for M in ifs.matrices]
    bad = [lab for lab, d in zip(ifs.labels, dets) if abs(d) <= TAU_PT]
    checks.append(CheckResult(
        "injective_matrices", not bad,
        "all determinants nonzero" if not bad else f"singular: {bad}"))

    neg = [lab for lab, M in zip(ifs.labels, ifs.matrices)
           if np.any(M < -TAU_PT)]
    checks.append(CheckResult(
        "nonnegative_entries", not neg,
        "all entries >= 0" if not neg else f"negative entries: {neg}"))

    hulls = []
    image_ok = True
    try:
        base = chart_simplex_vertices(n)
        hulls = [convex_hull(image_polytope(M, base)) for M in ifs.matrices]
    except (DegenerateImage, BadParameter) as exc:
        image_ok = False
        checks.append(CheckResult("simplex_images", False, str(exc)))

    if image_ok:
        overlaps = []
        for i in range(len(hulls)):
            for j in range(i + 1, len(hulls)):
                if _interiors_intersect(hulls[i], hulls[j]):
                    overlaps.append((ifs.labels[i], ifs.labels[j]))
        checks.append(CheckResult(
            "disjoint_image_interiors", not overlaps,
            "pairwise disjoint" if not overlaps else f"overlapping: {overlaps}"))

    margin_bad = []
    simplex = chart_simplex(n)
    An, bn, _ = simplex.unit_form()
    for idx, hole in enumerate(seed_holes):
        resid = bn[:, None] - An @ hole.points.T
        if resid.min() <= TAU_PT:
            margin_bad.append(idx)
    checks.append(CheckResult(
        "holes_avoid_boundary", not margin_bad,
        "positive margin" if not margin_bad
        else f"holes touching the simplex boundary: {margin_bad}"))

    if image_ok and ifs.matrices:
        total = sum(metrics.volume(h) for h in hulls)
        total += sum(metrics.volume(convex_hull(h)) for h in seed_holes)
        target = simplex_chart_volume(n)
        gap = abs(total - target)
        cover_ok = gap <= TAU_REP * max(1.0, target)
        checks.append(CheckResult(
            "images_and_holes_cover", cover_ok,
            f"covered volume {total:.12g} vs simplex {target:.12g}"))

    return IfsValidationReport(checks)


def _interiors_intersect(H1: HalfspaceSystem, H2: HalfspaceSystem) -> bool:
    A = np.vstack([H1.A, H2.A])
    b = np.concatenate([H1.b, H2.b])
    norms = np.linalg.norm(A, axis=1)
    _, radius = _chebyshev(A / norms[:, None], b / norms)
    return radius > TAU_PT


def generate_holes(ifs: ProjectiveIFS, seed_holes: list[VertexSet],
                   max_depth: int) -> list[HoleRecord]:
    """All complement components down to word length ``max_depth``.

    The invariant-set identity pushes every seed hole through every word of
    maps, so the records are exactly {N_w . hole} keyed by (word, seed).
    Emission order is depth-major with words in label-lexicographic order
    and seeds innermost.  The holes are made one depth at a time: each seed
    is mapped through the depth's stack of word products in one product.
    An interval's length and inradius are closed forms, taken for the whole
    depth at once; above one dimension each image gets its own hull.
    """
    if max_depth < 0:
        raise BadParameter("max_depth must be >= 0")
    report = validate_ifs(ifs, seed_holes)
    if not report.ok:
        names = ", ".join(c.name for c in report.violations())
        raise IfsValidationError(f"hypothesis checks failed: {names}")

    records: list[HoleRecord] = []
    words: list[tuple[str, ...]] = [()]
    for depth, level in enumerate(_word_levels(ifs, max_depth)):
        if depth:
            words = [word + (lab,) for word in words for lab in ifs.labels]
            images = [_chart_images(level, seed.points) for seed in seed_holes]
        else:
            images = [seed.points[None] for seed in seed_holes]
        if not images:
            continue
        measured = [_measure_holes(pts) for pts in images]
        vols = np.stack([m[0] for m in measured], axis=1)      # (words, seeds)
        inrs = np.stack([m[1] for m in measured], axis=1)
        bad = np.argwhere((vols <= 0) | (inrs <= 0))
        if bad.size:
            w, seed_idx = bad[0]
            raise DegenerateImage(
                f"hole {words[w]}/{seed_idx} degenerated under the maps")
        for w, (word, vol, inr) in enumerate(zip(words, vols.tolist(),
                                                 inrs.tolist())):
            for seed_idx, pts in enumerate(images):
                records.append(HoleRecord(word=word, seed_index=seed_idx,
                                          body=VertexSet(pts[w]),
                                          volume=vol[seed_idx],
                                          inradius=inr[seed_idx]))
    return records


def _word_levels(ifs: ProjectiveIFS, max_depth: int):
    """Word products by word length 0..max_depth, one stack per length.

    Level m holds N_w for every length-m word w in label order, made as one
    stacked matmul of level m-1 with every matrix.  (``einsum`` sums in
    another order and moves hole ends by an ulp.)  The word cap is checked
    before the first level is made.
    """
    J = len(ifs.matrices)
    if J and J ** max_depth > _WORD_CAP:
        raise BadParameter("word tree too large at this depth")
    level = np.eye(ifs.n + 1)[None]
    yield level
    if not J:
        return
    stack = np.stack(ifs.matrices)
    for _ in range(max_depth):
        level = (level[:, None] @ stack[None]).reshape(-1, *stack.shape[1:])
        yield level


def _measure_holes(pts):
    """Volume and inradius of the hull of each point set of a stack (h, k, n).

    An interval is [min, max]: its length is max - min and its inradius
    half of that.  It collapses as in :func:`convex_hull`, with that
    function's scale and affine-rank test, which for a two-point set also
    covers its point merge.  Above one dimension each set gets its hull.
    """
    if pts.shape[2] > 1:
        hulls = [convex_hull(VertexSet(p)) for p in pts]
        return (np.array([metrics.volume(h) for h in hulls]),
                np.array([metrics.incentre(h).inradius for h in hulls]))
    centroid = pts.mean(axis=1)                                  # (h, 1)
    spread = np.abs(pts - centroid[:, None]).max(axis=(1, 2))
    scale = _floored_scale(spread, np.abs(centroid[:, 0]))
    if np.any(_affine_rank(pts, scale[:, None]) < 1):
        raise DegenerateInput("points do not affinely span the ambient space")
    vol = pts.max(axis=(1, 2)) - pts.min(axis=(1, 2))
    return vol, vol / 2.0


def hole_series(holes: list[HoleRecord], s: float, n: int) -> SeriesTable:
    """T_m(s) = sum over depth-m holes of vol * inradius^(s - n)."""
    vols, ins = _depth_arrays(holes)
    depths = np.arange(len(vols))
    per = np.array([float(np.sum(v * r ** (s - n))) for v, r in zip(vols, ins)])
    return SeriesTable(depths=depths, per_depth=per, cumulative=np.cumsum(per))


def _depth_arrays(holes):
    if not holes:
        raise BadParameter("no hole records provided")
    by_depth: dict[int, list[HoleRecord]] = {}
    for h in holes:
        by_depth.setdefault(h.depth, []).append(h)
    max_d = max(by_depth)
    vols, ins = [], []
    for m in range(max_d + 1):
        grp = by_depth.get(m, [])
        vols.append(np.array([h.volume for h in grp]))
        ins.append(np.array([h.inradius for h in grp]))
    return vols, ins


def critical_exponent(ifs: ProjectiveIFS, seed_holes: list[VertexSet],
                      max_depth: int, tol: float = 0.01,
                      holes: list[HoleRecord] | None = None) -> DimensionEstimate:
    """Critical s of the hole series, located by depth ratios + bisection.

    The growth ratio rho(s) = T_m(s) / T_{m-1}(s), averaged over the top
    three depths, separates divergence (rho > 1, s below the exponent)
    from convergence; bisection narrows [n-1, n] to the requested
    tolerance.  When rho never crosses 1 the estimate clamps to the
    corresponding end of the interval and says so in the flags.
    """
    if not tol > 0:
        raise BadParameter("tol must be positive")
    if holes is None:
        holes = generate_holes(ifs, seed_holes, max_depth)
    vols, ins = _depth_arrays(holes)
    M = len(vols) - 1
    if M < 3:
        raise BadParameter("need at least depth 3 for the ratio test")
    n = ifs.n

    def depth_sum(m: int, s: float) -> float:
        return float(np.sum(vols[m] * ins[m] ** (s - n)))

    return _exponent_from_sums(depth_sum, M, n, tol, min_depth=0)


def _exponent_from_sums(depth_sum, M, n, tol, min_depth) -> DimensionEstimate:
    lo, hi = float(n - 1), float(n)

    def ratios(s):
        return np.array([depth_sum(m, s) / depth_sum(m - 1, s)
                         for m in (M - 2, M - 1, M)])

    flags: list[str] = []
    r_lo = float(ratios(lo).mean())
    r_hi = float(ratios(hi).mean())
    if abs(r_lo - 1.0) <= _RATIO_FLAT and abs(r_hi - 1.0) <= _RATIO_FLAT:
        raise Unstable("series ratios carry no decay signal across [n-1, n]")

    if r_lo <= 1.0 + _RATIO_FLAT:
        s_star, bracket = lo, 0.0
        flags.append("clamped_lower")
    elif r_hi > 1.0 + _RATIO_FLAT:
        s_star, bracket = hi, 0.0
        flags.append("clamped_upper")
    else:
        a, b = lo, hi
        while b - a > tol:
            mid = 0.5 * (a + b)
            if float(ratios(mid).mean()) > 1.0:
                a = mid
            else:
                b = mid
        s_star, bracket = 0.5 * (a + b), b - a

    rr = ratios(s_star)
    spread = float((rr.max() - rr.min()) / rr.mean()) if rr.mean() > 0 else np.inf
    if spread > _SPREAD_LIMIT:
        raise Unstable(
            f"top-depth ratio estimates disagree by {spread:.1%} at s = {s_star:.4f}")
    if spread > 0.01:
        flags.append("ratio_spread_above_1pct")

    s_grid = np.linspace(lo, hi, 11)
    table = np.array([[depth_sum(m, s) for s in s_grid]
                      for m in range(min_depth, M + 1)])
    partial = {
        "s_grid": s_grid.tolist(),
        "depths": list(range(min_depth, M + 1)),
        "cumulative": np.cumsum(table, axis=0).tolist(),
    }
    return DimensionEstimate(s_star=float(s_star), max_depth=M,
                             bracket_width=float(bracket),
                             partial_sums=partial, flags=flags)


def normalize_unimodular(ifs: ProjectiveIFS) -> ProjectiveIFS:
    """Rescale each matrix to determinant +/-1; the action is unchanged."""
    mats = []
    for lab, M in zip(ifs.labels, ifs.matrices):
        d = abs(float(np.linalg.det(M)))
        if d <= TAU_PT:
            raise SingularMatrix(f"matrix {lab} is singular")
        mats.append(M / d ** (1.0 / (ifs.n + 1)))
    return ProjectiveIFS(n=ifs.n, matrices=mats, labels=list(ifs.labels))


def _word_norms(ifs: ProjectiveIFS, max_depth: int, norm: str):
    """Norms of all word products, grouped by word length 1..max_depth."""
    if norm not in NORM_KINDS:
        raise BadParameter(f"norm must be one of {NORM_KINDS}")
    if not ifs.matrices:
        raise BadParameter("norm series needs at least one matrix")
    levels = _word_levels(ifs, max_depth)
    next(levels)                                  # the empty word
    return [_norms_of(level, norm) for level in levels]


def _norms_of(stack, kind):
    if kind == "spectral":
        return np.linalg.svd(stack, compute_uv=False)[:, 0]
    if kind == "frobenius":
        return np.sqrt(np.sum(stack ** 2, axis=(1, 2)))
    return np.max(np.abs(stack), axis=(1, 2))


def norm_series(ifs: ProjectiveIFS, s: float, max_depth: int,
                norm: str = "spectral") -> SeriesTable:
    """U_m(s) = sum over length-m words of ||N_w||^(-(n+1)s/n).

    Requires determinant +/-1 matrices (see :func:`normalize_unimodular`).
    """
    _require_unimodular(ifs)
    norms = _word_norms(ifs, max_depth, norm)
    expo = -(ifs.n + 1) * s / ifs.n
    per = np.array([float(np.sum(w ** expo)) for w in norms])
    return SeriesTable(depths=np.arange(1, max_depth + 1), per_depth=per,
                       cumulative=np.cumsum(per))


def _require_unimodular(ifs):
    for lab, M in zip(ifs.labels, ifs.matrices):
        if abs(abs(float(np.linalg.det(M))) - 1.0) > 1e-6:
            raise BadParameter(
                f"matrix {lab} is not unimodular; normalize_unimodular first")


def norm_series_exponent(ifs: ProjectiveIFS, max_depth: int, tol: float = 0.01,
                         norm: str = "spectral") -> DimensionEstimate:
    """Critical s of the word-norm series (lower bound on the dimension)."""
    if not tol > 0:
        raise BadParameter("tol must be positive")
    if max_depth < 4:
        raise BadParameter("need max_depth >= 4 for the ratio test")
    uni = normalize_unimodular(ifs)
    word_norms = _word_norms(uni, max_depth, norm)
    n = ifs.n
    expo_base = -(n + 1) / n

    def depth_sum(m: int, s: float) -> float:
        return float(np.sum(word_norms[m - 1] ** (expo_base * s)))

    est = _exponent_from_sums(depth_sum, max_depth, n, tol, min_depth=1)
    est.flags.append(f"norm={norm}")
    return est


def box_counting_dimension(ifs: ProjectiveIFS, seed_holes: list[VertexSet],
                           depth: int, resolutions,
                           holes: list[HoleRecord] | None = None) -> float:
    """Grid box-counting slope of the simplex minus the explicit holes.

    Counts half-open grid cells meeting the chart simplex that are not
    fully inside any open hole, then fits log N against log(1/delta) by
    least squares.  The finest resolution must stay at or above the scale
    of the deepest generated holes (checked through the smallest inradius):
    below that scale the truncated approximation has no structure left and
    the counts drift towards the ambient dimension.
    """
    res = np.asarray(resolutions, dtype=float)
    if res.size < 3 or np.any(np.diff(res) >= 0) or np.any(res <= 0):
        raise BadParameter("resolutions must be >= 3 strictly decreasing positives")
    if holes is None:
        holes = generate_holes(ifs, seed_holes, depth)
    if holes and ifs.matrices:
        deepest, min_in = _deepest_inradius(holes)
        if res[-1] < min_in * (1.0 - 1e-9):
            raise InsufficientDepth(
                f"finest resolution {res[-1]:.3g} lies below the depth-{deepest} "
                f"hole scale (smallest inradius {min_in:.3g}); generate deeper "
                "or coarsen the grid")

    if ifs.n == 1:
        lo, hi = _interval_ends(holes)
        counts = [_count_boxes_1d(lo, hi, float(d)) for d in res]
    else:
        counts = [_count_boxes_nd(ifs.n, holes, float(d)) for d in res]
    slope, _ = np.polyfit(np.log(1.0 / res), np.log(np.asarray(counts, float)), 1)
    return float(slope)


def _deepest_inradius(holes):
    """The deepest level of the holes and its smallest inradius."""
    deepest = max(h.depth for h in holes)
    return deepest, min(h.inradius for h in holes if h.depth == deepest)


def _snap(q):
    """q, or the integer nearest to it when within 1e-6 (ties to even)."""
    qi = np.round(q)
    return np.where(np.abs(q - qi) <= 1e-6, qi, q)


def _interval_ends(holes):
    """Both ends of every interval hole, as two arrays."""
    if not holes:
        return np.empty(0), np.empty(0)
    flat = np.concatenate([h.body.points.ravel() for h in holes])
    starts = np.cumsum([0] + [h.body.count for h in holes[:-1]])
    return np.minimum.reduceat(flat, starts), np.maximum.reduceat(flat, starts)


def _count_boxes_1d(lo, hi, delta):
    interior = np.floor(_snap(hi / delta)) - np.floor(_snap(lo / delta)) - 1
    return _cells_per_axis(delta) - int(np.maximum(interior, 0.0).sum())


def _cells_per_axis(delta):
    """Half-open grid cells of side delta that meet [0, 1]."""
    return math.floor(_snap(1.0 / delta)) + 1


def _grid_too_fine(n, delta):
    """True when the box-counting grid at delta has more than _CELL_CAP cells."""
    return _cells_per_axis(delta) ** n > _CELL_CAP


def _count_boxes_nd(n, holes, delta):
    if _grid_too_fine(n, delta):
        raise BadParameter("grid too fine for this dimension at desk scale")
    per_axis = _cells_per_axis(delta)
    shape = (per_axis,) * n
    lower = np.arange(per_axis) * delta          # cell lower edges on one axis
    upper = lower + delta
    # every edge is >= 0, so a cell meets the simplex iff its lower corner does
    meets = sum(np.ix_(*[lower] * n)) <= 1.0 + 1e-12

    excluded = np.zeros(per_axis ** n, dtype=bool)
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * n, indexing="ij"))
    corners = corners.reshape(n, -1).T * delta               # (2^n, n) offsets
    for h in holes:
        hull = convex_hull(h.body)
        # candidates: the cells with upper >= lo - delta and lower <= hi on
        # every axis, which is one index range per axis
        first = np.searchsorted(upper, h.body.points.min(axis=0) - delta, side="left")
        stop = np.searchsorted(lower, h.body.points.max(axis=0), side="right")
        idx = [i.ravel() for i in np.meshgrid(
            *[np.arange(i, j) for i, j in zip(first, stop)], indexing="ij")]
        cand = np.ravel_multi_index(idx, shape)
        keep = ~excluded[cand]
        cand = cand[keep]
        corner0 = np.stack([lower[i[keep]] for i in idx], axis=1)
        pts = corner0[:, None, :] + corners[None, :, :]       # (c, 2^n, n)
        inside = np.all(pts @ hull.A.T < hull.b - 1e-12, axis=(1, 2))
        excluded[cand[inside]] = True
    return int(np.count_nonzero(meets.ravel() & ~excluded))


def auto_seed_holes(ifs: ProjectiveIFS) -> list[VertexSet]:
    """Complementary open intervals of the simplex images (dimension 1 only).

    Higher-dimensional complements have no canonical convex decomposition,
    so seed holes must be supplied by the caller there.
    """
    if ifs.n != 1:
        raise BadParameter("automatic seed holes are defined for n = 1 only")
    base = chart_simplex_vertices(1)
    spans = []
    for M in ifs.matrices:
        img = image_polytope(M, base).points
        spans.append((float(img.min()), float(img.max())))
    spans.sort()
    holes = []
    cursor = 0.0
    for lo, hi in spans:
        if lo - cursor > TAU_PT:
            holes.append(VertexSet([[cursor], [lo]]))
        cursor = max(cursor, hi)
    if 1.0 - cursor > TAU_PT:
        holes.append(VertexSet([[cursor], [1.0]]))
    return holes


def middle_thirds_ifs() -> tuple[ProjectiveIFS, list[VertexSet]]:
    """Projective interval maps t -> t/3 and t -> (t+2)/3 with their gap.

    The invariant set is the classical middle-thirds dust; every derived
    quantity (hole counts, lengths, series ratios) has a closed form, which
    makes this the reference example of the test suite.
    """
    ifs = ProjectiveIFS(
        n=1,
        matrices=[np.array([[3.0, 2.0], [0.0, 1.0]]),
                  np.array([[1.0, 0.0], [2.0, 3.0]])],
        labels=["a", "b"],
    )
    return ifs, [VertexSet([[1.0 / 3.0], [2.0 / 3.0]])]


def parabolic_ifs() -> tuple[ProjectiveIFS, list[VertexSet]]:
    """Unimodular pair with parabolic fixed points at the interval ends.

    Chart maps t -> t/(1+2t) and t -> (2-t)/(3-2t); hole lengths decay
    polynomially along the parabolic branches, which stresses the ratio
    test.  Shipped as a cross-estimator consistency input, with no closed
    form asserted for its dimension.
    """
    ifs = ProjectiveIFS(
        n=1,
        matrices=[np.array([[1.0, 0.0], [2.0, 1.0]]),
                  np.array([[1.0, 2.0], [0.0, 1.0]])],
        labels=["a", "b"],
    )
    return ifs, [VertexSet([[1.0 / 3.0], [2.0 / 3.0]])]
