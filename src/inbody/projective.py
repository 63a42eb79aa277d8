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

The holes are one :class:`HoleTable`: per word length d, the images of
each seed under the J^d word products as one (J^d, k, n) array, and the
volumes and inradii of all of them as (J^d, seeds) arrays.  A depth is made
at once: its word products are one stacked matrix product, and each seed's
vertices are mapped through the whole stack.  In one dimension a hole is an
interval, whose length is a closed form over the whole depth made only of
products and sums of non-negative numbers; above one dimension each image
gets its own hull.  A map's image of the simplex is read in closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .errors import (
    BadParameter,
    DegenerateImage,
    DegenerateInput,
    DimensionMismatch,
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
    _chebyshev,
    convex_hull,
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
            if not np.all(np.isfinite(M)):
                raise BadParameter("matrix entries must be finite")
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


@dataclass(eq=False)
class HoleTable:
    """The holes by depth: ``points[d][s]`` holds seed s's images under the
    length-d words, (J^d, k_s, n), and ``volume[d]``, ``inradius[d]`` are
    (J^d, S).  Row w is the w-th word of ``itertools.product(labels,
    repeat=d)``.  Iterating makes a :class:`HoleRecord` per hole, depth-major
    with seeds innermost."""

    n: int
    labels: list[str]
    points: list[list[np.ndarray]]
    volume: list[np.ndarray]
    inradius: list[np.ndarray]

    def __len__(self) -> int:
        return sum(v.size for v in self.volume)

    def __iter__(self):
        for d, (images, vol, inr) in enumerate(zip(self.points, self.volume,
                                                   self.inradius)):
            for w, word in enumerate(itertools.product(self.labels, repeat=d)):
                for s, pts in enumerate(images):
                    yield HoleRecord(word, s, VertexSet(pts[w]), float(vol[w, s]),
                                     float(inr[w, s]))


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


def validate_ifs(ifs: ProjectiveIFS,
                 seed_holes: list[VertexSet]) -> IfsValidationReport:
    """Check the hypotheses the hole construction relies on.

    (a) every matrix is injective, (b) entries are non-negative so the
    simplex maps into itself, (c) the simplex images have pairwise disjoint
    interiors, (d) every seed hole keeps a positive margin to the simplex
    boundary and has positive volume, and (e) image volumes plus hole
    volumes account for the whole simplex, confirming the declared
    complement.  N sends the simplex's vertex e_i to its column i over the
    column's sum s_i, so its image is a simplex iff |det N| and every s_i
    exceed TAU_PT; if one is not, that fails simplex_images and (c) and (e)
    are skipped.  No hull is made for the images: (c) reads their H-forms
    (:func:`_simplex_image`) and (e) their volumes |det N| / (n! prod s_i).
    The seed holes' volumes, which (d) and (e) read, are those of
    :func:`_measure_holes`.  The margin of (d) is the least slack of a hole
    vertex p to the chart simplex: p_i, and (1 - sum p) / sqrt(n).
    """
    checks: list[CheckResult] = []
    n = ifs.n
    if any(hole.dim != n for hole in seed_holes):
        raise DimensionMismatch(f"seed holes must be points of the {n}-d chart")

    dets = [float(np.linalg.det(M)) for M in ifs.matrices]
    sums = [M.sum(axis=0) for M in ifs.matrices]
    bad = [lab for lab, d in zip(ifs.labels, dets) if abs(d) <= TAU_PT]
    checks.append(CheckResult(
        "injective_matrices", not bad,
        "all determinants nonzero" if not bad else f"singular: {bad}"))

    neg = [lab for lab, M in zip(ifs.labels, ifs.matrices)
           if np.any(M < -TAU_PT)]
    checks.append(CheckResult(
        "nonnegative_entries", not neg,
        "all entries >= 0" if not neg else f"negative entries: {neg}"))

    flat = [lab for lab, d, s in zip(ifs.labels, dets, sums)
            if abs(d) <= TAU_PT or s.min() <= TAU_PT]
    if flat:
        checks.append(CheckResult("simplex_images", False, f"no simplex image: {flat}"))
    else:
        images = [_simplex_image(M) for M in ifs.matrices]
        overlaps = [(ifs.labels[i], ifs.labels[j])
                    for i, j in itertools.combinations(range(len(images)), 2)
                    if _interiors_intersect(images[i], images[j])]
        checks.append(CheckResult(
            "disjoint_image_interiors", not overlaps,
            "pairwise disjoint" if not overlaps else f"overlapping: {overlaps}"))

    margin_bad = [idx for idx, hole in enumerate(seed_holes)
                  if min(hole.points.min(),
                         ((1.0 - hole.points.sum(axis=1)) / math.sqrt(n)).min())
                  <= TAU_PT]
    checks.append(CheckResult(
        "holes_avoid_boundary", not margin_bad,
        "positive margin" if not margin_bad
        else f"holes touching the simplex boundary: {margin_bad}"))

    seed_vols = [_seed_volume(h) for h in seed_holes]
    empty = [idx for idx, v in enumerate(seed_vols) if not v > 0.0]
    checks.append(CheckResult(
        "holes_have_volume", not empty,
        "positive volumes" if not empty else f"holes of no volume: {empty}"))

    if not flat and ifs.matrices:
        total = sum(abs(d) / (math.factorial(n) * float(np.prod(s)))
                    for d, s in zip(dets, sums))
        total += sum(seed_vols)
        target = 1.0 / math.factorial(n)
        gap = abs(total - target)
        cover_ok = gap <= TAU_REP * max(1.0, target)
        checks.append(CheckResult(
            "images_and_holes_cover", cover_ok,
            f"covered volume {total:.12g} vs simplex {target:.12g}"))

    return IfsValidationReport(checks)


def _seed_volume(hole: VertexSet) -> float:
    """A seed hole's volume by :func:`_measure_holes`; 0 for points that
    span no volume."""
    try:
        return float(_measure_holes(np.eye(hole.dim + 1)[None], np.ones(1), hole,
                                    hole.points[None])[0][0])
    except DegenerateInput:
        return 0.0


def _simplex_image(N) -> HalfspaceSystem:
    """The image {q : N^-1 lift(q) >= 0} of the simplex, for invertible N."""
    B = np.linalg.inv(N)
    return HalfspaceSystem(B[:, :1] - B[:, 1:], B[:, 0])


def _interiors_intersect(H1: HalfspaceSystem, H2: HalfspaceSystem) -> bool:
    (A1, b1, _), (A2, b2, _) = H1.unit_form(), H2.unit_form()
    _, radius = _chebyshev(np.vstack([A1, A2]), np.concatenate([b1, b2]))
    return radius > TAU_PT


def generate_holes(ifs: ProjectiveIFS, seed_holes: list[VertexSet],
                   max_depth: int) -> HoleTable:
    """All complement components down to word length ``max_depth``.

    The invariant-set identity pushes every seed hole through every word of
    maps, so the holes are exactly {N_w . hole} keyed by (word, seed).  Each
    depth is made and measured at once (see the module docstring).  With no
    seed holes the table has no depths.
    """
    if max_depth < 0:
        raise BadParameter("max_depth must be >= 0")
    report = validate_ifs(ifs, seed_holes)
    if not report.ok:
        names = ", ".join(c.name for c in report.violations())
        raise IfsValidationError(f"hypothesis checks failed: {names}")

    table = HoleTable(ifs.n, list(ifs.labels), [], [], [])
    for depth, (level, dets) in enumerate(_word_levels(ifs, max_depth)):
        images = [_chart_images(level, seed.points) if depth else seed.points[None]
                  for seed in seed_holes]
        if not images:
            continue
        vols, inrs = (np.stack(m, axis=1)                      # (words, seeds)
                      for m in zip(*(_measure_holes(level, dets, seed, pts)
                                     for seed, pts in zip(seed_holes, images))))
        bad = np.argwhere(~((vols > 0) & (inrs > 0)))
        if bad.size:
            w, seed_idx = bad[0]
            word = list(itertools.product(ifs.labels, repeat=depth))[w]
            raise DegenerateImage(f"hole {word}/{seed_idx} degenerated under the maps")
        table.points.append(images)
        table.volume.append(vols)
        table.inradius.append(inrs)
    return table


def _word_levels(ifs: ProjectiveIFS, max_depth: int):
    """Word products by word length 0..max_depth, one stack per length, each
    with the determinants of its products.

    Level m holds N_w for every length-m word w in label order, made as one
    stacked matmul of level m-1 with every matrix.  (``einsum`` sums in
    another order and moves hole ends by an ulp.)  det N_w is the product of
    its letters' determinants, each taken once: ``np.linalg.det(N_w)``
    cancels as the difference of the images does.  The word cap is checked
    before the first level is made.
    """
    J = len(ifs.matrices)
    if J and J ** max_depth > _WORD_CAP:
        raise BadParameter("word tree too large at this depth")
    level, dets = np.eye(ifs.n + 1)[None], np.ones(1)
    yield level, dets
    if not J:
        return
    stack = np.stack(ifs.matrices)
    letters = np.array([np.linalg.det(M) for M in ifs.matrices])
    for _ in range(max_depth):
        level = (level[:, None] @ stack[None]).reshape(-1, *stack.shape[1:])
        dets = (dets[:, None] * letters).ravel()
        yield level, dets


def _measure_holes(level, dets, seed, images):
    """Volume and inradius of one seed's images (h, k, n) under the word
    products ``level`` (h, n+1, n+1), whose determinants are ``dets``.

    An interval [p, q] goes to one of length |det N_w| (q - p) /
    (sigma_w(p) sigma_w(q)), sigma_w(x) the coordinate sum of N_w (1 - x, x),
    and inradius half of that.  Its factors are products and sums of
    non-negative numbers, so it keeps full relative accuracy however short
    the hole (Higham, *Accuracy and Stability of Numerical Algorithms*,
    2002, ch. 3); a hole is degenerate iff its length is not positive.
    Above one dimension each image gets its hull.
    """
    if images.shape[2] > 1:
        hulls = [convex_hull(VertexSet(p)) for p in images]
        return (np.array([metrics.volume(h) for h in hulls]),
                np.array([h.cheb_radius for h in hulls]))
    p, q = seed.points.min(), seed.points.max()
    sigma = level.sum(axis=1) @ np.array([[1.0 - p, 1.0 - q], [p, q]])
    vol = np.abs(dets) * (q - p) / (sigma[:, 0] * sigma[:, 1])
    return vol, vol / 2.0


def hole_series(holes: HoleTable, s: float) -> SeriesTable:
    """T_m(s) = sum over depth-m holes of vol * inradius^(s - n)."""
    per = _hole_sums(holes, s)
    return SeriesTable(depths=np.arange(len(per)), per_depth=per,
                       cumulative=np.cumsum(per))


def _hole_sums(holes, s):
    """The terms T_m(s) of :func:`hole_series`, one per depth of the table."""
    return np.array([float(np.sum(v * r ** (s - holes.n)))
                     for v, r in zip(holes.volume, holes.inradius)])


def critical_exponent(ifs: ProjectiveIFS, seed_holes: list[VertexSet],
                      max_depth: int, tol: float = 0.01,
                      holes: HoleTable | None = None) -> DimensionEstimate:
    """Critical s of the hole series, located by depth ratios + bisection.

    The growth ratio rho(s) = T_m(s) / T_{m-1}(s), averaged over the top
    three depths, separates divergence (rho > 1, s below the exponent)
    from convergence; bisection narrows [n-1, n] to the requested
    tolerance.  When rho never crosses 1 the estimate clamps to the
    corresponding end of the interval and says so in the flags.  The terms
    are those of :func:`hole_series`.
    """
    if not tol > 0:
        raise BadParameter("tol must be positive")
    if holes is None:
        holes = generate_holes(ifs, seed_holes, max_depth)
    if not holes.volume:
        raise BadParameter("no hole records provided")
    if len(holes.volume) < 4:
        raise BadParameter("need at least depth 3 for the ratio test")
    return _exponent_from_sums(lambda s: _hole_sums(holes, s),
                               np.arange(len(holes.volume)), ifs.n, tol)


def _exponent_from_sums(sums, depths, n, tol) -> DimensionEstimate:
    """Critical s of a series whose terms at ``depths`` are the array ``sums(s)``."""
    lo, hi = float(n - 1), float(n)

    def ratios(s):
        per = sums(s)
        return per[-3:] / per[-4:-1]

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
    table = np.array([sums(s) for s in s_grid])          # (s, depths)
    partial = {
        "s_grid": s_grid.tolist(),
        "depths": depths.tolist(),
        "cumulative": np.cumsum(table, axis=1).T.tolist(),
    }
    return DimensionEstimate(s_star=float(s_star), max_depth=int(depths[-1]),
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
    return [_norms_of(level, norm) for level, _ in levels]


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
    per = _norm_sums(_word_norms(ifs, max_depth, norm), s, ifs.n)
    return SeriesTable(depths=np.arange(1, max_depth + 1), per_depth=per,
                       cumulative=np.cumsum(per))


def _norm_sums(word_norms, s, n):
    """The terms U_m(s) of :func:`norm_series` from its per-length norms."""
    expo = -(n + 1) / n * s
    return np.array([float(np.sum(w ** expo)) for w in word_norms])


def _require_unimodular(ifs):
    for lab, M in zip(ifs.labels, ifs.matrices):
        if abs(abs(float(np.linalg.det(M))) - 1.0) > 1e-6:
            raise BadParameter(
                f"matrix {lab} is not unimodular; normalize_unimodular first")


def norm_series_exponent(ifs: ProjectiveIFS, max_depth: int, tol: float = 0.01,
                         norm: str = "spectral") -> DimensionEstimate:
    """Critical s of the word-norm series (lower bound on the dimension).

    The matrices are normalized to determinant +/-1 first; the terms are
    those of :func:`norm_series` on the normalized system.
    """
    if not tol > 0:
        raise BadParameter("tol must be positive")
    if max_depth < 4:
        raise BadParameter("need max_depth >= 4 for the ratio test")
    word_norms = _word_norms(normalize_unimodular(ifs), max_depth, norm)
    est = _exponent_from_sums(lambda s: _norm_sums(word_norms, s, ifs.n),
                              np.arange(1, max_depth + 1), ifs.n, tol)
    est.flags.append(f"norm={norm}")
    return est


def box_counting_dimension(ifs: ProjectiveIFS, seed_holes: list[VertexSet],
                           depth: int, resolutions,
                           holes: HoleTable | None = None) -> float:
    """Grid box-counting slope of the simplex minus the explicit holes.

    Counts half-open grid cells meeting the chart simplex that are not
    fully inside any open hole, then fits log N against log(1/delta) by
    least squares.  The finest resolution must stay at or above the scale
    of the deepest generated holes (checked through the smallest inradius):
    below that scale the truncated approximation has no structure left and
    the counts drift towards the ambient dimension.  Above one dimension
    each hole's hull is made once, before the resolutions are counted.
    """
    res = np.asarray(resolutions, dtype=float)
    if res.size < 3 or not (np.all(np.diff(res) < 0) and np.all(np.isfinite(res))
                            and np.all(res > 0)):
        raise BadParameter(
            "resolutions must be >= 3 strictly decreasing finite positives")
    if holes is None:
        holes = generate_holes(ifs, seed_holes, depth)
    if holes and ifs.matrices:
        min_in = float(holes.inradius[-1].min())
        if res[-1] < min_in * (1.0 - 1e-9):
            raise InsufficientDepth(
                f"finest resolution {res[-1]:.3g} lies below the "
                f"depth-{len(holes.inradius) - 1} hole scale (smallest inradius "
                f"{min_in:.3g}); generate deeper or coarsen the grid")

    images = [pts for level in holes.points for pts in level]
    if ifs.n == 1:
        lo = np.concatenate([np.empty(0)] + [p.min(axis=(1, 2)) for p in images])
        hi = np.concatenate([np.empty(0)] + [p.max(axis=(1, 2)) for p in images])
        counts = [_count_boxes_1d(lo, hi, float(d)) for d in res]
    else:
        hulls = [(convex_hull(VertexSet(p)), p.min(axis=0), p.max(axis=0))
                 for stack in images for p in stack]
        counts = [_count_boxes_nd(ifs.n, hulls, float(d)) for d in res]
    slope, _ = np.polyfit(np.log(1.0 / res), np.log(np.asarray(counts, float)), 1)
    return float(slope)


def _snap(q):
    """q, or the integer nearest to it when within 1e-6 (ties to even)."""
    qi = np.round(q)
    return np.where(np.abs(q - qi) <= 1e-6, qi, q)


def _count_boxes_1d(lo, hi, delta):
    interior = np.floor(_snap(hi / delta)) - np.floor(_snap(lo / delta)) - 1
    return _cells_per_axis(delta) - int(np.maximum(interior, 0.0).sum())


def _cells_per_axis(delta):
    """Half-open grid cells of side delta that meet [0, 1]."""
    return math.floor(_snap(1.0 / delta)) + 1


def _grid_too_fine(n, delta):
    """True when the box-counting grid at delta has more than _CELL_CAP cells."""
    return _cells_per_axis(delta) ** n > _CELL_CAP


def _count_boxes_nd(n, hulls, delta):
    """Cells of side delta meeting the simplex and inside no hole, each hole
    given as (hull, lower corner, upper corner) of its points."""
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
    for hull, lo, hi in hulls:
        # candidates: the cells with upper >= lo - delta and lower <= hi on
        # every axis, which is one index range per axis
        first = np.searchsorted(upper, lo - delta, side="left")
        stop = np.searchsorted(lower, hi, side="right")
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
    base = VertexSet([[0.0], [1.0]])
    spans = sorted((float(img.min()), float(img.max()))
                   for img in (image_polytope(M, base).points for M in ifs.matrices))
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
