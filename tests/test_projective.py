import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import inbody as ib
from inbody import lp
from inbody.errors import (
    BadParameter,
    DegenerateImage,
    IfsValidationError,
    InsufficientDepth,
    SolverFailure,
    Unstable,
)

LOG2_OVER_LOG3 = math.log(2) / math.log(3)


def mobius_left(t):
    """Independent oracle for the first middle-thirds map."""
    return t / 3.0


def mobius_right(t):
    """Independent oracle for the second middle-thirds map."""
    return (t + 2.0) / 3.0


class TestProjectiveIFS:
    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf])
    def test_non_finite_entries_rejected(self, entry):
        with pytest.raises(BadParameter, match="finite"):
            ib.ProjectiveIFS(1, [np.array([[entry, 2.0], [0.0, 1.0]]),
                                 np.array([[1.0, 0.0], [2.0, 3.0]])])


class TestApplyProjective:
    """The projective action on one chart point, as an image_polytope of one
    vertex."""

    def test_identity(self):
        p = np.array([[0.2, 0.3]])
        out = ib.image_polytope(np.eye(3), ib.VertexSet(p))
        assert out.points == pytest.approx(p)

    @pytest.mark.parametrize("t", [0.0, 0.25, 1 / 3, 0.5, 1.0])
    def test_left_map_is_divide_by_three(self, t):
        ifs, _ = ib.middle_thirds_ifs()
        out = ib.image_polytope(ifs.matrices[0], ib.VertexSet([[t]]))
        assert out.points[0, 0] == pytest.approx(mobius_left(t), abs=1e-14)

    @pytest.mark.parametrize("t", [0.0, 0.25, 1 / 3, 0.5, 1.0])
    def test_right_map_shifts_then_divides(self, t):
        ifs, _ = ib.middle_thirds_ifs()
        out = ib.image_polytope(ifs.matrices[1], ib.VertexSet([[t]]))
        assert out.points[0, 0] == pytest.approx(mobius_right(t), abs=1e-14)

    def test_collapsed_image_rejected(self):
        # kills the complementary coordinate; at t = 0 the image sum vanishes
        N = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateImage):
            ib.image_polytope(N, ib.VertexSet([[0.0]]))
        with pytest.raises(DegenerateImage):
            ib.image_polytope(N, ib.VertexSet([[0.0], [0.5]]))


class TestImagePolytope:
    def test_identity(self):
        body = ib.VertexSet([[0.1, 0.2], [0.3, 0.1], [0.2, 0.4]])
        out = ib.image_polytope(np.eye(3), body)
        assert out.points == pytest.approx(body.points)

    def test_left_map_on_full_interval(self):
        ifs, _ = ib.middle_thirds_ifs()
        out = ib.image_polytope(ifs.matrices[0], ib.VertexSet([[0.0], [1.0]]))
        assert sorted(out.points.ravel()) == pytest.approx([0.0, 1 / 3])

    def test_right_map_on_gap(self):
        ifs, seeds = ib.middle_thirds_ifs()
        out = ib.image_polytope(ifs.matrices[1], seeds[0])
        assert sorted(out.points.ravel()) == pytest.approx([7 / 9, 8 / 9])

    def test_word_functoriality(self):
        ifs, seeds = ib.middle_thirds_ifs()
        Na, Nb = ifs.matrices
        one_by_one = ib.image_polytope(Na, ib.image_polytope(Nb, seeds[0]))
        product = ib.image_polytope(Na @ Nb, seeds[0])
        assert one_by_one.points == pytest.approx(product.points, abs=1e-12)


class TestValidateIfs:
    def test_middle_thirds_passes(self):
        ifs, seeds = ib.middle_thirds_ifs()
        report = ib.validate_ifs(ifs, seeds)
        assert report.ok
        assert [c.name for c in report.checks] == [
            "injective_matrices", "nonnegative_entries",
            "disjoint_image_interiors", "holes_avoid_boundary",
            "holes_have_volume", "images_and_holes_cover"]

    def test_identical_maps_overlap(self):
        ifs, seeds = ib.middle_thirds_ifs()
        bad = ib.ProjectiveIFS(1, [ifs.matrices[0], ifs.matrices[0]])
        report = ib.validate_ifs(bad, seeds)
        names = {c.name for c in report.violations()}
        assert "disjoint_image_interiors" in names

    def test_solver_failure_propagates(self, monkeypatch):
        # a failed overlap LP is not read as disjoint interiors
        ifs, seeds = ib.middle_thirds_ifs()

        def fail(*args, **kwargs):
            raise SolverFailure("pivot cap exceeded")

        monkeypatch.setattr(lp, "solve_lp", fail)
        with pytest.raises(SolverFailure) as info:
            ib.validate_ifs(ifs, seeds)
        assert any(e.name == "_interiors_intersect" for e in info.traceback)

    def test_hole_touching_boundary_flagged(self):
        ifs, _ = ib.middle_thirds_ifs()
        report = ib.validate_ifs(ifs, [ib.VertexSet([[0.0], [1 / 3]])])
        names = {c.name for c in report.violations()}
        assert "holes_avoid_boundary" in names

    @pytest.mark.parametrize("vertices, ok", [
        ([[0.5, 0.5], [0.3, 0.3], [0.4, 0.2]], False),        # on sum p = 1
        ([[0.0, 0.3], [0.3, 0.3], [0.2, 0.5]], False),        # on p_1 = 0
        ([[5e-4, 0.3], [0.3, 0.3], [0.3, 0.7 - 5e-4 * math.sqrt(2)]], True),
    ])
    def test_plane_hole_margin(self, vertices, ok):
        # the last triangle is 5e-4 inside both p_1 = 0 and sum p = 1
        ifs = ib.ProjectiveIFS(2, [np.eye(3)])
        report = ib.validate_ifs(ifs, [ib.VertexSet(vertices)])
        margin = [c for c in report.checks if c.name == "holes_avoid_boundary"]
        assert [c.ok for c in margin] == [ok]

    def test_seed_of_another_dimension_refused(self):
        ifs = ib.ProjectiveIFS(2, [np.eye(3)])
        with pytest.raises(ib.DimensionMismatch):
            ib.validate_ifs(ifs, [ib.VertexSet([[0.4], [0.6]])])

    @pytest.mark.parametrize("n", [1, 2])
    def test_singular_matrix_reported(self, n):
        # a rank-n matrix flattens the simplex image; the report says so
        if n == 1:
            mats = [[[1, 1], [1, 1]], [[1, 0], [2, 3]]]
            seed = [[0.4], [0.6]]
        else:
            mats = [[[1, 1, 1], [1, 1, 1], [0, 0, 1]], np.eye(3)]
            seed = [[0.2, 0.2], [0.3, 0.2], [0.2, 0.3]]
        ifs = ib.ProjectiveIFS(n, [np.array(M, dtype=float) for M in mats])
        report = ib.validate_ifs(ifs, [ib.VertexSet(seed)])
        assert [c.name for c in report.violations()] == [
            "injective_matrices", "simplex_images"]
        with pytest.raises(IfsValidationError, match="injective_matrices"):
            ib.generate_holes(ifs, [ib.VertexSet(seed)], 2)

    def test_zero_column_sum_reported(self):
        # invertible, but e_1 goes to a zero coordinate sum: no simplex image
        ifs = ib.ProjectiveIFS(1, [np.array([[1.0, -1.0], [0.0, 1.0]]), np.eye(2)])
        report = ib.validate_ifs(ifs, [ib.VertexSet([[0.4], [0.6]])])
        assert [c.name for c in report.violations()] == [
            "nonnegative_entries", "simplex_images"]

    def test_generation_refuses_on_violation(self):
        ifs, _ = ib.middle_thirds_ifs()
        with pytest.raises(IfsValidationError):
            ib.generate_holes(ifs, [ib.VertexSet([[0.0], [1 / 3]])], 2)

    @pytest.mark.parametrize("factory", [
        ib.middle_thirds_ifs, lambda: _two_seed_ifs(), lambda: _quarter_grid_ifs()],
        ids=["thirds", "two-seed", "quarter-grid"])
    def test_image_hform_has_the_hull_vertices(self, factory):
        from inbody.projective import _simplex_image
        ifs, _ = factory()
        simplex = ib.VertexSet(np.vstack([np.zeros(ifs.n), np.eye(ifs.n)]))
        for M in ifs.matrices:
            got = ib.vertex_enumeration(ib.validate_body(_simplex_image(M))).points
            want = ib.vertex_enumeration(ib.convex_hull(ib.image_polytope(M, simplex))).points
            assert got.shape == want.shape == simplex.points.shape
            assert np.allclose(_lexsorted(got), _lexsorted(want), rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("factory, hulls", [
        (ib.middle_thirds_ifs, 0), (lambda: _two_seed_ifs(), 0),
        (lambda: _quarter_grid_ifs(), 1)], ids=["thirds", "two-seed", "quarter-grid"])
    def test_images_get_no_hull(self, factory, hulls, monkeypatch):
        # only a seed hole above one dimension is measured by its hull
        from inbody import projective
        calls = []
        hull = projective.convex_hull
        monkeypatch.setattr(projective, "convex_hull", lambda V: calls.append(V) or hull(V))
        ifs, seeds = factory()
        assert ib.validate_ifs(ifs, seeds).ok
        assert len(calls) == hulls

    @pytest.mark.parametrize("n, seed", [
        (1, [[0.5], [0.5]]), (2, [[0.2, 0.2], [0.3, 0.3], [0.4, 0.4]])], ids=["1d", "2d"])
    def test_seed_of_no_volume_named(self, n, seed):
        # the halves of the interval, or the identity, cover the simplex, so
        # only the seed's own volume shows that it is no hole
        mats = [[[2, 1], [0, 1]], [[1, 0], [1, 2]]] if n == 1 else [np.eye(3)]
        ifs = ib.ProjectiveIFS(n, [np.array(M, dtype=float) for M in mats])
        report = ib.validate_ifs(ifs, [ib.VertexSet(seed)])
        assert [(c.name, c.detail) for c in report.violations()] == [
            ("holes_have_volume", "holes of no volume: [0]")]
        with pytest.raises(IfsValidationError, match="holes_have_volume"):
            ib.generate_holes(ifs, [ib.VertexSet(seed)], 2)

    def test_wrong_cover_flagged(self):
        # declaring only half the gap leaves uncovered volume
        ifs, _ = ib.middle_thirds_ifs()
        report = ib.validate_ifs(ifs, [ib.VertexSet([[1 / 3], [1 / 2]])])
        names = {c.name for c in report.violations()}
        assert "images_and_holes_cover" in names


class TestGenerateHoles:
    def test_depth_zero_is_seed(self):
        ifs, seeds = ib.middle_thirds_ifs()
        holes = list(ib.generate_holes(ifs, seeds, 0))
        assert len(holes) == 1
        assert holes[0].word == ()
        assert sorted(holes[0].body.points.ravel()) == pytest.approx([1 / 3, 2 / 3])

    def test_depth_one_three_gaps(self):
        ifs, seeds = ib.middle_thirds_ifs()
        holes = ib.generate_holes(ifs, seeds, 1)
        spans = sorted((h.body.points.min(), h.body.points.max()) for h in holes)
        assert np.allclose(spans, [(1 / 9, 2 / 9), (1 / 3, 2 / 3), (7 / 9, 8 / 9)])

    @pytest.mark.parametrize("depth", [2, 4, 6])
    def test_counts_and_lengths(self, depth):
        ifs, seeds = ib.middle_thirds_ifs()
        holes = ib.generate_holes(ifs, seeds, depth)
        assert len(holes) == 2 ** (depth + 1) - 1
        for m in range(depth + 1):
            gen = [h for h in holes if h.depth == m]
            assert len(gen) == 2 ** m
            for h in gen:
                assert h.volume == pytest.approx(3.0 ** -(m + 1), rel=1e-12)
                assert h.inradius == pytest.approx(3.0 ** -(m + 1) / 2, rel=1e-12)
        # the gap given by three points, its midpoint among them, is the
        # same interval
        three = ib.generate_holes(ifs, [ib.VertexSet([[1 / 3], [1 / 2], [2 / 3]])],
                                  depth)
        for got, want in ((three.volume, holes.volume),
                          (three.inradius, holes.inradius)):
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))

    def test_holes_pairwise_disjoint_and_bounded_total(self):
        ifs, seeds = ib.middle_thirds_ifs()
        holes = ib.generate_holes(ifs, seeds, 5)
        spans = sorted((h.body.points.min(), h.body.points.max()) for h in holes)
        for (a1, b1), (a2, b2) in zip(spans, spans[1:]):
            assert b1 <= a2 + 1e-12
        assert sum(h.volume for h in holes) <= 1.0 + ib.TAU_REP

    def test_random_pairs_disjoint_by_lp(self):
        from inbody.projective import _interiors_intersect
        ifs, seeds = ib.middle_thirds_ifs()
        holes = list(ib.generate_holes(ifs, seeds, 4))
        rng = np.random.default_rng(31)
        hulls = [ib.convex_hull(h.body) for h in holes]
        for _ in range(40):
            i, j = rng.choice(len(hulls), size=2, replace=False)
            assert not _interiors_intersect(hulls[i], hulls[j])

    @pytest.mark.parametrize("other, overlap", [
        ([2.0, 3.0], False),   # disjoint: the Chebyshev radius is negative
        ([1.0, 2.0], False),   # touching along an edge: radius 0
        ([0.5, 1.5], True),    # overlapping: radius 1/4
    ])
    def test_interiors_intersect(self, other, overlap):
        from inbody.projective import _interiors_intersect
        lo, hi = other
        A = np.vstack([np.eye(2), -np.eye(2)])
        unit = ib.HalfspaceSystem(A, [1.0, 1.0, 0.0, 0.0])
        moved = ib.HalfspaceSystem(A, [hi, 1.0, -lo, 0.0])
        assert _interiors_intersect(unit, moved) is overlap
        assert _interiors_intersect(moved, unit) is overlap

    def test_boundary_avoidance_propagates(self):
        ifs, seeds = ib.middle_thirds_ifs()
        for h in ib.generate_holes(ifs, seeds, 6):
            assert h.body.points.min() > ib.TAU_PT
            assert h.body.points.max() < 1.0 - ib.TAU_PT


    def test_two_seeds_order_and_exact_ends(self):
        mats, gaps = _TWO_SEED_MATS, _TWO_SEED_GAPS
        ifs, seeds = _two_seed_ifs()
        depth = 4
        holes = ib.generate_holes(ifs, seeds, depth)
        expected = [(word, k) for m in range(depth + 1)
                    for word in itertools.product("abc", repeat=m)
                    for k in range(len(seeds))]
        assert [(h.word, h.seed_index) for h in holes] == expected

        def mobius(M, t):
            top = M[1][0] * (1 - t) + M[1][1] * t
            return top / (top + M[0][0] * (1 - t) + M[0][1] * t)

        by_label = dict(zip("abc", mats))
        for h in holes:
            ends = []
            for t in gaps[h.seed_index]:
                for lab in reversed(h.word):
                    t = mobius(by_label[lab], t)
                ends.append(float(t))
            assert h.body.points.ravel() == pytest.approx(ends, rel=1e-14, abs=0.0)
            assert h.volume == pytest.approx(abs(ends[1] - ends[0]), rel=1e-13)

    def test_depth_sixteen_memory(self):
        # the table is three float arrays per depth; one record and one
        # VertexSet per hole took 72 MB here
        ifs, seeds = ib.middle_thirds_ifs()
        tracemalloc.start()
        try:
            holes = ib.generate_holes(ifs, seeds, 16)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(holes) == 2 ** 17 - 1
        assert peak < 16e6

    def test_pinned_branches_run_past_the_old_collapse(self):
        # branches pinned near t = 1 shrink their holes by K per level; from
        # depth 6 the two ends of some holes are one float, but every length
        # keeps full relative accuracy
        K = 1000
        mats = [[[K, K - 1], [0, 1]], [[1, 0], [K - 1, K]]]
        gap = (Fraction(1, K), Fraction(K - 1, K))
        ifs, seeds = _interval_system(mats, gap)
        holes = ib.generate_holes(ifs, seeds, 8)
        assert len(holes) == 2 ** 9 - 1
        assert _worst_relative_error(holes.volume, _exact_lengths(mats, gap, 8)) <= 1e-13

    @pytest.mark.parametrize("mats, error", [
        # the thirds leave their gap uncovered; the halves cover the
        # interval, and the seed itself is refused for having no volume
        ([[[3, 2], [0, 1]], [[1, 0], [2, 3]]], IfsValidationError),
        ([[[2, 1], [0, 1]], [[1, 0], [1, 2]]], IfsValidationError),
    ], ids=["thirds", "halves"])
    def test_coinciding_seed_ends_raise_typed_errors(self, mats, error):
        ifs = ib.ProjectiveIFS(1, [np.array(M, dtype=float) for M in mats])
        with pytest.raises(error):
            ib.generate_holes(ifs, [ib.VertexSet([[0.5], [0.5]])], 3)

    def test_plane_quarter_grid_closed_form(self):
        # 15 maps of ratio 1/4 onto the triangles of the chart's 1/4 grid
        # around the interior seed triangle; every depth-1 hole is the seed
        # shrunk by 4
        ifs, seeds = _quarter_grid_ifs()
        holes = ib.generate_holes(ifs, seeds, 1)
        assert [h.word for h in holes] == [()] + [(lab,) for lab in ifs.labels]
        for h in holes:
            side = 0.25 / 4 ** h.depth
            assert h.volume == pytest.approx(side ** 2 / 2, rel=1e-12)
            assert h.inradius == pytest.approx(side * (2 - math.sqrt(2)) / 2,
                                               rel=1e-9)

    @pytest.mark.parametrize("factory", [ib.middle_thirds_ifs, ib.parabolic_ifs,
                                         lambda: _conjugated(ib.parabolic_ifs, 0.7)])
    def test_matches_per_hole_reference(self, factory):
        # the conjugated system has non-integer word products, so the order
        # in which they are summed shows in the ends; the lengths are the
        # exact lengths of the float inputs within 9.7e-16 relative, where
        # the difference of the ends cancels
        ifs, seeds = factory()
        depth = 7
        by_label = dict(zip(ifs.labels, ifs.matrices))
        holes = ib.generate_holes(ifs, seeds, depth)
        assert len(holes) == 2 ** (depth + 1) - 1
        for h in holes:
            seed = seeds[h.seed_index]
            if h.word:
                P = functools.reduce(lambda P, lab: P @ by_label[lab], h.word,
                                     np.eye(ifs.n + 1))
                body = ib.image_polytope(P, seed)
            else:
                body = seed
            assert np.array_equal(h.body.points, body.points)
            assert h.inradius == h.volume / 2.0
        exact = _exact_lengths(ifs.matrices, seeds[0].points.ravel(), depth)
        assert _worst_relative_error(holes.volume, exact) <= 2e-15


# maps onto [0, 1/5], [2/5, 3/5] and [4/5, 1] leave two seed gaps
_TWO_SEED_MATS = [[[5, 4], [0, 1]], [[3, 2], [2, 3]], [[1, 0], [4, 5]]]
_TWO_SEED_GAPS = [(Fraction(1, 5), Fraction(2, 5)), (Fraction(3, 5), Fraction(4, 5))]


def _two_seed_ifs():
    ifs = ib.ProjectiveIFS(1, [np.array(M, dtype=float) for M in _TWO_SEED_MATS],
                           ["a", "b", "c"])
    return ifs, [ib.VertexSet([[float(a)], [float(b)]]) for a, b in _TWO_SEED_GAPS]


def _quarter_grid_ifs():
    def affine(a1, a2, c):
        # x -> a + c x on the chart, as a matrix with unit column sums
        r = 1 - a1 - a2
        return np.array([[r, r - c, r - c], [a1, a1 + c, a1], [a2, a2, a2 + c]])

    mats = [affine(i / 4, j / 4, 0.25) for i in range(4) for j in range(4 - i)
            if (i, j) != (1, 1)]
    mats += [affine((i + 1) / 4, (j + 1) / 4, -0.25)
             for i in range(3) for j in range(3 - i)]
    seeds = [ib.VertexSet([[0.25, 0.25], [0.5, 0.25], [0.25, 0.5]])]
    return ib.ProjectiveIFS(2, mats), seeds


def _conjugated(factory, d):
    """A shipped system seen through the chart map t -> d t / (1 - t + d t)."""
    ifs, seeds = factory()
    D = np.diag([1.0, d])
    mats = [D @ M @ np.diag([1.0, 1.0 / d]) for M in ifs.matrices]
    seeds = [ib.VertexSet(d * s.points / (1.0 - s.points + d * s.points))
             for s in seeds]
    return ib.ProjectiveIFS(1, mats, list(ifs.labels)), seeds


def _interval_system(mats, gap):
    """An interval system and its seed gap in floats, from exact entries."""
    ifs = ib.ProjectiveIFS(1, [np.array(M, dtype=float) for M in mats])
    return ifs, [ib.VertexSet([[float(gap[0])], [float(gap[1])]])]


def _exact_conjugate(mats, d):
    """D N D^-1 with D = diag(1, d) in exact arithmetic, and the seed gap
    (1/3, 2/3) seen through the chart map t -> d t / (1 - t + d t)."""
    exact = [[[Fraction(M[0][0]), Fraction(M[0][1]) / d],
              [Fraction(M[1][0]) * d, Fraction(M[1][1])]] for M in mats]
    gap = tuple(d * t / (1 - t + d * t) for t in (Fraction(1, 3), Fraction(2, 3)))
    return exact, gap


def _exact_lengths(mats, gap, depth):
    """Exact lengths of an interval system's holes down to ``depth``, per
    depth in the table's word order, as (numerators, denominators).

    Each rational matrix is scaled to integer entries (the action is the
    same), and the gap's ends p = P / D lift to the integer vectors
    (D - P, P), which go through every word in integers.  A hole whose ends
    went to u and v has length |u_0 v_1 - u_1 v_0| / ((u_0 + u_1)(v_0 + v_1)).
    """
    ints = []
    for M in mats:
        entries = [Fraction(x) for row in M for x in row]
        k = math.lcm(*(x.denominator for x in entries))
        ints.append(np.array([int(x * k) for x in entries], dtype=object).reshape(2, 2))
    ends = [Fraction(t) for t in gap]
    x = np.array([[[e.denominator - e.numerator, e.numerator] for e in ends]],
                 dtype=object)                                  # (words, end, 2)
    lengths = []
    for d in range(depth + 1):
        u, v = x[:, 0], x[:, 1]
        lengths.append((np.abs(u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]),
                        (u[:, 0] + u[:, 1]) * (v[:, 0] + v[:, 1])))
        if d < depth:
            # a first letter N_j in front of every word v: N_j N_v
            x = np.concatenate([x @ N.T for N in ints])
    return lengths


def _worst_relative_error(volumes, exact):
    """Largest |got - exact| / exact over a table's volumes, in integers."""
    worst = 0.0
    for got, (num, den) in zip(volumes, exact):
        for g, a, b in zip(got.ravel().tolist(), num.tolist(), den.tolist()):
            m, e = g.as_integer_ratio()
            worst = max(worst, abs(m * b - a * e) / (a * e))
    return worst


def _table_of_one_hole_per_depth(volumes, inradii):
    """One interval hole at each depth of a one-map system, with the given
    volumes and inradii."""
    return ib.HoleTable(n=1, labels=["a"],
                        points=[[np.array([[[0.4], [0.6]]])] for _ in volumes],
                        volume=[np.array([[v]]) for v in volumes],
                        inradius=[np.array([[r]]) for r in inradii])


class TestHoleSeries:
    def test_exponent_zero_sums_volumes(self):
        ifs, seeds = ib.middle_thirds_ifs()
        holes = ib.generate_holes(ifs, seeds, 4)
        tab = ib.hole_series(holes, s=1.0)
        assert tab.per_depth[0] == pytest.approx(1 / 3)
        assert tab.cumulative[-1] <= 1.0

    @pytest.mark.parametrize("s", [0.2, 0.5, LOG2_OVER_LOG3, 0.9])
    def test_closed_form_ratio(self, s):
        # T_m(s) = 2^m 3^{-(m+1)} (3^{-(m+1)}/2)^{s-1}; ratio = 2 * 3^{-s}
        ifs, seeds = ib.middle_thirds_ifs()
        holes = ib.generate_holes(ifs, seeds, 6)
        tab = ib.hole_series(holes, s=s)
        ratios = tab.per_depth[1:] / tab.per_depth[:-1]
        assert ratios == pytest.approx(2 * 3.0 ** -s, rel=1e-9)
        closed = [2.0 ** m * 3.0 ** -(m + 1) * (3.0 ** -(m + 1) / 2) ** (s - 1)
                  for m in range(7)]
        assert tab.per_depth == pytest.approx(closed, rel=1e-9)

    def test_single_hole_inverse_inradius(self):
        table = _table_of_one_hole_per_depth([0.2], [0.1])
        tab = ib.hole_series(table, s=0.0)
        assert tab.per_depth[0] == pytest.approx(0.2 / 0.1)

    @pytest.mark.parametrize("factory, depth", [(ib.middle_thirds_ifs, 10),
                                                (_two_seed_ifs, 6),
                                                (_quarter_grid_ifs, 1)])
    def test_terms_match_the_record_view(self, factory, depth):
        # the same expression on each depth's holes, read one record at a
        # time in record order
        ifs, seeds = factory()
        holes = ib.generate_holes(ifs, seeds, depth)
        records = list(holes)
        for s in (ifs.n - 0.7, ifs.n - 0.5, float(ifs.n)):
            terms = []
            for m in range(depth + 1):
                vol = np.array([h.volume for h in records if h.depth == m])
                inr = np.array([h.inradius for h in records if h.depth == m])
                terms.append(float(np.sum(vol * inr ** (s - ifs.n))))
            assert np.array_equal(ib.hole_series(holes, s).per_depth, terms)

    def test_monotone_in_s(self):
        ifs, seeds = ib.middle_thirds_ifs()
        holes = ib.generate_holes(ifs, seeds, 5)
        vals = [ib.hole_series(holes, s).per_depth for s in (0.2, 0.5, 0.8)]
        for a, b in zip(vals, vals[1:]):
            assert np.all(b <= a + 1e-12)


class TestCriticalExponent:
    def test_middle_thirds_dimension(self):
        ifs, seeds = ib.middle_thirds_ifs()
        est = ib.critical_exponent(ifs, seeds, max_depth=8, tol=0.005)
        assert abs(est.s_star - LOG2_OVER_LOG3) <= 0.01
        assert est.bracket_width <= 0.005
        assert 0.0 <= est.s_star <= 1.0

    def test_partial_sums_table_shape(self):
        ifs, seeds = ib.middle_thirds_ifs()
        est = ib.critical_exponent(ifs, seeds, max_depth=5, tol=0.01)
        table = np.asarray(est.partial_sums["cumulative"])
        assert table.shape == (6, 11)
        # cumulative sums grow with depth
        assert np.all(np.diff(table, axis=0) >= 0)

    def test_partial_sums_are_hole_series_running_sums(self):
        ifs, seeds = ib.middle_thirds_ifs()
        holes = ib.generate_holes(ifs, seeds, 6)
        est = ib.critical_exponent(ifs, seeds, max_depth=6, tol=0.01, holes=holes)
        table = np.asarray(est.partial_sums["cumulative"])
        for j, s in enumerate(est.partial_sums["s_grid"]):
            assert np.array_equal(table[:, j], ib.hole_series(holes, s).cumulative)

    def test_flat_series_unstable(self):
        # identical terms at every depth: no decay signal anywhere
        ifs, _ = ib.middle_thirds_ifs()
        holes = _table_of_one_hole_per_depth([0.2] * 5, [0.1] * 5)
        with pytest.raises(Unstable):
            ib.critical_exponent(ifs, None, max_depth=4, tol=0.01, holes=holes)

    def test_geometric_halving_toy(self):
        # one hole per depth, scale halves each generation (vol and inradius):
        # T_m(s) = v r^{s-1} 2^{-ms}; converges for every s > 0 -> clamps low
        ifs, _ = ib.middle_thirds_ifs()
        holes = _table_of_one_hole_per_depth([0.2 * 0.5 ** m for m in range(6)],
                                             [0.1 * 0.5 ** m for m in range(6)])
        est = ib.critical_exponent(ifs, None, max_depth=5, tol=0.01, holes=holes)
        assert est.s_star == 0.0
        assert "clamped_lower" in est.flags


class TestNormalizeUnimodular:
    def test_determinants_become_unit(self):
        ifs, _ = ib.middle_thirds_ifs()
        uni = ib.normalize_unimodular(ifs)
        for M in uni.matrices:
            assert abs(np.linalg.det(M)) == pytest.approx(1.0, abs=1e-12)

    def test_already_unimodular_unchanged(self):
        ifs, _ = ib.parabolic_ifs()
        uni = ib.normalize_unimodular(ifs)
        for M0, M1 in zip(ifs.matrices, uni.matrices):
            assert M1 == pytest.approx(M0)

    def test_action_invariant_at_random_points(self):
        ifs, _ = ib.middle_thirds_ifs()
        uni = ib.normalize_unimodular(ifs)
        rng = np.random.default_rng(17)
        for t in rng.uniform(0, 1, size=100):
            before = ib.image_polytope(ifs.matrices[0], ib.VertexSet([[t]])).points
            after = ib.image_polytope(uni.matrices[0], ib.VertexSet([[t]])).points
            assert after == pytest.approx(before, abs=ib.TAU_PT)

    def test_singular_matrix_rejected(self):
        from inbody.errors import SingularMatrix
        ifs = ib.ProjectiveIFS(1, [np.array([[1.0, 1.0], [1.0, 1.0]])])
        with pytest.raises(SingularMatrix):
            ib.normalize_unimodular(ifs)


class TestNormSeries:
    def test_identity_matrix_unit_contribution(self):
        ifs = ib.ProjectiveIFS(1, [np.eye(2)])
        tab = ib.norm_series(ifs, s=1.0, max_depth=1)
        assert tab.per_depth[0] == pytest.approx(1.0)

    def test_first_level_spectral_norms(self):
        # ||[[3,2],[0,1]]|| = sqrt(7 + 2 sqrt(10)); after /sqrt(3) both
        # matrices share it, so U_1(s) = 2 (3 / (7 + 2 sqrt(10)))^s
        ifs, _ = ib.middle_thirds_ifs()
        uni = ib.normalize_unimodular(ifs)
        sigma2 = (7 + 2 * math.sqrt(10)) / 3.0
        for s in (0.5, 1.0):
            tab = ib.norm_series(uni, s=s, max_depth=1)
            assert tab.per_depth[0] == pytest.approx(2 * sigma2 ** -s, rel=1e-12)

    def test_requires_unimodular(self):
        ifs, _ = ib.middle_thirds_ifs()
        with pytest.raises(BadParameter):
            ib.norm_series(ifs, s=1.0, max_depth=2)

    def test_monotone_decreasing_in_s(self):
        ifs, _ = ib.parabolic_ifs()
        tabs = [ib.norm_series(ifs, s, 6).per_depth for s in (0.3, 0.6, 0.9)]
        for a, b in zip(tabs, tabs[1:]):
            assert np.all(b <= a + 1e-12)

    def test_norm_kinds(self):
        ifs, _ = ib.parabolic_ifs()
        for kind in ("spectral", "frobenius", "maxentry"):
            tab = ib.norm_series(ifs, 0.7, 4, norm=kind)
            assert np.all(tab.per_depth > 0)
        with pytest.raises(BadParameter):
            ib.norm_series(ifs, 0.7, 4, norm="nuclear")


class TestNormSeriesExponent:
    def test_middle_thirds_matches_hole_exponent(self):
        ifs, seeds = ib.middle_thirds_ifs()
        hole_est = ib.critical_exponent(ifs, seeds, max_depth=8, tol=0.01)
        norm_est = ib.norm_series_exponent(ifs, max_depth=8, tol=0.01)
        assert norm_est.s_star <= hole_est.s_star + 0.02

    def test_diagonal_pair_analytic_half(self):
        # two copies of diag(2, 1/2): U_m(s) = 2^m (2^m)^{-2s}, critical at 1/2
        M = np.diag([2.0, 0.5])
        ifs = ib.ProjectiveIFS(1, [M, M.copy()])
        est = ib.norm_series_exponent(ifs, max_depth=8, tol=0.005)
        assert est.s_star == pytest.approx(0.5, abs=0.01)

    def test_single_matrix_clamps_to_lower_end(self):
        ifs = ib.ProjectiveIFS(1, [np.diag([2.0, 0.5])])
        est = ib.norm_series_exponent(ifs, max_depth=6, tol=0.01)
        assert est.s_star == 0.0
        assert "clamped_lower" in est.flags


class TestBoxCounting:
    def test_middle_thirds_classical_dimension(self):
        ifs, seeds = ib.middle_thirds_ifs()
        holes = ib.generate_holes(ifs, seeds, 8)
        res = [3.0 ** -j for j in range(3, 10)]
        dim = ib.box_counting_dimension(ifs, seeds, 8, res, holes=holes)
        assert abs(dim - LOG2_OVER_LOG3) <= 0.05

    def test_covering_pair_full_dimension(self):
        # maps onto [0, 1/2] and [1/2, 1]: no holes, slope is the ambient 1
        ifs = ib.ProjectiveIFS(1, [np.array([[2.0, 1.0], [0.0, 1.0]]),
                                   np.array([[1.0, 0.0], [1.0, 2.0]])])
        holes = ib.generate_holes(ifs, [], 3)
        assert len(holes) == 0 and list(holes) == []
        res = [3.0 ** -j for j in range(2, 7)]
        dim = ib.box_counting_dimension(ifs, [], 3, res, holes=holes)
        assert abs(dim - 1.0) <= 0.05

    def test_single_hole_no_maps_full_dimension(self):
        ifs = ib.ProjectiveIFS(1, [])
        seeds = [ib.VertexSet([[0.4], [0.6]])]
        res = [2.0 ** -j for j in range(4, 10)]
        dim = ib.box_counting_dimension(ifs, seeds, 0, res)
        assert abs(dim - 1.0) <= 0.05

    def test_under_resolved_depth_rejected(self):
        ifs, seeds = ib.middle_thirds_ifs()
        res = [3.0 ** -j for j in range(3, 12)]  # finer than depth-2 holes
        with pytest.raises(InsufficientDepth):
            ib.box_counting_dimension(ifs, seeds, 2, res)

    def test_bad_resolutions_rejected(self):
        ifs, seeds = ib.middle_thirds_ifs()
        with pytest.raises(BadParameter):
            ib.box_counting_dimension(ifs, seeds, 2, [0.1, 0.2, 0.05])
        with pytest.raises(BadParameter):
            ib.box_counting_dimension(ifs, seeds, 2, [0.1, 0.05])

    @pytest.mark.parametrize("res", [
        [math.nan, 0.1, 0.01], [0.1, math.nan, 0.01], [0.1, 0.01, math.nan],
        [math.inf, 0.1, 0.01]])
    def test_non_finite_resolutions_rejected(self, res):
        ifs, seeds = ib.middle_thirds_ifs()
        with pytest.raises(BadParameter, match="finite"):
            ib.box_counting_dimension(ifs, seeds, 4, res)

    def test_grid_counts_on_plane_simplex(self):
        # 2-d chart simplex, delta = 1/4: cells with corner sums <= 1
        from inbody.projective import _count_boxes_nd
        assert _count_boxes_nd(2, [], 0.25) == 15


    @pytest.mark.parametrize("factory", [ib.middle_thirds_ifs, ib.parabolic_ifs])
    def test_interval_counts_match_per_hole_loop(self, factory):
        # the 3^-k ladder lands on the thirds holes' ends, so the snap acts
        from inbody.projective import _count_boxes_1d
        ifs, seeds = factory()
        holes = ib.generate_holes(ifs, seeds, 8)
        stacks = [p for level in holes.points for p in level]
        lo = np.concatenate([p.min(axis=(1, 2)) for p in stacks])
        hi = np.concatenate([p.max(axis=(1, 2)) for p in stacks])
        for k in range(1, 12):
            delta = 3.0 ** -k
            assert _count_boxes_1d(lo, hi, delta) == _boxes_1d_by_loop(holes, delta)

    @pytest.mark.parametrize("cells", [8, 16, 32])
    def test_plane_counts_match_full_scan(self, cells):
        from inbody.projective import _count_boxes_nd
        delta = 1.0 / cells
        rng = np.random.default_rng(cells)
        tris = [[[1 / 8, 1 / 8], [3 / 8, 1 / 8], [1 / 8, 3 / 8]],   # on grid lines
                [[0.30, 0.30], [0.55, 0.32], [0.33, 0.58]],
                [[0.05, 0.60], [0.30, 0.62], [0.06, 0.90]],
                [[0.60, 0.05], [0.90, 0.06], [0.62, 0.30]],
                [[0.26, 0.02], [0.74, 0.02], [0.26, 0.5]],   # holds a 1/8 cell
                [[0.2, 0.2], [0.2 + 1e-3, 0.2], [0.2, 0.2 + 1e-3]]]  # in one cell
        for _ in range(6):
            corner = rng.uniform(0.02, 0.6, size=2)
            tris.append(corner + rng.uniform(0.0, 0.3, size=(3, 2)))
        # every triangle a seed hole at depth 0
        holes = ib.HoleTable(n=2, labels=[],
                             points=[[np.array([t], dtype=float) for t in tris]],
                             volume=[np.ones((1, len(tris)))],
                             inradius=[np.ones((1, len(tris)))])
        hulls = [(ib.convex_hull(h.body), h.body.points.min(axis=0),
                  h.body.points.max(axis=0)) for h in holes]
        counts = _count_boxes_nd(2, hulls, delta)
        assert counts == _boxes_nd_by_scan(2, holes, delta)
        assert counts < _count_boxes_nd(2, [], delta)


    def test_plane_slope_matches_full_scan(self):
        # the hulls are made once for all resolutions
        ifs, seeds = _quarter_grid_ifs()
        holes = ib.generate_holes(ifs, seeds, 1)
        res = np.array([3.0 ** -k for k in (1, 2, 3)])
        counts = [_boxes_nd_by_scan(2, holes, d) for d in res]
        slope = np.polyfit(np.log(1.0 / res), np.log(np.asarray(counts, float)), 1)[0]
        assert ib.box_counting_dimension(ifs, seeds, 1, res, holes=holes) == slope


def _lexsorted(pts):
    return pts[np.lexsort(pts.T[::-1])]


def _snap_one(q):
    qi = round(q)
    return float(qi) if abs(q - qi) <= 1e-6 else q


def _boxes_1d_by_loop(holes, delta):
    """Half-open cells of the interval meeting no hole, one hole at a time."""
    total = math.floor(_snap_one(1.0 / delta)) + 1
    interior = 0
    for h in holes:
        a = float(h.body.points.min())
        b = float(h.body.points.max())
        interior += max(0, math.floor(_snap_one(b / delta))
                        - math.floor(_snap_one(a / delta)) - 1)
    return total - interior


def _boxes_nd_by_scan(n, holes, delta):
    """Cells meeting the simplex and inside no hole, every cell per hole."""
    per_axis = math.floor(_snap_one(1.0 / delta)) + 1
    axes = [np.arange(per_axis) * delta] * n
    mesh = np.meshgrid(*axes, indexing="ij")
    lower = np.stack([m.ravel() for m in mesh], axis=1)
    upper = lower + delta
    meets = np.all(upper > 1e-12, axis=1)
    meets &= np.maximum(lower, 0.0).sum(axis=1) <= 1.0 + 1e-12
    excluded = np.zeros(lower.shape[0], dtype=bool)
    corners = np.array(np.meshgrid(*[[0.0, 1.0]] * n, indexing="ij"))
    corners = corners.reshape(n, -1).T * delta
    for h in holes:
        hull = ib.convex_hull(h.body)
        lo = h.body.points.min(axis=0)
        hi = h.body.points.max(axis=0)
        cand = np.flatnonzero(
            np.all(upper >= lo - delta, axis=1) & np.all(lower <= hi, axis=1)
            & ~excluded)
        pts = lower[cand][:, None, :] + corners[None, :, :]
        inside = np.all(pts @ hull.A.T < hull.b - 1e-12, axis=(1, 2))
        excluded[cand[inside]] = True
    return int(np.count_nonzero(meets & ~excluded))


class TestAutoSeedHoles:
    def test_middle_thirds_gap_found(self):
        ifs, _ = ib.middle_thirds_ifs()
        seeds = ib.auto_seed_holes(ifs)
        assert len(seeds) == 1
        assert sorted(seeds[0].points.ravel()) == pytest.approx([1 / 3, 2 / 3])

    def test_three_affine_maps_out_of_order(self):
        # x -> a + (b - a) x onto [a, b] has unit column sums; the holes lie
        # at both ends and between the images, and each end is the column
        # ratio N[1, j] / (N[0, j] + N[1, j]) of its map, bit for bit
        mats = [np.array([[1.0 - a, 1.0 - b], [a, b]])
                for a, b in [(0.5, 0.6), (0.1, 0.3), (0.8, 0.9)]]
        lo, hi = ([M[1, j] / (M[0, j] + M[1, j]) for M in mats] for j in (0, 1))
        seeds = ib.auto_seed_holes(ib.ProjectiveIFS(1, mats))
        want = [[0.0, lo[1]], [hi[1], lo[0]], [hi[0], lo[2]], [hi[2], 1.0]]
        assert len(seeds) == len(want)
        for seed, ends in zip(seeds, want):
            assert np.array_equal(seed.points, np.array(ends)[:, None])

    def test_rejected_above_one_dimension(self):
        ifs = ib.ProjectiveIFS(2, [np.eye(3)])
        with pytest.raises(BadParameter):
            ib.auto_seed_holes(ifs)


class TestParabolicExample:
    def test_cross_estimator_agreement(self):
        ifs, seeds = ib.parabolic_ifs()
        assert ib.validate_ifs(ifs, seeds).ok
        holes = ib.generate_holes(ifs, seeds, 10)
        hole_est = ib.critical_exponent(ifs, seeds, 10, tol=0.01, holes=holes)
        norm_est = ib.norm_series_exponent(ifs, max_depth=10, tol=0.01)
        assert norm_est.s_star <= hole_est.s_star + 0.02
        assert 0.0 <= hole_est.s_star <= 1.0


_PARABOLIC_MATS = [[[1, 0], [2, 1]], [[1, 2], [0, 1]]]


class TestClosedFormLengths:
    """Interval holes far shorter than their distance from 0, where the
    difference of the ends cancels (by 3.7e-4 relative at depth 16 on the
    parabolic pair), against exact lengths."""

    def test_parabolic_runs_at_depth_twenty(self):
        # the shortest hole is 2.3e-16 long, next to an end at 0 or 1
        ifs, seeds = ib.parabolic_ifs()
        holes = ib.generate_holes(ifs, seeds, 20)
        assert len(holes) == 2 ** 21 - 1
        assert all(np.all(v > 0) for v in holes.volume)
        est = ib.critical_exponent(ifs, seeds, 20, tol=0.01, holes=holes)
        assert 0.0 < est.s_star < 1.0

    @pytest.mark.parametrize("mats, gap", [
        (_PARABOLIC_MATS, (Fraction(1, 3), Fraction(2, 3))),
        _exact_conjugate(_PARABOLIC_MATS, Fraction(7, 10)),
        _exact_conjugate(_PARABOLIC_MATS, Fraction(13, 10)),
    ], ids=["parabolic", "conjugated-0.7", "conjugated-1.3"])
    def test_depth_eighteen_lengths_are_exact(self, mats, gap):
        # measured worst: 7.6e-16, 1.9e-15 and 3.4e-15 relative; a
        # conjugated copy's float matrices and gap are its exact ones rounded
        ifs, seeds = _interval_system(mats, gap)
        holes = ib.generate_holes(ifs, seeds, 18)
        assert _worst_relative_error(holes.volume, _exact_lengths(mats, gap, 18)) <= 1e-13
