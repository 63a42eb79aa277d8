import functools
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import inbody as ib
from inbody import lp
from inbody.errors import (
    BadParameter,
    DegenerateInput,
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


class TestApplyProjective:
    def test_identity(self):
        p = np.array([0.2, 0.3])
        out = ib.apply_projective(np.eye(3), p)
        assert out == pytest.approx(p)

    @pytest.mark.parametrize("t", [0.0, 0.25, 1 / 3, 0.5, 1.0])
    def test_left_map_is_divide_by_three(self, t):
        ifs, _ = ib.middle_thirds_ifs()
        out = ib.apply_projective(ifs.matrices[0], [t])
        assert out[0] == pytest.approx(mobius_left(t), abs=1e-14)

    @pytest.mark.parametrize("t", [0.0, 0.25, 0.5, 1.0])
    def test_right_map_shifts_then_divides(self, t):
        ifs, _ = ib.middle_thirds_ifs()
        out = ib.apply_projective(ifs.matrices[1], [t])
        assert out[0] == pytest.approx(mobius_right(t), abs=1e-14)

    def test_point_outside_simplex_rejected(self):
        with pytest.raises(BadParameter):
            ib.apply_projective(np.eye(2), [1.5])

    def test_collapsed_image_rejected(self):
        from inbody.errors import DegenerateImage
        # kills the complementary coordinate; at t = 0 the image sum vanishes
        N = np.array([[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(DegenerateImage):
            ib.apply_projective(N, [0.0])
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
            "images_and_holes_cover"]

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

    def test_generation_refuses_on_violation(self):
        ifs, _ = ib.middle_thirds_ifs()
        with pytest.raises(IfsValidationError):
            ib.generate_holes(ifs, [ib.VertexSet([[0.0], [1 / 3]])], 2)

    def test_wrong_cover_flagged(self):
        # declaring only half the gap leaves uncovered volume
        ifs, _ = ib.middle_thirds_ifs()
        report = ib.validate_ifs(ifs, [ib.VertexSet([[1 / 3], [1 / 2]])])
        names = {c.name for c in report.violations()}
        assert "images_and_holes_cover" in names


class TestGenerateHoles:
    def test_depth_zero_is_seed(self):
        ifs, seeds = ib.middle_thirds_ifs()
        holes = ib.generate_holes(ifs, seeds, 0)
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
        holes = ib.generate_holes(ifs, seeds, 4)
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
        # maps onto [0, 1/5], [2/5, 3/5] and [4/5, 1] leave two seed gaps
        mats = [[[5, 4], [0, 1]], [[3, 2], [2, 3]], [[1, 0], [4, 5]]]
        gaps = [(Fraction(1, 5), Fraction(2, 5)), (Fraction(3, 5), Fraction(4, 5))]
        ifs = ib.ProjectiveIFS(1, [np.array(M, dtype=float) for M in mats],
                               ["a", "b", "c"])
        seeds = [ib.VertexSet([[float(a)], [float(b)]]) for a, b in gaps]
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

    def test_collapse_raises_at_parent_depth(self):
        # branches pinned near t = 1 shrink their holes by about K per level;
        # at depth 5 the smallest are below the hull's tolerance
        K = 1000.0
        ifs = ib.ProjectiveIFS(1, [np.array([[K, K - 1.0], [0.0, 1.0]]),
                                   np.array([[1.0, 0.0], [K - 1.0, K]])])
        seeds = [ib.VertexSet([[1.0 / K], [1.0 - 1.0 / K]])]
        assert len(ib.generate_holes(ifs, seeds, 4)) == 31
        with pytest.raises(DegenerateInput):
            ib.generate_holes(ifs, seeds, 5)

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
        # in which they are summed shows in the ends
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
            hull = ib.convex_hull(body)
            assert np.array_equal(h.body.points, body.points)
            assert h.volume == pytest.approx(ib.volume(hull), rel=2e-15, abs=0.0)
            assert h.inradius == h.volume / 2.0
            assert h.inradius == pytest.approx(ib.incentre(hull).inradius,
                                               rel=0.0, abs=1e-16)


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


class TestHoleSeries:
    def test_exponent_zero_sums_volumes(self):
        ifs, seeds = ib.middle_thirds_ifs()
        holes = ib.generate_holes(ifs, seeds, 4)
        tab = ib.hole_series(holes, s=1.0, n=1)
        assert tab.per_depth[0] == pytest.approx(1 / 3)
        assert tab.cumulative[-1] <= 1.0

    @pytest.mark.parametrize("s", [0.2, 0.5, LOG2_OVER_LOG3, 0.9])
    def test_closed_form_ratio(self, s):
        # T_m(s) = 2^m 3^{-(m+1)} (3^{-(m+1)}/2)^{s-1}; ratio = 2 * 3^{-s}
        ifs, seeds = ib.middle_thirds_ifs()
        holes = ib.generate_holes(ifs, seeds, 6)
        tab = ib.hole_series(holes, s=s, n=1)
        ratios = tab.per_depth[1:] / tab.per_depth[:-1]
        assert ratios == pytest.approx(2 * 3.0 ** -s, rel=1e-9)
        closed = [2.0 ** m * 3.0 ** -(m + 1) * (3.0 ** -(m + 1) / 2) ** (s - 1)
                  for m in range(7)]
        assert tab.per_depth == pytest.approx(closed, rel=1e-9)

    def test_single_hole_inverse_inradius(self):
        rec = ib.HoleRecord(word=(), seed_index=0,
                            body=ib.VertexSet([[0.4], [0.6]]),
                            volume=0.2, inradius=0.1)
        tab = ib.hole_series([rec], s=0.0, n=1)
        assert tab.per_depth[0] == pytest.approx(0.2 / 0.1)

    def test_monotone_in_s(self):
        ifs, seeds = ib.middle_thirds_ifs()
        holes = ib.generate_holes(ifs, seeds, 5)
        vals = [ib.hole_series(holes, s, 1).per_depth for s in (0.2, 0.5, 0.8)]
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

    def test_flat_series_unstable(self):
        # identical terms at every depth: no decay signal anywhere
        ifs, _ = ib.middle_thirds_ifs()
        holes = [ib.HoleRecord(word=("a",) * m, seed_index=0,
                               body=ib.VertexSet([[0.4], [0.6]]),
                               volume=0.2, inradius=0.1)
                 for m in range(5)]
        with pytest.raises(Unstable):
            ib.critical_exponent(ifs, None, max_depth=4, tol=0.01, holes=holes)

    def test_geometric_halving_toy(self):
        # one hole per depth, scale halves each generation (vol and inradius):
        # T_m(s) = v r^{s-1} 2^{-ms}; converges for every s > 0 -> clamps low
        ifs, _ = ib.middle_thirds_ifs()
        holes = [ib.HoleRecord(word=("a",) * m, seed_index=0,
                               body=ib.VertexSet([[0.4], [0.6]]),
                               volume=0.2 * 0.5 ** m, inradius=0.1 * 0.5 ** m)
                 for m in range(6)]
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
            before = ib.apply_projective(ifs.matrices[0], [t])
            after = ib.apply_projective(uni.matrices[0], [t])
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
        assert holes == []
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

    def test_grid_counts_on_plane_simplex(self):
        # 2-d chart simplex, delta = 1/4: cells with corner sums <= 1
        from inbody.projective import _count_boxes_nd
        assert _count_boxes_nd(2, [], 0.25) == 15


    @pytest.mark.parametrize("factory", [ib.middle_thirds_ifs, ib.parabolic_ifs])
    def test_interval_counts_match_per_hole_loop(self, factory):
        # the 3^-k ladder lands on the thirds holes' ends, so the snap acts
        from inbody.projective import _count_boxes_1d, _interval_ends
        ifs, seeds = factory()
        holes = ib.generate_holes(ifs, seeds, 8)
        lo, hi = _interval_ends(holes)
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
        holes = [ib.HoleRecord(word=(), seed_index=0, body=ib.VertexSet(t),
                               volume=1.0, inradius=1.0) for t in tris]
        counts = _count_boxes_nd(2, holes, delta)
        assert counts == _boxes_nd_by_scan(2, holes, delta)
        assert counts < _count_boxes_nd(2, [], delta)


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
