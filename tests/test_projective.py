import math

import numpy as np
import pytest

import inbody as ib
from inbody import lp
from inbody.errors import (
    BadParameter,
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
        # only an infeasible overlap LP means disjoint interiors
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

    def test_boundary_avoidance_propagates(self):
        ifs, seeds = ib.middle_thirds_ifs()
        for h in ib.generate_holes(ifs, seeds, 6):
            assert h.body.points.min() > ib.TAU_PT
            assert h.body.points.max() < 1.0 - ib.TAU_PT


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
