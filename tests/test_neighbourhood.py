import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import inbody as ib
from inbody import metrics, neighbourhood, polytope
from inbody.errors import BadParameter, EpsOutOfRange
from tests.conftest import (box, corner_within_tolerance, cross_polytope,
                            duplicated_and_redundant, hrep, twenty_four_cell,
                            twin_row_pentagon)


class TestInnerParallelBody:
    def test_square_offset(self, unit_square):
        inner = ib.inner_parallel_body(unit_square, 0.1)
        V = ib.vertex_enumeration(inner)
        got = sorted(map(tuple, np.round(V.points, 10)))
        assert got == [(0.1, 0.1), (0.1, 0.9), (0.9, 0.1), (0.9, 0.9)]

    def test_zero_offset_same_body(self, unit_square):
        inner = ib.inner_parallel_body(unit_square, 0.0)
        assert ib.volume(inner) == pytest.approx(1.0, abs=1e-12)

    def test_offset_at_inradius_empty(self, unit_square):
        assert ib.inner_parallel_body(unit_square, 0.5) is None

    def test_negative_offset_rejected(self, unit_square):
        with pytest.raises(BadParameter):
            ib.inner_parallel_body(unit_square, -0.1)

    def test_nan_offset_rejected(self, unit_square):
        with pytest.raises(BadParameter):
            ib.inner_parallel_body(unit_square, float("nan"))

    def test_points_of_inner_body_have_large_distance(self, small_suite):
        rng = np.random.default_rng(3)
        for H in small_suite[2][:6]:
            eps = 0.4 * ib.incentre(H).inradius
            inner = ib.inner_parallel_body(H, eps)
            for p in ib.sample_interior(inner, 50, rng):
                assert ib.distance_to_boundary(H, p) >= eps - 1e-9


class TestErodesMinimalForm:
    """Eroding the minimal form gives the same rows as eroding every row."""

    @staticmethod
    def raw_body():
        return twin_row_pentagon()

    @staticmethod
    def eroded_rows(H, eps):
        # the erosion keeps the box, and the ball shrinks by eps about its centre
        offset = ib.HalfspaceSystem(H.A, H.b - eps * np.linalg.norm(H.A, axis=1),
                                    validated=True, scale=H.scale, bbox=H.bbox,
                                    cheb_center=H.cheb_center,
                                    cheb_radius=H.cheb_radius - eps)
        return ib.remove_redundant_halfspaces(offset)

    @pytest.mark.parametrize("frac", [0.1, 0.5, 0.9])
    def test_same_rows_as_raw_erosion(self, frac):
        H = self.raw_body()
        Hm = ib.remove_redundant_halfspaces(H)
        assert Hm.m == 5
        eps = frac * ib.incentre(H).inradius
        inner = ib.inner_parallel_body(H, eps)
        for ref in (self.eroded_rows(Hm, eps), self.eroded_rows(H, eps)):
            assert np.array_equal(inner.A, ref.A)
            assert np.array_equal(inner.b, ref.b)

    def test_profile_equals_minimal_form_profile(self):
        prof = ib.neighbourhood_profile(self.raw_body(), 9)
        ref = ib.neighbourhood_profile(
            ib.remove_redundant_halfspaces(self.raw_body()), 9)
        for name in ("eps_grid", "l_vol", "g_vals", "g_over_n", "chord", "deriv"):
            assert np.array_equal(getattr(prof, name), getattr(ref, name))

    def test_erosions_redone_once(self, monkeypatch):
        # x <= 1 and 2x <= 2 are one facet, so the first pass over the
        # reachable rows finds a row that is not a facet, and the erosions
        # are redone on the facet rows alone: one more solve of the paths
        solves = count_calls(monkeypatch, neighbourhood, "_vertex_paths")
        prof = ib.neighbourhood_profile(unmemoized(self.raw_body()), 9)
        assert len(solves) == 2
        assert solves[0].m == 6 and solves[1].m == 5
        assert prof.l_vol[-1] == ib.volume(self.raw_body())


class TestVolInnerNeighbourhood:
    def test_square_closed_form(self, unit_square):
        # 1 - (1 - 2 eps)^2 for the unit square
        assert ib.vol_inner_neighbourhood(unit_square, 0.1) == pytest.approx(
            0.36, abs=1e-12)

    def test_saturation(self, unit_square):
        assert ib.vol_inner_neighbourhood(unit_square, 0.5) == pytest.approx(1.0)
        assert ib.vol_inner_neighbourhood(unit_square, 0.9) == pytest.approx(1.0)

    def test_nan_offset_rejected(self, unit_square):
        with pytest.raises(BadParameter):
            ib.vol_inner_neighbourhood(unit_square, float("nan"))

    def test_triangle_circumscribed_equality(self, triangle):
        inc = ib.incentre(triangle)
        vol = ib.volume(triangle)
        eps = inc.inradius / 2
        l = ib.vol_inner_neighbourhood(triangle, eps)
        assert l == pytest.approx(vol * (1 - 0.25), abs=1e-10)
        assert l == pytest.approx(0.375, abs=1e-10)

    def test_agrees_with_monte_carlo(self, small_suite):
        for n, bodies in small_suite.items():
            for i, H in enumerate(bodies[:3]):
                inr = ib.incentre(H).inradius
                for j, frac in enumerate((0.25, 0.5, 0.75)):
                    eps = frac * inr
                    est = ib.mc_inner_volume(H, eps, 200_000,
                                             seed=7000 + 100 * n + 10 * i + j)
                    exact = ib.vol_inner_neighbourhood(H, eps)
                    assert abs(exact - est.mean) <= 4 * est.stddev


class TestGFormula:
    def test_reference_value(self):
        assert ib.g_formula(1.0, 0.5, 0.1, 2) == pytest.approx(0.36)

    def test_zero_offset(self):
        assert ib.g_formula(2.0, 0.3, 0.0, 3) == 0.0

    def test_clamped_beyond_inradius(self):
        assert ib.g_formula(2.0, 0.3, 0.6, 3) == pytest.approx(2.0)

    def test_bad_parameters(self):
        with pytest.raises(BadParameter):
            ib.g_formula(-1.0, 0.5, 0.1, 2)
        with pytest.raises(BadParameter):
            ib.g_formula(1.0, 0.0, 0.1, 2)
        with pytest.raises(BadParameter):
            ib.g_formula(1.0, 0.5, -0.1, 2)
        with pytest.raises(BadParameter):
            ib.g_formula(1.0, 0.5, 0.1, 0)

    def test_nan_offset_rejected(self):
        # NaN compares false both ways, so a check for eps < 0 lets it pass
        with pytest.raises(BadParameter):
            ib.g_formula(1.0, 0.5, float("nan"), 2)


class TestBoundsReport:
    def test_square_equality_case(self, unit_square):
        rep = ib.bounds_report(unit_square, 0.1)
        assert rep.l == pytest.approx(0.36, abs=1e-12)
        assert rep.g == pytest.approx(0.36, abs=1e-12)
        assert rep.chord == pytest.approx(0.2)
        assert rep.g_over_n == pytest.approx(0.18)
        assert rep.ok

    def test_pancake_exact_erosion(self):
        # [0,1]x[0,4] eroded by 1/4 leaves [.25,.75]x[.25,3.75]:
        # l = 4 - 0.5*3.5 = 2.25, between chord 2 and g = 3
        H = ib.pancake_family(2, 4)
        rep = ib.bounds_report(H, 0.25)
        assert rep.l == pytest.approx(2.25, abs=1e-10)
        assert rep.chord == pytest.approx(2.0)
        assert rep.g == pytest.approx(3.0)
        assert rep.ok

    def test_saturation_at_inradius(self, triangle):
        inr = ib.incentre(triangle).inradius
        rep = ib.bounds_report(triangle, inr)
        assert rep.l == pytest.approx(ib.volume(triangle), abs=1e-10)
        assert rep.g == pytest.approx(ib.volume(triangle), abs=1e-10)
        assert rep.ok

    def test_out_of_range_rejected(self, unit_square):
        with pytest.raises(EpsOutOfRange):
            ib.bounds_report(unit_square, 0.7)

    def test_nan_offset_rejected(self, unit_square):
        with pytest.raises(EpsOutOfRange):
            ib.bounds_report(unit_square, float("nan"))

    def test_sandwich_on_random_bodies(self, small_suite):
        for bodies in small_suite.values():
            for H in bodies[:8]:
                inr = ib.incentre(H).inradius
                vol = ib.volume(H)
                tol = ib.TAU_REP * max(1.0, vol)
                for frac in (0.25, 0.5, 0.75):
                    rep = ib.bounds_report(H, frac * inr)
                    assert rep.g_over_n <= rep.chord + tol
                    assert rep.chord <= rep.l + tol
                    assert rep.l <= rep.g + tol
                    assert rep.ok

    @pytest.mark.parametrize("frac", [1e-10, 3e-9])
    def test_small_offset_within_tolerance(self, frac):
        # at small eps, g = vol (1 - (1 - eps/r)^n) carries cancellation
        # error, so g/n can round above the chord that it equals or stays
        # under: on the unit square by 1.7e-17, far inside the tolerance
        for n in (2, 3, 4):
            for H in [box(n)] + ib.random_suite(n, 10, 40 + n):
                rep = ib.bounds_report(H, frac * ib.incentre(H).inradius)
                assert rep.ok


class TestScaleCopyContainment:
    def test_zero_offset(self, unit_square):
        assert ib.scale_copy_containment_check(unit_square, 0.0)

    def test_full_offset_collapses_to_incentre(self, unit_square):
        assert ib.scale_copy_containment_check(unit_square, 0.5)

    def test_nan_offset_rejected(self, unit_square):
        with pytest.raises(EpsOutOfRange):
            ib.scale_copy_containment_check(unit_square, float("nan"))

    def test_random_suite(self, small_suite):
        for bodies in small_suite.values():
            for H in bodies[:8]:
                inr = ib.incentre(H).inradius
                for eps in (0.0, inr / 3, inr / 2, inr):
                    assert ib.scale_copy_containment_check(H, eps)


class TestNeighbourhoodProfile:
    def test_square_closed_form(self, unit_square):
        prof = ib.neighbourhood_profile(unit_square, 11)
        closed = 1 - (1 - 2 * prof.eps_grid) ** 2
        assert prof.l_vol == pytest.approx(closed, abs=1e-10)

    def test_cube_closed_form(self, unit_cube):
        prof = ib.neighbourhood_profile(unit_cube, 11)
        closed = 1 - (1 - 2 * prof.eps_grid) ** 3
        assert prof.l_vol == pytest.approx(closed, abs=1e-10)

    def test_profile_invariants(self, small_suite):
        for H in small_suite[2][:5] + small_suite[3][:5]:
            prof = ib.neighbourhood_profile(H, 17)
            vol = ib.volume(H)
            tol = ib.TAU_REP * max(1.0, vol)
            assert prof.l_vol[0] == pytest.approx(0.0, abs=tol)
            assert prof.l_vol[-1] == pytest.approx(vol, abs=tol)
            assert np.all(np.diff(prof.l_vol) >= -tol)
            assert np.all(np.diff(prof.deriv) <= tol)
            assert np.all(prof.g_over_n <= prof.l_vol + tol)
            assert np.all(prof.l_vol <= prof.g_vals + tol)
            assert np.all(prof.chord <= prof.l_vol + tol)

    def test_small_grid_rejected(self, unit_square):
        # a grid that is not an integer >= 3 is refused, as pancake_family
        # refuses a dimension that is not an integer
        for grid_size in (2, 3.5, 4.0, np.float64(5.0), float("nan")):
            with pytest.raises(BadParameter):
                ib.neighbourhood_profile(unit_square, grid_size)

    def test_numpy_integer_grid(self, unit_square):
        prof = ib.neighbourhood_profile(unit_square, np.int64(5))
        assert np.array_equal(prof.l_vol, ib.neighbourhood_profile(unit_square, 5).l_vol)

    def test_grid_cap_refused_before_the_grid(self, unit_square):
        # a grid of 10^9 offsets would be 8 GB before the erosions' (E, m)
        # offsets; every erosion has at least n + 1 rows, so it is refused
        # before the grid is made
        tracemalloc.start()
        try:
            with pytest.raises(BadParameter, match="grid"):
                ib.neighbourhood_profile(unit_square, 10**9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1e5

    def test_grid_cap_counts_the_vertex_paths(self, monkeypatch, small_suite):
        # the twenty-row body has more vertex paths than rows, so with the
        # cap one entry short of 33 x paths the (33, paths) windows are
        # refused, before the erosions' offsets are made; at the cap the
        # profile is made
        H = twenty_row_body(small_suite)
        rows = polytope._reachable_rows(H)
        paths = len(polytope._vertex_paths(replace(H, A=H.A[rows], b=H.b[rows]))[2])
        assert paths > H.m
        expected = ib.neighbourhood_profile(unmemoized(H), 33).l_vol
        with monkeypatch.context() as patch:
            patch.setattr(neighbourhood, "_COMBO_CAP", 33 * paths - 1)
            patch.setattr(neighbourhood, "_erosion", lambda *a: pytest.fail("offsets made"))
            with pytest.raises(BadParameter, match="grid"):
                ib.neighbourhood_profile(unmemoized(H), 33)
        monkeypatch.setattr(neighbourhood, "_COMBO_CAP", 33 * paths)
        assert np.array_equal(ib.neighbourhood_profile(unmemoized(H), 33).l_vol, expected)


def per_eps_l_vol(H, grid_size):
    """Reference profile: one inner_parallel_body and one volume per offset."""
    grid = np.linspace(0.0, ib.incentre(H).inradius, grid_size)
    inner = [ib.inner_parallel_body(H, float(e)) for e in grid]
    return ib.volume(H) - np.array([0.0 if K is None else ib.volume(K) for K in inner])


def count_calls(monkeypatch, *where):
    """The first argument of every call of the function named ``where[-1]``,
    patched into each module of ``where[:-1]``: a list that grows with the
    calls."""
    *modules, name = where
    calls = []
    real = getattr(modules[0], name)

    def counted(H, *args):
        calls.append(H)
        return real(H, *args)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def cut_square():
    """The unit square with its corner (1, 1) cut by x + y <= 1.9.

    The cut facet vanishes at eps = 0.1 / (2 - sqrt 2), and from there on
    the subset {x <= 1, y <= 1}, infeasible at eps = 0, gives a vertex.
    """
    return hrep([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]],
                [1.0, 1.0, 0.0, 0.0, 1.9])


def unmemoized(H):
    """The same validated body with nothing memoized."""
    return ib.HalfspaceSystem(H.A, H.b, validated=True, scale=H.scale,
                              bbox=H.bbox, cheb_center=H.cheb_center,
                              cheb_radius=H.cheb_radius)


def twenty_row_body(small_suite):
    """The first random 4-polytope of the small suite with 20 rows."""
    return next(H for H in small_suite[4] if H.m == 20)


class TestWindowedProfile:
    """The profile's shared vertex paths give the per-offset volumes exactly."""

    @pytest.mark.parametrize("which", [
        "suite2", "suite3", "suite4", "cube", "simplex", "cross4", "24-cell",
        "cut-square", "random4-20-rows", "pancake-1000", "duplicated-redundant",
        "redundant-active"])
    def test_equals_per_eps_profile(self, small_suite, unit_cube,
                                    regular_tetrahedron, which):
        named = {"cube": lambda: unit_cube, "simplex": lambda: regular_tetrahedron,
                 "cross4": lambda: cross_polytope(4), "24-cell": twenty_four_cell,
                 "cut-square": cut_square,
                 "random4-20-rows": lambda: twenty_row_body(small_suite),
                 "pancake-1000": lambda: ib.pancake_family(3, 1000.0),
                 "duplicated-redundant": lambda: duplicated_and_redundant(small_suite),
                 "redundant-active": lambda: corner_within_tolerance(10.0)}
        bodies = [named[which]()] if which in named else small_suite[int(which[-1])]
        for H in bodies:
            # the profile takes vol from its own pass of the kernel
            prof = ib.neighbourhood_profile(unmemoized(H), 17)
            assert prof.l_vol[-1] == ib.volume(H)
            assert np.array_equal(prof.l_vol, per_eps_l_vol(H, 17))

    def test_one_subset_solve(self, monkeypatch):
        # an unmemoized body's profile solves its reachable rows' subsets
        # once, and builds no minimal form and no vertex set of its own
        H = unmemoized(ib.random_suite(4, 1, 29)[0])
        solves = count_calls(monkeypatch, neighbourhood, "_vertex_paths")
        others = [count_calls(monkeypatch, polytope, neighbourhood, metrics, name)
                  for name in ("vertex_incidence", "remove_redundant_halfspaces")]
        ib.neighbourhood_profile(H, 33)
        assert len(solves) == 1 and others == [[], []]

    def test_no_n_subset_solved(self, monkeypatch):
        # the profile reads its vertex paths off the lines of its heads:
        # of the subsets of its 12 reachable rows (of 20) it asks only for
        # the 3-subsets of the first 11, and for no 4-subset
        H = unmemoized(ib.random_suite(4, 1, 29)[0])
        asked = []
        real = polytope._combo_chunks

        def recorded(m, n):
            asked.append((m, n))
            return real(m, n)

        monkeypatch.setattr(polytope, "_combo_chunks", recorded)
        ib.neighbourhood_profile(H, 33)
        assert asked == [(len(polytope._reachable_rows(H)) - 1, H.dim - 1)] == [(11, 3)]

    def test_vertex_born_inside_the_grid(self):
        H = cut_square()
        born = 0.1 / (2.0 - np.sqrt(2.0))
        x, d, lo, hi = polytope._vertex_paths(ib.remove_redundant_halfspaces(H))
        corner = np.flatnonzero(np.all(x == 1.0, axis=1) & np.all(d == 1.0, axis=1))
        assert corner.size == 1
        assert lo[corner[0]] == pytest.approx(born, abs=1e-6)
        assert hi[corner[0]] > 0.5
        eps = np.linspace(0.0, 0.5, 33)
        assert np.count_nonzero((eps > born) & (eps < 0.5)) >= 15
        inner = ib.inner_parallel_body(H, 0.3)
        assert inner.m == 4
        assert ib.vertex_enumeration(inner).points == pytest.approx(
            np.array([[0.3, 0.3], [0.3, 0.7], [0.7, 0.3], [0.7, 0.7]]), abs=1e-12)

    def test_combo_cap_raises(self, monkeypatch):
        # C(6, 3) = 20 subsets; the whole body's enumeration is done first
        H = box(3)
        ib.volume(H)
        monkeypatch.setattr(polytope, "_COMBO_CAP", 19)
        with pytest.raises(BadParameter):
            ib.neighbourhood_profile(H, 5)

    def test_five_cross_polytope_memory(self):
        # 201,376 subsets solved once with two right-hand sides
        H = cross_polytope(5)
        tracemalloc.start()
        try:
            prof = ib.neighbourhood_profile(H, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 40e6
        assert np.array_equal(prof.l_vol, per_eps_l_vol(cross_polytope(5), 5))

    def test_twenty_row_profile_memory(self, small_suite):
        # the profile's peak on this body before the stacked pass was
        # 2,187,146 bytes (numpy 2.4, a warm run); the blocks of candidates
        # bound the vertex tail and the kernel's walk of the face lattices,
        # so the stacked pass stays within 4 MB of that.  It is now
        # 1,199,606 bytes, set by the kernel's second level of meets, which
        # test no meet through a face's apex for maximality (1,600,639
        # when they did)
        H = twenty_row_body(small_suite)
        body = unmemoized(H)
        tracemalloc.start()
        try:
            prof = ib.neighbourhood_profile(body, 33)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_187_146 + 4e6
        assert np.array_equal(prof.l_vol, per_eps_l_vol(H, 33))

    def test_profile_across_blocks(self, monkeypatch, small_suite):
        # at grid 129 the erosions make several blocks of candidates
        H = twenty_row_body(small_suite)
        stacks = []
        kernel = neighbourhood._pyramid_volumes

        def stacked(*args):
            stacks.append(len(args[3]) - 1)
            return kernel(*args)

        monkeypatch.setattr(neighbourhood, "_pyramid_volumes", stacked)
        prof = ib.neighbourhood_profile(H, 129)
        monkeypatch.undo()
        assert len(stacks) > 1
        assert np.array_equal(prof.l_vol, per_eps_l_vol(H, 129))

    def test_profile_memory_bounded_by_blocks(self, small_suite):
        # eight times the grid of test_twenty_row_profile_memory: the peak
        # was 1,307,193 bytes (numpy 2.4, a warm run), against 1,199,606 at
        # grid 33, and 1,709,590 while the kernel's meets tested those
        # through a face's apex; with the erosions in one block it was
        # 23.2 MB
        body = unmemoized(twenty_row_body(small_suite))
        tracemalloc.start()
        try:
            prof = ib.neighbourhood_profile(body, 257)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6
        assert len(prof.l_vol) == 257


class TestStackedHelpers:
    """A body's numbers are the same alone as inside a stack."""

    @staticmethod
    def run(An, bn, scale, x, d, lo, hi, eps, centre):
        on = (lo <= eps[:, None]) & (eps[:, None] <= hi)
        body, s = np.nonzero(on)
        pts = x[s] - eps[body, None] * d[s]
        points, start, active = polytope._incidence_from_candidates(
            An, bn, scale, pts, body)
        keep, bits = polytope._facet_rows(start, active, An.shape[1])
        assert np.array_equal(bits, polytope._local_bits(active, start))
        vbody = np.repeat(np.arange(len(eps)), np.diff(start))
        vols, fvols = metrics._pyramid_volumes(
            An, bn, points, start, polytope._local_bits(active & keep[vbody].T, start), centre)
        return points, start, active, keep, vols, fvols

    def test_two_bodies_match_each_alone(self, small_suite):
        # the raw rows, duplicate and redundant ones included, offset by two
        # amounts: each offset body keeps its own facet rows
        H = duplicated_and_redundant(small_suite)
        An, bn0, _ = H.unit_form()
        x, d, lo, hi = polytope._vertex_paths(H)
        inc = ib.incentre(H)
        eps = np.array([0.05, 0.6]) * inc.inradius
        bn = bn0 - eps[:, None]
        both = self.run(An, bn, H.scale, x, d, lo, hi, eps, inc.incentre)
        points, start, active, keep, vols, fvols = both
        assert not np.array_equal(keep[0], keep[1])
        assert not keep[:, 4].any() and not keep[:, 5].any()
        for e in range(2):
            alone = self.run(An, bn[e:e + 1], H.scale, x, d, lo, hi,
                             eps[e:e + 1], inc.incentre)
            rows = slice(start[e], start[e + 1])
            assert np.array_equal(alone[0], points[rows])
            assert np.array_equal(alone[2], active[:, rows])
            assert np.array_equal(alone[3][0], keep[e])
            assert np.array_equal(alone[4][0], vols[e])
            assert np.array_equal(alone[5][0], fvols[e])
