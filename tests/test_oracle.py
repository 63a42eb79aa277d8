import numpy as np
import pytest

import inbody as ib
from inbody.errors import BadParameter
from tests.conftest import box


class TestBoundingBox:
    def test_unit_square(self, unit_square):
        lo, hi = ib.bounding_box(unit_square)
        assert lo == pytest.approx([0.0, 0.0])
        assert hi == pytest.approx([1.0, 1.0])

    def test_pancake(self):
        lo, hi = ib.bounding_box(ib.pancake_family(2, 4))
        assert lo == pytest.approx([0.0, 0.0])
        assert hi == pytest.approx([1.0, 4.0])

    def test_triangle(self, triangle):
        lo, hi = ib.bounding_box(triangle)
        assert lo == pytest.approx([0.0, 0.0], abs=1e-10)
        assert hi == pytest.approx([1.0, 1.0], abs=1e-10)


class TestMcVolume:
    def test_box_equals_body_hits_everything(self, unit_cube):
        est = ib.mc_volume(unit_cube, 10_000, seed=1)
        assert est.mean == pytest.approx(1.0)
        assert est.stddev == 0.0

    def test_simplex_area_within_band(self):
        H = box(2)
        S = ib.validate_body(ib.HalfspaceSystem(
            np.vstack([-np.eye(2), np.ones(2)]), np.array([0.0, 0.0, 1.0])))
        est = ib.mc_volume(S, 1_000_000, seed=21)
        assert abs(est.mean - 0.5) <= 4 * est.stddev

    def test_pancake_within_band(self):
        est = ib.mc_volume(ib.pancake_family(2, 4), 1_000_000, seed=22)
        assert abs(est.mean - 4.0) <= 4 * est.stddev

    def test_sample_floor(self, unit_square):
        with pytest.raises(BadParameter):
            ib.mc_volume(unit_square, 100, seed=0)


class TestMcInnerVolume:
    def test_square_closed_form(self, unit_square):
        est = ib.mc_inner_volume(unit_square, 0.1, 1_000_000, seed=5)
        assert abs(est.mean - 0.36) <= 4 * est.stddev

    def test_zero_offset_measure_zero(self, unit_square):
        est = ib.mc_inner_volume(unit_square, 0.0, 50_000, seed=6)
        assert est.mean == 0.0

    def test_saturates_at_inradius(self, unit_square):
        est = ib.mc_inner_volume(unit_square, 0.6, 200_000, seed=7)
        assert abs(est.mean - 1.0) <= 4 * est.stddev + 1e-12

    def test_nan_offset_rejected(self, unit_square):
        with pytest.raises(BadParameter):
            ib.mc_inner_volume(unit_square, float("nan"), 50_000, seed=6)


class TestDeterminism:
    def test_identical_runs_bit_for_bit(self, triangle):
        a = ib.mc_volume(triangle, 50_000, seed=99)
        b = ib.mc_volume(triangle, 50_000, seed=99)
        assert (a.mean, a.stddev) == (b.mean, b.stddev)

    def test_seed_changes_estimate(self, triangle):
        a = ib.mc_volume(triangle, 50_000, seed=99)
        b = ib.mc_volume(triangle, 50_000, seed=100)
        assert a.mean != b.mean

    def test_error_shrinks_with_samples(self):
        # 1/sqrt(N) scaling, averaged over seeds to damp luck
        S = ib.validate_body(ib.HalfspaceSystem(
            np.vstack([-np.eye(2), np.ones(2)]), np.array([0.0, 0.0, 1.0])))
        errs = {}
        for samples in (20_000, 320_000):
            errs[samples] = np.mean([
                abs(ib.mc_volume(S, samples, seed=s).mean - 0.5)
                for s in range(40, 48)])
        # sqrt(16) = 4x shrink expected; accept anything clearly improving
        assert errs[320_000] < errs[20_000] / 1.5
