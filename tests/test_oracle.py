import tracemalloc

import numpy as np
import pytest

import inbody as ib
from inbody import oracle
from inbody.errors import BadParameter
from tests.conftest import box, sphere_cloud


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

    def test_negative_seed_rejected(self, unit_square):
        # numpy's generator would refuse it with a ValueError, which the
        # command line reads as a parse failure
        with pytest.raises(BadParameter, match="seed"):
            ib.mc_volume(unit_square, 50_000, seed=-1)


NON_INTEGERS = [20000.5, 2e4, float("nan"), np.float64(2e4)]
ESTIMATES = [lambda H, samples, seed: ib.mc_volume(H, samples, seed),
             lambda H, samples, seed: ib.mc_inner_volume(H, 0.1, samples, seed)]


@pytest.mark.parametrize("estimate", ESTIMATES, ids=["mc_volume", "mc_inner_volume"])
class TestIntegerArguments:
    @pytest.mark.parametrize("samples", NON_INTEGERS)
    def test_non_integer_samples_rejected(self, unit_square, estimate, samples):
        with pytest.raises(BadParameter, match="samples"):
            estimate(unit_square, samples, 0)

    @pytest.mark.parametrize("seed", [-0.5, 1.5, np.float64(3.0), float("nan")])
    def test_non_integer_seed_rejected(self, unit_square, estimate, seed):
        # -0.5 and 1.5 were taken as seeds 0 and 1
        with pytest.raises(BadParameter, match="seed"):
            estimate(unit_square, 20_000, seed)

    def test_numpy_integers_accepted(self, unit_square, estimate):
        est = estimate(unit_square, np.int64(20_000), np.uint32(4))
        assert est == estimate(unit_square, 20_000, 4)
        assert type(est.samples) is int and type(est.seed) is int


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

    def test_negative_seed_rejected(self, unit_square):
        with pytest.raises(BadParameter, match="seed"):
            ib.mc_inner_volume(unit_square, 0.1, 50_000, seed=-1)


RAW_SQUARE = (np.vstack([np.eye(2), -np.eye(2)]), np.array([1.0, 1.0, 0.0, 0.0]))


@pytest.mark.parametrize("estimate", [
    lambda H: ib.mc_volume(H, 20_000, seed=3),
    lambda H: ib.mc_inner_volume(H, 0.1, 20_000, seed=3)],
    ids=["mc_volume", "mc_inner_volume"])
def test_raw_body_validated_once(monkeypatch, estimate):
    # the box and the draws read one certificate; each validation of the
    # square solves 1 + 2n LPs
    validate, calls = oracle.validate_body, []

    def counting(H):
        calls.append(H)
        return validate(H)

    monkeypatch.setattr(oracle, "validate_body", counting)
    est = estimate(ib.HalfspaceSystem(*RAW_SQUARE))
    assert len(calls) == 1
    assert est == estimate(ib.validate_body(ib.HalfspaceSystem(*RAW_SQUARE)))


class TestSampleInterior:
    def test_negative_count_rejected(self):
        with pytest.raises(BadParameter, match="count"):
            ib.sample_interior(ib.pancake_family(2, 4), -5, np.random.default_rng(0))

    def test_zero_count_draws_nothing(self):
        # a strip too thin for the first block of draws to hit it
        strip = ib.validate_body(ib.HalfspaceSystem(
            [[1.0, -1.0], [-1.0, 1.0], [1.0, 0.0], [-1.0, 0.0]], [1e-4, 1e-4, 1.0, 0.0]))
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        pts = ib.sample_interior(strip, 0, rng)
        assert pts.shape == (0, 2)
        assert rng.bit_generator.state == state


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


def full_matrix_estimate(H, samples, seed, eps):
    """The estimate from one draw of all the samples and their full (m,
    samples) slack matrix, whose columns are taken block by block over
    oracle._blocks, each block by its own matrix product: the last bits of
    one product of all the samples depend on the BLAS thread count."""
    lo, hi = ib.bounding_box(H)
    An, bn, _ = H.unit_form()
    pts = np.random.default_rng(seed).uniform(lo, hi, size=(samples, lo.size))
    resid = np.hstack([bn[:, None] - An @ pts[start:stop].T
                       for start, stop in oracle._blocks(samples)])
    inside = np.all(resid >= 0.0, axis=0)
    if eps is not None:
        inside &= resid.min(axis=0) <= eps
    return np.count_nonzero(inside) / samples * float(np.prod(hi - lo))


class TestBlocks:
    """Blocks of samples give the hits of one full draw, in bounded memory."""

    @pytest.mark.parametrize("samples", [5 * oracle._BLOCK, 5 * oracle._BLOCK + 1, 12_345])
    def test_equals_full_matrix(self, small_suite, samples):
        for n in (2, 3, 4):
            for H in small_suite[n][:4]:
                r = ib.incentre(H).inradius
                assert ib.mc_volume(H, samples, 3).mean == full_matrix_estimate(
                    H, samples, 3, None)
                for eps in (0.0, 0.3 * r, 2.0 * r):
                    assert ib.mc_inner_volume(H, eps, samples, 3).mean == \
                        full_matrix_estimate(H, samples, 3, eps)

    @pytest.mark.parametrize("samples", [oracle._BLOCK + 1, 5 * oracle._BLOCK + 1])
    def test_no_block_of_one_sample(self, monkeypatch, samples):
        # 2,049 samples go to the draws as one size, and 10,241 through
        # mc_volume's sizes.  A last block of one sample took its slacks by
        # a matrix-vector product, whose last bit differed from a matrix
        # product's on 41 of these 150 bodies; folded into the block before
        # it, the last 2,049 slacks are those of one (m, 2049) product
        lows = []
        draws = oracle._box_draws

        def recording(H, rng, sizes):
            for pts, low in draws(H, rng, sizes):
                lows.append(low)
                yield pts, low

        monkeypatch.setattr(oracle, "_box_draws", recording)
        for n in (2, 3, 4):
            for seed, H in enumerate(ib.random_suite(n, 50, 2000 + n)):
                lows.clear()
                if samples < 10_000:
                    list(oracle._box_draws(H, np.random.default_rng(seed), [samples]))
                else:
                    ib.mc_volume(H, samples, seed)
                lo, hi = ib.bounding_box(H)
                An, bn, _ = H.unit_form()
                pts = np.random.default_rng(seed).uniform(lo, hi, size=(samples, n))
                tail = pts[-(oracle._BLOCK + 1):]
                full = np.min(bn[:, None] - An @ tail.T, axis=0)
                assert np.array_equal(np.concatenate(lows)[-len(tail):], full)

    def test_million_samples_memory(self):
        # a hull of 36 facets, as the CLI's oracle gets from a V-form cloud:
        # at 10^6 samples the full slack matrix alone is 288 MB, and chunks
        # of 262,144 samples peaked at 239 MB.  The blocks peaked at
        # 901,248 bytes (numpy 2.4)
        H = ib.convex_hull(ib.VertexSet(sphere_cloud(3, 20, 20, 1)))
        assert H.m == 36
        tracemalloc.start()
        try:
            est = ib.mc_inner_volume(H, 0.15, 10**6, 7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8e6
        assert est.samples == 10**6 and 0.0 < est.mean < ib.volume(H)
