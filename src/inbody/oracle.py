"""Randomized volume estimators used as an independent cross-check.

Plain rejection sampling from an LP-certified bounding box.  These
estimators deliberately share nothing with the exact cone-decomposition
path, so agreement within a few binomial standard deviations is a real
anti-regression signal.  Estimates are bit-for-bit reproducible for a
given (samples, seed) pair.  The samples are drawn and tested in blocks,
which draw the same points as one draw of them all, so memory does not
grow with the sample count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter
from .polytope import HalfspaceSystem, validate_body

_BLOCK = 2048   # samples per block of slacks, in one reused (m, block) buffer


@dataclass
class McEstimate:
    """Hit-count estimate with its binomial standard deviation."""

    mean: float
    stddev: float
    samples: int
    seed: int


def bounding_box(H: HalfspaceSystem):
    """Per-coordinate (mins, maxs) certified by 2n linear programs: read from
    a validated body's certificate, or made by validating a raw one."""
    lo, hi = (H if H.validated else validate_body(H)).bbox
    return lo.copy(), hi.copy()


def mc_volume(H: HalfspaceSystem, samples: int, seed: int) -> McEstimate:
    """Estimate vol(body) from uniform bounding-box samples."""
    return _estimate(H, samples, seed, eps=None)


def mc_inner_volume(H: HalfspaceSystem, eps: float, samples: int,
                    seed: int) -> McEstimate:
    """Estimate vol{x in body : distance to boundary <= eps}."""
    if not eps >= 0:
        raise BadParameter("offset must be non-negative")
    return _estimate(H, samples, seed, eps=float(eps))


def _blocks(count):
    """Consecutive blocks of ``count`` samples, as (start, stop) pairs: of
    _BLOCK samples each, but a last block of one sample is folded into the
    block before it.  BLAS takes a block of one by a matrix-vector product,
    whose slacks can differ in the last bit from those of a matrix product
    of the same points."""
    cuts = list(range(0, count, _BLOCK)) + [count]
    if len(cuts) > 2 and cuts[-1] - cuts[-2] == 1:
        del cuts[-2]
    return zip(cuts, cuts[1:])


def _box_draws(H: HalfspaceSystem, rng: np.random.Generator, sizes):
    """Yield, for each size k, k uniform bounding-box points and the least
    unit-row slack ``min_i (b_i - a_i x)`` of each (non-negative on the
    body).  The slacks are taken a block at a time (:func:`_blocks`) in one
    (m, _BLOCK + 1) buffer, whose columns are reduced in one pass."""
    lo, hi = bounding_box(H)
    An, bn, _ = H.unit_form()
    resid = np.empty((bn.size, _BLOCK + 1))
    for k in sizes:
        pts = rng.uniform(lo, hi, size=(k, lo.size))
        low = np.empty(k)
        for start, stop in _blocks(k):
            r = resid[:, :stop - start]
            np.matmul(An, pts[start:stop].T, out=r)
            np.subtract(bn[:, None], r, out=r)
            np.minimum.reduce(r, axis=0, out=low[start:stop])
        yield pts, low


def _estimate(H, samples, seed, eps):
    # Python and numpy integers only: a float sample count or seed is
    # refused, not truncated
    if not isinstance(samples, (int, np.integer)) or samples < 10_000:
        raise BadParameter("samples must be an integer, at least 10^4")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise BadParameter("seed must be a non-negative integer")
    samples, seed = int(samples), int(seed)
    # validated once, so that the box and the draws read one certificate
    H = H if H.validated else validate_body(H)
    lo, hi = bounding_box(H)
    box_vol = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    # drawn in blocks, the points are those of one draw of all the samples
    sizes = (stop - start for start, stop in _blocks(samples))
    hits = 0
    for _, low in _box_draws(H, rng, sizes):
        inside = low >= 0.0
        if eps is not None:
            inside &= low <= eps
        hits += int(np.count_nonzero(inside))
    p = hits / samples
    return McEstimate(mean=p * box_vol,
                      stddev=float(np.sqrt(p * (1.0 - p) / samples)) * box_vol,
                      samples=samples, seed=seed)
