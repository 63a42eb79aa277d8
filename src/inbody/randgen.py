"""Seeded generator of random valid polytopes for the property suites.

Each body is the unit box [-1, 1]^n cut by k random halfspaces tangent to
a random ellipsoid kept strictly inside the box, with k drawn from
[n+1, 3n].  The ellipsoid sits on the feasible side of all its tangent
planes, so every generated body is bounded with non-empty interior;
validation is still run and failures rejected.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import BadParameter, GeometryError
from .oracle import _box_draws
from .polytope import HalfspaceSystem, validate_body


def random_polytope(n: int, rng: np.random.Generator) -> HalfspaceSystem:
    """One random validated body in dimension n."""
    for _ in range(100):
        k = int(rng.integers(n + 1, 3 * n + 1))
        center = rng.uniform(-0.3, 0.3, size=n)
        radii = rng.uniform(0.15, 0.5, size=n)
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        cov = (q * radii**2) @ q.T  # ellipsoid shape matrix M M^T

        rows = []
        offs = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = 1.0
            rows.extend([e, -e])
            offs.extend([1.0, 1.0])
        for _ in range(k):
            u = rng.normal(size=n)
            u /= np.linalg.norm(u)
            rows.append(u)
            offs.append(float(u @ center + np.sqrt(u @ cov @ u)))
        try:
            return validate_body(HalfspaceSystem(np.vstack(rows), np.array(offs)))
        except GeometryError:
            continue
    raise GeometryError("random polytope generation kept failing validation")


def random_suite(n: int, count: int, seed: int) -> list[HalfspaceSystem]:
    """A reproducible batch of random bodies in dimension n."""
    rng = np.random.default_rng(seed)
    return [random_polytope(n, rng) for _ in range(count)]


def sample_interior(H: HalfspaceSystem, count: int,
                    rng: np.random.Generator) -> np.ndarray:
    """Uniform interior points by rejection from the bounding box."""
    if count < 0:
        raise BadParameter("count must be non-negative")
    if count == 0:
        return np.empty((0, H.dim))
    out = []
    got = 0
    for pts, slack in _box_draws(H, rng, itertools.repeat(max(4 * count, 64), 1000)):
        hit = pts[slack >= 0.0]
        if hit.size:
            out.append(hit)
            got += hit.shape[0]
        if got >= count:
            break
    if got < count:
        raise GeometryError("interior sampling starved; body too thin")
    return np.vstack(out)[:count]
