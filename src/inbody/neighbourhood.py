"""Exact inner-neighbourhood volumes via inner parallel bodies.

For a polytope the set of points at distance >= eps from the boundary is
again a polytope: the same normals with every offset pulled in by
``eps * ||a||``.  The volume of the eps-inner neighbourhood (points within
eps of the boundary) is therefore the difference of two exact volumes.
Only the offsets move with eps, so a whole profile shares one solve of
the minimal form's n-subsets: each gives a vertex path linear in eps and
the window of offsets on which it is a vertex candidate.

The envelope

    g(eps) = vol * (1 - max(0, 1 - eps/inradius)^n)

bounds the neighbourhood volume from above, with equality exactly for
circumscribed polytopes; the chord eps * vol / inradius bounds it from
below, and g/n lies below the chord (a Bernoulli-inequality rearrangement).
The curve eps -> vol(L_eps) is concave with a non-increasing derivative.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, EpsOutOfRange, GeometryError
from .metrics import incentre, volume
from .polytope import (
    TAU_FACET,
    TAU_REP,
    HalfspaceSystem,
    _incidence_from_candidates,
    _vertex_paths,
    body_scale,
    remove_redundant_halfspaces,
    vertex_incidence,
)


@dataclass
class BoundsReport:
    """One-shot comparison of vol(L_eps) against its three envelopes."""

    l: float
    g: float
    g_over_n: float
    chord: float
    ok: bool


@dataclass
class NeighbourhoodProfile:
    """Sampled curve eps -> vol(L_eps) with its bound envelopes.

    ``deriv`` holds the forward differences of ``l_vol`` (one entry fewer
    than the grid).
    """

    eps_grid: np.ndarray
    l_vol: np.ndarray
    g_vals: np.ndarray
    g_over_n: np.ndarray
    chord: np.ndarray
    deriv: np.ndarray


def g_formula(vol: float, inradius: float, eps: float, n: int) -> float:
    """The envelope vol * (1 - max(0, 1 - eps/inradius)^n)."""
    if vol <= 0 or inradius <= 0 or eps < 0 or n < 1:
        raise BadParameter("g_formula needs vol > 0, inradius > 0, eps >= 0, n >= 1")
    return vol * (1.0 - max(0.0, 1.0 - eps / inradius) ** n)


def inner_parallel_body(H: HalfspaceSystem, eps: float) -> HalfspaceSystem | None:
    """The body {x : distance_to_boundary(x) >= eps}, or None when empty.

    Offsets each facet of the minimal form inward by eps and removes
    redundancy.  The erosion of a polytope is the intersection of its
    eroded facet half-spaces (Matheron 1978), so the rows that support no
    facet are left out before the offset.  Returns None once eps reaches
    the inradius (the erosion loses its interior).  The eroded body
    inherits the parent incentre: the distance function drops uniformly by
    eps, so its maximizer is unchanged and the new inradius is
    inradius - eps.
    """
    if eps < 0:
        raise BadParameter("offset must be non-negative")
    if not H.validated:
        raise BadParameter("inner_parallel_body requires a validated body")
    if eps == 0.0:
        return remove_redundant_halfspaces(H)
    inner = _offset_minimal_form(H, eps)
    return None if inner is None else remove_redundant_halfspaces(inner)


def _offset_minimal_form(H: HalfspaceSystem, eps: float) -> HalfspaceSystem | None:
    """The minimal form of H with every row pulled in by eps, unreduced.

    None once eps comes within the facet tolerance of the inradius.
    """
    inc = incentre(H)
    if inc.inradius - eps <= TAU_FACET * body_scale(H):
        return None
    Hm = remove_redundant_halfspaces(H)
    norms = np.linalg.norm(Hm.A, axis=1)
    return HalfspaceSystem(Hm.A.copy(), Hm.b - eps * norms, validated=True,
                           scale=H.scale, bbox=H.bbox, cheb_center=inc.incentre,
                           cheb_radius=inc.inradius - eps)


def vol_inner_neighbourhood(H: HalfspaceSystem, eps: float) -> float:
    """vol of {x in body : distance to boundary <= eps}."""
    if eps < 0:
        raise BadParameter("offset must be non-negative")
    inner = inner_parallel_body(H, eps)
    total = volume(H)
    if inner is None:
        return total
    return total - volume(inner)


def bounds_report(H: HalfspaceSystem, eps: float) -> BoundsReport:
    """Evaluate g/n <= chord <= vol(L_eps) <= g at one offset."""
    inc = incentre(H)
    scale = body_scale(H)
    if eps < -TAU_FACET * scale or eps > inc.inradius + TAU_FACET * scale:
        raise EpsOutOfRange("offset must lie in [0, inradius]")
    eps = min(max(eps, 0.0), inc.inradius)
    vol = volume(H)
    l = vol_inner_neighbourhood(H, eps)
    g = g_formula(vol, inc.inradius, eps, H.dim)
    chord = eps * vol / inc.inradius
    tol = TAU_REP * max(1.0, vol)
    ok = (g / H.dim - tol <= chord - tol) and (chord - tol <= l) and (l <= g + tol)
    return BoundsReport(l=l, g=g, g_over_n=g / H.dim, chord=chord, ok=bool(ok))


def scale_copy_containment_check(H: HalfspaceSystem, eps: float) -> bool:
    """Check that the shrunk copy about an incentre avoids the neighbourhood.

    Contracting the body towards a fixed incentre by 1 - eps/inradius must
    land inside the inner parallel body at eps; for a closed polytope it
    suffices that every contracted vertex satisfies the offset system.
    """
    inc = incentre(H)
    scale = body_scale(H)
    if eps < -TAU_FACET * scale or eps > inc.inradius + TAU_FACET * scale:
        raise EpsOutOfRange("offset must lie in [0, inradius]")
    eps = min(max(eps, 0.0), inc.inradius)
    lam = 1.0 - eps / inc.inradius
    V, _ = vertex_incidence(H)
    shrunk = inc.incentre + lam * (V.points - inc.incentre)
    An, bn, _ = H.unit_form()
    resid = shrunk @ An.T - (bn - eps)
    return bool(np.all(resid <= TAU_FACET * scale))


def neighbourhood_profile(H: HalfspaceSystem,
                          grid_size: int = 33) -> NeighbourhoodProfile:
    """Sample eps -> vol(L_eps) on a uniform grid over [0, inradius].

    The grid shares one vertex enumeration.  Every eroded body has the
    minimal form's normals, so each n-subset of its rows is solved once for
    a vertex path and the window of offsets on which that vertex is
    feasible (see :func:`polytope._vertex_paths`).  At each grid point the
    subsets whose window holds eps are the candidates of the eroded body's
    vertex enumeration; the rest of it, redundancy removal and the volume
    run on that body as in :func:`inner_parallel_body`, which stays the
    per-offset reference.  Discrete concavity (second differences <= report
    tolerance) is asserted before returning.
    """
    if grid_size < 3:
        raise BadParameter("grid_size must be >= 3")
    inc = incentre(H)
    vol = volume(H)
    n = H.dim
    grid = np.linspace(0.0, inc.inradius, grid_size)
    Hm = remove_redundant_halfspaces(H)
    x, d, lo, hi = _vertex_paths(Hm)

    def inner_vol(eps: float) -> float:
        if eps == 0.0:
            return volume(Hm)
        inner = _offset_minimal_form(H, eps)
        if inner is None:
            return 0.0
        on = (lo <= eps) & (eps <= hi)
        inner._cache["incidence"] = _incidence_from_candidates(
            inner, x[on] - eps * d[on])
        return volume(remove_redundant_halfspaces(inner))

    l_vol = vol - np.array([inner_vol(float(e)) for e in grid])

    g_vals = np.array([g_formula(vol, inc.inradius, float(e), n) for e in grid])
    chord = grid * vol / inc.inradius
    h = grid[1] - grid[0]
    deriv = np.diff(l_vol) / h

    tol = TAU_REP * max(1.0, vol)
    second = np.diff(l_vol, 2)
    if np.any(second > tol):
        raise GeometryError("neighbourhood volume failed discrete concavity")
    return NeighbourhoodProfile(eps_grid=grid, l_vol=l_vol, g_vals=g_vals,
                                g_over_n=g_vals / n, chord=chord, deriv=deriv)
