"""Exact inner-neighbourhood volumes via inner parallel bodies.

For a polytope the set of points at distance >= eps from the boundary is
again a polytope: the same normals with every offset pulled in by
``eps * ||a||``.  The volume of the eps-inner neighbourhood (points within
eps of the boundary) is therefore the difference of two exact volumes.
Only the offsets move with eps, and eroding every row of an H-form erodes
its body, redundant rows included (Matheron 1978).  So a whole profile
shares one solve of the lines where the (n - 1)-subsets of the rows that
can reach the body meet: where a later row crosses a line, and how fast
that crossing moves with eps, give the n-subset's vertex path, linear in
eps, and the window of offsets on which it is a vertex candidate, and at
eps = 0 the body's own candidates.  The body and its eroded bodies then
form one stack, an (E, m) array of offsets over the shared unit normals,
which the body leads.  The vertex tail, the facet test and the volume
kernel take the stack in blocks of several hundred candidate vertices,
so memory is bounded by the block and by the face lattices of its bodies,
not by the grid.  The first block gives the body's facet rows too, and
where some reachable row is not one of them the erosions are redone on
the facet rows alone.  Every body keeps its own vertices and facet rows,
and its volume is bit-identical to the one it gets alone, which is how
:func:`inner_parallel_body` and :func:`volume` compute it.

The envelope

    g(eps) = vol * (1 - max(0, 1 - eps/inradius)^n)

bounds the neighbourhood volume from above, with equality exactly for
circumscribed polytopes; the chord eps * vol / inradius bounds it from
below, and g/n lies below the chord (a Bernoulli-inequality rearrangement).
The curve eps -> vol(L_eps) is concave with a non-increasing derivative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BadParameter, EpsOutOfRange, GeometryError
from .metrics import _pyramid_volumes, volume
from .polytope import (
    _COMBO_CAP,
    TAU_FACET,
    TAU_REP,
    HalfspaceSystem,
    _facet_rows,
    _incidence_from_candidates,
    _local_bits,
    _reachable_rows,
    _vertex_paths,
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
    # written so that a NaN fails it
    if not (vol > 0 and inradius > 0 and eps >= 0 and n >= 1):
        raise BadParameter("g_formula needs vol > 0, inradius > 0, eps >= 0, n >= 1")
    return vol * (1.0 - max(0.0, 1.0 - eps / inradius) ** n)


def inner_parallel_body(H: HalfspaceSystem, eps: float) -> HalfspaceSystem | None:
    """The body {x : distance_to_boundary(x) >= eps}, or None when empty.

    Offsets each facet of the minimal form inward by eps and removes
    redundancy (see :func:`_erosion`).  The erosion of a polytope is the
    intersection of its eroded facet half-spaces (Matheron 1978), so the
    rows that support no facet are left out before the offset.  Returns
    None once eps comes within the facet tolerance of the inradius (the
    erosion loses its interior).  The eroded body inherits the parent
    incentre: the distance function drops uniformly by eps, so its
    maximizer is unchanged and the new inradius is inradius - eps.
    """
    if not eps >= 0:
        raise BadParameter("offset must be non-negative")
    if not H.validated:
        raise BadParameter("inner_parallel_body requires a validated body")
    Hm = remove_redundant_halfspaces(H)
    if eps == 0.0:
        return Hm
    b, empty = _erosion(Hm, np.array([eps]))
    if empty[0]:
        return None
    return remove_redundant_halfspaces(replace(Hm, b=b[0], cheb_radius=H.cheb_radius - eps))


def _erosion(H: HalfspaceSystem, eps: np.ndarray):
    """The offsets ``H.b - eps[e] * ||a_i||`` of H's own rows eroded by each
    offset of eps (E, m), and the mask (E,) of the erosions with no
    interior, ``inradius - eps <= TAU_FACET * scale`` at eps > 0 (eroding
    by 0 leaves the body).  Any H-form of the body serves (Matheron 1978);
    the callers pick it.
    """
    b = H.b - eps[:, None] * H.unit_form()[2]
    return b, (H.cheb_radius - eps <= TAU_FACET * H.scale) & (eps > 0)


def _check_grid(count, width):
    """Refuse ``count`` offsets whose (count, width) arrays would pass the
    cap of _COMBO_CAP entries, with BadParameter."""
    if int(count) * width > _COMBO_CAP:
        raise BadParameter(f"a grid of {count} offsets, {width} entries each, passes "
                           f"the cap of {_COMBO_CAP} entries")


def _clamped_eps(H: HalfspaceSystem, eps: float) -> float:
    """eps, clamped to [0, inradius] if within tolerance, on a validated body."""
    if not H.validated:
        raise BadParameter("offset checks require a validated body")
    slack = TAU_FACET * H.scale
    if not -slack <= eps <= H.cheb_radius + slack:
        raise EpsOutOfRange("offset must lie in [0, inradius]")
    return min(max(eps, 0.0), H.cheb_radius)


def vol_inner_neighbourhood(H: HalfspaceSystem, eps: float) -> float:
    """vol of {x in body : distance to boundary <= eps}."""
    inner = inner_parallel_body(H, eps)
    total = volume(H)
    if inner is None:
        return total
    return total - volume(inner)


def bounds_report(H: HalfspaceSystem, eps: float) -> BoundsReport:
    """Evaluate g/n <= chord <= vol(L_eps) <= g at one offset in [0, inradius]."""
    eps = _clamped_eps(H, eps)
    vol = volume(H)
    l = vol_inner_neighbourhood(H, eps)
    g = g_formula(vol, H.cheb_radius, eps, H.dim)
    chord = eps * vol / H.cheb_radius
    tol = TAU_REP * max(1.0, vol)
    ok = (g / H.dim <= chord + tol) and (chord - tol <= l) and (l <= g + tol)
    return BoundsReport(l=l, g=g, g_over_n=g / H.dim, chord=chord, ok=bool(ok))


def scale_copy_containment_check(H: HalfspaceSystem, eps: float) -> bool:
    """Check that the shrunk copy about an incentre avoids the neighbourhood.

    Contracting the body towards a fixed incentre by 1 - eps/inradius must
    land inside the inner parallel body at eps; for a closed polytope it
    suffices that every contracted vertex satisfies the offset system.
    """
    eps = _clamped_eps(H, eps)
    lam = 1.0 - eps / H.cheb_radius
    V, _ = vertex_incidence(H)
    shrunk = H.cheb_center + lam * (V.points - H.cheb_center)
    An, bn, _ = H.unit_form()
    resid = shrunk @ An.T - (bn - eps)
    return bool(np.all(resid <= TAU_FACET * H.scale))


def neighbourhood_profile(H: HalfspaceSystem,
                          grid_size: int = 33) -> NeighbourhoodProfile:
    """Sample eps -> vol(L_eps) on a uniform grid over [0, inradius].

    The body itself (eps = 0) and its erosions at the grid points go through
    one stacked pass (see :func:`_eroded_volumes`).  Every eroded body has
    the unit normals of the body's rows and only its offsets bn - eps move
    (Matheron 1978), so each n-subset of the rows that can reach the body
    has a vertex path and a window of offsets on which that vertex is
    feasible, read once off the line of its first n - 1 rows (see
    :func:`polytope._vertex_paths`).  The subsets whose window holds a grid
    point are that body's candidates.  The
    candidates of all the bodies, each tagged with its body, then go
    together through the vertex tail
    (:func:`polytope._incidence_from_candidates`), the facet test
    (:func:`polytope._facet_rows`) and the volume kernel
    (:func:`metrics._pyramid_volumes`), in blocks of about
    ``_PROFILE_BLOCK`` candidates.  Each body keeps its own vertices and
    facet rows: vol is bit-identical to :func:`volume`, and every other
    volume to that of :func:`inner_parallel_body`, the per-offset
    reference, which runs the same code on a stack of one.  ``grid_size``
    must be an integer >= 3, and a grid whose offsets would pass the cap of
    _COMBO_CAP entries is refused before they are made (see
    :func:`_check_grid`).  Discrete concavity (second differences <= report
    tolerance) is asserted before returning.
    """
    if not isinstance(grid_size, (int, np.integer)) or grid_size < 3:
        raise BadParameter("grid_size must be an integer >= 3")
    if not H.validated:
        raise BadParameter("neighbourhood_profile requires a validated body")
    n, r = H.dim, H.cheb_radius
    # every erosion has at least n + 1 rows
    _check_grid(grid_size, n + 1)
    grid = np.linspace(0.0, r, grid_size)
    inner = _eroded_volumes(H, grid)
    vol = float(inner[0])
    l_vol = vol - inner

    g_vals = np.array([g_formula(vol, r, float(e), n) for e in grid])
    chord = grid * vol / r
    h = grid[1] - grid[0]
    deriv = np.diff(l_vol) / h

    tol = TAU_REP * max(1.0, vol)
    second = np.diff(l_vol, 2)
    if np.any(second > tol):
        raise GeometryError("neighbourhood volume failed discrete concavity")
    return NeighbourhoodProfile(eps_grid=grid, l_vol=l_vol, g_vals=g_vals,
                                g_over_n=g_vals / n, chord=chord, deriv=deriv)


_PROFILE_BLOCK = 768   # candidate vertices per stacked block of offsets


def _eroded_volumes(H: HalfspaceSystem, eps: np.ndarray) -> np.ndarray:
    """Volumes of H and of its inner parallel bodies at the offsets eps (E,),
    which ascend from eps[0] = 0, the body itself.

    A body that carries its incidence (a hull, or a minimal form) enters
    the stacked pass (:func:`_stacked_volumes`) with it, on its minimal
    form's rows.  Any other body is eroded on its reachable rows
    (:func:`polytope._reachable_rows`) and leads its erosions with its own
    candidates at eps = 0, which give :func:`polytope.vertex_incidence`'s
    vertices.  Either way the kernel reads only the body's facet rows, so
    vol is :func:`volume`'s bit for bit.  Where the body's facet rows, which
    the pass also gives, are not all the reachable rows (a row repeated, or
    one within the tolerance of a vertex), the erosions are redone on the
    facet rows alone: a row active within the tolerance takes part in
    refining a vertex, and only so is every volume
    :func:`inner_parallel_body`'s bit for bit.
    """
    if "incidence" in H._cache:
        Hm = remove_redundant_halfspaces(H)
        return _stacked_volumes(Hm, eps, vertex_incidence(Hm))[0]
    rows = _reachable_rows(H)
    Hr = replace(H, A=H.A[rows], b=H.b[rows])
    vols, facets = _stacked_volumes(Hr, eps)
    if not facets.all():
        Hm = replace(Hr, A=Hr.A[facets], b=Hr.b[facets])
        vols[1:] = _stacked_volumes(Hm, eps[1:])[0]
    return vols


def _stacked_volumes(H: HalfspaceSystem, eps: np.ndarray, own=None):
    """Volumes of the erosions of H's own rows by the offsets eps (E,),
    which ascend from 0 or above, and the facet rows (m,) of the body at
    eps[0], or None where it enters with ``own``.

    An erosion that :func:`_erosion` finds empty has volume 0.  The vertex
    paths of the n-subsets of H's rows are read once off the lines of their
    heads (:func:`polytope._vertex_paths`), and offsets whose (E, m) erosions or
    (E, paths) windows would pass _COMBO_CAP entries are refused before
    either is made.  ``own``, the vertices and incidence
    of H (:func:`polytope.vertex_incidence`), puts the body (eps[0] = 0)
    into the first block in place of its candidates.  The bodies go
    through the vertex tail, the facet test and the volume kernel in blocks
    of consecutive offsets with about _PROFILE_BLOCK candidate vertices
    each.  The block bounds the memory of the tail and of the kernel, whose
    arrays grow with the face lattices of the block's bodies; it is large
    enough that the fixed cost of each step is paid rarely.
    """
    x, d, lo, hi = _vertex_paths(H)
    _check_grid(len(eps), max(H.m, len(lo)))
    b, empty = _erosion(H, eps)
    vols = np.zeros(len(eps))
    inside = np.flatnonzero(~empty)
    eps = eps[inside]
    An, _, norms = H.unit_form()
    on = (lo <= eps[:, None]) & (eps[:, None] <= hi)          # (E, paths)
    # the offsets as the eroded body's unit form has them, so that they are
    # bit-identical to those of inner_parallel_body
    bn = b[inside] / norms
    counts = on.sum(axis=1)
    if own is not None:
        V, own_active = own
        own_bits = _local_bits(own_active, np.array([0, V.count]))
        on[0], counts[0] = False, V.count
    facets = None
    # blocks of offsets with about _PROFILE_BLOCK candidates each
    block = (np.cumsum(counts) - counts) // _PROFILE_BLOCK
    for k in np.flatnonzero(np.bincount(block)):
        sel = np.flatnonzero(block == k)
        # (vertices, vertex counts, facet words) of the block's bodies
        parts = [(V.points, [V.count], own_bits)] if own is not None and sel[0] == 0 else []
        rest = sel[len(parts):]
        if len(rest):
            body, s = np.divmod(np.flatnonzero(on.take(rest, axis=0)), on.shape[1])
            pts = x.take(s, axis=0) - eps.take(rest).take(body)[:, None] * d.take(s, axis=0)
            points, start, active = _incidence_from_candidates(
                An, bn[rest], H.scale, pts, body)
            keep, bits = _facet_rows(start, active, H.dim)
            if rest[0] == 0:
                facets = keep[0]
            bits *= keep[..., None]
            parts.append((points, np.diff(start), bits))
        points, sizes, words = zip(*parts)
        # the body's words and its erosions' can differ in width
        width = max(w.shape[-1] for w in words)
        words = [w if w.shape[-1] == width else
                 np.pad(w, ((0, 0), (0, 0), (0, width - w.shape[-1]))) for w in words]
        points, sizes, bits = np.concatenate(points), np.concatenate(sizes), np.concatenate(words)
        start = np.concatenate([[0], np.cumsum(sizes)])
        vols[inside[sel]] = _pyramid_volumes(An, bn[sel], points, start, bits,
                                             H.cheb_center)[0]
    return vols, facets
