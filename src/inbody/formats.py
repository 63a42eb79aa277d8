"""JSON and CSV wire formats accepted and emitted by the command line.

Polytopes travel as either H-form or V-form JSON:

    {"dim": 2, "halfspaces": [{"a": [1, 0], "b": 1}, ...]}
    {"dim": 2, "vertices": [[0, 0], [1, 0], ...]}

Matrix systems travel as:

    {"n": 1, "alphabet": ["a", "b"],
     "matrices": {"a": [[3, 2], [0, 1]], "b": [[1, 0], [2, 3]]},
     "seed_holes": [[[0.333...], [0.666...]]],
     "assume_measure_zero": true}

Schema problems raise ValueError (a parse failure to the CLI); geometric
problems raise GeometryError subclasses (a validation failure).
"""

from __future__ import annotations

import numpy as np

from .neighbourhood import NeighbourhoodProfile
from .polytope import HalfspaceSystem, VertexSet, convex_hull, validate_body
from .projective import DimensionEstimate, ProjectiveIFS, auto_seed_holes


def load_polytope(obj: dict) -> HalfspaceSystem:
    """Validated body from an H-form or V-form JSON object."""
    if not isinstance(obj, dict):
        raise ValueError("polytope JSON must be an object")
    if "dim" not in obj:
        raise ValueError("polytope JSON needs a 'dim' field")
    dim = _integer(obj, "dim")
    if "halfspaces" in obj:
        rows, offs = [], []
        for h in _list(obj, "halfspaces"):
            if not isinstance(h, dict) or "a" not in h or "b" not in h:
                raise ValueError("each halfspace needs fields 'a' and 'b'")
            a = _floats(h["a"], "halfspace normal")
            if a.shape != (dim,):
                raise ValueError("halfspace normal has the wrong dimension")
            b = _floats(h["b"], "halfspace offset")
            if b.shape != ():
                raise ValueError("halfspace offset must be a number")
            rows.append(a)
            offs.append(float(b))
        if not rows:
            raise ValueError("empty halfspace list")
        return validate_body(HalfspaceSystem(np.vstack(rows), np.array(offs)))
    if "vertices" in obj:
        pts = _floats(obj["vertices"], "vertex coordinates")
        if pts.ndim != 2 or pts.shape[1] != dim:
            raise ValueError("vertex array has the wrong shape")
        return convex_hull(VertexSet(pts))
    raise ValueError("polytope JSON needs 'halfspaces' or 'vertices'")


def _integer(obj: dict, key: str) -> int:
    value = obj[key]
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not float(value).is_integer()):
        raise ValueError(f"'{key}' must be an integer")
    return int(value)


def _list(obj: dict, key: str) -> list:
    if not isinstance(obj[key], list):
        raise ValueError(f"'{key}' must be a list")
    return obj[key]


def _floats(data, what: str) -> np.ndarray:
    """Float array of JSON data; anything non-numeric is a ValueError."""
    try:
        return np.asarray(data, dtype=float)
    except TypeError as exc:
        raise ValueError(f"{what} must be numeric") from exc


def polytope_to_dict(H: HalfspaceSystem) -> dict:
    return {
        "dim": H.dim,
        "halfspaces": [{"a": a.tolist(), "b": float(b)}
                       for a, b in zip(H.A, H.b)],
    }


def load_ifs(obj: dict):
    """(system, seed holes, assume_measure_zero) from IFS JSON."""
    if not isinstance(obj, dict):
        raise ValueError("IFS JSON must be an object")
    for key in ("n", "alphabet", "matrices"):
        if key not in obj:
            raise ValueError(f"IFS JSON needs field '{key}'")
    n = _integer(obj, "n")
    labels = [str(lab) for lab in _list(obj, "alphabet")]
    if not isinstance(obj["matrices"], dict):
        raise ValueError("'matrices' must be an object")
    mats = []
    for lab in labels:
        if lab not in obj["matrices"]:
            raise ValueError(f"matrix for label '{lab}' missing")
        M = _floats(obj["matrices"][lab], f"matrix '{lab}'")
        if M.shape != (n + 1, n + 1):
            raise ValueError(f"matrix '{lab}' must be {n + 1}x{n + 1}")
        mats.append(M)
    ifs = ProjectiveIFS(n=n, matrices=mats, labels=labels)

    if obj.get("seed_holes"):
        seeds = []
        for hole in _list(obj, "seed_holes"):
            pts = _floats(hole, "seed hole")
            if pts.ndim != 2 or pts.shape[1] != n:
                raise ValueError("each seed hole is a list of n-d points")
            seeds.append(VertexSet(pts))
    elif n == 1:
        seeds = auto_seed_holes(ifs)
    else:
        raise ValueError("seed_holes are required for n >= 2")
    assume = bool(obj.get("assume_measure_zero", False))
    return ifs, seeds, assume


def estimate_to_dict(est: DimensionEstimate) -> dict:
    return {"s_star": est.s_star, "max_depth": est.max_depth,
            "bracket_width": est.bracket_width, "flags": list(est.flags)}


def fmt(x: float) -> str:
    """Locale-free float with 12 significant digits."""
    return f"{x:.12g}"


def profile_to_csv(profile: NeighbourhoodProfile, provenance: str = "") -> str:
    """CSV rows eps, l_vol, g, g_over_n, chord, deriv (last deriv = nan)."""
    lines = []
    if provenance:
        lines.append(f"# {provenance}")
    lines.append("eps,l_vol,g,g_over_n,chord,deriv")
    k = profile.eps_grid.size
    for i in range(k):
        d = profile.deriv[i] if i < k - 1 else float("nan")
        lines.append(",".join(fmt(v) for v in (
            profile.eps_grid[i], profile.l_vol[i], profile.g_vals[i],
            profile.g_over_n[i], profile.chord[i], d)))
    return "\n".join(lines) + "\n"
