"""The benchmark's four workloads: inputs, operations and their checks.

Each builder makes its inputs from the workload seed only and returns a
fixed list of operations, one pass.  An operation has a timed ``run``, an
untimed ``digest`` that turns its result into plain data as soon as it
returns, and a ``check`` that compares the digest with the independent
references in :mod:`checks` once the timed part of the run is over.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks as ck

LOG2 = ck.LOG2_OVER_LOG3

# Random bodies are random_suite bodies, taken in equal numbers for every
# row count the generator makes (2n box rows plus n+1 .. 3n cuts): cost grows
# steeply with the row count, so a fixed mix keeps seeds comparable.

# body_reports: random bodies per row count in each dimension, the pancake
# grid, and the two long-pancake erosions the inner-body cutoff gets wrong.
BODY_PER_ROWS = {2: 2, 3: 2, 4: 2}
PANCAKE_DIMS = (2, 3, 4)
PANCAKE_ASPECTS = (1.0, 10.0, 100.0, 1000.0)
LONG_PANCAKE_EROSIONS = ((3, 1000.0, 0.5 - 1e-5), (3, 100.0, 0.5 - 1e-6))

# profile_grid: random bodies per row count, plus circumscribed bodies.
PROFILE_PER_ROWS = {3: 2, 4: 1}
PROFILE_GRID = 33

# attractor_series: one depth for both interval systems.
ATTRACTOR_DEPTH = 9

# cli_vform: point clouds per dimension as (points, points on the hull).
# The hull points of each dimension form one fixed shape, drawn from
# default_rng(CLOUD_SHAPES[n]); the workload seed turns it by a random
# orthogonal map and draws the points inside.  Random shapes can have nearly
# coplanar facets, on which the library gets eroded volumes wrong (see
# FOUND in CHANGES.md); these were picked as far from that as any of the
# draws 0-199 (see README.md).  Hull points lie on the unit sphere and the
# rest deep inside, so every seed has the same hull up to rotation.
CLOUD_POINTS = {2: (40, 16), 3: (40, 20), 4: (12, 10)}
CLOUD_SHAPES = {2: 151, 3: 48, 4: 187}
CLI_EPS = 0.15
CLI_SAMPLES = 20_000
ORACLE_SEED = 1
CLI_ATTRACTOR_DEPTH = 6
CLI_NORMS_DEPTH = 10


@dataclass
class Op:
    label: str
    run: Callable[[Any], Any]
    digest: Callable[[Any], Any]
    check: Callable[[Any], list]
    prepare: Callable[[], Any] = lambda: None
    known_fault: bool = False   # fails on every run until the program is fixed


def build(ib, workload: str, seed: int, workdir: Path) -> list[Op]:
    """One pass of ``workload``'s operations, made from ``seed``."""
    return _BUILDERS[workload](ib, seed, workdir)


def stratified_suite(ib, n, per, seed, salt):
    """``per`` random_suite bodies for each row count, in row-count order.

    One suite of four times the bodies needed is drawn from a seed derived
    from (seed, salt, n), so set-up does nearly the same work on every seed;
    a row count left short is filled from small extra suites.
    """
    rows = range(3 * n + 1, 5 * n + 1)
    picked = {m: [] for m in rows}
    size = 4 * per * len(rows)
    batch = 0
    while any(len(picked[m]) < per for m in rows):
        suite_seed = ((seed * 10 + salt) * 10 + n) * 1000 + batch
        for H in ib.random_suite(n, size, suite_seed):
            if len(picked[H.m]) < per:
                picked[H.m].append(H)
        size = len(rows)
        batch += 1
    return [H for m in rows for H in picked[m]]


# --------------------------------------------------------------------------
# body_reports

def _body_reports(ib, seed, workdir):
    raw = []
    for n, per in BODY_PER_ROWS.items():
        for H in stratified_suite(ib, n, per, seed, salt=1):
            raw.append((f"random n={n} m={H.m}", H.A.copy(), H.b.copy(), None))
    for n in PANCAKE_DIMS:
        for K in PANCAKE_ASPECTS:
            H = ib.pancake_family(n, K)
            raw.append((f"pancake n={n} K={K:g}", H.A.copy(), H.b.copy(), (n, K)))
    ops = [_report_op(ib, *item) for item in raw]
    for n, K, eps in LONG_PANCAKE_EROSIONS:
        H = ib.pancake_family(n, K)
        ops.append(_long_pancake_op(ib, n, K, eps, H.A.copy(), H.b.copy()))
    return ops


def _report_op(ib, label, A, b, pancake):
    def run(_):
        H = ib.validate_body(ib.HalfspaceSystem(A, b))
        rep = ib.heron_bounds(H)
        eps = rep.inradius / 2.0
        return rep, eps, ib.bounds_report(H, eps), ib.scale_copy_containment_check(H, eps)

    def digest(out):
        rep, eps, br, contained = out
        return {"volume": rep.volume, "perimeter": rep.perimeter,
                "inradius": rep.inradius, "lower": rep.lower, "upper": rep.upper,
                "satisfied": rep.satisfied, "eps": eps, "l": br.l, "g": br.g,
                "g_over_n": br.g_over_n, "chord": br.chord, "ok": br.ok,
                "contained": contained}

    ref = functools.cache(lambda: ck.body_ref(A, b))

    def check(d):
        fails = []
        r = ref()
        ck.check_heron(fails, d, r)
        ck.close(fails, "eps", d["eps"], r.inradius / 2.0, 0.0)
        ck.check_envelope(fails, d["l"], d["g"], d["g_over_n"], d["chord"],
                          d["eps"], r)
        if d["ok"] is not True:
            fails.append("bounds_report flags its own envelope as failed")
        if d["contained"] is not True:
            fails.append("shrunk copy about the incentre leaves the inner body")
        if pancake is not None:
            n, K = pancake
            for key, want in ck.pancake_closed_form(n, K).items():
                ck.close(fails, f"closed-form {key}", d[key], want, 0.0)
            ck.close(fails, "closed-form vol(L_eps)", d["l"],
                     ck.pancake_neighbourhood(n, K, d["eps"]), d["volume"])
            if K == 1.0:  # the cube is circumscribed: vol(L_eps) = g
                ck.close(fails, "vol(L_eps) = g", d["l"], d["g"], d["volume"])
        return fails

    return Op(label, run, digest, check)


def _long_pancake_op(ib, n, K, eps, A, b):
    def run(_):
        H = ib.validate_body(ib.HalfspaceSystem(A, b))
        return ib.vol_inner_neighbourhood(H, eps)

    def check(l):
        fails = []
        ck.close(fails, f"closed-form vol(L_eps) at eps={eps!r}", l,
                 ck.pancake_neighbourhood(n, K, eps), K ** (n - 1))
        return fails

    return Op(f"long pancake n={n} K={K:g} erosion", run, float, check,
              known_fault=True)


# --------------------------------------------------------------------------
# profile_grid

def _profile_grid(ib, seed, workdir):
    bodies = []
    for n, per in PROFILE_PER_ROWS.items():
        for H in stratified_suite(ib, n, per, seed, salt=2):
            bodies.append((f"random n={n} m={H.m}", H, None))
    for label, (A, b), closed in _circumscribed():
        H = ib.validate_body(ib.HalfspaceSystem(A, b))
        bodies.append((label, H, closed))
    return [_profile_op(ib, *item) for item in bodies]


def _circumscribed():
    """Cube, regular tetrahedron and 4-cube with (volume, inradius)."""
    out = []
    for n in (3, 4):
        A = np.vstack([np.eye(n), -np.eye(n)])
        b = np.concatenate([np.ones(n), np.zeros(n)])
        out.append((f"cube n={n}", (A, b), (1.0, 0.5)))
        if n == 3:
            # facets opposite the vertices (1,1,1), (1,-1,-1), (-1,1,-1),
            # (-1,-1,1); edge 2*sqrt(2), circumradius sqrt(3)
            verts = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, -1.0],
                              [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]])
            A_s = -verts / math.sqrt(3.0)
            b_s = np.full(4, math.sqrt(3.0) / 3.0)
            out.append(("regular simplex n=3", (A_s, b_s),
                        (8.0 / 3.0, math.sqrt(3.0) / 3.0)))
    return out


def unmemoized(ib, H):
    """A copy of a validated body without its memoized results, so every
    pass does the same work."""
    return ib.HalfspaceSystem(H.A, H.b, validated=True, scale=H.scale, bbox=H.bbox,
                              cheb_center=H.cheb_center, cheb_radius=H.cheb_radius)


def _profile_op(ib, label, H, closed):
    def prepare():
        return unmemoized(ib, H)

    def run(body):
        return ib.neighbourhood_profile(body, PROFILE_GRID)

    def digest(p):
        return {k: np.array(getattr(p, k)) for k in
                ("eps_grid", "l_vol", "g_vals", "g_over_n", "chord")}

    ref = functools.cache(lambda: ck.body_ref(H.A, H.b))

    def check(d):
        fails = []
        r = ref()
        if closed is not None:
            ck.close(fails, "closed-form volume", d["l_vol"][-1], closed[0], 0.0)
            ck.close(fails, "closed-form inradius", d["eps_grid"][-1], closed[1], 0.0)
        grid = np.linspace(0.0, r.inradius, PROFILE_GRID)
        if d["eps_grid"].shape != grid.shape or not np.allclose(
                d["eps_grid"], grid, rtol=ck.REL, atol=ck.REL * r.inradius):
            return fails + ["eps grid differs from linspace(0, inradius, 33)"]
        for i, eps in enumerate(d["eps_grid"]):
            ck.check_envelope(fails, d["l_vol"][i], d["g_vals"][i],
                              d["g_over_n"][i], d["chord"][i], float(eps), r)
            if closed is not None:  # circumscribed: vol(L_eps) = g
                ck.close(fails, f"vol(L_eps) = g at eps={eps:.6g}",
                         d["l_vol"][i], d["g_vals"][i], r.volume)
        ck.check_concave(fails, d["l_vol"], r.volume)
        return fails

    return Op(f"profile {label} ({H.m} rows)", run, digest, check, prepare)


# --------------------------------------------------------------------------
# attractor_series

_THIRDS = ([[3, 2], [0, 1]], [[1, 0], [2, 3]])
_PARABOLIC = ([[1, 0], [2, 1]], [[1, 2], [0, 1]])
_SEED_GAP = (Fraction(1, 3), Fraction(2, 3))


def conjugated_system(mats, d: Fraction):
    """D N D^-1 with D = diag(1, d): the same dynamics seen through the
    simplex map t -> d t / (1 - t + d t), so every dimension is unchanged.
    Returns exact matrices and the exact seed gap."""
    exact = [[[Fraction(M[0][0]), Fraction(M[0][1]) / d],
              [Fraction(M[1][0]) * d, Fraction(M[1][1])]] for M in mats]
    gap = tuple(d * t / (1 - t + d * t) for t in _SEED_GAP)
    return exact, gap


def _attractor_series(ib, seed, workdir):
    rng = np.random.default_rng(seed)
    ops = []
    for name, mats in (("middle thirds", _THIRDS), ("parabolic", _PARABOLIC)):
        d = Fraction(int(rng.integers(7, 15)), 10)
        exact, gap = conjugated_system(mats, d)
        ifs = ib.ProjectiveIFS(1, [np.array(M, dtype=float) for M in exact],
                               ["a", "b"])
        seeds = [ib.VertexSet([[float(gap[0])], [float(gap[1])]])]
        report = ib.validate_ifs(ifs, seeds)
        if not report.ok:
            raise ValueError(f"{name} system fails validation: {report.violations()}")
        ops.append(_attractor_op(ib, f"{name} d={d}", ifs, seeds, exact, gap,
                                 closed=LOG2 if name == "middle thirds" else None))
    return ops


def _attractor_op(ib, label, ifs, seeds, exact, gap, closed):
    from inbody import cli  # the CLI's own resolution ladder

    depth = ATTRACTOR_DEPTH

    def run(_):
        holes = ib.generate_holes(ifs, seeds, depth)
        est = ib.critical_exponent(ifs, seeds, depth, tol=0.01, holes=holes)
        box = ib.box_counting_dimension(ifs, seeds, depth,
                                        cli._default_resolutions(holes), holes=holes)
        norm = ib.norm_series_exponent(ifs, depth, tol=0.01)
        return holes, est, box, norm

    def digest(out):
        holes, est, box, norm = out
        return {"words": ["".join(h.word) for h in holes],
                "ends": np.array([[h.body.points.min(), h.body.points.max()]
                                  for h in holes]),
                "volume": np.array([h.volume for h in holes]),
                "inradius": np.array([h.inradius for h in holes]),
                "s_star": est.s_star, "bracket": est.bracket_width,
                "flags": list(est.flags), "box": box,
                "norm_s": norm.s_star}

    ref = functools.cache(lambda: ck.interval_holes(exact, ["a", "b"], gap, depth))

    def check(d):
        fails = []
        want = ref()
        if d["words"] != ["".join(w) for w, _, _ in want]:
            return ["hole words differ from the depth-major word order"]
        ends = np.array([[float(a), float(b)] for _, a, b in want])
        length = np.array([float(b - a) for _, a, b in want])
        if not np.allclose(d["ends"], ends, rtol=1e-9, atol=1e-12):
            fails.append("hole endpoints differ from the exact Moebius images")
        if not np.allclose(d["volume"], length, rtol=1e-9, atol=1e-12):
            fails.append("hole lengths differ from the exact Moebius images")
        if not np.allclose(d["inradius"], length / 2.0, rtol=1e-9, atol=1e-12):
            fails.append("hole inradii differ from half the exact lengths")
        if d["bracket"] > 0.01 or d["flags"]:
            fails.append(f"exponent not bracketed: {d['bracket']}, {d['flags']}")
        if closed is not None:
            if abs(d["s_star"] - closed) > ck.EXPONENT_TOL:
                fails.append(f"hole exponent {d['s_star']} vs log2/log3")
            if abs(d["box"] - closed) > ck.BOX_TOL:
                fails.append(f"box counting {d['box']} vs log2/log3")
        elif not 0.0 < d["s_star"] < 1.0 or not 0.0 < d["box"] <= 1.0:
            fails.append("dimension estimates leave (0, 1]")
        if d["norm_s"] > d["s_star"] + ck.NORM_SLACK:
            fails.append(f"norm exponent {d['norm_s']} above hole exponent + 0.02")
        return fails

    return Op(f"attractor {label} depth {depth}", run, digest, check)


# --------------------------------------------------------------------------
# cli_vform

def cloud_shape(n: int, on_hull: int) -> np.ndarray:
    """The fixed hull points: the cross-polytope (so the inradius is at
    least 1/sqrt(n)), then points drawn on the unit sphere."""
    dirs = np.random.default_rng(CLOUD_SHAPES[n]).normal(size=(on_hull - 2 * n, n))
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    return np.vstack([np.eye(n), -np.eye(n), dirs])


def point_cloud(n: int, count: int, on_hull: int, rng) -> np.ndarray:
    """The hull points of :func:`cloud_shape` turned by a random orthogonal
    map, then ``count - on_hull`` points inside the ball of radius
    0.9/sqrt(n), which the cross-polytope contains."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    hull = cloud_shape(n, on_hull) @ q.T
    inner = rng.normal(size=(count - on_hull, n))
    inner /= np.linalg.norm(inner, axis=1)[:, None]
    inner *= 0.9 / math.sqrt(n) * rng.uniform(size=(count - on_hull, 1)) ** (1.0 / n)
    return np.vstack([hull, inner])


def _cli_vform(ib, seed, workdir):
    from inbody import cli

    rng = np.random.default_rng(seed)
    plan = []
    for n, (count, on_hull) in CLOUD_POINTS.items():
        pts = point_cloud(n, count, on_hull, rng)
        path, ref = _write_cloud(workdir / f"cloud{n}.json", pts)
        plan.append(("metrics", path, [], ref))
        plan.append(("inner", path, ["--eps", CLI_EPS], ref))
        if n < 4:
            # The oracle reads the hull points unturned and draws with a
            # fixed seed, so its samples, and its 4-sigma tests, are the same
            # on every seed: a right answer misses 4 sigma once in 16,000.
            upright = np.vstack([cloud_shape(n, on_hull), pts[on_hull:]])
            path_up, ref_up = _write_cloud(workdir / f"upright{n}.json", upright)
            plan.append(("oracle", path_up, ["--eps", CLI_EPS, "--samples", CLI_SAMPLES,
                                             "--seed", ORACLE_SEED], ref_up))
        if n == 2:
            plan.append(("profile", path, ["--grid", PROFILE_GRID], ref))
    ifs_path = workdir / "thirds.json"
    ifs_path.write_text(json.dumps({
        "n": 1, "alphabet": ["a", "b"],
        "matrices": {"a": _THIRDS[0], "b": _THIRDS[1]},
        "seed_holes": [[[1.0 / 3.0], [2.0 / 3.0]]],
        "assume_measure_zero": True}))
    plan.append(("attractor", ifs_path, ["--max-depth", CLI_ATTRACTOR_DEPTH], None))
    plan.append(("norms", ifs_path, ["--max-depth", CLI_NORMS_DEPTH], None))

    last_attractor = {}
    ops = []
    for k, (command, path, extra, ref) in enumerate(plan):
        out = workdir / f"report{k}.{'csv' if command == 'profile' else 'json'}"
        argv = [command, "--input", str(path), "--output", str(out)]
        config = cli.config_from_args(argv + [str(v) for v in extra])
        label = f"cli {command} {path.name}"
        ops.append(_cli_op(cli, label, config, out,
                           _CLI_CHECKS[command], ref, last_attractor))
    return ops


def _write_cloud(path, pts):
    """Write a V-form cloud; returns its path and its lazy reference."""
    path.write_text(json.dumps({"dim": pts.shape[1], "vertices": pts.tolist()}))
    return path, functools.cache(lambda: ck.hull_ref(pts))


def _cli_op(cli, label, config, out_path, check_report, ref, shared):
    first_bytes = {}

    def run(_):
        return cli.run(config)

    def digest(code):
        return code, out_path.read_bytes() if code == 0 else b""

    def check(d):
        code, data = d
        if code != 0:
            return [f"exit code {code}"]
        fails = []
        if first_bytes.setdefault("report", data) != data:
            fails.append("report bytes differ on a repeated configuration")
        check_report(fails, data, config, ref() if ref else None, shared)
        return fails

    return Op(label, run, digest, check)


def _check_metrics(fails, data, config, r, shared):
    ck.check_heron(fails, json.loads(data), r)


def _check_inner(fails, data, config, r, shared):
    rep = json.loads(data)
    ck.check_envelope(fails, rep["l"], rep["g"], rep["g_over_n"], rep["chord"],
                      config.eps, r)
    if rep["ok"] is not True:
        fails.append("inner report flags its own envelope as failed")


def _check_oracle(fails, data, config, r, shared):
    rep = json.loads(data)
    ck.close(fails, "exact volume", rep["exact_volume"], r.volume, 0.0)
    ck.close(fails, "exact inner volume", rep["exact_inner_volume"],
             ck.neighbourhood_ref(r, config.eps), r.volume)
    for key, mc, exact in (("volume_within_4_sigma", "mc_volume", r.volume),
                           ("inner_within_4_sigma", "mc_inner_volume",
                            ck.neighbourhood_ref(r, config.eps))):
        est = rep[mc]
        if rep[key] is not True or abs(est["mean"] - exact) > 4.0 * est["stddev"]:
            fails.append(f"{mc} misses the reference by more than 4 sigma")
        if est["samples"] != config.samples:
            fails.append(f"{mc} used {est['samples']} samples")


def _check_profile(fails, data, config, r, shared):
    lines = data.decode().strip().split("\n")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    if rows.shape != (config.grid, 6):
        fails.append(f"profile CSV has shape {rows.shape}")
        return
    ck.close(fails, "last eps = inradius", rows[-1, 0], r.inradius, 0.0)
    for eps, l, g, g_over_n, chord, _ in rows:
        ck.check_envelope(fails, l, g, g_over_n, chord, eps, r)
    ck.check_concave(fails, rows[:, 1], r.volume)


def _check_attractor(fails, data, config, r, shared):
    rep = json.loads(data)
    shared["s_star"] = rep["s_star"]
    if abs(rep["s_star"] - LOG2) > ck.EXPONENT_TOL:
        fails.append(f"hole exponent {rep['s_star']} vs log2/log3")
    if abs(rep["box_counting"] - LOG2) > ck.BOX_TOL:
        fails.append(f"box counting {rep['box_counting']} vs log2/log3")


def _check_norms(fails, data, config, r, shared):
    rep = json.loads(data)
    if rep["s_star"] > shared.get("s_star", LOG2) + ck.NORM_SLACK:
        fails.append(f"norm exponent {rep['s_star']} above hole exponent + 0.02")


_CLI_CHECKS = {"metrics": _check_metrics, "inner": _check_inner,
               "oracle": _check_oracle, "profile": _check_profile,
               "attractor": _check_attractor, "norms": _check_norms}


_BUILDERS = {"body_reports": _body_reports, "profile_grid": _profile_grid,
             "attractor_series": _attractor_series, "cli_vform": _cli_vform}
