"""Per-layer spans recorded around the public functions of ``inbody``.

The tracer replaces selected module-level functions of the package with
timing wrappers while it is installed, and puts the originals back when it
is removed.  Every module of the package that holds a reference to a
traced function (``from .polytope import vertex_incidence`` and the like)
is patched, so calls between layers inside the package are seen as well as
the benchmark's own calls.  Nothing in ``inbody`` itself is changed.

Each span's self time is its duration minus the time covered by the traced
spans it caused.  Counters (LP rows, n-subsets, rows dropped, holes) are
taken from the arguments and results at the same boundary.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

# (module, function) pairs whose calls are timed; the per-layer metric
# names are "<module>.<function>.<stat>".
TRACED = (
    ("lp", "solve_lp"),
    ("polytope", "validate_body"),
    ("polytope", "vertex_incidence"),
    ("polytope", "remove_redundant_halfspaces"),
    ("polytope", "convex_hull"),
    ("metrics", "incentre"),
    ("metrics", "volume"),
    ("metrics", "heron_bounds"),
    ("neighbourhood", "inner_parallel_body"),
    ("neighbourhood", "neighbourhood_profile"),
    ("neighbourhood", "bounds_report"),
    ("projective", "validate_ifs"),
    ("projective", "image_polytope"),
    ("projective", "generate_holes"),
    ("projective", "critical_exponent"),
    ("projective", "box_counting_dimension"),
    ("projective", "norm_series_exponent"),
    ("oracle", "mc_volume"),
    ("oracle", "mc_inner_volume"),
    ("formats", "load_polytope"),
    ("formats", "load_ifs"),
    ("cli", "run"),
    ("randgen", "random_suite"),
)


class Tracer:
    """Span timer and counters for the functions listed in ``TRACED``."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()
        self.counts.clear()

    def install(self) -> None:
        """Patch every package module that refers to a traced function."""
        if self._patches:
            return
        targets = [(importlib.import_module(f"inbody.{mod}"), mod, fn)
                   for mod, fn in TRACED]
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "inbody" or name.startswith("inbody."))]
        for target, mod_name, fn_name in targets:
            original = getattr(target, fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn):
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            after = probe(self.counts, args) if probe else None
            self._stack.append(0.0)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                child = self._stack.pop()
                self.calls[name] += 1
                self.self_s[name] += dur - child
                if self._stack:
                    self._stack[-1] += dur
            if after:
                after(out)
            return out

        return wrapper


# A probe reads a traced call's arguments before the call and may return a
# callback that reads its result.

def _lp_probe(counts, args):
    counts["lp.solve_lp.rows"] += len(args[2])


def _incidence_probe(counts, args):
    """Counts n-subsets only when the enumeration really runs.

    A call counts as a cache hit when the body already carries its
    vertex-facet incidence, which covers every body passed before and the
    bodies built with their incidence attached (hulls, minimal forms).
    """
    H = args[0]
    if "incidence" in H._cache:
        counts["polytope.vertex_incidence.hits"] += 1
        return None
    subsets = math.comb(*H.A.shape)

    def after(out):
        counts["polytope.vertex_incidence.subsets"] += subsets
        counts["polytope.vertex_incidence.kept"] += out[0].points.shape[0]
    return after


def _redundancy_probe(counts, args):
    rows_in = args[0].A.shape[0]

    def after(out):
        counts["polytope.remove_redundant_halfspaces.rows_in"] += rows_in
        counts["polytope.remove_redundant_halfspaces.rows_dropped"] += (
            rows_in - out.A.shape[0])
    return after


def _holes_probe(counts, args):
    def after(out):
        counts["projective.generate_holes.holes"] += len(out)
    return after


_PROBES = {
    "lp.solve_lp": _lp_probe,
    "polytope.vertex_incidence": _incidence_probe,
    "polytope.remove_redundant_halfspaces": _redundancy_probe,
    "projective.generate_holes": _holes_probe,
}


# Per-layer metric names in report order, with their units.
LAYER_METRICS = [
    ("lp.solve_lp.calls", "count"),
    ("lp.solve_lp.self_ms", "ms"),
    ("lp.solve_lp.rows_per_call", "count"),
    ("polytope.validate_body.calls", "count"),
    ("polytope.validate_body.self_ms", "ms"),
    ("polytope.vertex_incidence.calls", "count"),
    ("polytope.vertex_incidence.self_ms", "ms"),
    ("polytope.vertex_incidence.subsets", "count"),
    ("polytope.vertex_incidence.kept_per_subset", "ratio"),
    ("polytope.vertex_incidence.cache_hit_ratio", "ratio"),
    ("polytope.remove_redundant_halfspaces.calls", "count"),
    ("polytope.remove_redundant_halfspaces.self_ms", "ms"),
    ("polytope.remove_redundant_halfspaces.rows_dropped_ratio", "ratio"),
    ("polytope.convex_hull.calls", "count"),
    ("polytope.convex_hull.self_ms", "ms"),
    ("metrics.incentre.calls", "count"),
    ("metrics.incentre.self_ms", "ms"),
    ("metrics.volume.calls", "count"),
    ("metrics.volume.self_ms", "ms"),
    ("metrics.heron_bounds.self_ms", "ms"),
    ("neighbourhood.inner_parallel_body.calls", "count"),
    ("neighbourhood.inner_parallel_body.self_ms", "ms"),
    ("neighbourhood.neighbourhood_profile.self_ms", "ms"),
    ("neighbourhood.bounds_report.self_ms", "ms"),
    ("projective.validate_ifs.calls", "count"),
    ("projective.validate_ifs.self_ms", "ms"),
    ("projective.image_polytope.calls", "count"),
    ("projective.image_polytope.self_ms", "ms"),
    ("projective.generate_holes.self_ms", "ms"),
    ("projective.generate_holes.holes", "count"),
    ("projective.critical_exponent.self_ms", "ms"),
    ("projective.box_counting_dimension.self_ms", "ms"),
    ("projective.norm_series_exponent.self_ms", "ms"),
    ("oracle.mc_volume.self_ms", "ms"),
    ("oracle.mc_inner_volume.self_ms", "ms"),
    ("formats.load_polytope.self_ms", "ms"),
    ("formats.load_ifs.self_ms", "ms"),
    ("cli.run.self_ms", "ms"),
]


def layer_values(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-op values of ``LAYER_METRICS`` from a tracer's totals."""
    c = tracer.counts
    per_op = 1.0 / max(ops, 1)
    out = {}
    for name, _unit in LAYER_METRICS:
        layer, stat = name.rsplit(".", 1)
        if stat == "calls":
            out[name] = tracer.calls[layer] * per_op
        elif stat == "self_ms":
            out[name] = tracer.self_s[layer] * 1e3 * per_op
    lp_calls = tracer.calls["lp.solve_lp"]
    out["lp.solve_lp.rows_per_call"] = c["lp.solve_lp.rows"] / lp_calls if lp_calls else 0.0
    vi = "polytope.vertex_incidence"
    out[f"{vi}.subsets"] = c[f"{vi}.subsets"] * per_op
    out[f"{vi}.kept_per_subset"] = (c[f"{vi}.kept"] / c[f"{vi}.subsets"]
                                    if c[f"{vi}.subsets"] else 0.0)
    out[f"{vi}.cache_hit_ratio"] = (c[f"{vi}.hits"] / tracer.calls[vi]
                                    if tracer.calls[vi] else 0.0)
    rr = "polytope.remove_redundant_halfspaces"
    out[f"{rr}.rows_dropped_ratio"] = (c[f"{rr}.rows_dropped"] / c[f"{rr}.rows_in"]
                                       if c[f"{rr}.rows_in"] else 0.0)
    out["projective.generate_holes.holes"] = (
        c["projective.generate_holes.holes"] * per_op)
    return {name: out[name] for name, _unit in LAYER_METRICS}
