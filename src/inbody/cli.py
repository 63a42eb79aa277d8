"""Batch command line: polytope metrics, bound reports, and attractor runs.

One command per invocation; reports are written atomically and embed the
run configuration and tool version, so identical configurations produce
byte-identical files.  Exit codes: 0 success, 1 validation failure,
2 I/O or parse failure.  Machine-readable errors go to stderr as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import asdict, dataclass

from . import __version__, formats, metrics, neighbourhood, oracle, projective
from .errors import GeometryError
from .polytope import TAU_REP

_COMMANDS = ("metrics", "inner", "bounds", "profile", "oracle", "attractor", "norms")


@dataclass
class RunConfig:
    command: str
    input_path: str
    eps: float | None = None
    grid: int = 33
    samples: int = 1_000_000
    seed: int = 0
    max_depth: int = 12
    tol: float = 0.01
    norm: str = "spectral"
    output_path: str | None = None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="inbody",
        description="Convex-body metrics and attractor dimension reports.")
    parser.add_argument("command", choices=_COMMANDS)
    parser.add_argument("--input", required=True, dest="input_path")
    parser.add_argument("--output", dest="output_path")
    parser.add_argument("--eps", type=float)
    parser.add_argument("--grid", type=int, default=RunConfig.grid)
    parser.add_argument("--samples", type=int, default=RunConfig.samples)
    parser.add_argument("--seed", type=int, default=RunConfig.seed)
    parser.add_argument("--max-depth", type=int, default=RunConfig.max_depth,
                        dest="max_depth")
    parser.add_argument("--tol", type=float, default=RunConfig.tol)
    parser.add_argument("--norm", choices=projective.NORM_KINDS,
                        default=RunConfig.norm)
    return parser


def config_from_args(argv=None) -> RunConfig:
    return RunConfig(**vars(build_parser().parse_args(argv)))


def run(config: RunConfig) -> int:
    """Execute one command; returns the process exit code."""
    try:
        payload = _dispatch(config)
    except GeometryError as exc:
        _emit_error(exc)
        return 1
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        _emit_error(exc)
        return 2
    try:
        _write_report(payload, config.output_path)
    except OSError as exc:
        _emit_error(exc)
        return 2
    return 0


def _dispatch(config: RunConfig):
    if config.command in ("metrics", "inner", "bounds", "profile", "oracle"):
        with open(config.input_path) as fh:
            body = formats.load_polytope(json.load(fh))
    else:
        with open(config.input_path) as fh:
            ifs, seeds, assume = formats.load_ifs(json.load(fh))

    meta = {"version": __version__, "config": _config_dict(config)}

    if config.command == "metrics":
        return {**asdict(metrics.heron_bounds(body)), **meta}

    if config.command in ("inner", "bounds"):
        if config.eps is None:
            raise ValueError(f"--eps is required for '{config.command}'")
        rep = neighbourhood.bounds_report(body, config.eps)
        return {**asdict(rep), **meta}

    if config.command == "profile":
        prof = neighbourhood.neighbourhood_profile(body, grid_size=config.grid)
        provenance = "inbody {} {}".format(
            __version__,
            json.dumps(_config_dict(config), sort_keys=True))
        return formats.profile_to_csv(prof, provenance)

    if config.command == "oracle":
        return {**_oracle_payload(body, config), **meta}

    if config.command == "attractor":
        holes = projective.generate_holes(ifs, seeds, config.max_depth)
        est = projective.critical_exponent(ifs, seeds, config.max_depth,
                                           tol=config.tol, holes=holes)
        resolutions = _default_resolutions(holes)
        box = projective.box_counting_dimension(ifs, seeds, config.max_depth,
                                                resolutions, holes=holes)
        return {**formats.estimate_to_dict(est),
                "box_counting": box,
                "box_resolutions": [float(r) for r in resolutions],
                "assume_measure_zero": assume, **meta}

    if config.command == "norms":
        est = projective.norm_series_exponent(ifs, config.max_depth,
                                              tol=config.tol, norm=config.norm)
        return {**formats.estimate_to_dict(est), "norm": config.norm, **meta}

    raise ValueError(f"unknown command '{config.command}'")


def _oracle_payload(body, config: RunConfig) -> dict:
    est = oracle.mc_volume(body, config.samples, config.seed)
    exact = metrics.volume(body)
    payload = {
        "exact_volume": exact,
        "mc_volume": asdict(est),
        "volume_within_4_sigma": _within_4_sigma(exact, est),
    }
    if config.eps is not None:
        est_in = oracle.mc_inner_volume(body, config.eps, config.samples,
                                        config.seed + 1)
        exact_in = neighbourhood.vol_inner_neighbourhood(body, config.eps)
        payload.update({
            "exact_inner_volume": exact_in,
            "mc_inner_volume": asdict(est_in),
            "inner_within_4_sigma": _within_4_sigma(exact_in, est_in),
        })
    return payload


def _within_4_sigma(exact: float, est) -> bool:
    """Exact value within 4 standard deviations of the estimate, or within
    the report tolerance of it: a box fills its bounding box, so its
    estimate is exact with standard deviation 0."""
    miss = abs(exact - est.mean)
    return bool(miss <= 4 * est.stddev or miss <= TAU_REP * max(1.0, abs(exact)))


def _default_resolutions(holes) -> list[float]:
    """Thirds ladder from coarse down to (not past) the smallest-hole scale.

    Above one dimension it also stops before a grid that box counting
    would refuse as too fine.  Either stop waits for three resolutions.
    """
    n = holes[0].body.dim
    _, min_in = projective._deepest_inradius(holes)
    res = [1.0 / 3.0 ** 2]
    while len(res) < 16:
        nxt = res[-1] / 3.0
        if len(res) >= 3 and (nxt < min_in * (1.0 - 1e-9)
                              or n > 1 and projective._grid_too_fine(n, nxt)):
            break
        res.append(nxt)
    return res


def _config_dict(config: RunConfig) -> dict:
    return {k: v for k, v in asdict(config).items() if v is not None}


def _write_report(payload, output_path: str | None) -> None:
    if isinstance(payload, str):
        text = payload
    else:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if output_path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(output_path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".inbody-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, output_path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_error(exc: BaseException) -> None:
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "detail": str(exc)}) + "\n")


def main(argv=None) -> None:
    sys.exit(run(config_from_args(argv)))


if __name__ == "__main__":
    main()
