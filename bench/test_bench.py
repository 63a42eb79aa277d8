"""Tests of the benchmark itself: its checks catch wrong results.

Run from the root of a checkout with ``python3 -m pytest bench``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import inbody as ib  # noqa: E402
import refkernel  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402


def run_ops(ops):
    """One untimed and one timed pass; returns (failed, failed known)."""
    records, ref_s = [], [0.001]
    kernel = refkernel.RefKernel()
    run.run_pass(ops, -1, False, records, kernel, [])
    run.run_pass(ops, 0, False, records, kernel, ref_s)
    failed, known, _ = run.check_all(ops, records)
    return failed, known


@pytest.fixture(scope="module")
def body_ops(tmp_path_factory):
    ops = workloads.build(ib, "body_reports", 1, tmp_path_factory.mktemp("b"))
    random3 = [op for op in ops if op.label.startswith("random n=3")][:2]
    cube = [op for op in ops if op.label == "pancake n=3 K=1"]
    long_pancakes = [op for op in ops if op.known_fault]
    return random3 + cube, long_pancakes


def test_body_reports_pass_and_known_faults_fail(body_ops):
    good, long_pancakes = body_ops
    assert run_ops(good) == (0, 0)
    assert run_ops(long_pancakes) == (2, 2)


def test_perturbed_heron_volume_is_a_failed_op(body_ops, monkeypatch):
    good, _ = body_ops
    real = ib.heron_bounds

    def perturbed(H):
        rep = real(H)
        return dataclasses.replace(rep, volume=rep.volume * (1.0 + 1e-5))

    monkeypatch.setattr(ib, "heron_bounds", perturbed)
    assert run_ops(good) == (len(good), 0)


def test_perturbed_scale_copy_answer_is_a_failed_op(body_ops, monkeypatch):
    good, _ = body_ops
    monkeypatch.setattr(ib, "scale_copy_containment_check", lambda H, eps: False)
    assert run_ops(good) == (len(good), 0)


def test_raising_op_is_a_failed_op(body_ops, monkeypatch):
    good, _ = body_ops

    def boom(H, eps):
        raise ib.GeometryError("injected")

    monkeypatch.setattr(ib, "bounds_report", boom)
    assert run_ops(good) == (len(good), 0)


def test_perturbed_profile_point_is_a_failed_op(tmp_path):
    ops = workloads.build(ib, "profile_grid", 1, tmp_path)
    (cube,) = [op for op in ops if op.label.startswith("profile cube n=3")]
    d = cube.digest(cube.run(cube.prepare()))
    assert cube.check(d) == []
    d["l_vol"][7] *= 1.0 + 1e-5
    assert cube.check(d)


def test_perturbed_hole_is_a_failed_op(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "ATTRACTOR_DEPTH", 6)
    ops = workloads.build(ib, "attractor_series", 3, tmp_path)
    for op in ops:
        d = op.digest(op.run(None))
        assert not any("hole" in f for f in op.check(d))
        d["volume"][5] *= 1.0 + 1e-6
        assert any("hole lengths" in f for f in op.check(d))


def test_cli_report_checks(tmp_path):
    ops = workloads.build(ib, "cli_vform", 2, tmp_path)
    (metrics3,) = [op for op in ops if op.label == "cli metrics cloud3.json"]
    code, data = metrics3.digest(metrics3.run(None))
    assert metrics3.check((code, data)) == []
    rep = json.loads(data)
    rep["perimeter"] *= 1.0 + 1e-5
    fails = metrics3.check((code, json.dumps(rep, sort_keys=True, indent=2).encode()))
    assert any("bytes differ" in f for f in fails)
    assert any("perimeter" in f for f in fails)


@pytest.mark.parametrize("seed", [497045376, 2680])
def test_cloud_hulls_are_turned_fixed_shapes(seed, tmp_path):
    # With a random hull shape, these seeds gave nearly coplanar facets
    # (at n = 3 and n = 4), and the eroded volumes failed their checks.
    ops = workloads.build(ib, "cli_vform", seed, tmp_path)
    inner = [op for op in ops if op.label.startswith("cli inner")]
    assert len(inner) == 3
    assert run_ops(inner) == (0, 0)
    rng = np.random.default_rng(seed)
    pts = workloads.point_cloud(3, *workloads.CLOUD_POINTS[3], rng)
    radii = np.linalg.norm(pts, axis=1)
    assert np.allclose(radii[:20], 1.0) and np.all(radii[20:] < 0.9 / np.sqrt(3))


def test_tracer_counts_layers_and_restores_functions(body_ops):
    good, _ = body_ops
    original = ib.polytope.vertex_incidence
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert ib.metrics.vertex_incidence is not original
        good[0].run(None)
    finally:
        tracer.remove()
    assert ib.metrics.vertex_incidence is original
    assert ib.polytope.vertex_incidence is original
    values = tr.layer_values(tracer, 1)
    assert values["polytope.validate_body.calls"] == 1
    assert values["lp.solve_lp.calls"] >= 2 * 3 + 1
    assert values["polytope.vertex_incidence.subsets"] > 0
    assert 0.0 < values["polytope.vertex_incidence.cache_hit_ratio"] < 1.0
    assert values["metrics.heron_bounds.self_ms"] > 0.0


def test_ref_ratios_use_the_kernel_times_around_each_op():
    ratios = run.ref_ratios([2.0, 4.0], [1.0, 1.0, 2.0, 2.0])
    assert ratios == [2.0 / 1.0, 4.0 / 1.5]


def bench_command(root, *extra):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_vform", "--seed", "3",
         "--seconds", "0.1", *extra], cwd=root, capture_output=True, text=True,
        timeout=170)


def test_command_prints_result_line():
    out = bench_command(BENCH.parent, "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {"setup_s", "op_p50_ref", "op_p90_ref",
                                      "op_mean_ref", "peak_rss_mb"}


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench_command(tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
