#!/usr/bin/env python3
"""Benchmark of the inbody library: one workload per run, checked outputs.

Usage, from the root of a checkout:

    python3 bench/run.py --workload body_reports --seed 1 --seconds 20 --trace 0

The run imports ``inbody`` from ``src/`` of the same checkout, builds the
workload's inputs from ``--seed``, warms up with one untimed pass, then
times whole passes over the workload's fixed list of operations until
``--seconds`` have gone by.  A fixed reference kernel (refkernel.py) is
timed between operations; the ``*_ref`` metrics divide each operation's
time by the kernel's time around it, which cancels most of the machine's
drift.  Wall-clock figures are printed too, but are not part of the result.
Every result is then checked against independent references (checks.py);
an operation whose result fails a check is counted as failed.

With ``--trace 1`` passes alternate between untraced and traced; the
traced passes give the per-layer metrics (see tracer.py) and the ratio of
their mean cost to that of the untraced passes is the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracer as tr

# One thread everywhere: set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("INBODY_THREADS", None)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
_IMPORT_PROBE = ("import time; t = time.perf_counter(); import inbody; "
                 "print(time.perf_counter() - t)")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("body_reports", "profile_grid", "attractor_series",
                            "cli_vform"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "inbody" / "__init__.py").is_file():
        print(f"error: no inbody package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inbody as ib
    import refkernel
    import workloads

    tracer = tr.Tracer()
    if args.trace:
        tracer.install()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT))
    try:
        build_s = []
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            ops = workloads.build(ib, args.workload, args.seed, workdir)
            build_s.append(time.perf_counter() - t)
        setup_s = import_seconds() + statistics.median(build_s)
        suite_ms = tracer.self_s["randgen.random_suite"] * 1e3 / SETUP_REPEATS
        tracer.remove()
        tracer.reset()

        kernel = refkernel.RefKernel()
        records, ref_s, passes = measure(ops, kernel, tracer, args.seconds,
                                         bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, failed_known, messages = check_all(ops, records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = [r for r in records if r["pass"] >= 0]
    attempted = len(timed)
    ratios = ref_ratios([r["dt"] for r in timed], ref_s)
    kernel_ms = statistics.median(ref_s) * 1e3
    correct = failed == failed_known
    for line in messages[:20]:
        print(f"check failed: {line}", file=sys.stderr)

    # Wall-clock figures move with the machine's speed (their spread between
    # runs reached 28%), so they are reported but gate nothing; the *_ref
    # figures divide that speed out.
    untraced = [r["dt"] for r in timed if not r["traced"]]
    wall = {"wall.ops_per_s": (len(untraced) / sum(untraced), "ops/s"),
            "wall.op_p50_ms": (statistics.median(untraced) * 1e3, "ms"),
            "wall.op_p90_ms": (p90(untraced) * 1e3, "ms")}
    if args.trace:
        traced_ref = [x for x, r in zip(ratios, timed) if r["traced"]]
        untraced_ref = [x for x, r in zip(ratios, timed) if not r["traced"]]
        metrics = {name: (value, unit) for (name, unit), value in zip(
            tr.LAYER_METRICS, tr.layer_values(tracer, len(traced_ref)).values())}
        metrics["randgen.random_suite.self_ms"] = (suite_ms, "ms")
        metrics["trace.overhead_ratio"] = (
            statistics.fmean(traced_ref) / statistics.fmean(untraced_ref), "ratio")
        metrics["ref.kernel_ms"] = (kernel_ms, "ms")
        metrics.update(wall)
        write_trace(args, tracer, len(traced_ref))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_ref": (statistics.median(ratios), "ref"),
            "op_p90_ref": (p90(ratios), "ref"),
            "op_mean_ref": (statistics.fmean(ratios), "ref"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    print(f"workload {args.workload} seed {args.seed}: {passes} passes of "
          f"{len(ops)} ops, {attempted} timed ops, {failed} failed "
          f"({failed_known} known faults), reference kernel median "
          f"{kernel_ms:.4f} ms")
    for name, (value, unit) in {**metrics, **wall}.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def import_seconds() -> float:
    """Median time to import inbody in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def measure(ops, kernel, tracer, seconds, trace):
    """Warm-up pass (pass -1), then whole timed passes until ``seconds``.

    The reference kernel is timed once before the first timed op and once
    after every timed op, so ``ref_s[i]`` and ``ref_s[i + 1]`` bracket timed
    op ``i``.  With tracing, odd passes run with the tracer installed and at
    least one pass of each kind is made.
    """
    records = []
    for _ in range(10):
        kernel()
    run_pass(ops, -1, False, records, kernel, [])
    gc.collect()
    gc.freeze()
    ref_s = [time_kernel(kernel)]
    start = time.perf_counter()
    passes = 0
    while passes < (2 if trace else 1) or time.perf_counter() - start < seconds:
        traced = trace and passes % 2 == 1
        if traced:
            tracer.install()
        try:
            run_pass(ops, passes, traced, records, kernel, ref_s)
        finally:
            tracer.remove()
        # Results kept for the checks would otherwise make every later
        # garbage collection slower; frozen objects are never scanned, and
        # collecting first keeps the pass's garbage from being frozen.
        gc.collect()
        gc.freeze()
        passes += 1
    return records, ref_s, passes


def time_kernel(kernel) -> float:
    """Time of a second back-to-back kernel call.

    The first call refills the caches the op just used, a cost that depends
    on the op and on the process's memory layout rather than on the machine.
    """
    kernel()
    t = time.perf_counter()
    value = kernel()
    dt = time.perf_counter() - t
    if value != kernel.checksum:
        raise RuntimeError("reference kernel returned a different checksum")
    return dt


def run_pass(ops, index, traced, records, kernel, ref_s):
    """Time each op and digest its result; then time the reference kernel."""
    for k, op in enumerate(ops):
        arg = op.prepare()
        t = time.perf_counter()
        try:
            out = op.run(arg)
            error = None
        except Exception as exc:  # a raising op is a failed op
            out, error = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t
        digest = op.digest(out) if error is None else None
        records.append({"pass": index, "op": k, "dt": dt, "traced": traced,
                        "digest": digest, "error": error})
        if index >= 0:
            ref_s.append(time_kernel(kernel))


def ref_ratios(dts, ref_s):
    """Each op's time over the median of the four kernel times around it.

    Dividing by the kernel's speed at the time of the op, rather than by its
    median over the run, also cancels drift that is slower than one op but
    faster than the run.
    """
    return [dt / statistics.median(ref_s[max(0, i - 1):i + 3])
            for i, dt in enumerate(dts)]


def check_all(ops, records):
    """Check every digest; returns (failed, failed known faults, messages).

    Warm-up results are checked too, since later checks compare against
    them (repeated CLI reports), but only timed ops are counted.
    """
    failed = failed_known = 0
    messages = []
    for r in records:
        op = ops[r["op"]]
        if r["error"] is not None:
            fails = [r["error"]]
        else:
            try:
                fails = op.check(r["digest"])
            except Exception as exc:  # a result the check cannot read
                fails = [f"check raised {type(exc).__name__}: {exc}"]
        if fails and r["pass"] >= 0:
            failed += 1
            failed_known += op.known_fault
            if r["pass"] == 0:
                messages.extend(f"{op.label}: {f}" for f in fails)
    return failed, failed_known, messages


def p90(values):
    """90th percentile, interpolated between the closest ranks."""
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def write_trace(args, tracer, ops):
    """Per-function totals of the traced passes, for reading by hand."""
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "traced_ops": ops,
        "calls": dict(sorted(tracer.calls.items())),
        "self_ms": {k: v * 1e3 for k, v in sorted(tracer.self_s.items())},
        "counts": dict(sorted(tracer.counts.items()))}, indent=2) + "\n")


if __name__ == "__main__":
    sys.exit(main())
