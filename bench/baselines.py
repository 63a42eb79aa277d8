#!/usr/bin/env python3
"""Per-call figures for the baselines quoted in ROADMAP.md.

Usage, from the root of a checkout:

    python3 bench/baselines.py

Prints the time of ``neighbourhood_profile(H, 33)`` per body at n = 2, 3, 4,
of ``validate_body`` plus ``heron_bounds`` per body (2n + 2 LPs), and of
``generate_holes`` per hole of the middle-thirds system at depth 10.  Each
figure is the median of three repeats, in ms and in units of the reference
kernel (timed as in run.py), on bodies from ``random_suite(n, 8, 2024)``.
"""

import statistics
import sys
import time

import run  # sets the thread limits before numpy is imported

sys.path.insert(0, str(run.SRC))

import inbody as ib  # noqa: E402
import refkernel  # noqa: E402
import workloads  # noqa: E402

REPEATS = 3


def per_call_ms(fn, calls: int) -> float:
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t) / calls)
    return statistics.median(times) * 1e3


def main() -> int:
    kernel = refkernel.RefKernel()
    rows = []
    for n in (2, 3, 4):
        bodies = ib.random_suite(n, 8, 2024)
        rows.append((f"neighbourhood_profile(H, 33), n = {n}", per_call_ms(
            lambda: [ib.neighbourhood_profile(workloads.unmemoized(ib, H), 33) for H in bodies],
            len(bodies))))
        rows.append((f"validate_body + heron_bounds, n = {n}", per_call_ms(
            lambda: [ib.heron_bounds(ib.validate_body(ib.HalfspaceSystem(H.A, H.b)))
                     for H in bodies], len(bodies))))
    ifs, seeds = ib.middle_thirds_ifs()
    holes = len(ib.generate_holes(ifs, seeds, 10))
    rows.append((f"generate_holes per hole, middle thirds depth 10 ({holes} holes)",
                 per_call_ms(lambda: ib.generate_holes(ifs, seeds, 10), holes)))
    unit = statistics.median(run.time_kernel(kernel) for _ in range(200)) * 1e3
    print(f"reference kernel: {unit:.4f} ms")
    for label, ms in rows:
        print(f"{label}: {ms:.3f} ms = {ms / unit:.1f} ref")
    return 0


if __name__ == "__main__":
    sys.exit(main())
