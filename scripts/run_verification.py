#!/usr/bin/env python3
"""End-to-end verification run: ensemble scan, equality-case root study, and
a worked proof trace for one scalene example.

Exits 1, after printing FAIL and the failed criteria, when the scan fails a
criterion of `ScanReport.failures` (the verdict of `hyptri scan`) or a pair
fails one of `EqualBisectorSolve.failures` (the verdict of `hyptri verify`).
"""

import argparse
import math
import sys
import time

from hyptri import (
    SCAN_TOL,
    SplitMix64,
    TriangleAngles,
    bisector_lengths,
    equal_bisector_report,
    proof_trace,
    scan_random,
    solve_from_angles,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=100_000)
    parser.add_argument("--pairs", type=int, default=1_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    print(f"== ensemble scan ({args.samples} triangles, seed {args.seed}) ==")
    start = time.perf_counter()
    scan = scan_random(args.samples, args.seed)
    print(f"  elapsed                {time.perf_counter() - start:.2f}s")
    print(f"  max sine-law residual  {scan.max_sine_residual:.3e}")
    print(f"  max cevian residual    {scan.max_cevian_residual:.3e}")
    print(f"  max foot-ratio resid.  {scan.max_ratio_residual:.3e}")
    print(f"  monotonicity failures  {scan.monotonicity_failures}")
    print(f"  inequality failures    {scan.inequality_failures}")
    print(f"  largest side seen      {scan.max_side:.3f}")
    failed = dict.fromkeys(scan.failures())

    print(f"\n== equality case ({args.pairs} random (A, B) pairs) ==")
    rng = SplitMix64(args.seed)
    start = time.perf_counter()
    worst = 0.0
    worst_pair = None
    iterations = 0
    bad = 0
    solved = 0
    while solved < args.pairs:
        A = 0.05 + rng.random() * 2.55
        b_max = (math.pi - A - 0.1) / 2.0
        if b_max <= 0.06:
            continue
        B = 0.05 + rng.random() * (b_max - 0.05)
        result = equal_bisector_report(A, B, SCAN_TOL)
        if abs(result.c - B) > worst:
            worst, worst_pair = abs(result.c - B), (A, B)
        iterations += result.iterations
        pair_failures = result.failures(B)
        bad += bool(pair_failures)
        failed.update(dict.fromkeys(pair_failures))
        solved += 1
    print(f"  elapsed                {time.perf_counter() - start:.2f}s")
    print(f"  worst |C - B|          {worst:.3e} at (A, B) = {worst_pair!r}")
    print(f"  root iterations        {iterations}")
    print(f"  failing pairs          {bad}")

    print("\n== proof trace for angles (0.6, 0.5, 0.9) ==")
    t = solve_from_angles(TriangleAngles(0.6, 0.5, 0.9))
    d = bisector_lengths(t)
    trace = proof_trace(t, d=d)
    print(f"  sides                  a={t.a:.6f} b={t.b:.6f} c={t.c:.6f}")
    print(f"  bisectors              tB={d.tB:.6f} tC={d.tC:.6f} (B < C so tB > tC)")
    print(f"  R1={trace.R1:.6f} R2={trace.R2:.6f} R3={trace.R3:.6f} D={trace.D:+.6f}")
    print(f"  identity residuals     idU={trace.idU:.3e} idV={trace.idV:.3e}")

    print(f"\n{'FAIL: ' + '; '.join(failed) if failed else 'PASS'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
