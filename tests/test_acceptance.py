"""Acceptance suite: every criterion at full scale, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s``; expect roughly half a
minute total. Thresholds are pinned here, not calibrated elsewhere.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hyptri import (
    DEFAULT_TOL,
    ScanReport,
    SplitMix64,
    TriangleAngles,
    TriangleSides,
    bisector_lengths,
    defect,
    disk_angle,
    disk_distance,
    DiskPoint,
    embed_triangle,
    equality_study,
    scan_random,
    solve_from_angles,
    solve_from_asa,
    solve_from_sss,
)
from hyptri import cli
from hyptri.steiner_lehmus import sample_angles

from conftest import LOOSE_TOL, ORACLE_TOL

GOLDEN = Path(__file__).parent / "golden" / "equilateral.svg"
SRC = str(Path(__file__).parent.parent / "src")

N_FULL = 100_000
N_DISK = 10_000
N_PAIRS = 1_000
SEED = 42


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def full_scan():
    start = time.perf_counter()
    result = scan_random(N_FULL, SEED)
    result_time = time.perf_counter() - start
    return result, result_time


def test_criterion_1_identity_suite(full_scan):
    scan, elapsed = full_scan
    ok = scan.max_sine_residual < 1e-9 and scan.max_cevian_residual < 1e-9
    report(
        "criterion 1 (identity suite)",
        ok,
        f"{scan.samples} samples, sine-law residual {scan.max_sine_residual:.3e}, "
        f"cevian residuals {scan.max_cevian_residual:.3e}, both < 1e-9, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_unconditional_identities(full_scan):
    scan, _ = full_scan
    ok = scan.max_ratio_residual < 1e-10
    report(
        "criterion 2 (unconditional proof identities)",
        ok,
        f"foot-ratio residual max {scan.max_ratio_residual:.3e} < 1e-10",
    )
    assert ok


def test_criterion_3_monotonicity(full_scan):
    scan, _ = full_scan
    ok = scan.monotonicity_failures == 0
    report(
        "criterion 3 (theorem, contrapositive)",
        ok,
        f"{scan.monotonicity_failures} sign failures, "
        f"{scan.tie_band_samples} tie-band samples",
    )
    assert ok


def test_seed_42_report_is_pinned(full_scan):
    # the exact bytes of `hyptri scan 100000 --seed 42`; any change to the
    # scan's arithmetic or reduction order shows here
    scan, _ = full_scan
    assert scan == ScanReport(
        samples=N_FULL,
        seed=SEED,
        eps_angle=DEFAULT_TOL.eps_angle,
        max_identity_residual=2.1720325864266995e-14,
        max_sine_residual=8.148630465931806e-15,
        max_cevian_residual=2.1720325864266995e-14,
        max_ratio_residual=8.648611092149157e-15,
        monotonicity_failures=0,
        inequality_failures=0,
        tie_band_samples=0,
        max_side=14.048244750563116,
    )


@pytest.fixture(scope="module")
def equality():
    start = time.perf_counter()
    result = equality_study(N_PAIRS, 777)
    return result, time.perf_counter() - start


def test_criterion_4_equality_case(equality):
    study, elapsed = equality
    ok = not study.failures()
    report(
        "criterion 4 (theorem, equality case)",
        ok,
        f"{study.pairs} pairs, worst |C - B| = {study.max_root_gap:.3e} at (A, B) = "
        f"{(study.worst_A, study.worst_B)!r}, {study.root_iterations} root iterations, "
        f"{study.failing_pairs} failing pairs, {elapsed:.1f}s",
    )
    assert ok
    # the study's outputs, pinned bit for bit
    assert study.max_root_gap == 4.901634653720066e-14
    assert (study.worst_A, study.worst_B) == (2.0457839627413947, 0.4741263922768422)
    assert study.root_iterations == 24392


def test_worst_pair_replays_through_verify(equality, capsys):
    # the study and `hyptri verify` run one policy, so the worst pair's gap
    # comes back bit for bit
    study, _ = equality
    assert cli.main(["verify", repr(study.worst_A), repr(study.worst_B), "--format", "csv"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["gap_to_b"] == repr(study.max_root_gap)


def test_criterion_5_proof_step_inequalities(full_scan):
    scan, _ = full_scan
    ok = scan.inequality_failures == 0
    report(
        "criterion 5 (proof-step inequalities)",
        ok,
        f"{scan.inequality_failures} strict-sign violations of R1, R2 < 1 < R3",
    )
    assert ok


def test_criterion_6_oracle_equivalence():
    rng = SplitMix64(SEED)
    worst_foot = 0.0
    for _ in range(N_FULL):
        A, B, C = sample_angles(rng, LOOSE_TOL.eps_angle)
        tri = solve_from_angles(TriangleAngles(A, B, C, tol=LOOSE_TOL), tol=LOOSE_TOL)
        d = bisector_lengths(tri, tol=LOOSE_TOL)
        sub_b = solve_from_asa(tri.A, tri.c, 0.5 * tri.B, tol=ORACLE_TOL)
        sub_c = solve_from_asa(tri.A, tri.b, 0.5 * tri.C, tol=ORACLE_TOL)
        worst_foot = max(
            worst_foot,
            abs(sub_b.sides.b - d.u) / d.u,
            abs(sub_c.sides.b - d.v) / d.v,
        )

    rng = SplitMix64(SEED + 1)
    worst_disk = 0.0
    for _ in range(N_DISK):
        A, B, C = sample_angles(rng, LOOSE_TOL.eps_angle)
        tri = solve_from_angles(TriangleAngles(A, B, C, tol=LOOSE_TOL), tol=LOOSE_TOL)
        pA, pB, pC = embed_triangle(tri)
        worst_disk = max(
            worst_disk,
            abs(disk_distance(pB, pC) - tri.a),
            abs(disk_distance(pA, pC) - tri.b),
            abs(disk_distance(pA, pB) - tri.c),
            abs(disk_angle(pA, pB, pC) - tri.A),
            abs(disk_angle(pB, pA, pC) - tri.B),
            abs(disk_angle(pC, pA, pB) - tri.C),
        )

    ln3_err = abs(disk_distance(DiskPoint(0.0, 0.0), DiskPoint(0.5, 0.0)) - math.log(3.0))
    ok = worst_foot < 1e-10 and worst_disk < 1e-9 and ln3_err < 1e-12
    report(
        "criterion 6 (oracle equivalence)",
        ok,
        f"foot vs ASA solve rel {worst_foot:.3e} < 1e-10, disk metric "
        f"{worst_disk:.3e} < 1e-9, ln3 error {ln3_err:.3e} < 1e-12",
    )
    assert ok


def test_criterion_7_round_trips():
    rng = SplitMix64(SEED + 2)
    worst_angle = 0.0
    worst_side = 0.0
    min_defect = math.inf
    for _ in range(N_FULL):
        A, B, C = sample_angles(rng, LOOSE_TOL.eps_angle)
        tri = solve_from_angles(TriangleAngles(A, B, C, tol=LOOSE_TOL), tol=LOOSE_TOL)
        back = solve_from_sss(tri.sides, tol=LOOSE_TOL)
        worst_angle = max(
            worst_angle, abs(back.A - A), abs(back.B - B), abs(back.C - C)
        )
        again = solve_from_angles(back.angles, tol=LOOSE_TOL)
        worst_side = max(
            worst_side,
            abs(again.a - tri.a),
            abs(again.b - tri.b),
            abs(again.c - tri.c),
        )
        min_defect = min(min_defect, defect(tri.angles))
    ok = worst_angle < 1e-9 and worst_side < 1e-9 and min_defect > 0.0
    report(
        "criterion 7 (round trips)",
        ok,
        f"angle error {worst_angle:.3e}, side error {worst_side:.3e}, both < 1e-9; "
        f"min defect {min_defect:.3e} > 0",
    )
    assert ok


def test_criterion_8_euclidean_limit():
    shape = (2.0, 2.5, 3.0)
    scale = 1e-4
    tri = solve_from_sss(TriangleSides(*(s * scale for s in shape)))
    d = bisector_lengths(tri)
    got = math.sinh(d.u) / math.sinh(d.U)
    expected = shape[2] / shape[0]  # euclidean bisector splits AC as c : a
    rel = abs(got - expected) / expected
    ok = rel < 1e-6
    report(
        "criterion 8 (euclidean limit)",
        ok,
        f"foot ratio sinh u/sinh U = {got:.9f} vs c/a = {expected:.9f}, rel {rel:.3e} < 1e-6",
    )
    assert ok


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "hyptri", *args], capture_output=True, env=env
    )


def test_criterion_9_determinism(tmp_path):
    first = run_cli("scan", str(N_FULL), "--seed", str(SEED))
    second = run_cli("scan", str(N_FULL), "--seed", str(SEED))
    scans_equal = first.stdout == second.stdout and first.returncode == 0

    out = tmp_path / "figure.svg"
    figure = run_cli("figure", "sss", "1", "1", "1", "--out", str(out))
    golden_equal = figure.returncode == 0 and out.read_bytes() == GOLDEN.read_bytes()

    ok = scans_equal and golden_equal
    report(
        "criterion 9 (determinism)",
        ok,
        f"seeded scans byte-identical: {scans_equal}; "
        f"figure matches golden byte-for-byte: {golden_equal}",
    )
    assert ok
