import errno
import hashlib
import marshal
import math
import os
import random
import re
import select
import signal
import struct
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import replace
from itertools import permutations, product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from hyptri import (
    BisectorData,
    DEFAULT_TOL,
    DomainCap,
    EqualBisectorSolve,
    HypTriError,
    InvalidTriangle,
    NoBracket,
    NonConvergence,
    NumericalFailure,
    ScanReport,
    SplitMix64,
    ToleranceConfig,
    TriangleAngles,
    bisector_lengths,
    check_monotonicity,
    equal_bisector_report,
    equality_study,
    law_of_sines_residual,
    proof_trace,
    sample_angles,
    scan_random,
    solve_from_angles,
    solve_from_sas,
    solve_from_sss,
    subtriangle_residuals,
    TriangleSides,
)
import hyptri.steiner_lehmus as steiner_lehmus
from hyptri import cli
from hyptri.cevian import _adjacent_split
from hyptri.core import _MAX_SIDE, _cevian_length, _sides_from_angles
from hyptri.rng import _LANES
from hyptri.steiner_lehmus import (
    _bracketed_hybrid, _count_sign_changes, _evidence, _gap_in_C, _merge_parts, _merge_signs,
    _scan_part, _sign_law,
)

from conftest import LOOSE_TOL, angle_triples, seeded_triangles


def test_trace_isosceles_is_neutral():
    t = solve_from_angles(TriangleAngles(0.8, 0.6, 0.6))
    trace = proof_trace(t)
    assert trace.R1 == pytest.approx(1.0, abs=1e-12)
    assert trace.R2 == pytest.approx(1.0, abs=1e-12)
    assert trace.R3 == pytest.approx(1.0, abs=1e-12)
    assert abs(trace.gap) <= 1e-12
    assert abs(trace.D) <= 1e-12


def test_trace_D_matches_its_sum_form_and_the_sign_of_B_minus_C():
    # D's cosh form, as proof_trace evaluates it, against the sum form
    # sinh b/sinh u - sinh c/sinh v it equals; both take the sign of B - C
    # outside the tie band
    rng = SplitMix64(42)
    outside = 0
    for _ in range(2000):
        A, B, C = sample_angles(rng, LOOSE_TOL.eps_angle)
        t = solve_from_angles(TriangleAngles(A, B, C, tol=LOOSE_TOL), tol=LOOSE_TOL)
        d = bisector_lengths(t, LOOSE_TOL)
        D = proof_trace(t, d, LOOSE_TOL).D
        first = math.sinh(t.b) / math.sinh(d.u)
        second = math.sinh(t.c) / math.sinh(d.v)
        assert abs(D - (first - second)) <= 1e-12 * max(first, second)
        if not check_monotonicity(t, LOOSE_TOL, d).in_tie_band:
            outside += 1
            sign = (B > C) - (B < C)
            assert (D > 0.0) - (D < 0.0) == sign
            assert (first > second) - (first < second) == sign
    assert outside == 2000


def test_trace_strict_inequalities_when_B_below_C():
    for t in seeded_triangles(400, seed=21):
        trace = proof_trace(t)
        if t.B + 1e-9 < t.C:
            assert trace.R1 < 1.0
            assert trace.R2 < 1.0
            assert trace.R3 > 1.0
            assert math.sinh(t.b) < math.sinh(t.c)
        elif t.C + 1e-9 < t.B:
            assert trace.R1 > 1.0
            assert trace.R2 > 1.0
            assert trace.R3 < 1.0


def test_trace_identity_residuals_always_small():
    for t in seeded_triangles(400, seed=22):
        trace = proof_trace(t)
        assert trace.idU < 1e-10
        assert trace.idV < 1e-10


def test_example_triangle_has_positive_gap():
    # C = 0.9 > B = 0.5, so the bisector from the smaller angle is longer
    t = solve_from_angles(TriangleAngles(0.6, 0.5, 0.9))
    result = check_monotonicity(t)
    assert result.passed
    assert result.tB > result.tC
    assert result.gap > 0.0


def test_monotonicity_exact_isosceles():
    t = solve_from_angles(TriangleAngles(0.8, 0.77, 0.77))
    result = check_monotonicity(t)
    assert result.passed
    assert result.in_tie_band
    assert result.gap == 0.0  # mirrored computation is bitwise symmetric


def test_large_sided_triangle_faces_the_strict_sign_law():
    # sides near 40 make every angle tiny: C - B = 2.3e-10 is below the tie
    # band's fixed bound, but not below the band scaled by max(B, C)
    t = solve_from_sss(TriangleSides(40.902881, 36.249007, 36.336))
    result = check_monotonicity(t)
    assert 0.0 < t.C - t.B < steiner_lehmus.TIE_BAND_ANGLE
    assert (result.passed, result.in_tie_band) == (True, False)
    assert result.gap > 0.0


def test_sas_box_has_no_sign_law_false_alarm(monkeypatch):
    # the whole stated domain in one box: b and c up to the side cap, A in
    # (0, pi). The 77 triangles with |C - B| below the fixed bound all have
    # tiny angles; a fixed band took them in and failed each on its gap test.
    # There R3 = cos(B/2)/cos(C/2) rounds to 1 or past it on 210 triangles,
    # which the scan's proof-step verdict, read from the product forms of
    # R2 - 1 and R3 - 1, must not count
    rng = SplitMix64(42)
    seen = Counter()
    rows = []
    for _ in range(5000):
        b = 50.0 * rng.random()
        c = 50.0 * rng.random()
        A = math.pi * rng.random()
        try:
            t = solve_from_sas(b, A, c, LOOSE_TOL)
        except HypTriError as exc:
            seen[type(exc).__name__] += 1
            continue
        row = public_fields(t, LOOSE_TOL)
        in_band, passed = row[-2:]
        R3 = proof_trace(t, tol=LOOSE_TOL).R3
        seen["accepted"] += 1
        seen["below the fixed bound"] += abs(t.C - t.B) < steiner_lehmus.TIE_BAND_ANGLE
        seen["in the band"] += in_band
        seen["failed"] += not passed
        seen["float R3 step fails"] += not in_band and not (R3 > 1.0 if t.B < t.C else R3 < 1.0)
        rows.append((t.angles.as_tuple(), row))
    # the scan's own reduction over these triangles in place of sampled ones
    triples = iter([triple for triple, _ in rows])
    fields = iter([row for _, row in rows])
    monkeypatch.setattr(steiner_lehmus, "_angles_from_draws", lambda *draws: next(triples))
    monkeypatch.setattr(steiner_lehmus, "_evidence", lambda A, B, C, tol: next(fields))
    mono, proof_steps, ties = _scan_part(42, 0, len(rows), LOOSE_TOL)[4:]
    seen["scan monotonicity failures"] = mono
    seen["scan proof-step failures"] = proof_steps
    seen["scan tie-band samples"] = ties
    assert dict(seen) == {
        "DomainCap": 2409, "InvalidTriangle": 1, "accepted": 2590,
        "below the fixed bound": 77, "in the band": 0, "failed": 0,
        "float R3 step fails": 210, "scan monotonicity failures": 0,
        "scan proof-step failures": 0, "scan tie-band samples": 0,
    }


def test_gap_antisymmetry_bitwise():
    t = solve_from_angles(TriangleAngles(0.6, 0.5, 0.9))
    swapped = solve_from_angles(TriangleAngles(0.6, 0.9, 0.5))
    g = check_monotonicity(t).gap
    gs = check_monotonicity(swapped).gap
    assert gs == -g


@given(angle_triples())
def test_gap_antisymmetry_property(triple):
    A, B, C = triple
    assert _gap_in_C(A, C)(B) == -_gap_in_C(A, B)(C)


@given(angle_triples())
def test_sign_law_property(triple):
    A, B, C = triple
    g = _gap_in_C(A, B)(C)
    if abs(C - B) >= 1e-9:
        assert (g > 0.0) == (C > B)


def per_triangle_gap(A, B, C):
    """tB - tC through the raw kernels the public path shares, without its
    checks: the AAA side solve, the foot split and the bisector length."""
    a, b, c = _sides_from_angles(A, B, C)
    sinh_a = math.sinh(a)
    sinh_b = math.sinh(b)
    sinh_c = math.sinh(c)
    u = _adjacent_split(b, sinh_c / sinh_a)
    v = _adjacent_split(c, sinh_b / sinh_a)
    half_A = math.sin(0.5 * A)
    tB = _cevian_length(c, u, sinh_c, math.sinh(u), half_A)
    tC = _cevian_length(b, v, sinh_b, math.sinh(v), half_A)
    return tB - tC


def gap_triples():
    """1000 uniform simplex triples, then 1000 needles and slivers: A and B
    log-uniform in [1e-9, 2.5], C a log-uniform fraction of what is left."""
    triples = sampled(8, 1000, LOOSE_TOL.eps_angle)
    rnd = random.Random(8)

    def log_uniform(lo, hi):
        return math.exp(rnd.uniform(math.log(lo), math.log(hi)))

    while len(triples) < 2000:
        A = log_uniform(1e-9, 2.5)
        B = log_uniform(1e-9, 2.5)
        rest = math.pi - A - B
        if rest <= 0.0:
            continue
        f = log_uniform(1e-9, 1.0)
        triples.append((A, B, rest * (f if len(triples) % 2 else 1.0 - f)))
    return triples


def test_gap_kernel_equals_per_triangle_path():
    for A, B, C in gap_triples():
        assert _gap_in_C(A, B)(C) == per_triangle_gap(A, B, C)


def test_gap_kernel_equals_public_bisector_lengths():
    checked = 0
    for A, B, C in gap_triples():
        try:
            d = bisector_lengths(solve_from_angles(TriangleAngles(A, B, C)))
        except HypTriError:
            continue
        assert _gap_in_C(A, B)(C) == d.tB - d.tC
        checked += 1
    assert checked >= 1000


def test_gap_kernel_raises_like_per_triangle_path_off_the_simplex():
    # angle sums of exactly pi (zero defect, all sides zero), a product of two
    # sines that underflows, then C at or below zero and past the rest of pi
    # for sampled (A, B)
    cases = [
        (1.0, 1.0, math.pi - 2.0), (0.5, 1.5, math.pi - 2.0), (2.0, 0.5, math.pi - 2.5),
        (1e-320, 0.7, 1e-9),
    ]
    for A, B, C in gap_triples()[::4]:
        rest = math.pi - A - B
        for off in (0.0, -1e-12, -C, rest * (1.0 + 1e-9), rest + 1e-9, rest + C, math.pi):
            cases.append((A, B, off))
    for A, B, C in cases:
        expected = outcome(per_triangle_gap, A, B, C)
        assert isinstance(expected, tuple)  # every one of these raises
        assert outcome(_gap_in_C(A, B), C) == expected


def solved_bisectors(A, B, C, tol):
    """bisector_lengths' outcome on the solved triple, or ("solve", class,
    message) when the solve rejects it."""
    try:
        tri = solve_from_angles(TriangleAngles(A, B, C, tol=tol), tol=tol)
    except Exception as exc:  # compared by class and message below
        return "solve", type(exc), str(exc)
    return outcome(bisector_lengths, tri, tol)


@pytest.mark.parametrize(
    "tol, counts, digest",
    [
        (
            DEFAULT_TOL,
            {"accepted": 1924, "foot": 3, "sub-triangle": 32, "solve": 41},
            "36585403380b3960114057119795bfad47b86328fc11d1c29bea4bd5d4bfcf9c",
        ),
        (
            LOOSE_TOL,
            {"accepted": 1690, "solve": 310},
            "e5233cf456553675d7c18bf615241b16c11353d5214f9c0b743f4d0a7fcffb56",
        ),
    ],
)
def test_bisector_lengths_is_pinned_on_needle_grid(tol, counts, digest):
    # values, check order and messages of the bisector stage on every triple,
    # recorded independently of the fused scan, which inlines the stage
    sha = hashlib.sha256()
    seen = Counter()
    for A, B, C in gap_triples():
        result = solved_bisectors(A, B, C, tol)
        sha.update(repr(result).encode() + b"\n")
        if isinstance(result, BisectorData):
            seen["accepted"] += 1
        elif result[0] == "solve":
            seen["solve"] += 1
        else:
            seen[result[1].split(" ")[0]] += 1
    assert dict(seen) == counts
    assert sha.hexdigest() == digest


def test_solver_recovers_equal_angle():
    assert equal_bisector_report(0.9, 0.7).c == pytest.approx(0.7, abs=1e-10)
    assert equal_bisector_report(0.3, 0.4).c == pytest.approx(0.4, abs=1e-10)


def test_solver_reports_unique_sign_change():
    result = equal_bisector_report(0.9, 0.7)
    assert result.sign_changes == 1
    assert result.iterations <= 200


def test_solver_outputs_are_pinned():
    assert equal_bisector_report(0.9, 0.7) == EqualBisectorSolve(
        c=0.7000000000000086, iterations=26, sign_changes=1
    )
    assert equal_bisector_report(0.3, 0.4, LOOSE_TOL) == EqualBisectorSolve(
        c=0.40000000000000047, iterations=28, sign_changes=1
    )


def test_solver_rejects_inadmissible_pair():
    with pytest.raises(InvalidTriangle):
        equal_bisector_report(2.0, 0.7)  # A + 2B >= pi
    with pytest.raises(InvalidTriangle):
        equal_bisector_report(math.pi - 0.4, 0.2)


def test_bracketed_hybrid_solves_cosine():
    root, evals = _bracketed_hybrid(math.cos, 1.0, 2.0)
    assert root == pytest.approx(math.pi / 2, abs=1e-12)
    assert evals <= 200


def test_solver_rejects_a_base_angle_inside_the_margin():
    message = r"^angle B must exceed the margin 1e-09, got 1e-10$"
    with pytest.raises(InvalidTriangle, match=message):
        equal_bisector_report(0.9, 1e-10)


def test_bracketed_hybrid_stops_at_its_evaluation_budget(monkeypatch):
    monkeypatch.setattr(steiner_lehmus, "_MAX_EVALS", 3)
    with pytest.raises(NonConvergence, match="^no convergence after 3 evaluations$"):
        _bracketed_hybrid(math.cos, 0.0, 3.0)


def test_bracketed_hybrid_returns_an_exact_zero_at_an_end():
    assert _bracketed_hybrid(lambda x: x, 0.0, 1.0) == (0.0, 1)
    assert _bracketed_hybrid(lambda x: x - 1.0, 0.0, 1.0) == (1.0, 2)


def test_failures_name_each_failed_criterion():
    passing = scan_random(5, 0)
    assert passing.failures() == []
    failing = replace(
        passing, max_identity_residual=math.nan, max_ratio_residual=1e-10,
        monotonicity_failures=1, inequality_failures=2,
    )
    assert failing.failures() == [
        "identity residual not below 1e-9",
        "foot-ratio residual not below 1e-10",
        "monotonicity failures",
        "proof-step inequality failures",
    ]
    assert EqualBisectorSolve(c=0.7, iterations=20, sign_changes=1).failures(0.7) == []
    assert EqualBisectorSolve(c=0.7 + 1e-10, iterations=20, sign_changes=0).failures(0.7) == [
        "|c - B| not below 1e-10",
        "sign changes in the sweep not exactly 1",
    ]
    assert EqualBisectorSolve(c=math.nan, iterations=20, sign_changes=1).failures(0.7) == [
        "|c - B| not below 1e-10",
    ]


def test_bracketed_hybrid_requires_sign_change():
    with pytest.raises(NoBracket):
        _bracketed_hybrid(math.cos, 0.2, 1.0)


def test_bracketed_hybrid_rejects_nan_at_an_end():
    # a nan end is a failed evaluation, not a missing sign change
    def nan_at(x0):
        return lambda x: math.nan if x == x0 else math.cos(x)

    with pytest.raises(NumericalFailure, match=r"^g is nan at the bracket end lo = 1\.0$"):
        _bracketed_hybrid(nan_at(1.0), 1.0, 2.0)
    with pytest.raises(NumericalFailure, match=r"^g is nan at the bracket end hi = 2\.0$"):
        _bracketed_hybrid(nan_at(2.0), 1.0, 2.0)
    with pytest.raises(NumericalFailure, match=r"^g is nan at the bracket end lo = 1e-09$"):
        equal_bisector_report(1e-200, 0.7)


def test_solver_requires_a_valid_isosceles_triangle():
    # defect pi - A - 2B of 5e-10 is below eps_angle; 2e-9 is above it
    message = "angle sum must stay below pi by at least 1e-09 (defect 5.000000413701855e-10)"
    with pytest.raises(InvalidTriangle, match=f"^{re.escape(message)}$"):
        equal_bisector_report(1.0, 1.0707963265448965)
    B = (math.pi - 1.0 - 2e-9) / 2
    result = equal_bisector_report(1.0, B)
    assert abs(result.c - B) < 1e-10
    assert result.sign_changes == 1


def near_end_pairs():
    """(A, B) pairs whose root C = B lies near an end of the bracket: a
    log-uniform defect puts it anywhere from the middle of the bracket to
    within half a sweep step of hi; B near 0 puts it near lo."""
    rng = random.Random(5)
    pairs = [(1.0, 1.0705463267948966), (2.9485124868180193, 5.566310896803148e-05)]
    for _ in range(200):
        A = rng.uniform(0.05, 3.0)
        defect = math.exp(rng.uniform(math.log(1.3e-9), math.log(0.1)))
        pairs.append((A, 0.5 * (math.pi - A - defect)))
    return pairs


def test_sweep_sees_roots_near_the_bracket_ends():
    for A, B in near_end_pairs():
        result = equal_bisector_report(A, B)
        assert abs(result.c - B) < 1e-10, (A, B)
        assert result.sign_changes == 1, (A, B)


def count_sign_changes(g, lo, hi, points):
    """The generic sweep, the oracle for the fused ``_count_sign_changes``:
    sign changes of g along lo, the midpoints of ``points`` equal steps, and
    hi, one call of g per point; a zero or nan value is skipped."""
    changes = 0
    prev = 0
    step = (hi - lo) / points
    for x in (lo, *[lo + (i + 0.5) * step for i in range(points)], hi):
        value = g(x)
        sgn = (value > 0.0) - (value < 0.0)
        if sgn == 0:
            continue
        if prev != 0 and sgn != prev:
            changes += 1
        prev = sgn
    return changes


def fused_count(A, B, lo, hi, points, g):
    """The fused sweep's count over its whole grid, indices -1 to points."""
    return _count_sign_changes(A, B, lo, hi, points, g, -1, points + 1)[2]


def merged_count(A, B, lo, hi, points, g, cut):
    """The fused sweep's count as two ranges cut before index ``cut``, merged
    as ``equal_bisector_report`` merges its halves."""
    lower = _count_sign_changes(A, B, lo, hi, points, g, -1, cut)
    upper = _count_sign_changes(A, B, lo, hi, points, g, cut, points + 1)
    return _merge_signs(lower, upper)[2]


def sweep_outcomes(A, B, lo, hi, points):
    """The fused sweep's and the oracle's outcome on the same grid of g."""
    g = _gap_in_C(A, B)
    return (
        outcome(fused_count, A, B, lo, hi, points, g),
        outcome(count_sign_changes, g, lo, hi, points),
    )


def cuts(points):
    """Every cut of a grid of ``points`` steps, from index -1 (all in the
    upper range) to ``points + 1`` (all in the lower); a 1000-point grid
    gets its ends, both sides of its middle and every 97th index."""
    if points > 20:
        return sorted({-1, 0, 1, points // 2, points // 2 + 1, points, points + 1,
                       *range(-1, points + 2, 97)})
    return range(-1, points + 2)


def assert_merges_at_every_cut(A, B, lo, hi, points, g=None):
    """The merged count equals the one-pass count, or raises as it does, at
    every cut."""
    g = g or _gap_in_C(A, B)
    whole = outcome(fused_count, A, B, lo, hi, points, g)
    for cut in cuts(points):
        assert outcome(merged_count, A, B, lo, hi, points, g, cut) == whole, (A, B, points, cut)


@pytest.mark.parametrize("tol", [LOOSE_TOL, DEFAULT_TOL])
def test_sweep_equals_generic_sweep_on_seeded_pairs(tol):
    for A, B in reference_pairs(60, 7):
        hi = math.fsum((math.pi, -A, -B, -tol.eps_angle))
        for points in (1, 2, 7, 1000):
            fused, oracle = sweep_outcomes(A, B, tol.eps_angle, hi, points)
            assert fused == oracle == 1, (A, B, points)


def test_sweep_equals_generic_sweep_near_the_bracket_ends():
    eps = DEFAULT_TOL.eps_angle
    for A, B in near_end_pairs():
        hi = math.fsum((math.pi, -A, -B, -eps))
        for points in (1, 2, 7, 1000):
            fused, oracle = sweep_outcomes(A, B, eps, hi, points)
            assert fused == oracle, (A, B, points)


def test_sweep_reads_near_ties_from_g():
    # one step whose midpoint is C = B + k ulps exactly: at k = 0, xB = xC and
    # g's exact 0.0 has no sign, so it is skipped; a few ulps off, xB and xC
    # are inside the band, so the sign is g's, whatever rounding made it
    A, B = 0.9, 0.75
    g = _gap_in_C(A, B)
    assert g(B) == 0.0
    calls = []

    def spy(C):
        calls.append(C)
        return g(C)

    for k in (0, 1, -1, 16, -16):
        C = B + k * 2.0**-53
        lo, hi = 0.5, 2.0 * C - 0.5
        calls.clear()
        assert fused_count(A, B, lo, hi, 1, spy) == count_sign_changes(g, lo, hi, 1)
        assert calls == [C]
    # the same tie on finer grids of [0.5, 1.0]
    for points in (3, 5):
        calls.clear()
        assert fused_count(A, B, 0.5, 1.0, points, spy) == 1
        assert calls == [B]
        assert count_sign_changes(g, 0.5, 1.0, points) == 1


def test_sweep_raises_like_generic_sweep_off_the_simplex():
    # an end at or below zero, or at or past the rest of pi, for sampled
    # (A, B); the ends are evaluated in grid order, so the same point raises
    cases = []
    for A, B, C in gap_triples()[::20]:
        rest = math.pi - A - B
        for lo in (0.0, -1e-12, -C):
            cases.append((A, B, lo, 0.5 * rest))
        for hi in (rest * (1.0 + 1e-9), rest + 1e-9, rest + C, math.pi):
            cases.append((A, B, 0.5 * rest, hi))
    for A, B, lo, hi in cases:
        for points in (1, 7):
            fused, oracle = sweep_outcomes(A, B, lo, hi, points)
            assert isinstance(oracle, tuple), (A, B, lo, hi)  # every one of these raises
            assert fused == oracle, (A, B, lo, hi)
    # a product of two sines that underflows raises at lo; with A = 1e-200
    # every value is nan, so no point has a sign
    assert sweep_outcomes(1e-320, 0.7, 1e-9, 1.0, 7) == 2 * (
        (DomainCap, "angles too small for float sides: a product of two sines underflows to 0"),
    )
    assert sweep_outcomes(1e-200, 0.7, 1e-9, 2.0, 1000) == (0, 0)


def test_sweep_merges_at_every_cut_on_seeded_pairs():
    for tol in (LOOSE_TOL, DEFAULT_TOL):
        for A, B in reference_pairs(20, 7):
            hi = math.fsum((math.pi, -A, -B, -tol.eps_angle))
            for points in (1, 2, 3, 7, 1000):
                assert_merges_at_every_cut(A, B, tol.eps_angle, hi, points)
    for A, B in near_end_pairs():
        eps = DEFAULT_TOL.eps_angle
        hi = math.fsum((math.pi, -A, -B, -eps))
        for points in (1, 2, 7):
            assert_merges_at_every_cut(A, B, eps, hi, points)


def test_sweep_merges_at_every_cut_off_the_simplex():
    # the rejections of the one-pass sweep, and an all-nan sweep, at every cut
    for A, B, C in gap_triples()[::200]:
        rest = math.pi - A - B
        for lo, hi in ((-C, 0.5 * rest), (0.5 * rest, rest + C)):
            for points in (1, 7):
                assert_merges_at_every_cut(A, B, lo, hi, points)
    assert_merges_at_every_cut(1e-320, 0.7, 1e-9, 1.0, 7)
    assert_merges_at_every_cut(1e-200, 0.7, 1e-9, 2.0, 7)


def test_sweep_merges_zeros_and_nans_at_and_beside_the_cut(monkeypatch):
    # with an infinite band the sweep reads every sign from g, so a scripted g
    # puts a zero or a nan at any grid point: every sequence of +, -, 0 and
    # nan on grids of 1 to 3 steps, cut at every index, merges to the
    # one-pass count and to the generic sweep's
    monkeypatch.setattr(steiner_lehmus, "_SWEEP_BAND", math.inf)
    A, B, lo, hi = 0.9, 0.75, 0.5, 1.0
    for points in (1, 2, 3):
        step = (hi - lo) / points
        grid = (lo, *[lo + (i + 0.5) * step for i in range(points)], hi)
        for values in product((1.0, -1.0, 0.0, math.nan), repeat=len(grid)):
            script = dict(zip(grid, values))
            expected = count_sign_changes(script.__getitem__, lo, hi, points)
            assert fused_count(A, B, lo, hi, points, script.__getitem__) == expected, values
            for cut in cuts(points):
                merged = merged_count(A, B, lo, hi, points, script.__getitem__, cut)
                assert merged == expected, (values, cut)


def test_merge_signs_joins_two_ranges():
    assert _merge_signs((1, -1, 1), (1, 1, 0)) == (1, 1, 2)
    assert _merge_signs((1, -1, 1), (-1, 1, 1)) == (1, 1, 2)
    # a range without a signed value leaves the other's signs and count
    assert _merge_signs((0, 0, 0), (-1, 1, 3)) == (-1, 1, 3)
    assert _merge_signs((1, -1, 1), (0, 0, 0)) == (1, -1, 1)
    assert _merge_signs((0, 0, 0), (0, 0, 0)) == (0, 0, 0)


def external_bisector_tanh(x, y, angle):
    """tanh of the external bisector of ``angle`` between sides x and y, in
    the Beltrami-Klein model centred at that vertex, where the Euclidean
    external bisector 2pq sin(angle/2)/|p - q| carries over with p = tanh x
    and q = tanh y. At 1 or more the bisector misses the opposite side's
    line, so the negative control compares these values, not lengths."""
    p, q = math.tanh(x), math.tanh(y)
    return 2.0 * p * q * math.sin(0.5 * angle) / abs(p - q)


def klein_chord_tanh(x, y, angle):
    """The same radius, constructed: the chord from (tanh x, 0) to tanh y
    (cos angle, sin angle) met by the line through the centre at angle
    angle/2 + pi/2."""
    p, q = math.tanh(x), math.tanh(y)
    ex, ey = q * math.cos(angle) - p, q * math.sin(angle)
    dx, dy = -math.sin(0.5 * angle), math.cos(0.5 * angle)
    return abs(p * ey / (dx * ey - dy * ex))


def test_equal_external_bisectors_do_not_force_an_isosceles_triangle():
    # a false neighbour of the theorem: at (A, B) = (0.15, 2.95) the external
    # bisectors of B and C are equal at C = 0.0113, far from B, and the
    # equality verdict rejects that root
    A, B = 0.15, 2.95

    def gap(C):
        a, b, c = _sides_from_angles(A, B, C)
        return external_bisector_tanh(a, c, B) - external_bisector_tanh(a, b, C)

    a, b, c = _sides_from_angles(A, B, 1e-3)
    assert external_bisector_tanh(a, b, 1e-3) == pytest.approx(7.17, abs=5e-3)
    root, evals = _bracketed_hybrid(gap, 1e-3, math.pi - A - B - 1e-9)
    assert (root, evals) == (0.011280703177730134, 25)
    a, b, c = _sides_from_angles(A, B, root)
    tanh_tB = external_bisector_tanh(a, c, B)
    tanh_tC = external_bisector_tanh(a, b, root)
    assert math.atanh(tanh_tB) == 0.7118687228830399
    assert math.atanh(tanh_tC) == pytest.approx(math.atanh(tanh_tB), rel=1e-14)
    assert tanh_tB == pytest.approx(klein_chord_tanh(a, c, B), rel=1e-14)
    assert tanh_tC == pytest.approx(klein_chord_tanh(a, b, root), rel=1e-14)
    assert EqualBisectorSolve(root, evals, 1).failures(B) == ["|c - B| not below 1e-10"]


def cevian_length(x, y, angle, lam):
    """Length of the cevian that leaves ``angle`` at lam * angle from side x,
    between sides x and y, from the Beltrami-Klein model centred at that
    vertex. The chord from (tanh x, 0) to tanh y (cos angle, sin angle),
    split by area, gives tanh t = pq sin(angle) / (p sin(phi) + q sin(angle -
    phi)) with p = tanh x, q = tanh y and phi = lam * angle. In coth form,
    with coth s - 1 = 2/expm1(2s) and sin(phi) + sin(rest) - sin(angle) =
    4 sin(angle/2) sin(phi/2) sin(rest/2), every term of w = coth t - 1 is
    positive, and t = log1p(2/w)/2. At lam = 1/2 it is the Klein bisector
    length of test_cevian."""
    phi = lam * angle
    rest = angle - phi
    w = (
        2.0 * math.sin(phi) / math.expm1(2.0 * y)
        + 2.0 * math.sin(rest) / math.expm1(2.0 * x)
        + 4.0 * math.sin(0.5 * angle) * math.sin(0.5 * phi) * math.sin(0.5 * rest)
    ) / math.sin(angle)
    return 0.5 * math.log1p(2.0 / w)


def scan_sample_triangles():
    """The first 2,000 triangles of the seed-42 scan, solved."""
    triples = sampled(42, 2000, DEFAULT_TOL.eps_angle)
    return [solve_from_angles(TriangleAngles(*triple)) for triple in triples]


def test_cevian_oracle_is_the_bisector_at_one_half():
    # against bisector_lengths the worst relative difference read 5.6e-15;
    # against the tanh form, at every lam below, 7.9e-16
    worst = 0.0
    for t in scan_sample_triangles():
        d = bisector_lengths(t)
        tB, tC = cevian_length(t.a, t.c, t.B, 0.5), cevian_length(t.a, t.b, t.C, 0.5)
        worst = max(worst, abs(tB - d.tB) / d.tB, abs(tC - d.tC) / d.tC)
        for lam in (0.05, 0.25, 0.5, 0.75, 0.95):
            for x, y, angle in ((t.a, t.c, t.B), (t.a, t.b, t.C)):
                p, q, phi = math.tanh(x), math.tanh(y), lam * angle
                tanh_t = p * q * math.sin(angle) / (p * math.sin(phi) + q * math.sin(angle - phi))
                tanh_length = math.tanh(cevian_length(x, y, angle, lam))
                assert tanh_length == pytest.approx(tanh_t, rel=2e-15)
    assert worst < 8e-15


@pytest.mark.parametrize("lam", [0.05, 0.25, 0.5, 0.75, 0.95])
def test_sign_law_holds_for_cevians_in_one_ratio(lam):
    # cevians that split B and C in the same ratio keep the sign law on the
    # sample: evidence at these points, not a theorem
    violations = 0
    for t in scan_sample_triangles():
        tB, tC = cevian_length(t.a, t.c, t.B, lam), cevian_length(t.a, t.b, t.C, lam)
        violations += not _sign_law(tB - tC, t.B, t.C, tB, tC)[1]
    assert violations == 0


def test_sign_law_reports_violations_for_external_bisectors():
    # the negative control: the same check, fed the external bisectors of B
    # and C where both meet the opposite side's line, fails on most of them,
    # so the sign law is not a verdict that every pair of lengths passes
    seen = Counter()
    for t in scan_sample_triangles():
        tanh_tB = external_bisector_tanh(t.a, t.c, t.B)
        tanh_tC = external_bisector_tanh(t.a, t.b, t.C)
        if not (tanh_tB < 1.0 and tanh_tC < 1.0):
            seen["missing"] += 1
            continue
        tB, tC = math.atanh(tanh_tB), math.atanh(tanh_tC)
        in_band, passed = _sign_law(tB - tC, t.B, t.C, tB, tC)
        seen["in the band"] += in_band
        seen["violations"] += not passed
    assert dict(seen) == {"missing": 1891, "in the band": 0, "violations": 64}


@pytest.mark.parametrize("points", [0, -5])
def test_equal_bisector_report_rejects_empty_sweep(points):
    with pytest.raises(ValueError, match=f"^sweep point count must be >= 1, got {points}$"):
        equal_bisector_report(0.9, 0.7, sweep_points=points)


@pytest.mark.parametrize("points", [10.0, True, "5"])
def test_equal_bisector_report_rejects_a_non_integer_sweep(points):
    # the count rule of scan_random and equality_study, checked before any solve
    with pytest.raises(
        TypeError, match=f"^sweep point count must be an integer, got {re.escape(repr(points))}$"
    ):
        equal_bisector_report(0.9, 0.7, sweep_points=points)


def test_equal_bisector_report_one_point_sweep_solves_root_only():
    full = equal_bisector_report(0.9, 0.7)
    # the sweep's two ends bracket the root, so one midpoint still sees it
    assert equal_bisector_report(0.9, 0.7, sweep_points=1) == EqualBisectorSolve(
        c=full.c, iterations=full.iterations, sign_changes=1
    )
    assert equal_bisector_report(0.9, 0.7, sweep_points=2).c == full.c


def test_scan_rejects_empty():
    with pytest.raises(ValueError):
        scan_random(0, 1)


def test_scan_is_deterministic():
    assert scan_random(500, 99) == scan_random(500, 99)


def test_scan_small_ensemble_clean():
    report = scan_random(2000, 4242)
    assert report.monotonicity_failures == 0
    assert report.inequality_failures == 0
    assert report.max_identity_residual < 1e-9
    assert report.max_ratio_residual < 1e-10
    assert report.max_side < _MAX_SIDE


def test_euclidean_limit_gap():
    # at scale 1e-4 the hyperbolic gap per unit scale matches the euclidean
    # bisector-length difference of the same shape
    shape = (2.0, 2.5, 3.0)
    scale = 1e-4
    t = solve_from_sss(TriangleSides(*(s * scale for s in shape)))
    result = check_monotonicity(t)
    a, b, c = shape
    cosB = (c * c + a * a - b * b) / (2 * c * a)
    cosC = (a * a + b * b - c * c) / (2 * a * b)
    tB_e = 2 * a * c * math.cos(math.acos(cosB) / 2) / (a + c)
    tC_e = 2 * a * b * math.cos(math.acos(cosC) / 2) / (a + b)
    assert result.gap / scale == pytest.approx(tB_e - tC_e, rel=1e-4)


def public_evidence(A, B, C, tol):
    """The fused scan kernel's fields, computed through the public per-triangle API."""
    return public_fields(solve_from_angles(TriangleAngles(A, B, C, tol=tol), tol=tol), tol)


def public_fields(tri, tol):
    """The fused scan kernel's fields of a solved triangle, through the public API."""
    d = bisector_lengths(tri, tol=tol)
    trace = proof_trace(tri, d=d)
    mono = check_monotonicity(tri, tol=tol, d=d)
    assert mono.gap == trace.gap
    return (
        tri.a, tri.b, tri.c,
        law_of_sines_residual(tri), subtriangle_residuals(tri, d).max(),
        trace.idU, trace.idV, trace.R1, mono.in_tie_band, mono.passed,
    )


def outcome(fn, *args):
    """fn's result, or the exact class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # compared by class and message below
        return type(exc), str(exc)


def test_splitmix64_seed_bounds():
    # the reference stream for seed 0 starts 0xE220A8397B1DCDAF
    assert SplitMix64(0).next_uint64() == 16294208416658607535
    top = SplitMix64(2**64 - 1)
    assert [top.next_uint64(), top.next_uint64()] == [16490336266968443936, 16834447057089888969]
    assert top.random() == 0.21948196289526756
    for seed in (-1, 2**64, 2**65 + 1):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64 - 1\]"):
            SplitMix64(seed)
    with pytest.raises(TypeError):
        SplitMix64(1.0)
    # a bool is an int, but no seed: SplitMix64(True) would be SplitMix64(1)
    for seed in (True, False):
        with pytest.raises(TypeError, match=rf"^seed must be an integer, got {seed}$"):
            SplitMix64(seed)


GAMMA = 0x9E3779B97F4A7C15  # SplitMix64's state increment


def assert_same_state(batch, single):
    assert batch.random() == single.random()
    assert batch.next_uint64() == single.next_uint64()


@given(st.integers(0, 2**64 - 1), st.integers(0, 1000))
def test_randoms_equals_sequential_draws(seed, count):
    batch, single = SplitMix64(seed), SplitMix64(seed)
    assert batch.randoms(count) == [single.random() for _ in range(count)]
    assert_same_state(batch, single)


@pytest.mark.parametrize("count", [0, 1, 2, 3, _LANES - 1, _LANES, _LANES + 1, 3 * _LANES + 2])
@pytest.mark.parametrize("seed", [2**64 - 1, (2**64 - 2 * GAMMA) % 2**64])
def test_randoms_equals_sequential_draws_where_lanes_wrap(seed, count):
    # the counter states seed + (j + 1) * GAMMA pass 2**64 in the first lanes
    batch, single = SplitMix64(seed), SplitMix64(seed)
    assert batch.randoms(count) == [single.random() for _ in range(count)]
    assert_same_state(batch, single)


def test_randoms_interleaves_with_single_draws():
    batch, single = SplitMix64(2**64 - 1), SplitMix64(2**64 - 1)
    for count in (2, 0, _LANES + 1, 1, 3, 2 * _LANES, 5):
        assert batch.randoms(count) == [single.random() for _ in range(count)]
        assert_same_state(batch, single)


def test_randoms_rejects_a_bad_count():
    rng = SplitMix64(3)
    with pytest.raises(ValueError, match="draw count must be >= 0, got -1"):
        rng.randoms(-1)
    with pytest.raises(TypeError):
        rng.randoms(2.0)
    assert_same_state(rng, SplitMix64(3))


class PresetDraws:
    """Stands in for SplitMix64: ``random()`` returns preset values in turn."""

    def __init__(self, values):
        self.values = values
        self.draws = 0

    def random(self):
        value = self.values[self.draws]
        self.draws += 1
        return value


def sorted_sample_angles(rng, eps_angle):
    """sample_angles written with ``sorted``, the oracle for its compare-and-swap."""
    r1, r2, r3 = sorted((rng.random(), rng.random(), rng.random()))
    span = math.pi - 4.0 * eps_angle
    return (
        eps_angle + span * r1,
        eps_angle + span * (r2 - r1),
        eps_angle + span * (r3 - r2),
    )


def test_sample_angles_matches_sorted():
    # every ordering of distinct draws, then ties; the signed zeros compare
    # equal, and with eps_angle = -0.0 their signs reach the output bits, which
    # so show whether the sort keeps ties in draw order as sorted does
    cases = {
        *permutations((0.1, 0.4, 0.7)),
        *permutations((0.3, 0.3, 0.6)),
        *permutations((0.2, 0.6, 0.6)),
        (0.5, 0.5, 0.5),
        *permutations((0.0, -0.0, 0.5)),
        *permutations((0.0, -0.0, -0.5)),
        (0.0, -0.0, 0.0),
        (-0.0, 0.0, -0.0),
    }
    for draws, eps in product(sorted(cases), (LOOSE_TOL.eps_angle, -0.0)):
        got = PresetDraws([*draws, 0.9])
        ref = PresetDraws([*draws, 0.9])
        triple = sample_angles(got, eps)
        expected = sorted_sample_angles(ref, eps)
        assert struct.pack("<3d", *triple) == struct.pack("<3d", *expected), draws
        assert got.draws == 3
    got, ref = SplitMix64(5), SplitMix64(5)
    for _ in range(1000):
        assert sample_angles(got, 1e-3) == sorted_sample_angles(ref, 1e-3)


def sampled(seed, n, eps):
    rng = SplitMix64(seed)
    return [sample_angles(rng, eps) for _ in range(n)]


TIE_BAND_CASES = [
    (0.9, 0.7, 0.7),
    (0.8, 0.77, 0.77),
    (0.5, 1.0, 1.0),
    (0.3, 1.2, 1.2 + 5e-10),
    (0.3, 1.2 + 5e-10, 1.2),
]


@pytest.mark.parametrize("seed", [3, 17, 2**63])
def test_evidence_equals_public_path_on_samples(seed):
    for A, B, C in sampled(seed, 500, LOOSE_TOL.eps_angle):
        assert _evidence(A, B, C, LOOSE_TOL) == public_evidence(A, B, C, LOOSE_TOL)


@pytest.mark.parametrize("tol", [DEFAULT_TOL, LOOSE_TOL])
@pytest.mark.parametrize("triple", TIE_BAND_CASES)
def test_evidence_equals_public_path_in_tie_band(triple, tol):
    fused = _evidence(*triple, tol)
    assert fused == public_evidence(*triple, tol)
    assert fused[-2] is True  # in the tie band


# Each triple trips a different check of the public path under some of the
# tolerances below: angle range, defect margin, side cap, triangle
# inequality, law of sines, law of cosines, foot sums, sub-triangle sines,
# and sines too small for float sides. The rows after the first twelve each
# fail one test of the fused pass alone, so that no other failing test calls
# the same check: the range of B, then of C, whose defect passes; one side
# over the cap with the triangle inequality holding; the triangle inequality
# at a, then at b; the law of sines but not of cosines (at rtol 3e-16); and a
# foot sum with the sub-triangle residuals passing, on side b, then side c.
REJECTION_TRIPLES = [
    (0.0, 1.0, 1.0),
    (math.nan, 1.0, 1.0),
    (1.0, 1.0, math.pi),
    (1.0, 1.0, 1.1415),
    (1e-5, 1e-5, 0.5),
    (1e-9, 1e-9, 1e-9),
    (1e-7, 2e-6, math.pi - 3e-6),
    (0.6, 0.5, 0.9),
    (3e-9, 0.5, 2.0),
    (1e-4, 1e-4, 1e-4),
    (1e-300, 1e-300, 1.0),
    (math.pi - 1e-6, 1e-18, 1e-18),
    (1.0, -0.5, 1.0),
    (1.0, 1.0, math.nan),
    (4.8e-11, 2.4e-11, 2.4e-11),
    (2.4e-11, 4.8e-11, 2.4e-11),
    (2.4e-11, 2.4e-11, 4.8e-11),
    (math.pi - 3e-6, 1e-7, 2e-6),
    (2e-6, math.pi - 3e-6, 1e-7),
    (0.1, 0.2, 1.2),
    (1.4, 0.1, 1.4),
    (1.4, 1.4, 0.1),
]
REJECTION_TOLS = [
    DEFAULT_TOL,
    LOOSE_TOL,
    ToleranceConfig(rtol_identity=1e-15),
    ToleranceConfig(rtol_identity=1e-8, eps_angle=1e-6),  # loosest identity tolerance
    ToleranceConfig(rtol_identity=3e-16, eps_angle=1e-3),
]


@pytest.mark.parametrize("tol", REJECTION_TOLS)
def test_evidence_rejects_like_public_path(tol):
    for triple in REJECTION_TRIPLES:
        assert outcome(_evidence, *triple, tol) == outcome(public_evidence, *triple, tol)


# Needles whose AAA side a ties b + c in the plain float sum, while fsum
# finds b + c - a = 8.6e-16 and 8.7e-16: the public path accepts both, so
# _evidence's plain-sum test sends them to a replay that returns
NEAR_TIE_TRIPLES = [
    (3.141569926740181, 1.9987389615759835e-05, 2.3679483282196735e-22),
    (3.141549358727418, 3.819233583864179e-18, 4.23791008794844e-05),
]


@pytest.mark.parametrize("triple", NEAR_TIE_TRIPLES)
def test_evidence_accepts_a_near_tie_that_its_plain_sum_doubts(triple, monkeypatch):
    tri = solve_from_angles(TriangleAngles(*triple))
    assert not tri.b + tri.c > tri.a
    assert math.fsum((tri.b, tri.c, -tri.a)) > 0.0
    replays = []
    replay = steiner_lehmus._replay

    def recording(*args):
        replays.append(replay(*args))

    monkeypatch.setattr(steiner_lehmus, "_replay", recording)
    fused = _evidence(*triple, DEFAULT_TOL)
    assert replays == [None]
    assert len(fused) == 10
    assert fused == public_evidence(*triple, DEFAULT_TOL)


@pytest.mark.parametrize(
    "tol, counts",
    [
        (
            DEFAULT_TOL,
            {"accepted": 1924, "triangle": 40, "sub-triangle": 32, "foot": 3, "law": 1},
        ),
        (LOOSE_TOL, {"accepted": 1690, "angle": 310}),
    ],
)
def test_evidence_equals_public_path_on_needle_grid(tol, counts):
    # every triple of the needle grid, accepted or rejected; the counts show
    # which checks the grid reaches, by the first word of their messages
    seen = Counter()
    for triple in gap_triples():
        fused = outcome(_evidence, *triple, tol)
        assert fused == outcome(public_evidence, *triple, tol), triple
        seen["accepted" if len(fused) == 10 else fused[1].split(" ")[0]] += 1
    assert dict(seen) == counts


def test_evidence_rejects_a_side_over_the_cap():
    # a needle with a defect of 1e-6: the AAA side a exceeds the cap on both paths
    message = "side a = 55.262042232381496 exceeds the cap 50.0"
    for evidence in (_evidence, public_evidence):
        assert outcome(evidence, math.pi - 1e-6, 1e-18, 1e-18, DEFAULT_TOL) == (DomainCap, message)


def public_scan(n, seed, tol=DEFAULT_TOL):
    """scan_random's reduction over the public per-triangle calls."""
    max_sine = max_cevian = max_ratio = max_side = 0.0
    mono_failures = ineq_failures = ties = 0
    for A, B, C in sampled(seed, n, tol.eps_angle):
        tri = solve_from_angles(TriangleAngles(A, B, C, tol=tol), tol=tol)
        a, b, c, sine, cevian, idU, idV, R1, in_band, passed = public_fields(tri, tol)
        trace = proof_trace(tri, tol=tol)
        R2, R3 = trace.R2, trace.R3
        max_sine = max(max_sine, sine)
        max_cevian = max(max_cevian, cevian)
        max_ratio = max(max_ratio, idU, idV)
        max_side = max(max_side, a, b, c)
        ties += in_band
        mono_failures += not passed
        if not in_band:
            if B < C:
                ok = R1 < 1.0 and R2 < 1.0 and R3 > 1.0 and b < c
            else:
                ok = R1 > 1.0 and R2 > 1.0 and R3 < 1.0 and b > c
            ineq_failures += not ok
    return ScanReport(
        samples=n,
        seed=seed,
        eps_angle=tol.eps_angle,
        max_identity_residual=max(max_sine, max_cevian),
        max_sine_residual=max_sine,
        max_cevian_residual=max_cevian,
        max_ratio_residual=max_ratio,
        monotonicity_failures=mono_failures,
        inequality_failures=ineq_failures,
        tie_band_samples=ties,
        max_side=max_side,
    )


@pytest.fixture
def scan_parts(monkeypatch):
    """``force(split)`` makes scan_random hand a part to the helper for any
    one block per part or more (256 triangles), and equal_bisector_report
    half its sweep, when ``split`` is true, and keeps both in the caller
    when it is false; it returns the list that each fork appends to. After
    the test the helper is stopped and no child of this process is left."""
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    def force(split):
        cpus = set(range(2 if split else 1))
        monkeypatch.setattr(steiner_lehmus, "_MIN_PART_BLOCKS", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        monkeypatch.setattr(os, "fork", counting_fork)
        return forks

    yield force
    steiner_lehmus._stop_helper()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("parts", [1, 2])
def test_scan_equals_public_reduction(parts, scan_parts):
    forks = scan_parts(parts == 2)
    assert scan_random(1500, 31) == public_scan(1500, 31)
    assert len(forks) == parts - 1


def test_scan_forks_one_child_on_eight_cpus(scan_parts, monkeypatch):
    # the caller and one child, however many CPUs and blocks there are
    forks = scan_parts(True)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert scan_random(2000, 31) == public_scan(2000, 31)
    assert len(forks) == 1


# the middle cut n // 2 falls inside the first block (n up to 255, the first
# part empty for n = 1), on its edge (256) and past it, at an even or odd n
# (the helper takes the larger part) and before a short or full last block;
# below 256 triangles, or on one CPU, the caller scans both parts
@pytest.mark.parametrize("parts", [1, 2])
@pytest.mark.parametrize("n", [1, 127, 128, 129, 385, 255, 256, 257, 383, 384])
@pytest.mark.parametrize("seed", [31, 2**64 - 1])
def test_scan_equals_public_reduction_at_block_edges(seed, n, parts, scan_parts):
    forks = scan_parts(parts == 2)
    assert scan_random(n, seed) == public_scan(n, seed)
    assert len(forks) == (parts == 2 and n >= 256)


@pytest.mark.parametrize("cpus", [1, 2, 8])
@pytest.mark.parametrize(
    "blocks", [2 * steiner_lehmus._MIN_PART_BLOCKS - 1, 2 * steiner_lehmus._MIN_PART_BLOCKS]
)
def test_scan_splits_on_two_cpus_and_two_full_parts(blocks, cpus, monkeypatch):
    # with no helper running, a scan of 2 * _MIN_PART_BLOCKS blocks (its
    # last one short) starts one on two CPUs or more, and one block fewer
    # does not
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    started = []
    monkeypatch.setattr(steiner_lehmus, "_start_helper", lambda: started.append(1) or False)
    scan_random((blocks - 1) * 128 + 1, 31)
    expected = cpus >= 2 and blocks >= 2 * steiner_lehmus._MIN_PART_BLOCKS
    assert len(started) == (expected and hasattr(os, "fork"))


@pytest.mark.parametrize("count", [None, 1, 2])
def test_scan_splits_counts_cpus_without_affinity(count, monkeypatch):
    # where the platform has no sched_getaffinity, os.cpu_count decides, and
    # an unknown count (None) means one CPU
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: count)
    assert steiner_lehmus._splits(True, True) is (count == 2 and hasattr(os, "fork"))


@pytest.mark.parametrize("enough, may_start, running, can_fork", product([False, True], repeat=4))
def test_one_gate_decides_every_split(enough, may_start, running, can_fork, monkeypatch):
    # a call splits where it has enough work, may fork, and the helper runs
    # or the call may start it; only such a call with no helper running
    # starts one
    started = []
    monkeypatch.setattr(steiner_lehmus, "_can_fork", lambda: can_fork)
    monkeypatch.setattr(steiner_lehmus, "_helper_runs", lambda: running)
    monkeypatch.setattr(steiner_lehmus, "_start_helper", lambda: started.append(1) or True)
    splits = steiner_lehmus._splits(enough, may_start)
    assert splits is (enough and can_fork and (running or may_start))
    assert len(started) == (enough and can_fork and not running and may_start)


@pytest.mark.parametrize("seed", [31, 2**64 - 1])
def test_middle_cut_merges_to_one_part(seed):
    for n in (1, 2, 127, 128, 129, 255, 256, 257, 1999, 2000, 2001):
        mid = n // 2
        halves = _merge_parts(_scan_part(seed, 0, mid, DEFAULT_TOL),
                              _scan_part(seed, mid, n, DEFAULT_TOL))
        assert repr(halves) == repr(_scan_part(seed, 0, n, DEFAULT_TOL)), n


def test_scan_parts_merge_to_one_part_nan_included(monkeypatch):
    # about a fifth of the triangles have nan sides and residuals, which the
    # maxima skip by max's rule and the inequality verdict counts as failed
    def evidence(A, B, C, tol):
        fields = _evidence(A, B, C, tol)
        return fields if int(A * 1e6) % 5 else (math.nan,) * 7 + fields[7:]

    monkeypatch.setattr(steiner_lehmus, "_evidence", evidence)
    n = 1000
    whole = _scan_part(77, 0, n, DEFAULT_TOL)
    assert whole[4] == 0 and 0 < whole[5] < n
    for mid in (128, 512, 896):
        part = _scan_part(77, mid, n, DEFAULT_TOL)
        assert _merge_parts(_scan_part(77, 0, mid, DEFAULT_TOL), part) == whole


def test_scan_draws_one_block_at_a_time(monkeypatch):
    counts = []
    randoms = SplitMix64.randoms

    def spy(self, count):
        counts.append(count)
        return randoms(self, count)

    monkeypatch.setattr(SplitMix64, "randoms", spy)
    scan_random(385, 5)
    # triangles 0-191 and 192-384, each part in blocks from its own start
    assert counts == [384, 192, 384, 195]


def test_scan_rejects_a_float_count_before_drawing(monkeypatch):
    def no_draw(*args):
        raise AssertionError("the scan drew before rejecting its count")

    for name in ("random", "next_uint64", "randoms"):
        monkeypatch.setattr(SplitMix64, name, no_draw)
    for n in (2.5, 2000.0):
        with pytest.raises(TypeError):
            scan_random(n, 1)


@pytest.mark.parametrize("study, what", [(scan_random, "sample"), (equality_study, "pair")])
def test_studies_share_one_count_rule(study, what):
    for n in (True, False, 2.0, 0.5):
        with pytest.raises(TypeError, match=rf"^{what} count must be an integer, got {n!r}$"):
            study(n, 1)
    for n in (0, -1):
        with pytest.raises(ValueError, match=rf"^{what} count must be >= 1, got {n}$"):
            study(n, 1)
    for seed in (True, False):
        with pytest.raises(TypeError, match=rf"^seed must be an integer, got {seed}$"):
            study(3, seed)


def reference_pairs(n, seed):
    """The equality study's pairs, drawn as its docstring states."""
    rng = SplitMix64(seed)
    pairs = []
    while len(pairs) < n:
        A = 0.05 + rng.random() * 2.55
        b_max = (math.pi - A - 0.1) / 2.0
        if b_max > 0.06:
            pairs.append((A, 0.05 + rng.random() * (b_max - 0.05)))
    return pairs


def test_equality_study_aggregates_the_pair_verdicts(monkeypatch):
    # every pair solves to c = B exactly but pair 1's sweep and pair 2's nan
    # root fail EqualBisectorSolve.failures(B); the nan gap never replaces
    # the first pair's 0.0 as the worst, by max's rule
    seen = []

    def stub(A, B):
        seen.append((A, B))
        c = math.nan if len(seen) == 3 else B
        changes = 2 if len(seen) == 2 else 1
        return EqualBisectorSolve(c=c, iterations=len(seen), sign_changes=changes)

    monkeypatch.setattr(steiner_lehmus, "equal_bisector_report", stub)
    study = equality_study(5, 42)
    assert seen == reference_pairs(5, 42)
    assert study == steiner_lehmus.EqualityStudy(
        pairs=5, seed=42, eps_angle=DEFAULT_TOL.eps_angle, max_root_gap=0.0,
        worst_A=seen[0][0], worst_B=seen[0][1], root_iterations=15, failing_pairs=2,
    )
    assert study.failures() == ["2 of 5 pairs fail the equality-case criteria"]


def test_scan_triangles_replay_through_bisect(capsys):
    # the scan and `hyptri bisect` run one policy, so a scan triangle,
    # replayed from its counter state, is accepted on the command line too
    for i in (0, 1, 127, 128, 1023, 1024, 99_999):
        A, B, C = triangle_angles(42, i)
        assert cli.main(["bisect", "aaa", repr(A), repr(B), repr(C)]) == 0, i
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_scan_triangle_replays_from_the_counter_state(seed, monkeypatch):
    # triangle i starts at draw 3i, so at the counter state seed + 3 i GAMMA
    seen = []

    def recording(A, B, C, tol):
        seen.append((A, B, C))
        return _evidence(A, B, C, tol)

    monkeypatch.setattr(steiner_lehmus, "_evidence", recording)
    scan_random(400, seed)
    for i in (0, 1, 127, 128, 129, 399):
        rng = SplitMix64((seed + 3 * i * GAMMA) % 2**64)
        assert seen[i] == sample_angles(rng, DEFAULT_TOL.eps_angle)


def test_scan_rejection_is_pinned():
    # passes every earlier check on all 2000 triangles
    tol = ToleranceConfig(rtol_identity=8.7e-15, eps_angle=1e-3)
    with pytest.raises(NumericalFailure) as info:
        scan_random(2000, 42, tol)
    assert type(info.value) is NumericalFailure
    assert str(info.value) == "sub-triangle sine-law residual 8.864609436418781e-15 exceeds 8.7e-15"


def triangle_angles(seed, i, tol=DEFAULT_TOL):
    """Triangle i of scan_random(n, seed, tol), replayed from its counter state."""
    return sample_angles(SplitMix64((seed + 3 * i * GAMMA) % 2**64), tol.eps_angle)


def fail_at(monkeypatch, seed, messages, tol=DEFAULT_TOL):
    """Make _evidence raise NumericalFailure(messages[i]) at triangle i of
    the scan with this seed; the patch holds in forked children too."""
    at = {triangle_angles(seed, i, tol): message for i, message in messages.items()}

    def evidence(A, B, C, t):
        if (A, B, C) in at:
            raise NumericalFailure(at[A, B, C])
        return _evidence(A, B, C, t)

    monkeypatch.setattr(steiner_lehmus, "_evidence", evidence)


@pytest.mark.parametrize("parts", [1, 2])
def test_scan_raises_a_failure_in_the_last_part(parts, scan_parts, monkeypatch):
    # 1000 triangles in 2 parts: triangles 0-499 and 500-999
    scan_parts(parts == 2)
    fail_at(monkeypatch, 7, {900: "triangle 900 fails"})
    with pytest.raises(NumericalFailure) as info:
        scan_random(1000, 7)
    assert type(info.value) is NumericalFailure
    assert str(info.value) == "triangle 900 fails"


@pytest.mark.parametrize("parts", [1, 2])
def test_scan_raises_the_first_rejection_in_index_order(parts, scan_parts, monkeypatch):
    # triangle 798 fails in part 0 of 2 (triangles 0-999), triangle 1900 in
    # part 1
    scan_parts(parts == 2)
    tol = ToleranceConfig(rtol_identity=8.7e-15, eps_angle=1e-3)
    fail_at(monkeypatch, 42, {1900: "triangle 1900 fails"}, tol)
    with pytest.raises(NumericalFailure) as info:
        scan_random(2000, 42, tol)
    assert type(info.value) is NumericalFailure
    assert str(info.value) == "sub-triangle sine-law residual 8.864609436418781e-15 exceeds 8.7e-15"


def test_scan_rejects_a_bad_seed_before_forking(scan_parts):
    forks = scan_parts(True)
    for seed, error in ((2**64, ValueError), (-1, ValueError), (1.5, TypeError)):
        with pytest.raises(error):
            scan_random(1000, seed)
    assert forks == []


def test_scan_scans_a_part_itself_when_fork_fails(scan_parts, monkeypatch):
    expected = public_scan(1000, 31)
    scan_parts(True)
    pipes = []
    pipe = os.pipe

    def recording_pipe():
        fds = pipe()
        pipes.extend(fds)
        return fds

    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "pipe", recording_pipe)
    monkeypatch.setattr(os, "fork", no_fork)
    assert scan_random(1000, 31) == expected
    assert steiner_lehmus._helper is None
    assert len(pipes) == 4  # the request and the reply pipe
    for fd in pipes:
        with pytest.raises(OSError):
            os.fstat(fd)


def test_scan_scans_a_part_itself_when_its_child_fails(scan_parts, monkeypatch):
    expected = public_scan(1000, 31)
    forks = scan_parts(True)
    parent = os.getpid()

    def failing_in_children(seed, start, stop, tol):
        if os.getpid() != parent:
            raise MemoryError
        return _scan_part(seed, start, stop, tol)

    monkeypatch.setattr(steiner_lehmus, "_scan_part", failing_in_children)
    assert scan_random(1000, 31) == expected
    assert len(forks) == 1


def test_scan_interrupted_in_part_0_leaves_no_child(scan_parts, monkeypatch):
    # the helper would take 30 s: an interrupted call kills and reaps it, not
    # waits for it
    forks = scan_parts(True)
    parent = os.getpid()

    def interrupted_in_parent(seed, start, stop, tol):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)
        return _scan_part(seed, start, stop, tol)

    monkeypatch.setattr(steiner_lehmus, "_scan_part", interrupted_in_parent)
    began = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        scan_random(1000, 31)
    assert time.monotonic() - began < 10
    assert len(forks) == 1
    assert steiner_lehmus._helper is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_scan_does_not_fork_beside_a_live_thread(scan_parts, monkeypatch):
    expected = public_scan(1000, 31)
    scan_parts(True)

    def no_fork():
        raise AssertionError("scan_random forked beside a live thread")

    monkeypatch.setattr(os, "fork", no_fork)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert scan_random(1000, 31) == expected
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_scan_stays_in_one_process_without_fork(scan_parts, monkeypatch):
    expected = public_scan(1000, 31)
    scan_parts(True)
    monkeypatch.delattr(os, "fork")
    assert scan_random(1000, 31) == expected


def ignore_sigchld():
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)


def handle_sigchld():
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)


# an ignored or handled SIGCHLD may reap a child before the scan does, so
# that its pid can be reused: the scan then stays in the caller
@pytest.mark.parametrize("change", [ignore_sigchld, handle_sigchld])
def test_scan_does_not_fork_unless_sigchld_is_default(change, scan_parts):
    expected = public_scan(1000, 31)
    forks = scan_parts(True)
    before = signal.getsignal(signal.SIGCHLD)
    change()
    try:
        assert scan_random(1000, 31) == expected
    finally:
        signal.signal(signal.SIGCHLD, before)
    assert forks == []


def test_scan_tolerates_a_helper_reaped_elsewhere(scan_parts, monkeypatch):
    # a helper already reaped (ChildProcessError from waitpid) stops
    # normally; the fixture checks that no child is left
    expected = public_scan(1000, 31)
    forks = scan_parts(True)
    waitpid = os.waitpid
    reaped = []

    def reaped_elsewhere(pid, options):
        reaped.append(waitpid(pid, options))
        raise ChildProcessError(errno.ECHILD, os.strerror(errno.ECHILD))

    monkeypatch.setattr(os, "waitpid", reaped_elsewhere)
    assert scan_random(1000, 31) == expected
    steiner_lehmus._stop_helper()
    assert len(forks) == len(reaped) == 1


def test_scan_defers_sigint_until_the_helper_is_recorded(scan_parts, monkeypatch):
    # a Ctrl-C reaches the caller and its helper just after the fork: the
    # caller raises KeyboardInterrupt with the helper recorded, so that it is
    # reaped, and the helper ignores it and never returns into this test
    scan_parts(True)
    parent = os.getpid()
    fork = os.fork

    def interrupted_fork():
        pid = fork()
        os.kill(os.getpid(), signal.SIGINT)
        return pid

    monkeypatch.setattr(os, "fork", interrupted_fork)
    # SIGINT raises KeyboardInterrupt here even where pytest started with it
    # ignored, as a shell does for a command run in the background with &
    before = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            scan_random(2000, 31)
    finally:
        if os.getpid() != parent:
            os._exit(3)
        signal.signal(signal.SIGINT, before)
    pid = steiner_lehmus._helper[0]
    # the helper still serves: the SIGINT sent to it was ignored
    assert scan_random(2000, 31) == public_scan(2000, 31)
    assert steiner_lehmus._helper[0] == pid


def one_process_report(A, B, tol=DEFAULT_TOL):
    """equal_bisector_report(A, B, tol) computed in this process alone."""
    g = _gap_in_C(A, B)
    hi = math.fsum((math.pi, -A, -B, -tol.eps_angle))
    root, evals = _bracketed_hybrid(g, tol.eps_angle, hi)
    changes = fused_count(A, B, tol.eps_angle, hi, 1000, g)
    return EqualBisectorSolve(c=root, iterations=evals, sign_changes=changes)


def test_split_sweep_equals_one_pass_on_study_pairs(scan_parts):
    forks = scan_parts(True)
    for A, B in reference_pairs(300, 42):
        assert equal_bisector_report(A, B) == one_process_report(A, B), (A, B)
    assert len(forks) == 1
    assert steiner_lehmus._helper is not None


def test_helper_sweep_rejection_is_raised_by_the_caller(scan_parts, monkeypatch):
    # a DomainCap in the helper's half comes back as an error reply; the
    # caller sweeps that half itself and raises it, class and message, and
    # the helper serves on
    message = "angles too small for float sides: a product of two sines underflows to 0"
    count = _count_sign_changes

    def failing_upper_half(A, B, lo, hi, points, g, start, stop):
        if start >= 0:
            raise DomainCap(message)
        return count(A, B, lo, hi, points, g, start, stop)

    forks = scan_parts(True)
    monkeypatch.setattr(steiner_lehmus, "_count_sign_changes", failing_upper_half)
    # the first report forks nothing and sweeps the upper half itself; the
    # second starts the helper
    for report in range(4):
        with pytest.raises(DomainCap) as info:
            equal_bisector_report(0.9, 0.7)
        assert type(info.value) is DomainCap
        assert str(info.value) == message
        assert len(forks) == (report > 0)
    pid = steiner_lehmus._helper[0]
    monkeypatch.setattr(steiner_lehmus, "_count_sign_changes", count)
    assert equal_bisector_report(0.9, 0.7) == one_process_report(0.9, 0.7, DEFAULT_TOL)
    assert steiner_lehmus._helper[0] == pid


def test_report_root_failure_keeps_the_helper(scan_parts, monkeypatch):
    # the root solve raises while the helper sweeps its half: the caller
    # reads the helper's reply before it raises, and the helper serves on
    forks = scan_parts(True)
    equal_bisector_report(0.9, 0.7)
    equal_bisector_report(0.9, 0.7)
    assert len(forks) == 1
    pid = steiner_lehmus._helper[0]
    budget = steiner_lehmus._MAX_EVALS
    monkeypatch.setattr(steiner_lehmus, "_MAX_EVALS", 3)
    for _ in range(3):
        with pytest.raises(NonConvergence, match="^no convergence after 3 evaluations$"):
            equal_bisector_report(0.9, 0.7)
    assert steiner_lehmus._helper[0] == pid
    monkeypatch.setattr(steiner_lehmus, "_MAX_EVALS", budget)
    assert equal_bisector_report(0.9, 0.7) == one_process_report(0.9, 0.7, DEFAULT_TOL)
    assert steiner_lehmus._helper[0] == pid
    assert len(forks) == 1


def test_scan_rejection_in_the_callers_part_keeps_the_helper(scan_parts, monkeypatch):
    forks = scan_parts(True)
    assert scan_random(1000, 7) == public_scan(1000, 7)
    pid = steiner_lehmus._helper[0]
    fail_at(monkeypatch, 7, {100: "triangle 100 fails"})
    with pytest.raises(NumericalFailure, match="^triangle 100 fails$"):
        scan_random(1000, 7)
    assert steiner_lehmus._helper[0] == pid
    assert scan_random(1000, 8) == public_scan(1000, 8)
    assert len(forks) == 1


def test_calls_fork_the_helper_once(scan_parts):
    forks = scan_parts(True)
    # one report does not pay for a fork, nor does a sweep below the split
    # gate count; the second splittable report starts the helper
    equal_bisector_report(0.9, 0.7, sweep_points=steiner_lehmus._MIN_SWEEP_POINTS - 1)
    equal_bisector_report(0.9, 0.7)
    assert forks == [] and steiner_lehmus._helper is None
    equal_bisector_report(0.9, 0.7)
    assert len(forks) == 1 and steiner_lehmus._helper is not None
    for seed in range(4):
        assert scan_random(1000, seed) == public_scan(1000, seed)
        assert equal_bisector_report(0.9, 0.7) == one_process_report(0.9, 0.7, DEFAULT_TOL)
    assert equality_study(5, 42) == equality_study(5, 42)
    assert len(forks) == 1


def test_running_helper_takes_half_of_any_scan_of_one_block_per_part(scan_parts, monkeypatch):
    # only a scan of 2 * _MIN_PART_BLOCKS blocks starts the helper, but once
    # it runs every scan of 256 triangles or more hands it the second half
    min_part_blocks = steiner_lehmus._MIN_PART_BLOCKS
    forks = scan_parts(True)
    monkeypatch.setattr(steiner_lehmus, "_MIN_PART_BLOCKS", min_part_blocks)
    assert scan_random(2000, 31) == public_scan(2000, 31)
    assert len(forks) == 1
    requests = steiner_lehmus._helper[1]
    sent = []
    write = os.write

    def recording(fd, data):
        if fd == requests:
            sent.append(marshal.loads(data)[1][1:3])
        return write(fd, data)

    monkeypatch.setattr(os, "write", recording)
    for seed in (32, 33):
        for n in (255, 256, 1920):
            assert scan_random(n, seed) == public_scan(n, seed), (n, seed)
    assert sent == 2 * [(128, 256), (960, 1920)]
    assert len(forks) == 1


def test_verify_forks_nothing(scan_parts, capsys):
    forks = scan_parts(True)
    assert cli.main(["verify", "0.9", "0.7"]) == 0
    assert forks == []
    assert steiner_lehmus._helper is None


def test_helper_is_reaped_when_its_caller_exits(tmp_path):
    # a process that scans with a helper and then exits leaves no child: its
    # helper is gone by the time it has exited
    code = (
        "import os, sys\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "from hyptri import scan_random, steiner_lehmus\n"
        "scan_random(2000, 42)\n"
        "print(steiner_lehmus._helper[0])\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    with pytest.raises(ProcessLookupError):
        os.kill(int(done.stdout), 0)


def test_forked_child_never_writes_to_its_parents_helper(scan_parts):
    # the child drops the parent's helper at the fork: its pipe ends are
    # closed in the child, which forks a helper of its own; the parent's
    # helper still answers the parent
    forks = scan_parts(True)
    assert scan_random(1000, 31) == public_scan(1000, 31)
    pid, requests, replies = steiner_lehmus._helper
    status_r, status_w = os.pipe()
    child = os.fork()
    if child == 0:
        status = 1
        try:
            ends_closed = True
            for fd in (requests, replies):
                try:
                    os.fstat(fd)
                    ends_closed = False
                except OSError:
                    pass
            dropped = steiner_lehmus._helper is None and ends_closed
            same = scan_random(1000, 31) == public_scan(1000, 31)
            own = steiner_lehmus._helper is not None and steiner_lehmus._helper[0] != pid
            steiner_lehmus._stop_helper()
            os.write(status_w, bytes([dropped, same, own]))
            status = 0
        finally:
            os._exit(status)
    os.close(status_w)
    _, status = os.waitpid(child, 0)
    flags = os.read(status_r, 3)
    os.close(status_r)
    assert status == 0 and flags == bytes([1, 1, 1])
    assert steiner_lehmus._helper == (pid, requests, replies)
    assert scan_random(1000, 32) == public_scan(1000, 32)
    assert len(forks) == 2  # the parent's helper and the child


def test_live_helper_is_not_used_beside_a_live_thread(scan_parts, monkeypatch):
    forks = scan_parts(True)
    equal_bisector_report(0.9, 0.7)
    assert scan_random(1000, 31) == public_scan(1000, 31)
    requests = steiner_lehmus._helper[1]
    write = os.write

    def no_request(fd, data):
        if fd == requests:
            raise AssertionError("the helper was used beside a live thread")
        return write(fd, data)

    monkeypatch.setattr(os, "write", no_request)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert scan_random(1000, 32) == public_scan(1000, 32)
        assert equal_bisector_report(0.9, 0.7) == one_process_report(0.9, 0.7, DEFAULT_TOL)
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert len(forks) == 1


def wait_for_exit(pid):
    """Wait up to 10 s for child ``pid`` to exit, leaving it unreaped."""
    flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
    deadline = time.monotonic() + 10
    while os.waitid(os.P_PID, pid, flags) is None:
        assert time.monotonic() < deadline, f"child {pid} did not exit"
        time.sleep(0.01)


def test_helper_killed_between_calls_falls_back_to_the_same_bytes(scan_parts):
    # a call that writes to a helper that died since the last call reaps it
    # and computes the part itself
    forks = scan_parts(True)
    expected = public_scan(1000, 31)
    assert scan_random(1000, 31) == expected
    os.kill(steiner_lehmus._helper[0], signal.SIGKILL)
    wait_for_exit(steiner_lehmus._helper[0])
    request = ("scan", (31, 512, 1000, DEFAULT_TOL.rtol_identity, DEFAULT_TOL.eps_angle))
    mine, part = steiner_lehmus._beside_helper(
        True, request, lambda: _scan_part(31, 0, 512, DEFAULT_TOL)
    )
    assert steiner_lehmus._helper is None
    assert repr(steiner_lehmus._merge_parts(mine, part)) == repr(_scan_part(31, 0, 1000, DEFAULT_TOL))
    # a call that finds a dead helper before it writes reaps it and starts a
    # new one
    assert repr(scan_random(1000, 31)) == repr(expected)
    assert len(forks) == 2
    equal_bisector_report(0.9, 0.7)
    os.kill(steiner_lehmus._helper[0], signal.SIGKILL)
    wait_for_exit(steiner_lehmus._helper[0])
    report = equal_bisector_report(0.9, 0.7)
    assert repr(report) == repr(one_process_report(0.9, 0.7, DEFAULT_TOL))
    assert steiner_lehmus._helper is not None
    assert len(forks) == 3


def test_idle_helper_leaves_and_the_next_call_forks_anew(scan_parts, monkeypatch):
    # an idle helper exits, giving back the caller's pages it kept from the
    # fork; the next call reaps it and forks a new one
    forks = scan_parts(True)
    monkeypatch.setattr(steiner_lehmus, "_HELPER_IDLE_S", 0.05)
    assert scan_random(1000, 31) == public_scan(1000, 31)
    pid = steiner_lehmus._helper[0]
    wait_for_exit(pid)
    assert os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT).si_status == 0
    assert scan_random(1000, 31) == public_scan(1000, 31)
    assert steiner_lehmus._helper[0] != pid
    assert len(forks) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(pid, os.WNOHANG)  # the old helper was reaped


def test_helper_holds_no_descriptor_of_its_caller(scan_parts, monkeypatch):
    # the helper keeps only its own two pipe ends: a pipe the caller opened
    # before the fork sees EOF once the caller closes its write end, while
    # the helper still runs
    scan_parts(True)
    monkeypatch.setattr(steiner_lehmus, "_HELPER_IDLE_S", 60.0)
    read_end, write_end = os.pipe()
    try:
        assert scan_random(1000, 31) == public_scan(1000, 31)
        pid = steiner_lehmus._helper[0]
        os.close(write_end)
        assert select.select([read_end], [], [], 10)[0] == [read_end]
        assert os.read(read_end, 1) == b""
        assert os.waitid(os.P_PID, pid, os.WEXITED | os.WNOHANG | os.WNOWAIT) is None
        assert scan_random(1000, 32) == public_scan(1000, 32)
        assert steiner_lehmus._helper[0] == pid
    finally:
        os.close(read_end)


def test_no_helper_is_used_unless_sigpipe_is_ignored(scan_parts):
    # with SIGPIPE at its default, a write to a helper that has died would
    # kill the caller: the call then runs in one process, and the caller
    # lives
    forks = scan_parts(True)
    expected = public_scan(1000, 31)
    assert scan_random(1000, 31) == expected
    os.kill(steiner_lehmus._helper[0], signal.SIGKILL)
    wait_for_exit(steiner_lehmus._helper[0])
    before = signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    try:
        assert repr(scan_random(1000, 31)) == repr(expected)
        assert repr(equal_bisector_report(0.9, 0.7)) == repr(
            one_process_report(0.9, 0.7, DEFAULT_TOL)
        )
    finally:
        signal.signal(signal.SIGPIPE, before)
    assert len(forks) == 1


def test_helper_dying_in_a_request_falls_back_to_the_same_bytes(scan_parts, monkeypatch):
    expected = public_scan(1000, 31)
    forks = scan_parts(True)
    parent = os.getpid()

    def dying_in_children(seed, start, stop, tol):
        if os.getpid() != parent:
            os._exit(5)
        return _scan_part(seed, start, stop, tol)

    monkeypatch.setattr(steiner_lehmus, "_scan_part", dying_in_children)
    assert scan_random(1000, 31) == expected
    assert steiner_lehmus._helper is None
    assert len(forks) == 1
