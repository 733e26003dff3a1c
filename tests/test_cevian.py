import math
import struct
from itertools import combinations, product

import pytest
from hypothesis import given

from hyptri import (
    DEFAULT_TOL,
    HypTriError,
    NumericalFailure,
    SplitMix64,
    Triangle,
    TriangleAngles,
    TriangleSides,
    bisector_lengths,
    disk_distance,
    embed_triangle,
    point_toward,
    solve_from_angles,
    solve_from_asa,
    solve_from_sas,
    solve_from_sss,
    subtriangle_residuals,
    unconditional_identities,
)

from hyptri.cevian import _check_feet, _rel
from hyptri.steiner_lehmus import sample_angles

from conftest import (
    LOOSE_TOL, ORACLE_TOL, angle_triples, klein_bisector_length, outcome, seeded_triangles,
    special_floats,
)

EQUILATERAL_UNIT_BISECTOR = 0.8340252289813307  # acosh(cosh 1 / cosh 0.5)


def test_equilateral_foot_is_midpoint():
    d = bisector_lengths(solve_from_sss(TriangleSides(1.0, 1.0, 1.0)))
    assert d.u == pytest.approx(0.5, abs=1e-15)
    assert d.U == pytest.approx(0.5, abs=1e-15)


def test_isosceles_feet_are_midpoints():
    # a = c forces the foot from B onto the midpoint of AC, and a = b the
    # foot from C onto the midpoint of AB
    t = solve_from_angles(TriangleAngles(0.7, 0.5, 0.7))  # A = C so a = c
    d = bisector_lengths(t)
    assert d.u == pytest.approx(t.b / 2, rel=1e-14)
    assert d.U == pytest.approx(t.b / 2, rel=1e-14)
    t2 = solve_from_angles(TriangleAngles(0.7, 0.7, 0.5))  # A = B so a = b
    d2 = bisector_lengths(t2)
    assert d2.v == pytest.approx(t2.c / 2, rel=1e-14)
    assert d2.V == pytest.approx(t2.c / 2, rel=1e-14)


def test_foot_ratio_matches_sinh_rule():
    for t in seeded_triangles(300, seed=11):
        d = bisector_lengths(t)
        assert math.sinh(d.u) / math.sinh(d.U) == pytest.approx(
            math.sinh(t.c) / math.sinh(t.a), rel=1e-12
        )


def test_foot_segments_sum_to_side():
    for t in seeded_triangles(300, seed=12):
        d = bisector_lengths(t)
        assert abs(d.u + d.U - t.b) <= 1e-12 * t.b
        assert abs(d.v + d.V - t.c) <= 1e-12 * t.c


def test_foot_agrees_with_asa_subtriangle_solve():
    # independent oracle: solve triangle ABB' from angles A, B/2 and side c
    for t in seeded_triangles(300, seed=13):
        d = bisector_lengths(t)
        oracle = solve_from_asa(t.A, t.c, 0.5 * t.B, tol=ORACLE_TOL)
        assert d.u == pytest.approx(oracle.sides.b, rel=1e-10)
        oracle2 = solve_from_asa(t.A, t.b, 0.5 * t.C, tol=ORACLE_TOL)
        assert d.v == pytest.approx(oracle2.sides.b, rel=1e-10)


def test_equilateral_bisector_length():
    t = solve_from_sss(TriangleSides(1.0, 1.0, 1.0))
    d = bisector_lengths(t)
    assert d.tB == pytest.approx(math.acosh(math.cosh(1.0) / math.cosh(0.5)), rel=1e-13)
    assert d.tB == pytest.approx(EQUILATERAL_UNIT_BISECTOR, rel=1e-13)
    # apex bisector is perpendicular to the base, so the right-angle relation
    # cosh tB cosh u = cosh c pins the same value
    assert math.cosh(d.tB) * math.cosh(d.u) == pytest.approx(math.cosh(1.0), rel=1e-13)
    assert d.u == d.U == d.v == d.V == pytest.approx(0.5, abs=1e-15)


def test_isosceles_bisectors_equal():
    t = solve_from_angles(TriangleAngles(0.9, 0.6, 0.6))
    d = bisector_lengths(t)
    assert abs(d.tB - d.tC) <= 1e-12


def test_bisector_length_matches_disk_distance():
    for t in seeded_triangles(100, seed=14):
        d = bisector_lengths(t)
        pA, pB, pC = embed_triangle(t)
        footB = point_toward(pA, pC, d.u)
        assert disk_distance(pB, footB) == pytest.approx(d.tB, abs=1e-9)
        footC = point_toward(pA, pB, d.v)
        assert disk_distance(pC, footC) == pytest.approx(d.tC, abs=1e-9)


def test_subtriangle_residuals_small():
    for t in seeded_triangles(500, seed=15):
        d = bisector_lengths(t)
        assert subtriangle_residuals(t, d).max() < 1e-10


def test_unconditional_identities_small():
    for t in seeded_triangles(500, seed=16):
        d = bisector_lengths(t)
        r = unconditional_identities(d, t)
        assert r.idU < 1e-10
        assert r.idV < 1e-10


def test_equilateral_identity_ratios_are_one():
    t = solve_from_sss(TriangleSides(1.0, 1.0, 1.0))
    d = bisector_lengths(t)
    assert math.sinh(d.U) / math.sinh(d.u) == 1.0
    assert math.sin(t.A) / math.sin(t.C) == 1.0


def test_ratio_product_check():
    # (sinh u / sinh v) (sinh tC / sinh tB) = sin(B/2) / sin(C/2) without
    # assuming the bisectors are equal
    for t in seeded_triangles(300, seed=17):
        d = bisector_lengths(t)
        lhs = (math.sinh(d.u) / math.sinh(d.v)) * (math.sinh(d.tC) / math.sinh(d.tB))
        assert lhs == pytest.approx(math.sin(d.beta) / math.sin(d.gamma), rel=1e-10)


def test_klein_oracle_pins_the_equilateral_bisector():
    t = solve_from_sss(TriangleSides(1.0, 1.0, 1.0))
    assert klein_bisector_length(t.a, t.c, t.B) == pytest.approx(
        EQUILATERAL_UNIT_BISECTOR, rel=1e-15
    )


def test_bisector_lengths_agree_with_the_klein_oracle():
    # tB from (a, c, B) and tC from (a, b, C), on 2,000 seed-42 triangles;
    # the worst relative difference read 3.20e-15 (9.95e-15 on 20,000)
    rng = SplitMix64(42)
    worst = 0.0
    for _ in range(2000):
        A, B, C = sample_angles(rng, LOOSE_TOL.eps_angle)
        t = solve_from_angles(TriangleAngles(A, B, C, tol=LOOSE_TOL), tol=LOOSE_TOL)
        d = bisector_lengths(t, tol=LOOSE_TOL)
        worst = max(
            worst,
            abs(klein_bisector_length(t.a, t.c, t.B) - d.tB) / d.tB,
            abs(klein_bisector_length(t.a, t.b, t.C) - d.tC) / d.tC,
        )
    assert worst < 4e-15


def test_bisector_lengths_agree_with_the_klein_oracle_on_the_sas_box():
    # the box of test_sas_box_has_no_sign_law_false_alarm: b and c up to the
    # side cap, A in (0, pi). The worst relative difference read 6.62e-15,
    # at a = 42.90, b = 42.98, c = 0.080 and C = 9.0e-21
    rng = SplitMix64(42)
    accepted = 0
    worst = 0.0
    for _ in range(5000):
        b = 50.0 * rng.random()
        c = 50.0 * rng.random()
        A = math.pi * rng.random()
        try:
            t = solve_from_sas(b, A, c, LOOSE_TOL)
        except HypTriError:
            continue
        accepted += 1
        d = bisector_lengths(t, tol=LOOSE_TOL)
        worst = max(
            worst,
            abs(klein_bisector_length(t.a, t.c, t.B) - d.tB) / d.tB,
            abs(klein_bisector_length(t.a, t.b, t.C) - d.tC) / d.tC,
        )
    assert accepted == 2590
    assert worst < 8e-15


def test_bisector_lengths_tend_to_the_euclidean_bisector():
    # as the triangle shrinks, tB tends to 2ac cos(B/2)/(a + c), and tC to its
    # mirror, with relative error O(side^2): on 3,000 SAS triangles of largest
    # side 2e-4 to 0.2, the error over the largest side squared read 0.0833
    rng = SplitMix64(42)
    worst = 0.0
    for _ in range(3000):
        s = 10.0 ** (-3.0 + 2.0 * rng.random())
        b = s * (0.2 + 0.8 * rng.random())
        c = s * (0.2 + 0.8 * rng.random())
        t = solve_from_sas(b, 0.2 + 2.6 * rng.random(), c)
        d = bisector_lengths(t)
        euclidean_tB = 2.0 * t.a * t.c * math.cos(0.5 * t.B) / (t.a + t.c)
        euclidean_tC = 2.0 * t.a * t.b * math.cos(0.5 * t.C) / (t.a + t.b)
        error = max(abs(d.tB - euclidean_tB) / d.tB, abs(d.tC - euclidean_tC) / d.tC)
        worst = max(worst, error / max(t.a, t.b, t.c) ** 2)
    assert worst < 0.1


@given(angle_triples())
def test_swap_symmetry_is_exact(triple):
    A, B, C = triple
    t = solve_from_angles(TriangleAngles(A, B, C, tol=ORACLE_TOL), tol=ORACLE_TOL)
    swapped = Triangle(
        TriangleSides(t.a, t.c, t.b, tol=ORACLE_TOL),
        TriangleAngles(t.A, t.C, t.B, tol=ORACLE_TOL),
        tol=ORACLE_TOL,
    )
    d = bisector_lengths(t, tol=ORACLE_TOL)
    ds = bisector_lengths(swapped, tol=ORACLE_TOL)
    assert (ds.v, ds.V, ds.tC) == (d.u, d.U, d.tB)
    assert (ds.u, ds.U, ds.tB) == (d.v, d.V, d.tC)


# Plain forms of the rules in hyptri.cevian, kept as oracles: the relative
# difference written with max and the loop form of the feet check. Every
# input must give the same return bits, or the same exception class and
# message, on grids of special floats; on solved triangles, the sub-triangle
# residuals must match bit for bit.


def _ref_rel(x, y):
    """Relative difference of two same-signed quantities."""
    return abs(x - y) / max(abs(x), abs(y))


def _ref_check_feet(b, c, u, U, v, V, tB, tC, t):
    """Positivity of every bisector quantity, then u + U = b and v + V = c."""
    for name, value in (
        ("u", u), ("U", U), ("v", v), ("V", V), ("tB", tB), ("tC", tC),
    ):
        if not (math.isfinite(value) and value > 0.0):
            raise NumericalFailure(f"bisector quantity {name} = {value!r} must be positive")
    if abs(u + U - b) > t.rtol_identity * b:
        raise NumericalFailure(f"foot segments do not sum to the side: u + U - b = {u + U - b!r}")
    if abs(v + V - c) > t.rtol_identity * c:
        raise NumericalFailure(f"foot segments do not sum to the side: v + V - c = {v + V - c!r}")


def test_rel_matches_max():
    values = special_floats()
    for x, y in product(values, repeat=2):
        assert outcome(_rel, x, y) == outcome(_ref_rel, x, y), (x, y)


def _ref_subtriangle_residuals(t, d):
    sin_beta = math.sin(d.beta)
    sin_gamma = math.sin(d.gamma)
    sinh_tB = math.sinh(d.tB)
    sinh_tC = math.sinh(d.tC)
    return (
        _ref_rel(sinh_tB / math.sin(t.A), math.sinh(d.u) / sin_beta),
        _ref_rel(sinh_tB / math.sin(t.C), math.sinh(d.U) / sin_beta),
        _ref_rel(sinh_tC / math.sin(t.A), math.sinh(d.v) / sin_gamma),
        _ref_rel(sinh_tC / math.sin(t.B), math.sinh(d.V) / sin_gamma),
    )


def test_subtriangle_residuals_match_max_form_on_solved_triangles(triangle_ensemble):
    for t in triangle_ensemble:
        d = bisector_lengths(t, tol=ORACLE_TOL)
        r = subtriangle_residuals(t, d)
        got = [struct.pack("<d", x) for x in (r.res_u, r.res_U, r.res_v, r.res_V)]
        assert got == [struct.pack("<d", x) for x in _ref_subtriangle_residuals(t, d)]


def test_check_feet_matches_loop_form():
    # every pair of the eight arguments over the special floats; the other six
    # come from a solved triangle, so the foot-sum checks run whenever the
    # positivity checks pass
    t = solve_from_angles(TriangleAngles(0.6, 0.5, 0.9))
    d = bisector_lengths(t)
    base = (t.b, t.c, d.u, d.U, d.v, d.V, d.tB, d.tC)
    values = special_floats()
    outcomes = set()
    for i, j in combinations(range(len(base)), 2):
        for x, y in product(values, repeat=2):
            args = list(base)
            args[i], args[j] = x, y
            got = outcome(_check_feet, *args, DEFAULT_TOL)
            assert got == outcome(_ref_check_feet, *args, DEFAULT_TOL), args
            outcomes.add(got if got is None else got[1].split(" = ")[0])
    assert outcomes == {
        None,
        *(f"bisector quantity {name}" for name in ("u", "U", "v", "V", "tB", "tC")),
        "foot segments do not sum to the side: u + U - b",
        "foot segments do not sum to the side: v + V - c",
    }
