import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyptri import (
    DiskPoint,
    DomainCap,
    GeodesicArc,
    InvalidInput,
    InvalidPoint,
    NumericalFailure,
    TriangleAngles,
    TriangleSides,
    disk_angle,
    disk_distance,
    embed_triangle,
    geodesic_arc,
    point_toward,
    solve_from_angles,
    solve_from_sss,
)

from conftest import seeded_triangles

inner_coord = st.floats(min_value=-0.7, max_value=0.7)


def test_point_must_be_inside():
    with pytest.raises(InvalidPoint):
        DiskPoint(1.0, 0.0)
    with pytest.raises(InvalidPoint):
        DiskPoint(0.8, 0.7)
    with pytest.raises(InvalidPoint):
        DiskPoint(math.inf, 0.0)


def test_distance_zero_iff_equal():
    p = DiskPoint(0.3, -0.2)
    assert disk_distance(p, p) == 0.0


def test_distance_origin_to_half():
    d = disk_distance(DiskPoint(0.0, 0.0), DiskPoint(0.5, 0.0))
    assert d == pytest.approx(math.log(3.0), abs=1e-12)


@given(inner_coord, inner_coord, inner_coord, inner_coord)
def test_distance_symmetric_bitwise(x1, y1, x2, y2):
    p, q = DiskPoint(x1, y1), DiskPoint(x2, y2)
    assert disk_distance(p, q) == disk_distance(q, p)


def test_embed_equilateral():
    t = solve_from_sss(TriangleSides(1.0, 1.0, 1.0))
    pA, pB, pC = embed_triangle(t)
    assert (pA.x, pA.y) == (0.0, 0.0)
    assert pB.x == pytest.approx(math.tanh(0.5), rel=1e-15)
    assert pB.y == 0.0
    assert math.hypot(pC.x, pC.y) == pytest.approx(math.tanh(0.5), rel=1e-14)


def test_embed_isosceles_reflection_symmetry():
    # b = c puts B and C at the same euclidean radius, so reflecting across
    # the bisector of the angle at the origin swaps them
    t = solve_from_angles(TriangleAngles(0.8, 0.6, 0.6))
    _, pB, pC = embed_triangle(t)
    assert math.hypot(pB.x, pB.y) == math.hypot(pC.x, pC.y)


def test_embed_rejects_oversized():
    t = solve_from_sss(TriangleSides(45.0, 45.0, 45.0))
    with pytest.raises(DomainCap):
        embed_triangle(t)


def test_embedding_reproduces_metric():
    for t in seeded_triangles(500, seed=31):
        pA, pB, pC = embed_triangle(t)
        assert disk_distance(pB, pC) == pytest.approx(t.a, abs=1e-9)
        assert disk_distance(pA, pC) == pytest.approx(t.b, abs=1e-9)
        assert disk_distance(pA, pB) == pytest.approx(t.c, abs=1e-9)
        assert disk_angle(pA, pB, pC) == pytest.approx(t.A, abs=1e-9)
        assert disk_angle(pB, pA, pC) == pytest.approx(t.B, abs=1e-9)
        assert disk_angle(pC, pA, pB) == pytest.approx(t.C, abs=1e-9)


def test_angle_at_origin_is_euclidean():
    at = DiskPoint(0.0, 0.0)
    assert disk_angle(at, DiskPoint(0.4, 0.0), DiskPoint(0.0, 0.3)) == pytest.approx(
        math.pi / 2, abs=1e-15
    )


def test_angle_collinear_through_origin():
    at = DiskPoint(0.0, 0.0)
    assert disk_angle(at, DiskPoint(0.4, 0.0), DiskPoint(-0.3, 0.0)) == pytest.approx(
        math.pi, abs=1e-15
    )


def test_angle_rejects_coincident():
    p = DiskPoint(0.1, 0.1)
    with pytest.raises(InvalidInput):
        disk_angle(p, p, DiskPoint(0.2, 0.2))


def test_arc_through_origin_is_segment():
    arc = geodesic_arc(DiskPoint(0.0, 0.0), DiskPoint(0.5, 0.0))
    assert arc.kind == "segment"
    assert arc.center is None


def test_arc_example_center():
    arc = geodesic_arc(DiskPoint(0.5, 0.0), DiskPoint(0.0, 0.5))
    assert arc.kind == "arc"
    assert arc.center[0] == pytest.approx(1.25, abs=1e-15)
    assert arc.center[1] == pytest.approx(1.25, abs=1e-15)
    assert arc.radius == pytest.approx(math.sqrt(2.125), rel=1e-15)


def test_arc_rejects_coincident():
    p = DiskPoint(0.2, 0.1)
    with pytest.raises(InvalidInput):
        geodesic_arc(p, p)


@given(inner_coord, inner_coord, inner_coord, inner_coord)
def test_arc_orthogonality(x1, y1, x2, y2):
    p, q = DiskPoint(x1, y1), DiskPoint(x2, y2)
    if p.as_complex() == q.as_complex():
        return
    arc = geodesic_arc(p, q)
    if arc.kind == "arc":
        cx, cy = arc.center
        rr = arc.radius**2
        # relative to r^2: near-diameter geodesics have huge circles
        assert abs(cx * cx + cy * cy - rr - 1.0) <= 1e-12 * max(1.0, rr)


def test_point_toward_walks_correct_distance():
    p = DiskPoint(0.2, -0.3)
    q = DiskPoint(-0.4, 0.1)
    step = point_toward(p, q, 0.25)
    assert disk_distance(p, step) == pytest.approx(0.25, abs=1e-13)
    # walking the full distance lands on q
    full = point_toward(p, q, disk_distance(p, q))
    assert disk_distance(full, q) < 1e-13


def test_degenerate_geodesics_are_rejected():
    p = DiskPoint(0.2, -0.3)
    q = DiskPoint(-0.4, 0.1)
    with pytest.raises(InvalidInput, match="^direction undefined for coincident points$"):
        point_toward(p, p, 1.0)
    with pytest.raises(InvalidInput, match="^unknown geodesic kind 'x'$"):
        GeodesicArc(p, q, "x")
    # the unit circle itself is not orthogonal to the boundary
    with pytest.raises(NumericalFailure, match="^arc circle not orthogonal to the boundary"):
        GeodesicArc(p, q, "arc", center=(0.0, 0.0), radius=1.0)
    # an arc without a finite center and radius is refused before that test
    message = "^an arc needs a finite center and radius, got "
    with pytest.raises(InvalidInput, match=message + r"None and None$"):
        GeodesicArc(p, q, "arc")
    with pytest.raises(InvalidInput, match=message + r"\(nan, 0\.0\) and nan$"):
        GeodesicArc(p, q, "arc", center=(math.nan, 0.0), radius=math.nan)
    with pytest.raises(InvalidInput, match=message + r"\(0\.0, 2\.0\) and inf$"):
        GeodesicArc(p, q, "arc", center=(0.0, 2.0), radius=math.inf)


def test_foot_placement_consistent_with_sides():
    t = solve_from_angles(TriangleAngles(0.6, 0.5, 0.9))
    pA, pB, pC = embed_triangle(t)
    mid = point_toward(pA, pC, 0.4 * t.b)
    assert disk_distance(pA, mid) + disk_distance(mid, pC) == pytest.approx(t.b, abs=1e-12)
