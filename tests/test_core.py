import copy
import math
import pickle
import struct
from dataclasses import FrozenInstanceError, InitVar, make_dataclass
from itertools import permutations, product
from types import SimpleNamespace

import pytest
from hypothesis import given

from hyptri import (
    DEFAULT_TOL,
    SCAN_TOL,
    DomainCap,
    InvalidTriangle,
    Triangle,
    TriangleAngles,
    TriangleSides,
    ToleranceConfig,
    defect,
    law_of_cosines_residual,
    law_of_sines_residual,
    solve_from_angles,
    solve_from_asa,
    solve_from_sas,
    solve_from_sss,
)
from hyptri.core import (
    _ATOL_EQUAL,
    _MAX_SIDE,
    _check_angles,
    _check_ordering,
    _check_sides,
)

from conftest import ORACLE_TOL, angle_triples, outcome, seeded_triangles, special_floats

# frozen closed-form expectations, cross-checked against a disk-model
# embedding before being relied on
EQUILATERAL_PI6_SIDE = 2.553373736760691  # acosh(3 + 2*sqrt(3))
EQUILATERAL_UNIT_ANGLE = 0.9187978721780273  # acos(cosh 1 / (cosh 1 + 1))


def test_defect_equilateral_pi6():
    assert defect(TriangleAngles(math.pi / 6, math.pi / 6, math.pi / 6)) == pytest.approx(
        math.pi / 2, abs=1e-15
    )


def test_defect_mixed():
    assert defect(TriangleAngles(math.pi / 2, math.pi / 4, math.pi / 8)) == pytest.approx(
        math.pi / 8, abs=1e-15
    )


def test_defect_rejects_euclidean_sum():
    with pytest.raises(InvalidTriangle):
        TriangleAngles(math.pi / 2, math.pi / 3, math.pi / 6)


def test_angles_reject_nonpositive():
    with pytest.raises(InvalidTriangle):
        TriangleAngles(0.0, 0.5, 0.5)
    with pytest.raises(InvalidTriangle):
        TriangleAngles(0.5, -0.1, 0.5)
    with pytest.raises(InvalidTriangle):
        TriangleAngles(math.nan, 0.5, 0.5)


def test_sides_reject_triangle_inequality():
    with pytest.raises(InvalidTriangle):
        TriangleSides(1.0, 1.0, 2.5)


def test_sides_reject_cap():
    with pytest.raises(DomainCap):
        TriangleSides(51.0, 51.0, 51.0)
    # an infinite side is over the cap, whether given or overflowed in the AAA solve
    with pytest.raises(DomainCap, match=r"^side b = inf exceeds the cap 50\.0$"):
        TriangleSides(1.0, math.inf, 1.0)
    with pytest.raises(DomainCap, match=r"^side a = inf exceeds the cap 50\.0$"):
        solve_from_angles(TriangleAngles(1e-155, 1e-155, 1e-155))


def test_tolerance_config_validation():
    # fields are checked in order, each for finite and positive, then the bound
    cases = [
        ({"rtol_identity": -1.0}, "rtol_identity must be finite and positive, got -1.0"),
        ({"rtol_identity": math.nan, "eps_angle": 0.0}, "rtol_identity must be finite and positive, got nan"),
        ({"rtol_identity": 1e-6, "eps_angle": math.inf}, "eps_angle must be finite and positive, got inf"),
        ({"rtol_identity": 1e-6}, "rtol_identity must be <= 1e-8"),
    ]
    for kwargs, message in cases:
        with pytest.raises(ValueError) as caught:
            ToleranceConfig(**kwargs)
        assert type(caught.value) is ValueError
        assert str(caught.value) == message


# the fields of each core value type, in order, and a frozen slotted
# dataclass of the same name and fields (with tol as an InitVar where the
# constructor takes one) that the types must behave like
CORE_FIELDS = {
    ToleranceConfig: ("rtol_identity", "eps_angle"),
    TriangleAngles: ("A", "B", "C"),
    TriangleSides: ("a", "b", "c"),
    Triangle: ("sides", "angles"),
}
REFERENCE = {
    cls: make_dataclass(
        cls.__name__,
        [*fields, *([] if cls is ToleranceConfig else [("tol", InitVar, DEFAULT_TOL)])],
        frozen=True,
        slots=True,
    )
    for cls, fields in CORE_FIELDS.items()
}
LOW_EPS = ToleranceConfig(eps_angle=1e-12)


def _reference(value):
    """The reference dataclass value holding the same fields, nested ones included."""
    if type(value) not in REFERENCE:
        return value
    fields = (_reference(getattr(value, name)) for name in CORE_FIELDS[type(value)])
    return REFERENCE[type(value)](*fields)


def _core_values():
    return [
        DEFAULT_TOL, ToleranceConfig(), SCAN_TOL, LOW_EPS,
        # equal floats in two types
        TriangleAngles(0.5, 0.5, 0.5), TriangleSides(0.5, 0.5, 0.5),
        solve_from_angles(TriangleAngles(0.6, 0.5, 0.9)),
        solve_from_angles(TriangleAngles(0.6, 0.5, 0.9)),
        solve_from_sss(TriangleSides(1.0, 1.2, 1.5)),
        # valid only under LOW_EPS: its defect 1e-11 is below DEFAULT_TOL's 1e-9
        TriangleAngles(1.0, 1.0, math.pi - 2.0 - 1e-11, tol=LOW_EPS),
    ]


def test_core_types_behave_as_frozen_slotted_dataclasses():
    values = _core_values()
    refs = [_reference(v) for v in values]
    for value, ref in zip(values, refs):
        assert repr(value) == repr(ref)
        assert hash(value) == hash(ref)
        assert type(value).__match_args__ == type(ref).__match_args__
        assert not hasattr(value, "__dict__")
    assert [[x == y for y in values] for x in values] == [[x == y for y in refs] for x in refs]
    assert [[x != y for y in values] for x in values] == [[x != y for y in refs] for x in refs]
    assert TriangleAngles(0.5, 0.5, 0.5) != TriangleSides(0.5, 0.5, 0.5)
    assert values[6] == values[7] and values[6] is not values[7]


def test_core_types_are_frozen_with_the_dataclass_messages():
    for value in _core_values():
        ref = _reference(value)
        for name in CORE_FIELDS[type(value)]:
            for mutate in (lambda v: setattr(v, name, 1.0), lambda v: delattr(v, name)):
                with pytest.raises(FrozenInstanceError) as expected:
                    mutate(ref)
                with pytest.raises(AttributeError) as caught:
                    mutate(value)
                assert str(caught.value) == str(expected.value)
        # a name that is no field is refused too (3.10 and 3.11 dataclasses
        # raise TypeError there, from a bug in their slots support)
        with pytest.raises(AttributeError, match=r"^cannot assign to field 'other'$"):
            value.other = 1.0
        with pytest.raises(AttributeError, match=r"^cannot delete field 'other'$"):
            del value.other
        assert repr(value) == repr(ref)  # no refused change went through


def test_core_types_take_keywords():
    angles = TriangleAngles(A=0.6, B=0.5, C=0.9, tol=DEFAULT_TOL)
    sides = solve_from_angles(angles).sides
    assert angles == TriangleAngles(0.6, 0.5, 0.9)
    assert TriangleSides(a=sides.a, b=sides.b, c=sides.c, tol=SCAN_TOL) == sides
    assert Triangle(sides=sides, angles=angles, tol=DEFAULT_TOL) == solve_from_angles(angles)
    tol = ToleranceConfig(rtol_identity=1e-9, eps_angle=1e-3)
    assert tol == ToleranceConfig(1e-9, 1e-3) == SCAN_TOL
    assert ToleranceConfig(eps_angle=1e-3).eps_angle == 1e-3
    # the side cap and the ordering tie band are constants, not fields
    for kwargs in ({"atol_equal": 1e-12}, {"max_side": 50.0}):
        with pytest.raises(TypeError):
            ToleranceConfig(**kwargs)
    with pytest.raises(TypeError):
        ToleranceConfig(1e-10, 1e-12, 1e-9, 50.0)


def test_core_types_pickle_and_copy_without_validating_again():
    values = _core_values()
    low = values[-1]
    with pytest.raises(InvalidTriangle):
        TriangleAngles(*low.as_tuple())  # DEFAULT_TOL rejects it
    for value in values:
        copies = [copy.copy(value), copy.deepcopy(value)]
        copies += [pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
        for restored in copies:
            assert type(restored) is type(value)
            assert restored == value
            assert repr(restored) == repr(value)
            assert hash(restored) == hash(value)


# ToleranceConfig(rtol_identity=1e-9, eps_angle=1e-3) pickled at protocol 2
# when the type had four fields: (rtol_identity, atol_equal, eps_angle, max_side)
FOUR_FIELD_PICKLE = (
    b"\x80\x02chyptri.core\nToleranceConfig\nq\x00)\x81q\x01(G>\x11.\x0b\xe8&\xd6\x95"
    b"G=q\x97\x99\x81-\xea\x11G?PbM\xd2\xf1\xa9\xfcG@I\x00\x00\x00\x00\x00\x00tq\x02b."
)


def test_core_types_refuse_a_state_of_another_length():
    # a state that names fewer or more fields than the type has raises rather
    # than filling the slots in order, which would load the old pickle's
    # atol_equal 1e-12 as eps_angle
    with pytest.raises(ValueError):
        pickle.loads(FOUR_FIELD_PICKLE)
    for value in _core_values():
        blank = object.__new__(type(value))
        for state in ((1.0,), (1e-9, 1e-12, 1e-3, 50.0)):
            with pytest.raises(ValueError):
                blank.__setstate__(state)


def band_cmp(x, y, atol):
    """Three-way compare with |x - y| <= atol treated as a tie (0): the
    reference reading of the side/angle ordering rule."""
    if abs(x - y) <= atol:
        return 0
    return -1 if x < y else 1


def test_band_cmp_tie_handling():
    assert band_cmp(1.0, 1.0 + 5e-13, 1e-12) == 0
    assert band_cmp(1.0, 2.0, 1e-12) == -1
    assert band_cmp(2.0, 1.0, 1e-12) == 1


def test_solve_from_angles_equilateral_pi6():
    t = solve_from_angles(TriangleAngles(math.pi / 6, math.pi / 6, math.pi / 6))
    assert t.a == pytest.approx(math.acosh(3 + 2 * math.sqrt(3)), rel=1e-14)
    assert t.a == pytest.approx(EQUILATERAL_PI6_SIDE, rel=1e-14)


def test_solve_from_angles_symmetric_bitwise():
    t = solve_from_angles(TriangleAngles(0.7, 0.7, 0.7))
    assert t.a == t.b == t.c


def test_solve_from_sss_equilateral_unit():
    t = solve_from_sss(TriangleSides(1.0, 1.0, 1.0))
    expected = math.acos(math.cosh(1.0) / (math.cosh(1.0) + 1.0))
    assert t.A == pytest.approx(expected, rel=1e-14)
    assert t.A == pytest.approx(EQUILATERAL_UNIT_ANGLE, rel=1e-14)
    assert t.A == t.B == t.C


def test_solve_from_sas_symmetry_closure():
    angle = EQUILATERAL_UNIT_ANGLE
    t = solve_from_sas(1.0, angle, 1.0)
    assert t.a == pytest.approx(1.0, rel=1e-12)


def test_solve_from_sas_flat_limit():
    # A -> pi with b = c = 1 approaches a = acosh(cosh^2 1 + sinh^2 1) = 2
    t = solve_from_sas(1.0, math.pi - 1e-4, 1.0)
    assert t.a == pytest.approx(2.0, abs=1e-8)
    # closer to the limit the sides/angles map conditioning needs the
    # relaxed identity margin, but the angle sum stays valid and a -> 2
    extreme = solve_from_sas(1.0, math.pi - 1e-6, 1.0, tol=ToleranceConfig(rtol_identity=1e-9))
    assert extreme.a == pytest.approx(2.0, abs=1e-9)


def test_solve_from_sas_rejects_bad_inputs():
    with pytest.raises(InvalidTriangle):
        solve_from_sas(-1.0, 0.5, 1.0)
    with pytest.raises(InvalidTriangle):
        solve_from_sas(1.0, math.pi, 1.0)
    with pytest.raises(DomainCap):
        solve_from_sas(49.0, 3.0, 49.0)


def test_solve_from_asa_isosceles():
    t = solve_from_asa(0.6, 1.3, 0.6)
    assert abs(t.a - t.b) <= 1e-10 * t.a


def test_solve_from_asa_equilateral_roundtrip():
    t = solve_from_asa(EQUILATERAL_UNIT_ANGLE, 1.0, EQUILATERAL_UNIT_ANGLE)
    for side in (t.a, t.b, t.c):
        assert side == pytest.approx(1.0, rel=1e-12)


def test_solve_from_asa_rejects_an_angle_pair_summing_past_pi():
    with pytest.raises(InvalidTriangle, match=r"^angles A \+ B = 3\.5 must stay below pi$"):
        solve_from_asa(2.0, 1.0, 1.5)


def test_solve_from_asa_divergent_rays():
    # near-right angles at both ends of a long side leave no intersection
    with pytest.raises(InvalidTriangle):
        solve_from_asa(math.pi / 2 - 1e-3, 10.0, math.pi / 2 - 1e-3)


def test_law_of_sines_zero_for_equilateral():
    t = solve_from_sss(TriangleSides(1.0, 1.0, 1.0))
    assert law_of_sines_residual(t) == 0.0


def test_sine_ratio_spread_detects_perturbation():
    t = solve_from_angles(TriangleAngles(0.6, 0.5, 0.9))
    spread = law_of_sines_residual(stand_in(t.a + 1e-3, t.b, t.c, t.A, t.B, t.C))
    assert spread > 1e-4


def test_triangle_rejects_inconsistent_pairing():
    t = solve_from_angles(TriangleAngles(0.6, 0.5, 0.9))
    with pytest.raises(InvalidTriangle):
        Triangle(TriangleSides(t.a + 1e-3, t.b, t.c), t.angles)


@given(angle_triples())
def test_roundtrip_angles_sides_angles(triple):
    A, B, C = triple
    tol = ToleranceConfig(rtol_identity=1e-9, eps_angle=1e-4)
    t = solve_from_angles(TriangleAngles(A, B, C, tol=tol), tol=tol)
    back = solve_from_sss(t.sides, tol=tol)
    assert back.A == pytest.approx(A, abs=1e-9)
    assert back.B == pytest.approx(B, abs=1e-9)
    assert back.C == pytest.approx(C, abs=1e-9)


@given(angle_triples())
def test_solver_outputs_satisfy_invariants(triple):
    tol = ToleranceConfig(rtol_identity=1e-9, eps_angle=1e-4)
    t = solve_from_angles(TriangleAngles(*triple, tol=tol), tol=tol)
    assert defect(t.angles) > 0.0
    assert law_of_sines_residual(t) < 1e-9
    assert law_of_cosines_residual(t) < 1e-9
    # ordering: larger angle faces larger side
    for x, y, X, Y in ((t.a, t.b, t.A, t.B), (t.b, t.c, t.B, t.C), (t.c, t.a, t.C, t.A)):
        assert band_cmp(x, y, 1e-12) * band_cmp(X, Y, 1e-12) >= 0


def test_sas_agrees_with_sss_completion():
    for t in seeded_triangles(200, seed=5):
        completed = solve_from_sas(t.b, t.A, t.c)
        assert completed.a == pytest.approx(t.a, rel=1e-10)
        assert completed.B == pytest.approx(t.B, abs=1e-10)


def test_asa_outputs_keep_sine_law():
    for t in seeded_triangles(200, seed=6):
        rebuilt = solve_from_asa(t.A, t.c, t.B)
        assert law_of_sines_residual(rebuilt) < 1e-10
        assert rebuilt.c == pytest.approx(t.c, rel=1e-9)


def test_small_triangle_euclidean_limit():
    # scaling a fixed shape by 1e-4: angles approach the euclidean ones
    shape = (2.0, 2.5, 3.0)
    scale = 1e-4
    t = solve_from_sss(TriangleSides(*(s * scale for s in shape)))
    a, b, c = shape
    euclid = (
        math.acos((b * b + c * c - a * a) / (2 * b * c)),
        math.acos((c * c + a * a - b * b) / (2 * c * a)),
        math.acos((a * a + b * b - c * c) / (2 * a * b)),
    )
    for got, expected in zip((t.A, t.B, t.C), euclid):
        assert got == pytest.approx(expected, rel=1e-6)


# Plain forms of the rules in hyptri.core, kept as oracles: the loop forms of
# the angle, side and ordering checks, and the residuals written with max and
# min. Every input must give the same return bits (None for a check that
# passes), or the same exception class and message, on grids of special
# floats; on solved triangles, the residuals must match bit for bit.


def stand_in(a, b, c, A, B, C):
    """Unvalidated sides and angles with the fields the residuals read."""
    return SimpleNamespace(a=a, b=b, c=c, A=A, B=B, C=C)


def _ref_check_angles(A, B, C, t):
    """Range and angle-sum checks of an angle triple."""
    for name, value in (("A", A), ("B", B), ("C", C)):
        if not (math.isfinite(value) and 0.0 < value < math.pi):
            raise InvalidTriangle(f"angle {name} must lie in (0, pi), got {value!r}")
    # fsum keeps the defect exact under relabeling of the angles
    gap = math.pi - math.fsum((A, B, C))
    if gap <= t.eps_angle:
        raise InvalidTriangle(
            f"angle sum must stay below pi by at least {t.eps_angle} (defect {gap!r})"
        )


def _ref_check_sides(a, b, c):
    """Positivity, side-cap and strict triangle-inequality checks of a side triple."""
    for name, value in (("a", a), ("b", b), ("c", c)):
        if math.isnan(value) or value <= 0.0:
            raise InvalidTriangle(f"side {name} must be finite and positive, got {value!r}")
        if value > _MAX_SIDE:  # +inf included
            raise DomainCap(f"side {name} = {value!r} exceeds the cap {_MAX_SIDE}")
    for name, excess in (
        ("a", math.fsum((b, c, -a))),
        ("b", math.fsum((c, a, -b))),
        ("c", math.fsum((a, b, -c))),
    ):
        if excess <= 0.0:
            raise InvalidTriangle(
                f"triangle inequality violated: side {name} is not shorter "
                f"than the other two combined"
            )


def _ref_loc_vertex_residual(opp, adj1, adj2, sinh_adj1, sinh_adj2, half):
    rhs = math.cosh(adj1 - adj2) + 2.0 * sinh_adj1 * sinh_adj2 * half * half
    lhs = math.cosh(opp)
    return abs(lhs - rhs) / max(lhs, rhs)


def _ref_law_of_cosines_residual(t):
    a, b, c = t.a, t.b, t.c
    sinh_a, sinh_b, sinh_c = math.sinh(a), math.sinh(b), math.sinh(c)
    half_A, half_B, half_C = math.sin(0.5 * t.A), math.sin(0.5 * t.B), math.sin(0.5 * t.C)
    return max(
        _ref_loc_vertex_residual(a, b, c, sinh_b, sinh_c, half_A),
        _ref_loc_vertex_residual(b, c, a, sinh_c, sinh_a, half_B),
        _ref_loc_vertex_residual(c, a, b, sinh_a, sinh_b, half_C),
    )


def _ref_ratio_spread(ra, rb, rc):
    hi = max(ra, rb, rc)
    lo = min(ra, rb, rc)
    return (hi - lo) / hi


def _ref_law_of_sines_residual(t):
    return _ref_ratio_spread(
        math.sinh(t.a) / math.sin(t.A), math.sinh(t.b) / math.sin(t.B),
        math.sinh(t.c) / math.sin(t.C),
    )


def _ref_check_ordering(a, b, c, A, B, C):
    for x, y, X, Y in ((a, b, A, B), (b, c, B, C), (c, a, C, A)):
        # ties inside the atol band are fine; only strictly opposed orderings fail
        if band_cmp(x, y, _ATOL_EQUAL) * band_cmp(X, Y, _ATOL_EQUAL) < 0:
            raise InvalidTriangle(
                "side/angle ordering violated: larger angle must face larger side"
            )


def _ref_check_solved(a, b, c, A, B, C, t):
    tri = stand_in(a, b, c, A, B, C)
    spread = _ref_law_of_sines_residual(tri)
    if spread > t.rtol_identity:
        raise InvalidTriangle(f"law of sines residual {spread!r} exceeds {t.rtol_identity}")
    loc = _ref_law_of_cosines_residual(tri)
    if loc > t.rtol_identity:
        raise InvalidTriangle(f"law of cosines residual {loc!r} exceeds {t.rtol_identity}")
    _ref_check_ordering(a, b, c, A, B, C)


def _mismatches(fn, ref, grid):
    """Inputs of ``grid`` on which ``fn`` and ``ref`` differ, and the outcomes
    of ``fn`` seen over the grid."""
    seen = set()
    bad = []
    for args in grid:
        got = outcome(fn, *args)
        if got != outcome(ref, *args):
            bad.append(args)
        seen.add(got[0] if isinstance(got, tuple) else "ok")
    return bad, seen


@pytest.mark.parametrize("tol", [DEFAULT_TOL, SCAN_TOL])
def test_check_angles_matches_loop_form(tol):
    grid = [(*abc, tol) for abc in product(special_floats(), repeat=3)]
    bad, seen = _mismatches(_check_angles, _ref_check_angles, grid)
    assert not bad, bad[:5]
    assert seen == {"ok", InvalidTriangle}


# each side in turn the long one: the float sum of the other two ties it,
# but the exact sum exceeds it by 2**-53 (first triple) or equals it (second)
NEAR_TIES = [
    *permutations((1.0, 0.5, 0.5 + 2**-53)),
    *permutations((1.0, 0.5, 0.5)),
]


@pytest.mark.parametrize("tol", [DEFAULT_TOL, SCAN_TOL, ORACLE_TOL])
def test_check_sides_matches_loop_form(tol):
    # the side rule reads no field of tol: TriangleSides decides every triple
    # alike under each ToleranceConfig in use. The cap keeps every side that
    # reaches the loop form's fsum at most 50, so fsum never overflows and
    # the float-sum accept agrees with it everywhere
    def rule(a, b, c):
        TriangleSides(a, b, c, tol=tol)

    grid = [*product(special_floats(), repeat=3), *NEAR_TIES]
    bad, seen = _mismatches(rule, _ref_check_sides, grid)
    assert not bad, bad[:5]
    assert seen == {"ok", InvalidTriangle, DomainCap}
    for abc in NEAR_TIES:
        x, y, z = sorted(abc)
        assert x + y == z  # the float sum ties the long side
        expected = None if x != y else (
            InvalidTriangle,
            f"triangle inequality violated: side {'abc'[abc.index(1.0)]} is not "
            f"shorter than the other two combined",
        )
        assert outcome(_check_sides, *abc) == expected


def residual_grid():
    """Stand-ins over the special floats: the sides with right angles (sin = 1,
    so the sine-law ratios are the sinh of the sides), then the angles with sides
    of 0.5 (so each vertex's residual depends on its angle alone)."""
    values = special_floats()
    right = 0.5 * math.pi
    grid = [(stand_in(*abc, right, right, right),) for abc in product(values, repeat=3)]
    grid += [(stand_in(0.5, 0.5, 0.5, *ABC),) for ABC in product(values, repeat=3)]
    return grid


def test_law_of_sines_residual_matches_max_min():
    # every slot of max and min sees nan, ties and each ordering; sinh
    # overflows, sin of an infinity and division by a zero sine raise
    bad, seen = _mismatches(law_of_sines_residual, _ref_law_of_sines_residual, residual_grid())
    assert not bad, bad[:5]
    assert seen == {"ok", OverflowError, ValueError, ZeroDivisionError}


def test_law_of_cosines_residual_matches_max():
    # each vertex's residual is 0, nan or its own value in every slot of the
    # max; cosh and sinh overflow in vertex order, and sin of an infinity raises
    bad, seen = _mismatches(
        law_of_cosines_residual, _ref_law_of_cosines_residual, residual_grid()
    )
    assert not bad, bad[:5]
    assert seen == {"ok", OverflowError, ValueError}


def test_law_of_cosines_residual_matches_max_at_one_vertex():
    # vertex A's lhs = cosh(a) against rhs = cosh(b - c) + 2 sinh b sinh c
    # sin^2(A/2): max(lhs, rhs) sees nan on either side, ties and each ordering
    values = special_floats()
    grid = [(stand_in(a, b, 0.5, A, 1.0, 1.0),) for a, b, A in product(values, repeat=3)]
    bad, seen = _mismatches(law_of_cosines_residual, _ref_law_of_cosines_residual, grid)
    assert not bad, bad[:5]
    assert seen == {"ok", OverflowError, ValueError}


def test_check_ordering_matches_band_cmp():
    values = special_floats() + (0.5 + 0.5 * _ATOL_EQUAL, 0.5 + 2.0 * _ATOL_EQUAL)
    grid = []
    for i, (x, y, X, Y) in enumerate(product(values, repeat=4)):
        # the pair under test takes each of the three (side, angle) slots in turn
        k = i % 3
        sides = [0.5, 0.5, 0.5]
        angles = [0.5, 0.5, 0.5]
        sides[k], sides[k - 2], angles[k], angles[k - 2] = x, y, X, Y
        grid.append((*sides, *angles))
    bad, seen = _mismatches(_check_ordering, _ref_check_ordering, grid)
    assert not bad, bad[:5]
    assert seen == {"ok", InvalidTriangle}


def test_triangle_matches_loop_form_on_solved_triangles():
    # real sines: the sine and cosine checks pass or trip on their own
    def build(sides, angles, t):
        Triangle(sides, angles, t)

    seen = set()
    for tri in seeded_triangles(200, seed=5):
        for t in (SCAN_TOL, ToleranceConfig(rtol_identity=1e-16)):
            got = outcome(build, tri.sides, tri.angles, t)
            args = (*tri.sides.as_tuple(), *tri.angles.as_tuple(), t)
            assert got == outcome(_ref_check_solved, *args)
            seen.add(got if got is None else got[1].split(" residual ")[0])
    assert seen == {None, "law of sines", "law of cosines"}


def test_residuals_match_max_forms_on_solved_triangles(triangle_ensemble):
    def bits(x):
        return struct.pack("<d", x)

    for tri in triangle_ensemble:
        assert bits(law_of_sines_residual(tri)) == bits(_ref_law_of_sines_residual(tri))
        assert bits(law_of_cosines_residual(tri)) == bits(_ref_law_of_cosines_residual(tri))
