"""Triangle trigonometry on the hyperbolic plane (curvature -1).

Domain types validate eagerly: a constructed ``Triangle`` always satisfies
the law of sines, the law of cosines at every vertex, and angle/side
ordering. There is no partially-solved triangle value anywhere.

All angles are radians, all lengths are in curvature -1 units.
"""

import math
import sys

from . import _public_names

__all__ = _public_names(__name__)


class HypTriError(Exception):
    """Base class for every domain or numerical failure in this package."""


class InvalidTriangle(HypTriError):
    """Input does not determine a valid hyperbolic triangle."""


class DomainCap(HypTriError):
    """A length exceeds the supported range (side cap, or tanh saturation)."""


class NumericalFailure(HypTriError):
    """A computed quantity left its mathematically guaranteed range."""


class InvalidPoint(HypTriError):
    """Point not strictly inside the unit disk."""


class InvalidInput(HypTriError):
    """Degenerate input (coincident points and the like)."""


class NoBracket(HypTriError):
    """Root search interval does not bracket a sign change."""


class NonConvergence(HypTriError):
    """Root refinement exceeded its iteration budget."""


_set = object.__setattr__  # stores a field past the frozen __setattr__


class _Frozen:
    """Base of the value types below and of the record types of ``cevian``
    and ``diskmodel``, whose fields are their ``__slots__``.

    It gives them what a frozen ``@dataclass`` with slots would:
    ``repr``, ``==`` (same class only) and ``hash`` over the fields in
    order, ``AttributeError`` on assignment and deletion with the dataclass
    messages, and pickling and copying that restore the fields without
    validating them again. A state is the tuple of the fields, or the
    ``__dict__`` of a pickle written when the type was a dataclass; a tuple
    of another length, or a dict whose keys are not exactly the fields,
    raises ``ValueError``. Importing ``dataclasses`` (with the ``inspect``
    it pulls in) instead would be about a third of the CLI's import time.
    """

    __slots__ = ()

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._astuple() == other._astuple()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __getstate__(self) -> tuple:
        return self._astuple()

    def __setstate__(self, state: tuple | dict) -> None:
        if isinstance(state, dict):
            if state.keys() != set(self.__slots__):
                raise ValueError(
                    f"state fields {list(state)} are not those of "
                    f"{self.__class__.__qualname__}: {list(self.__slots__)}"
                )
            state = [state[name] for name in self.__slots__]
        for name, value in zip(self.__slots__, state, strict=True):
            _set(self, name, value)


class ToleranceConfig(_Frozen):
    """Numerical policy: the identity tolerance and the angle-sum margin.

    rtol_identity  relative tolerance for identity residuals
    eps_angle      required margin of the angle sum below pi

    The side cap (50) and the tie band of the side/angle ordering check
    (1e-12) are fixed rules of the domain, not settings.
    """

    __slots__ = __match_args__ = ("rtol_identity", "eps_angle")
    rtol_identity: float
    eps_angle: float

    def __init__(self, rtol_identity: float = 1e-10, eps_angle: float = 1e-9) -> None:
        _set(self, "rtol_identity", rtol_identity)
        _set(self, "eps_angle", eps_angle)
        for name in self.__slots__:
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if self.rtol_identity > 1e-8:
            raise ValueError("rtol_identity must be <= 1e-8")


DEFAULT_TOL = ToleranceConfig()
_MAX_SIDE = 50.0  # side cap; larger inputs are rejected outright
_ATOL_EQUAL = 1e-12  # absolute tie band of the side/angle ordering check
_SINE_UNDERFLOW = "angles too small for float sides: a product of two sines underflows to 0"
_SINH_UNDERFLOW = (
    "sides too small for float angles: a product of two sinh values "
    "is below the smallest normal float"
)
_MIN_NORMAL = sys.float_info.min  # 2.2250738585072014e-308


def _check_angle(name: str, value: float) -> None:
    """The range rule of one angle: 0 < value < pi, which nan and +-inf fail."""
    if not 0.0 < value < math.pi:
        raise InvalidTriangle(f"angle {name} must lie in (0, pi), got {value!r}")


def _check_side(name: str, value: float) -> None:
    """The range rule of one side: 0 < value <= the cap. +inf (an overflowed
    side) is over the cap; nan and non-positive values are invalid."""
    if value > _MAX_SIDE:
        raise DomainCap(f"side {name} = {value!r} exceeds the cap {_MAX_SIDE}")
    if not value > 0.0:
        raise InvalidTriangle(f"side {name} must be finite and positive, got {value!r}")


def _check_angles(A: float, B: float, C: float, t: ToleranceConfig) -> None:
    """Range and angle-sum checks of an angle triple."""
    _check_angle("A", A)
    _check_angle("B", B)
    _check_angle("C", C)
    # fsum keeps the defect exact under relabeling of the angles
    gap = math.pi - math.fsum((A, B, C))
    if gap <= t.eps_angle:
        raise InvalidTriangle(
            f"angle sum must stay below pi by at least {t.eps_angle} (defect {gap!r})"
        )


def _check_sides(a: float, b: float, c: float) -> None:
    """Positivity, side-cap and strict triangle-inequality checks of a side triple."""
    _check_side("a", a)
    _check_side("b", b)
    _check_side("c", c)
    # fsum decides the strict inequality exactly, near ties included
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


def _check_ordering(a: float, b: float, c: float, A: float, B: float, C: float) -> None:
    """Side/angle ordering: a side pair and its angle pair that are both
    outside the atol band and ordered oppositely fail; ties inside the band
    are fine. "not ... <= atol" reads nan as outside the band, as the
    band_cmp oracle of tests/test_core.py does."""
    atol = _ATOL_EQUAL
    if (
        (not abs(a - b) <= atol and not abs(A - B) <= atol and (a < b) != (A < B))
        or (not abs(b - c) <= atol and not abs(B - C) <= atol and (b < c) != (B < C))
        or (not abs(c - a) <= atol and not abs(C - A) <= atol and (c < a) != (C < A))
    ):
        raise InvalidTriangle(
            "side/angle ordering violated: larger angle must face larger side"
        )


class TriangleAngles(_Frozen):
    """Interior angles of a hyperbolic triangle; validates positivity and angle sum."""

    __slots__ = __match_args__ = ("A", "B", "C")
    A: float
    B: float
    C: float

    def __init__(self, A: float, B: float, C: float, tol: ToleranceConfig = DEFAULT_TOL) -> None:
        _check_angles(A, B, C, tol)
        _set(self, "A", A)
        _set(self, "B", B)
        _set(self, "C", C)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.A, self.B, self.C)


class TriangleSides(_Frozen):
    """Side lengths opposite A, B, C; validates positivity, the strict
    triangle inequality, and the side cap. None of these rules reads ``tol``;
    the parameter stays so that the three triangle types are built alike."""

    __slots__ = __match_args__ = ("a", "b", "c")
    a: float
    b: float
    c: float

    def __init__(self, a: float, b: float, c: float, tol: ToleranceConfig = DEFAULT_TOL) -> None:
        _check_sides(a, b, c)
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.a, self.b, self.c)


class Triangle(_Frozen):
    """A fully solved triangle: sides and angles, mutually consistent."""

    __slots__ = __match_args__ = ("sides", "angles")
    sides: TriangleSides
    angles: TriangleAngles

    def __init__(
        self, sides: TriangleSides, angles: TriangleAngles, tol: ToleranceConfig = DEFAULT_TOL
    ) -> None:
        _set(self, "sides", sides)
        _set(self, "angles", angles)
        spread = law_of_sines_residual(self)
        if spread > tol.rtol_identity:
            raise InvalidTriangle(f"law of sines residual {spread!r} exceeds {tol.rtol_identity}")
        loc = law_of_cosines_residual(self)
        if loc > tol.rtol_identity:
            raise InvalidTriangle(f"law of cosines residual {loc!r} exceeds {tol.rtol_identity}")
        _check_ordering(*sides.as_tuple(), *angles.as_tuple())

    @property
    def a(self) -> float:
        return self.sides.a

    @property
    def b(self) -> float:
        return self.sides.b

    @property
    def c(self) -> float:
        return self.sides.c

    @property
    def A(self) -> float:
        return self.angles.A

    @property
    def B(self) -> float:
        return self.angles.B

    @property
    def C(self) -> float:
        return self.angles.C


def defect(angles: TriangleAngles) -> float:
    """Angle defect pi - (A + B + C); above ``eps_angle`` for valid triangles."""
    return math.pi - math.fsum((angles.A, angles.B, angles.C))


def law_of_sines_residual(t: Triangle) -> float:
    """Residual of sinh a / sin A = sinh b / sin B = sinh c / sin C: the largest
    pairwise relative difference of the three ratios; 0 means exact."""
    ra = math.sinh(t.a) / math.sin(t.A)
    rb = math.sinh(t.b) / math.sin(t.B)
    rc = math.sinh(t.c) / math.sin(t.C)
    hi = max(ra, rb, rc)
    return (hi - min(ra, rb, rc)) / hi


def law_of_cosines_residual(t: Triangle) -> float:
    """Max over the three vertices of the law-of-cosines relative residual.

    cosh(opp) = cosh(adj1)cosh(adj2) - sinh(adj1)sinh(adj2)cos(angle) is
    evaluated in the cancellation-free split
    cosh(adj1 - adj2) + 2 sinh(adj1)sinh(adj2)sin^2(angle/2).
    """
    a, b, c = t.a, t.b, t.c
    sinh_a, sinh_b, sinh_c = math.sinh(a), math.sinh(b), math.sinh(c)
    half_A, half_B, half_C = math.sin(0.5 * t.A), math.sin(0.5 * t.B), math.sin(0.5 * t.C)
    residuals = []
    for opp, adj1, adj2, sinh_adj1, sinh_adj2, half in (
        (a, b, c, sinh_b, sinh_c, half_A),
        (b, c, a, sinh_c, sinh_a, half_B),
        (c, a, b, sinh_a, sinh_b, half_C),
    ):
        rhs = math.cosh(adj1 - adj2) + 2.0 * sinh_adj1 * sinh_adj2 * half * half
        lhs = math.cosh(opp)
        residuals.append(abs(lhs - rhs) / max(lhs, rhs))
    return max(residuals)


def _sides_from_angles(A: float, B: float, C: float) -> tuple[float, float, float]:
    """AAA side solve, assuming a validated angle triple.

    The dual law of cosines cosh a = (cos A + cos B cos C)/(sin B sin C) is
    evaluated as cosh a - 1 = 2 sin(d/2) sin(A + d/2)/(sin B sin C) with
    d the defect, which stays positive and cancellation-free even when the
    defect is tiny or the angles are near the simplex corners. Angles so
    small that two of their sines multiply to 0 raise ``DomainCap``.
    """
    half_defect = 0.5 * (math.pi - math.fsum((A, B, C)))
    sin_A, sin_B, sin_C = math.sin(A), math.sin(B), math.sin(C)
    sd = math.sin(half_defect)
    try:
        a = 2.0 * math.asinh(math.sqrt(sd * math.sin(A + half_defect) / (sin_B * sin_C)))
        b = 2.0 * math.asinh(math.sqrt(sd * math.sin(B + half_defect) / (sin_C * sin_A)))
        c = 2.0 * math.asinh(math.sqrt(sd * math.sin(C + half_defect) / (sin_A * sin_B)))
    except ZeroDivisionError:
        raise DomainCap(_SINE_UNDERFLOW) from None
    return a, b, c


def _angles_from_sides(a: float, b: float, c: float) -> tuple[float, float, float]:
    """SSS angle solve via the hyperbolic half-angle form.

    sin^2(A/2) = sinh(s-b) sinh(s-c) / (sinh b sinh c) and
    cos^2(A/2) = sinh(s) sinh(s-a) / (sinh b sinh c), s the semiperimeter;
    atan2 of the square roots avoids acos conditioning near 0 and pi.
    Sides so small that two of sa, sb, sc multiply to less than the smallest
    normal float raise ``DomainCap``: a subnormal product has lost most of
    its bits. ss exceeds each of them, so ss * s? is normal when their
    products are.
    """
    s = 0.5 * math.fsum((a, b, c))
    ma = 0.5 * math.fsum((b, c, -a))
    mb = 0.5 * math.fsum((c, a, -b))
    mc = 0.5 * math.fsum((a, b, -c))
    ss = math.sinh(s)
    sa = math.sinh(ma)
    sb = math.sinh(mb)
    sc = math.sinh(mc)
    if not (sb * sc >= _MIN_NORMAL and sc * sa >= _MIN_NORMAL and sa * sb >= _MIN_NORMAL):
        raise DomainCap(_SINH_UNDERFLOW)
    A = 2.0 * math.atan2(math.sqrt(sb * sc), math.sqrt(ss * sa))
    B = 2.0 * math.atan2(math.sqrt(sc * sa), math.sqrt(ss * sb))
    C = 2.0 * math.atan2(math.sqrt(sa * sb), math.sqrt(ss * sc))
    return A, B, C


def solve_from_angles(angles: TriangleAngles, tol: ToleranceConfig = DEFAULT_TOL) -> Triangle:
    """AAA case: in hyperbolic geometry the three angles determine the triangle."""
    A, B, C = angles.as_tuple()
    a, b, c = _sides_from_angles(A, B, C)
    return Triangle(TriangleSides(a, b, c, tol=tol), angles, tol=tol)


def solve_from_sss(sides: TriangleSides, tol: ToleranceConfig = DEFAULT_TOL) -> Triangle:
    """SSS case via the hyperbolic law of cosines."""
    A, B, C = _angles_from_sides(sides.a, sides.b, sides.c)
    return Triangle(sides, TriangleAngles(A, B, C, tol=tol), tol=tol)


def _cevian_length(
    adjacent: float, segment: float, sinh_adjacent: float, sinh_segment: float, half_apex: float
) -> float:
    """Law of cosines cosh t = cosh(adjacent)cosh(segment) -
    sinh(adjacent)sinh(segment)cos(apex), evaluated as
    sinh^2(t/2) = sinh^2((adjacent-segment)/2) + sinh(adjacent)sinh(segment)sin^2(apex/2)
    so slivers with a tiny cevian keep full precision; half_apex is
    sin(apex/2). With adjacent = b, segment = c and apex = A it is the SAS
    third side a."""
    h = math.sinh(0.5 * (adjacent - segment))
    return 2.0 * math.asinh(
        math.sqrt(h * h + sinh_adjacent * sinh_segment * half_apex * half_apex)
    )


def solve_from_sas(b: float, A: float, c: float, tol: ToleranceConfig = DEFAULT_TOL) -> Triangle:
    """SAS case: two sides and the included angle."""
    _check_side("b", b)
    _check_side("c", c)
    _check_angle("A", A)
    a = _cevian_length(b, c, math.sinh(b), math.sinh(c), math.sin(0.5 * A))
    if a == 0.0:
        raise DomainCap(_SINH_UNDERFLOW)
    return solve_from_sss(TriangleSides(a, b, c, tol=tol), tol=tol)


def solve_from_asa(A: float, c: float, B: float, tol: ToleranceConfig = DEFAULT_TOL) -> Triangle:
    """ASA case: the dual law of cosines gives the third angle, then AAA."""
    _check_angle("A", A)
    _check_angle("B", B)
    if A + B >= math.pi:
        raise InvalidTriangle(f"angles A + B = {A + B!r} must stay below pi")
    _check_side("c", c)
    cos_C = math.sin(A) * math.sin(B) * math.cosh(c) - math.cos(A) * math.cos(B)
    if cos_C >= 1.0:
        raise InvalidTriangle(
            "the rays at the given angles do not meet (computed third angle <= 0)"
        )
    C = math.acos(cos_C)
    return solve_from_angles(TriangleAngles(A, B, C, tol=tol), tol=tol)
