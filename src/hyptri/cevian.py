"""Internal angle-bisector geometry.

The bisector from B meets side AC (length b) at a foot splitting it into
u (next to A) and U (next to C) with sinh u / sinh U = sinh c / sinh a;
mirror-symmetrically the bisector from C splits side AB into v and V.
tB and tC are the bisector lengths BB' and CC'.

The foot position and the cevian length are computed in closed form, each
foot segment as one log1p of a ratio of positive terms, free of
cancellation on short sides (``_adjacent_split``); the four sub-triangle
sine-law identities are kept as residual checks so they stay independent
evidence rather than part of the computation path.
``bisector_lengths`` runs the whole bisector stage (feet, lengths and
checks), and it alone writes the stage's rejections. The equality kernel
``_gap_in_C`` in ``steiner_lehmus`` calls its kernels for the feet u, v and
the lengths tB, tC. Two pinned inline copies there run them without calling
them: the fused scan ``_evidence`` copies the whole stage, and replays a
triangle through ``bisector_lengths`` where one of its inline tests fails,
and the equality sweep ``_count_sign_changes`` copies the shared kernels up
to the arguments of the lengths' asinh, from which it reads the sign of
tB - tC.
"""

import math

from . import _public_names
from .core import (
    DEFAULT_TOL,
    NumericalFailure,
    ToleranceConfig,
    Triangle,
    _cevian_length,
    _Frozen,
    _set,
)

__all__ = _public_names(__name__)


class BisectorData(_Frozen):
    """Half-angles, foot segments, and lengths of both internal bisectors.

    beta = B/2, gamma = C/2; u + U = b and v + V = c; tB = BB', tC = CC'.
    """

    __slots__ = __match_args__ = ("beta", "gamma", "u", "U", "v", "V", "tB", "tC")
    beta: float
    gamma: float
    u: float
    U: float
    v: float
    V: float
    tB: float
    tC: float

    def __init__(
        self, beta: float, gamma: float, u: float, U: float, v: float, V: float,
        tB: float, tC: float,
    ) -> None:
        _set(self, "beta", beta)
        _set(self, "gamma", gamma)
        _set(self, "u", u)
        _set(self, "U", U)
        _set(self, "v", v)
        _set(self, "V", V)
        _set(self, "tB", tB)
        _set(self, "tC", tC)


class CevianResiduals(_Frozen):
    """Relative residuals of the four sub-triangle sine laws.

    res_u: sinh tB / sin A = sinh u / sin beta   (triangle ABB')
    res_U: sinh tB / sin C = sinh U / sin beta   (triangle CBB')
    res_v: sinh tC / sin A = sinh v / sin gamma  (triangle ACC')
    res_V: sinh tC / sin B = sinh V / sin gamma  (triangle BCC')
    """

    __slots__ = __match_args__ = ("res_u", "res_U", "res_v", "res_V")
    res_u: float
    res_U: float
    res_v: float
    res_V: float

    def __init__(self, res_u: float, res_U: float, res_v: float, res_V: float) -> None:
        _set(self, "res_u", res_u)
        _set(self, "res_U", res_U)
        _set(self, "res_v", res_v)
        _set(self, "res_V", res_V)

    def max(self) -> float:
        return max(self.res_u, self.res_U, self.res_v, self.res_V)


class RatioResiduals(_Frozen):
    """Residuals of sinh U/sinh u = sin A/sin C and sinh V/sinh v = sin A/sin B."""

    __slots__ = __match_args__ = ("idU", "idV")
    idU: float
    idV: float

    def __init__(self, idU: float, idV: float) -> None:
        _set(self, "idU", idU)
        _set(self, "idV", idV)


def _adjacent_split(side: float, sinh_side: float, k: float) -> float:
    """Segment of ``side`` next to the shared vertex when the foot divides it
    with sinh(near)/sinh(far) = k; ``sinh_side`` is sinh(side).

    Solves tanh x = y = k sinh(side) / (1 + k cosh(side)) as
    x = atanh y = log1p(2y / (1 - y)) / 2, and
    (1 + y)/(1 - y) = (1 + k e^side)/(1 + k e^-side) makes that
    x = log1p(2k sinh(side) / (1 + k e^-side)) / 2: one log1p of a ratio of
    positive terms, with no cancellation on short sides and no saturation
    of tanh on long ones.
    """
    return 0.5 * math.log1p(2.0 * k * sinh_side / (1.0 + k * math.exp(-side)))


def _rel(x: float, y: float) -> float:
    """Relative difference of two same-signed quantities."""
    return abs(x - y) / max(abs(x), abs(y))


def _check_feet(
    b: float, c: float, u: float, U: float, v: float, V: float, tB: float, tC: float,
    t: ToleranceConfig,
) -> None:
    """Positivity of every bisector quantity, then u + U = b and v + V = c."""
    for name, value in (("u", u), ("U", U), ("v", v), ("V", V), ("tB", tB), ("tC", tC)):
        if not 0.0 < value < math.inf:  # false for nan and +-inf
            raise NumericalFailure(f"bisector quantity {name} = {value!r} must be positive")
    if abs(u + U - b) > t.rtol_identity * b:
        raise NumericalFailure(f"foot segments do not sum to the side: u + U - b = {u + U - b!r}")
    if abs(v + V - c) > t.rtol_identity * c:
        raise NumericalFailure(f"foot segments do not sum to the side: v + V - c = {v + V - c!r}")


def subtriangle_residuals(t: Triangle, d: BisectorData) -> CevianResiduals:
    """Relative residuals of the four sine laws in the bisector sub-triangles."""
    sin_A = math.sin(t.A)
    sin_B = math.sin(t.B)
    sin_C = math.sin(t.C)
    sin_beta = math.sin(d.beta)
    sin_gamma = math.sin(d.gamma)
    sinh_u = math.sinh(d.u)
    sinh_U = math.sinh(d.U)
    sinh_v = math.sinh(d.v)
    sinh_V = math.sinh(d.V)
    sinh_tB = math.sinh(d.tB)
    sinh_tC = math.sinh(d.tC)
    return CevianResiduals(
        res_u=_rel(sinh_tB / sin_A, sinh_u / sin_beta),
        res_U=_rel(sinh_tB / sin_C, sinh_U / sin_beta),
        res_v=_rel(sinh_tC / sin_A, sinh_v / sin_gamma),
        res_V=_rel(sinh_tC / sin_B, sinh_V / sin_gamma),
    )


def unconditional_identities(d: BisectorData, t: Triangle) -> RatioResiduals:
    """Residuals of the two foot-ratio identities that hold for every triangle:
    sinh U / sinh u = sin A / sin C and sinh V / sinh v = sin A / sin B."""
    sin_A = math.sin(t.A)
    return RatioResiduals(
        idU=_rel(math.sinh(d.U) / math.sinh(d.u), sin_A / math.sin(t.C)),
        idV=_rel(math.sinh(d.V) / math.sinh(d.v), sin_A / math.sin(t.B)),
    )


def bisector_lengths(t: Triangle, tol: ToleranceConfig = DEFAULT_TOL) -> BisectorData:
    """Both bisectors of ``t``: feet in closed form, lengths by the law of
    cosines in the A-side sub-triangles; validates every identity before
    returning: positivity and the foot sums, then the sub-triangle sine laws."""
    sinh = math.sinh
    b = t.b
    c = t.c
    sinh_a = sinh(t.a)
    sinh_b = sinh(b)
    sinh_c = sinh(c)
    half_A = math.sin(0.5 * t.A)
    u = _adjacent_split(b, sinh_b, sinh_c / sinh_a)
    U = _adjacent_split(b, sinh_b, sinh_a / sinh_c)
    v = _adjacent_split(c, sinh_c, sinh_b / sinh_a)
    V = _adjacent_split(c, sinh_c, sinh_a / sinh_b)
    tB = _cevian_length(c, u, sinh_c, sinh(u), half_A)
    tC = _cevian_length(b, v, sinh_b, sinh(v), half_A)
    _check_feet(b, c, u, U, v, V, tB, tC, tol)
    d = BisectorData(beta=0.5 * t.B, gamma=0.5 * t.C, u=u, U=U, v=v, V=V, tB=tB, tC=tC)
    worst = subtriangle_residuals(t, d).max()
    if worst > tol.rtol_identity:
        raise NumericalFailure(
            f"sub-triangle sine-law residual {worst!r} exceeds {tol.rtol_identity}"
        )
    return d
